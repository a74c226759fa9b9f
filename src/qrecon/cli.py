"""Command-line harness: seeded verification suites and the benchmark.

Subcommands map to experiment kinds.  A config is checked field by field
against `FIELDS` before any work runs; then the kind's criteria
(qrecon.criteria) run, each check prints `[PASS|FAIL] <id>: value=<value>
tolerance=<tolerance>`, and the run writes report.json and report.csv (bench
also bench.csv) under --out.  Exit codes: 0 every check passed, 1 a check
failed or the run made no check (the seed is printed for exact replay),
2 malformed configuration or usage, 3 an internal error (with its traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

from . import bench as bench_mod
from . import criteria
from .bloch import BlochPoint
from .exceptions import ConfigError, DomainError

CONFIG_VERSION = 1

# numpy's binomial takes counts up to 2**63 - 1
MAX_TRIALS = 2**63 - 1
# keeps each replica index one uint32 spawn-key word and the arrays of
# replica keys (16 bytes a replica) small
MAX_REPLICAS = 10**6
# metric-check draws each sample and chart point in Python: at the default
# levels a run at either cap takes minutes, not forever
MAX_SAMPLES = 10**6
# bench times each size this many times over
MAX_REPEATS = 10**3


def _is_number(value) -> bool:
    # bool is an int subclass: `true` is not a number here
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _integer(low: int, high: int | None = None):
    def check(name, value, cfg):
        if type(value) is not int:
            raise ConfigError(f"{name} must be an integer")
        if value < low:
            raise ConfigError(f"{name} must be at least {low}")
        if high is not None and value > high:
            raise ConfigError(f"{name} must be at most {high}")
    return check


def _positive(name, value, cfg):
    if not (_is_number(value) and value > 0):
        raise ConfigError(f"{name} must be a positive number")


def _state(name, value, cfg):
    kinds = tuple(criteria.OBSERVABLES)  # `in` a dict would hash an unhashable kind
    if type(value) is not dict or value.get("kind") not in kinds:
        raise ConfigError(f"{name} must be an object with kind 'rebit' or 'qubit'")
    if value["kind"] == "rebit":
        if not _is_number(value.get("theta_q")):
            raise ConfigError(f"{name}.theta_q must be a number")
        return
    bloch = value.get("bloch")
    if not (type(bloch) is list and len(bloch) == 3 and all(map(_is_number, bloch))):
        raise ConfigError(f"{name}.bloch must be a list of 3 numbers")
    try:
        BlochPoint(*bloch)
    except DomainError as exc:
        raise ConfigError(f"{name}.bloch: {exc}") from exc
    except OverflowError as exc:  # a component's square overflows a float
        raise ConfigError(f"{name}.bloch: off-sphere point") from exc


def _trials(name, value, cfg):
    names = criteria.OBSERVABLES[cfg["state"]["kind"]]
    counts = value if type(value) is dict else dict.fromkeys(names, value)
    if not (counts and set(counts) <= set(names)
            and all(type(m) is int and 1 <= m <= MAX_TRIALS
                    for m in counts.values())):
        raise ConfigError(f"{name} must be an integer from 1 to {MAX_TRIALS}, or "
                          f"an object giving one to some of the observables "
                          f"{list(names)}")


def _sizes(name, value, cfg):
    # the dense product of a size is a size x size matrix
    if not (type(value) is list and value and all(
            type(s) is int and 2 <= s <= 1 << 12 and not s & (s - 1) for s in value)):
        raise ConfigError(f"{name} must be a non-empty list of powers of 2 "
                          "from 2 to 4096")


def _assert_at(name, value, cfg):
    _integer(1)(name, value, cfg)
    if value > max(cfg["sizes"]):
        raise ConfigError(f"{name} {value} is above every size")


# Every field of each kind: its default and the check of its type and range.
# A check takes (field, value, config) and raises ConfigError naming the
# field; fields are checked in this order, so a check may read the ones above.
FIELDS: dict[str, dict[str, tuple]] = {
    "tomography": {
        "seed": (20240801, _integer(0)),
        "state": ({"kind": "rebit", "theta_q": math.pi / 3}, _state),
        "trials": (100_000, _trials), "replicas": (12_000, _integer(2, MAX_REPLICAS)),
        "parity_tol": (0.05, _positive), "band_sigma": (5.0, _positive),
    },
    "metric-check": {
        "seed": (7, _integer(0)), "levels": (4, _integer(1, 20)),
        "samples": (10_000, _integer(1, MAX_SAMPLES)),
        "tol_fs": (1e-10, _positive), "tol_recursive": (1e-9, _positive),
        "chart_points": (1_000, _integer(1, MAX_SAMPLES)),
        "tol_chart": (1e-9, _positive),
    },
    "fft-derive": {
        "seed": (0, _integer(0)),
        "levels": (3, _integer(1, 12)),  # the dense comparison stops at 2^12
        "tol": (1e-12, _positive),
    },
    "partition-audit": {"seed": (0, _integer(0)), "width": (3, _integer(1, 4))},
    "bench": {
        "seed": (0, _integer(0)), "sizes": ([256, 1024, 4096], _sizes),
        "repeats": (7, _integer(1, MAX_REPEATS)), "min_speedup": (10.0, _positive),
        "assert_at": (4096, _assert_at),
    },
}

DEFAULTS = {kind: {name: default for name, (default, _) in fields.items()}
            for kind, fields in FIELDS.items()}


def validate(kind: str, fields: dict) -> dict:
    """The defaults of `kind` overlaid with `fields`, every field checked."""
    unknown = set(fields) - set(DEFAULTS[kind])
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = {**DEFAULTS[kind], **fields}
    for name, (_, check) in FIELDS[kind].items():
        check(name, cfg[name], cfg)
    return cfg


def load_config(kind: str, path: str | None, seed_override: int | None) -> dict:
    fields = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # also bad UTF-8 and bad JSON
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if doc.get("version") != CONFIG_VERSION:
            raise ConfigError(f"config version must be {CONFIG_VERSION}")
        if doc.get("kind", kind) != kind:
            raise ConfigError(f"config kind {doc.get('kind')!r} does not match "
                              f"subcommand {kind!r}")
        fields = {k: v for k, v in doc.items() if k not in ("version", "kind")}
    if seed_override is not None:
        fields["seed"] = seed_override
    return validate(kind, fields)


def write_report(out_dir: Path, kind: str, cfg: dict, checks: list[criteria.Check],
                 rows: list[dict], elapsed: float) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "kind": kind,
        "config": cfg,
        "checks": [asdict(c) for c in checks],
        "rows": rows,
        # a run that made no check has shown nothing
        "passed": bool(checks) and all(c.passed for c in checks),
        "elapsed_s": elapsed,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2))
    with open(out_dir / "report.csv", "w", newline="") as fh:
        if kind == "tomography" and rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        else:
            writer = csv.writer(fh)
            writer.writerow(["id", "value", "tolerance", "passed"])
            for c in checks:
                writer.writerow([c.id, c.value, c.tolerance, c.passed])
    if kind == "bench":
        bench_mod.write_csv(rows, str(out_dir / "bench.csv"))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qrecon",
        description="verification suites and benchmarks for the reconstructed "
                    "quantum kinematics")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in DEFAULTS:
        p = sub.add_parser(kind)
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--json", action="store_true",
                       help="print the report JSON to stdout")
        p.add_argument("--csv", action="store_true",
                       help="print the check CSV to stdout")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.kind, args.config, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        t0 = time.perf_counter()
        checks, rows = criteria.run(args.kind, cfg)
        elapsed = time.perf_counter() - t0
        report = write_report(Path(args.out), args.kind, cfg, checks, rows, elapsed)
    except Exception:  # a fault of the program, not of the config
        traceback.print_exc()
        print(f"internal error (seed={cfg['seed']} replays this run)", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(report, indent=2))
    if args.csv:
        for c in checks:
            print(f"{c.id},{c.value},{c.tolerance},{c.passed}")
    for c in checks:
        print(c.line())
    if not report["passed"]:
        print(f"FAILED (seed={cfg['seed']} replays this run)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
