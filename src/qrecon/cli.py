"""Command-line harness: seeded verification suites and the benchmark.

Subcommands map to experiment kinds.  A config is checked field by field
against `FIELDS` and the --out directory is made before any work runs; then
the kind's criteria (qrecon.criteria) run, each check prints
`[PASS|FAIL] <id>: value=<value> tolerance=<tolerance>`, and the run writes
report.json, report.csv (the checks) and rows.csv (the report rows, if any)
under --out.  Exit codes: 0 every check passed, 1 a check failed or the run
made no check (the seed is printed for exact replay), 2 malformed
configuration or usage, 3 an internal error (with its traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import criteria
from .bloch import BlochPoint
from .exceptions import ConfigError, DomainError

CONFIG_VERSION = 1

# above 2**60 numpy's binomial draws add variance: M * var(theta_hat) of q at
# pi/3 (5,000 replicas, seeds 1..20) reads 1.002 from 2**56 to 2**60, then
# 1.008 at 2**61, 1.051 at 2**62 and 1.132 at 2**63 - 1, where 1 is due
MAX_TRIALS = 2**60
# bounds a run's estimate arrays (24 bytes a replica at the peak) and its
# time: at 10**6 replicas a three-observable run draws 3 * 10**6 binomials
MAX_REPLICAS = 10**6
# the fewest replicas whose variance band has its lower edge above 0, so that
# too small a variance can fail it: 1 - sigma * sqrt(2 / (replicas - 1)) > 0
MIN_REPLICAS = math.floor(2 * criteria.BAND_SIGMA ** 2) + 2
# metric-check draws each sample and chart point in Python: at the default
# levels a run at the samples cap took 22 s with a 37 MB peak, and one at the
# chart_points cap 13 s with a 174 MB peak (2-core Xeon VM)
MAX_SAMPLES = 10**6
# metric-check samples x 2**levels, the amplitudes a run draws: a run at this
# many took 8 s at 20 levels (247 MB peak) and 22 s at 4 (2-core Xeon VM, one
# BLAS thread)
MAX_AMPLITUDES = 1 << 24
# bench times each size this many times over
MAX_REPEATS = 10**3
# the thread counts a BLAS build reads from the environment
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def _samples(name, value, cfg):
    _integer(1, MAX_SAMPLES)(name, value, cfg)
    levels = cfg["levels"]
    if value << levels > MAX_AMPLITUDES:
        raise ConfigError(f"{name} must be at most {MAX_AMPLITUDES >> levels} at "
                          f"{levels} levels ({MAX_AMPLITUDES} amplitudes in all)")


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
        "trials": (100_000, _trials),
        "replicas": (12_000, _integer(MIN_REPLICAS, MAX_REPLICAS)),
    },
    "metric-check": {
        "seed": (7, _integer(0)), "levels": (4, _integer(1, 20)),
        "samples": (10_000, _samples),
        "chart_points": (1_000, _integer(1, MAX_SAMPLES)),
    },
    "fft-derive": {
        "seed": (0, _integer(0)),
        # the streamed transform checks take O(N^2 log N) time: 4.0-4.5 s
        # at 12 levels, about four times more per added level (2-core Xeon VM)
        "levels": (3, _integer(1, 12)),
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
        except (OSError, ValueError, RecursionError) as exc:
            # also bad UTF-8, bad JSON and JSON nested past the recursion limit
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        version = doc.get("version")
        if type(version) is not int or version != CONFIG_VERSION:
            raise ConfigError(f"config version must be {CONFIG_VERSION}")
        if doc.get("kind", kind) != kind:
            raise ConfigError(f"config kind {doc.get('kind')!r} does not match "
                              f"subcommand {kind!r}")
        fields = {k: v for k, v in doc.items() if k not in ("version", "kind")}
    if seed_override is not None:
        fields["seed"] = seed_override
    return validate(kind, fields)


def _write_csv(path: Path, fields: list[str], records: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(records)


def environment(seed: int) -> dict:
    """What bit-for-bit replay of a seeded run rests on besides the config:
    the interpreter, numpy (its generator algorithms), the machine and the
    BLAS thread settings.  Only cheap reads, no subprocess."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def write_report(out_dir: Path, kind: str, cfg: dict, checks: list[criteria.Check],
                 rows: list[dict], elapsed: float,
                 criterion_elapsed: dict[str, float]) -> dict:
    report = {
        "kind": kind,
        "config": cfg,
        "checks": [asdict(c) for c in checks],
        "rows": rows,
        # a run that made no check has shown nothing
        "passed": bool(checks) and all(c.passed for c in checks),
        "elapsed_s": elapsed,
        # wall time of each criterion, keyed by its function's name
        "criterion_elapsed_s": criterion_elapsed,
        "env": environment(cfg["seed"]),
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2))
    _write_csv(out_dir / "report.csv", ["id", "value", "tolerance", "passed"],
               report["checks"])
    if rows:
        _write_csv(out_dir / "rows.csv", list(rows[0]), rows)
    else:
        (out_dir / "rows.csv").unlink(missing_ok=True)
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
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.kind, args.config, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission, ...
        print(f"cannot make the --out directory: {exc}", file=sys.stderr)
        return 2
    try:
        t0 = time.perf_counter()
        checks, rows, criterion_elapsed = criteria.run(args.kind, cfg)
        elapsed = time.perf_counter() - t0
        report = write_report(Path(args.out), args.kind, cfg, checks, rows, elapsed,
                              criterion_elapsed)
    except Exception:  # a fault of the program, not of the config
        traceback.print_exc()
        print(f"internal error (seed={cfg['seed']} replays this run)", file=sys.stderr)
        return 3
    for c in checks:
        print(c.line())
    if not report["passed"]:
        print(f"FAILED (seed={cfg['seed']} replays this run)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
