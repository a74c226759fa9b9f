"""Command-line harness: seeded verification suites and the benchmark.

Subcommands map to experiment kinds.  A config is checked field by field
against `FIELDS` and the --out directory is made before any work runs; then
the kind's criteria (qrecon.criteria) run, each check prints
`[PASS|FAIL] <id>: value=<value> tolerance=<tolerance>`, and the run writes
report.json, report.csv (the checks) and rows.csv (the report rows, if any)
under --out, each as a new file: an old output there is removed first, so a
hard link or symlink in its place is replaced, not written through.  Exit
codes: 0 every check passed, 1 a check failed or the run made no check (the
seed is printed for exact replay), 2 malformed configuration or usage, 3 an
internal error (with its traceback).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
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

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import butterfly, criteria
from .bloch import BlochPoint
from .exceptions import (ConfigError, DomainError, check_integer, check_name,
                         check_power_of_two, check_real)
from .partitions import ENUMERATION_WIDTH_CAP

CONFIG_VERSION = 1

# above 2**60 numpy's binomial draws add variance: M * var(theta_hat) of q at
# pi/3 (5,000 replicas, seeds 1..20) reads 1.002 from 2**56 to 2**60, then
# 1.008 at 2**61, 1.051 at 2**62 and 1.132 at 2**63 - 1, where 1 is due
MAX_TRIALS = 2**60
# bounds a run's estimate arrays (24 bytes a replica at the peak) and its
# time: at 10**6 replicas a three-observable run draws 3 * 10**6 binomials
MAX_REPLICAS = 10**6
# the fewest replicas whose variance-band tolerance, BAND_SIGMA times the chi^2
# spread sqrt(2 / (replicas - 1)), is below 1, so that too small a variance can
# fail the band: below 1 once replicas - 1 > 2 sigma^2
MIN_REPLICAS = math.floor(2 * criteria.BAND_SIGMA ** 2) + 2
# bounds metric-check's time: it draws and evaluates the samples a block at a
# time, so at the default levels a run at the samples cap (977 blocks) took
# 3.0-3.5 s of elapsed_s with a 39 MB process peak and 5,800 minor faults
# (HEAP_THRESHOLD), and one at the chart_points cap 0.89-1.0 s with a 166 MB
# peak (2-core Xeon VM, one BLAS thread, three runs each)
MAX_SAMPLES = 10**6
# metric-check samples x 2**levels, the amplitudes a run draws: a run at this
# many took 4.2-4.7 s at 20 levels (one state per block, 213 MB peak), on a
# host where the samples cap took the times above; at 4 levels the samples
# cap binds first (2-core Xeon VM, one BLAS thread)
MAX_AMPLITUDES = 1 << 24
# bench times each size this many times over
MAX_REPEATS = 10**3
# the thread counts a BLAS build reads from the environment
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc's trim and mmap thresholds in bytes, set once per process
# (_hold_heap).  By default glibc trims the free top of the heap after each
# metric-check block, so the next block faults its pages in again: at the
# samples cap 977 blocks took 724,000 minor faults and 4.0-4.9 s of
# elapsed_s, and 5,800 faults and 3.0-3.5 s with this threshold.  A trim
# threshold alone freezes glibc's dynamic mmap threshold, and fft-derive at
# 12 levels then took 140,000 faults against 7,400, so the mmap threshold
# takes the same size (2-core Xeon VM, glibc 2.36)
HEAP_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _integer(low: int, high: int | None = None):
    return lambda name, value, cfg: check_integer(name, value, low, high)


def _samples(name, value, cfg):
    check_integer(name, value, 1, MAX_SAMPLES)
    levels = cfg["levels"]
    if value << levels > MAX_AMPLITUDES:
        raise ConfigError(f"{name} must be at most {MAX_AMPLITUDES >> levels} at "
                          f"{levels} levels ({MAX_AMPLITUDES} amplitudes in all)")


def _state(name, value, cfg):
    if type(value) is not dict:
        raise ConfigError(f"{name} must be an object with kind 'rebit' or 'qubit'")
    check_name(f"{name}.kind", value.get("kind"), criteria.OBSERVABLES)
    if value["kind"] == "rebit":
        check_real(f"{name}.theta_q", value.get("theta_q"))
        return
    bloch = value.get("bloch")
    if not (type(bloch) is list and len(bloch) == 3):
        raise ConfigError(f"{name}.bloch must be a list of 3 numbers")
    try:
        BlochPoint(*bloch)
    except DomainError as exc:
        raise ConfigError(f"{name}.bloch: {exc}") from exc


def _trials(name, value, cfg):
    names = criteria.OBSERVABLES[cfg["state"]["kind"]]
    counts = value if type(value) is dict else dict.fromkeys(names, value)
    if not counts or not set(counts) <= set(names):
        raise ConfigError(f"{name} must be an integer from 1 to {MAX_TRIALS}, or "
                          f"an object giving one to some of the observables "
                          f"{list(names)}")
    for m in counts.values():
        check_integer(name, m, 1, MAX_TRIALS)


def _sizes(name, value, cfg):
    if type(value) is not list or not value:
        raise ConfigError(f"{name} must be a non-empty list of powers of 2 "
                          "from 2 to 4096")
    for size in value:
        # the dense product of a size is a size x size matrix
        check_power_of_two(name, size, 1, 12)
    # every run times the size its one check judges, once: a repeated size
    # would time it again and give two checks one id
    if criteria.SPEEDUP_SIZE not in value:
        raise ConfigError(f"{name} must include {criteria.SPEEDUP_SIZE}, the size "
                          "the speedup floor is checked at")
    if len(set(value)) != len(value):
        raise ConfigError(f"{name} must list each size once")


# Every field of each kind: its default and the check of its type and range.
# A check takes (field, value, config) and raises ConfigError, or the
# DomainError of a guard of qrecon.exceptions, naming the field; fields are
# checked in this order, so a check may read the ones above.
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
        # the streamed transform checks take O(N^2 log N) time: on a 2-core
        # Xeon VM, with the sweep on two workers, a run at 12 levels took
        # 1.05-1.19 s (elapsed_s; 1.2-1.35 s as a process) and one at 11
        # took 0.28-0.29 s, about four times less per level
        "levels": (3, _integer(1, 12)),
    },
    "partition-audit": {"seed": (0, _integer(0)),
                        "width": (3, _integer(1, ENUMERATION_WIDTH_CAP))},
    "bench": {
        "seed": (0, _integer(0)), "sizes": ([256, 1024, 4096], _sizes),
        "repeats": (7, _integer(1, MAX_REPEATS)),
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
        try:
            check(name, cfg[name], cfg)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
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


def _new_file(path: Path) -> Path:
    """`path` with any old file there removed, so that writing it makes a new
    file.  On ext4 (default auto_da_alloc) truncating a non-empty file and
    writing it again starts writeback at close; a temporary file renamed over
    it is flushed the same way.  A 3 kB report took 0.31 ms truncated and
    rewritten, 0.39-0.42 ms renamed and 0.16-0.19 ms unlinked and written new
    (medians of 60, 2-core Xeon VM)."""
    path.unlink(missing_ok=True)
    return path


def _write_csv(path: Path, fields: list[str], records: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(records)


def environment(seed: int) -> dict:
    """What bit-for-bit replay of a seeded run rests on besides the config:
    the interpreter, numpy (its generator algorithms), the machine, the
    BLAS thread settings and the workers of the fft-derive sweep (which
    change its time, not its values).  Only cheap reads, no subprocess."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "sweep_workers": butterfly.SWEEP_WORKERS,
        "seed": seed,
    }


@functools.cache
def _hold_heap() -> bool:
    """Set glibc's trim and mmap thresholds to HEAP_THRESHOLD, on the first
    call in a process; False, with nothing set, on another C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):  # not glibc, or no mallopt
        return False
    return all([mallopt(param, HEAP_THRESHOLD)
                for param in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD)])


def _minor_faults() -> int | None:
    """This process's minor page faults so far, None without resource."""
    return None if resource is None else resource.getrusage(
        resource.RUSAGE_SELF).ru_minflt


def _process_usage(start_faults: int | None) -> dict | None:
    """The process's peak resident memory in MB, its minor page faults since
    start_faults (a _minor_faults reading) and the heap threshold it runs
    with (None where _hold_heap set none); None without resource."""
    if resource is None:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in kB on Linux and in bytes on macOS
    return {"peak_rss_mb": usage.ru_maxrss / (1 << (20 if sys.platform == "darwin"
                                                     else 10)),
            "minor_faults": usage.ru_minflt - start_faults,
            "heap_threshold": HEAP_THRESHOLD if _hold_heap() else None}


def write_report(out_dir: Path, kind: str, cfg: dict, checks: list[criteria.Check],
                 rows: list[dict], elapsed: float,
                 criterion_elapsed: dict[str, float],
                 process: dict | None = None) -> dict:
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
        # _process_usage of the run: what its time and faults rest on
        "process": process,
        "env": environment(cfg["seed"]),
    }
    _new_file(out_dir / "report.json").write_text(json.dumps(report, indent=2))
    _write_csv(_new_file(out_dir / "report.csv"),
               ["id", "value", "tolerance", "passed"], report["checks"])
    # a run that made no row leaves no rows.csv
    rows_path = _new_file(out_dir / "rows.csv")
    if rows:
        _write_csv(rows_path, list(rows[0]), rows)
    return report


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args leaves it unchanged and
    returns a new namespace on every call."""
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
    return parser


def main(argv: list[str] | None = None) -> int:
    start_faults = _minor_faults()
    _hold_heap()
    args = _parser().parse_args(argv)
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
                              criterion_elapsed, _process_usage(start_faults))
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

