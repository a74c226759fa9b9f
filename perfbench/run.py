"""Benchmark of the qrecon CLI verdicts and ladder transforms.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 16 --trace 0

Run from the root of a checkout (the package is imported from its src/).
Each workload process is a fresh interpreter with BLAS pinned to one thread
and QR_THREADS unset: one client, closed loop, single-threaded baseline.

--trace 0 reports the end-to-end metrics: set-up time (the median of several
fresh processes importing qrecon and serving one warm-up request), run time,
median and tail request latency, peak memory and the share of servings that
passed their check.  Run time and latencies are in reference time: wall time
scaled to a calibration measured between servings, which removes most of
the host's slow spells (see README.md); the wall-clock figures are in the
details line.  --trace 1 serves the same request list untraced and then
traced, and reports per-layer calls and self time from spans recorded
around qrecon's public functions, plus the tracing overhead.

The last line of standard output is the result as one JSON object; the line
before it carries the environment and the details behind each metric.  The
exit code is 0 whenever a result is printed, also when some output failed
its check ("correct": false, failures on standard error); it is 2 without
qrecon sources and 1 when a workload process fails or runs too long.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 2        # set-up-only processes before the run and again after it
TIME_LIMIT_S = 170.0    # the whole command, builds excluded
TAIL_ABOVE = 10         # requests that must lie above the tail percentile
TAIL_MIN_REQUESTS = 20
END_TO_END = {"setup_s": "s", "run_ref_s": "ref_s", "latency_p50_ref_ms": "ref_ms",
              "latency_tail_ref_ms": "ref_ms", "peak_rss_mb": "MB",
              "ok_frac": "fraction"}


class WorkerError(RuntimeError):
    pass


def tail_percentile(values, above: int = TAIL_ABOVE,
                    min_count: int = TAIL_MIN_REQUESTS):
    """(percentile, value) of the highest percentile that still has `above`
    values above it, or None for fewer than `min_count` values.

    With n sorted values that is the (n - above)-th smallest, at percentile
    100 * (n - above) / n.
    """
    n = len(values)
    if n < min_count:
        return None
    rank = n - above
    return 100.0 * rank / n, sorted(values)[rank - 1]


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("QR_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(args, mode: str, trace: int, deadline: float, rev: str | None):
    """Start one workload process; return (set-up seconds, result or None).
    Set-up is the wall time from start to "ready"."""
    out = WORK_DIR / args.workload / f"result-{mode}-trace{trace}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--trace", str(trace),
           "--work", str(WORK_DIR / args.workload), "--out", str(out)]
    if rev:
        cmd += ["--git-rev", rev]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerError(f"{args.workload} worker did not get ready")
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise WorkerError(f"{args.workload} worker exited {proc.returncode}")
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{args.workload} worker ran past the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return setup_s, (json.loads(out.read_text()) if mode == "run" else None)


def measure(args, deadline: float, rev: str | None) -> tuple[dict, dict, dict]:
    """Returns (metrics, details, the run's worker result)."""
    if args.trace == 0:
        # probes on both sides of the run, so that one spell of a slow host
        # does not decide the median
        setups = [run_worker(args, "setup", 0, deadline, rev)[0]
                  for _ in range(SETUP_PROBES)]
        setup_s, result = run_worker(args, "run", 0, deadline, rev)
        setups.append(setup_s)
        setups += [run_worker(args, "setup", 0, deadline, rev)[0]
                   for _ in range(SETUP_PROBES)]
        lat, ref = result["latencies_s"], result["ref_latencies_s"]
        pct, tail = tail_percentile(lat)
        _, ref_tail = tail_percentile(ref)
        values = {
            "setup_s": statistics.median(setups),
            "run_ref_s": sum(ref),
            "latency_p50_ref_ms": 1e3 * statistics.median(ref),
            "latency_tail_ref_ms": 1e3 * ref_tail,
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - len(result["failures"]) / result["servings"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        details = {"setup_samples_s": setups, "requests": len(lat),
                   "servings": result["servings"], "tail_percentile": pct,
                   "requests_above_tail": TAIL_ABOVE,
                   "wall_run_s": sum(lat),
                   "wall_latency_p50_ms": 1e3 * statistics.median(lat),
                   "wall_latency_tail_ms": 1e3 * tail,
                   "calibration_median_ms": 1e3 * statistics.median(result["calibration_s"]),
                   "parity_fail": result["parity_fail"]}
        return metrics, details, result

    _, result = run_worker(args, "run", 1, deadline, rev)
    plain_s, traced_s = sum(result["latencies_s"]), sum(result["traced_latencies_s"])
    layers = dict(result["layers"])
    layers["sampling.parity_fail"] = result["parity_fail"]
    layers["ref.numpy_fft.ms"] = result["ref_fft_ms"]
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics = {name: (layers[name], unit) for name, unit, _ in per_layer_metrics()}
    details = {"requests": len(result["latencies_s"]), "servings": result["servings"],
               "untraced_run_s": plain_s, "traced_run_s": traced_s}
    return metrics, details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qrecon" / "__init__.py").is_file():
        print(f"run.py: no qrecon sources at {ROOT / 'src' / 'qrecon'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    (WORK_DIR / args.workload).mkdir(parents=True, exist_ok=True)
    try:
        metrics, details, result = measure(args, deadline, git_rev())
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    failed = len(result["failures"])
    for failure in result["failures"][:5]:
        print(f"run.py: {failure}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": result["env"], "details": details}
    summary = {
        "correct": failed == 0,
        "attempted": result["servings"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (WORK_DIR / args.workload / f"last-trace{args.trace}.json").write_text(
        json.dumps({**info, **summary}, indent=2))
    print(json.dumps(info))
    print(json.dumps(summary))
    return 0  # the run completed; "correct" tells whether the outputs were right


if __name__ == "__main__":
    sys.exit(main())
