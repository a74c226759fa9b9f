"""One workload process: import qrecon, serve a warm-up request, then the run.

Started by run.py with BLAS pinned to one thread and QR_THREADS unset.  It
prints "ready" once qrecon is imported and the warm-up request is served;
in --mode setup it exits there.  In --mode run it then serves the seeded
request list in a closed loop (one client), times each request, runs the
workload's calibration between servings, checks each output outside the
timed interval and writes a JSON result to --out.

    python3 perfbench/worker.py --workload ladder --seed 1 --seconds 16 \
        --mode run --trace 0 --work .perfbench_work/ladder --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import qrecon
import qrecon.cli
from tracing import Tracer, install, self_times, uninstall
from workloads import LAYERS, WORKLOADS, make_requests, warmup_request

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_CAL_SMALL = np.linspace(-1.0, 1.0, 256)


def calibrate_interpreter() -> float:
    """Seconds taken by fixed interpreter work and small numpy calls, the
    kind of work the CLI workloads do."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(20_000):
        acc += math.sqrt(i)
        table[i & 255] = (i, acc)
    x = _CAL_SMALL
    for _ in range(400):
        x = np.sqrt(x * x + 1.0) - 1.0
    return time.perf_counter() - t0


@functools.cache
def _stream_buffer() -> np.ndarray:
    return np.linspace(-1.0, 1.0, 1 << 20)   # 8 MB, twice the L2 cache


def calibrate_stream() -> float:
    """Seconds taken by six in-place passes over 8 MB, the kind of work the
    ladder's large transforms do.  An untimed pass first brings the buffer
    back into cache, so the time does not depend on what the serving before
    it evicted."""
    buf = _stream_buffer()
    np.multiply(buf, 1.0, out=buf)
    t0 = time.perf_counter()
    for _ in range(6):
        np.multiply(buf, 1.0, out=buf)
    return time.perf_counter() - t0


# Per workload: a calibration that runs no qrecon code and does the same
# kind of work, and its time on the reference VM when no other tenant of the
# host slowed it (see serve_all).
CALIBRATIONS = {
    "metric-check": (calibrate_interpreter, 0.0030),
    "tomography": (calibrate_interpreter, 0.0030),
    "derive": (calibrate_interpreter, 0.0030),
    "ladder": (calibrate_stream, 0.0021),
}


class RequestFailed(Exception):
    """An output failed its correctness check."""


def run_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return qrecon.cli.main(argv)


def read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps({"version": 1, **cfg}))
    return path


class MetricCheck:
    """`qrecon metric-check` at levels=4, 1,000 samples, 100 chart points."""

    def __init__(self, work: Path):
        self.out = work / "metric-check"
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = write_config(self.out / "config.json", {
            "kind": "metric-check", "samples": 1_000, "chart_points": 100})

    def prepare(self, req: dict) -> dict:
        (self.out / "report.json").unlink(missing_ok=True)
        return req

    def serve(self, req: dict) -> int:
        return run_cli(["metric-check", "--config", str(self.config),
                        "--seed", str(req["seed"]), "--out", str(self.out)])

    def check(self, req: dict, rc: int) -> None:
        report = read_report(self.out)
        if rc != 0 or not all(c["passed"] for c in report["checks"]):
            raise RequestFailed(f"metric-check exit {rc}, seed {req['seed']}")


class Tomography:
    """`qrecon tomography` at 12,000 replicas, a seeded qubit per request."""

    BAND_CHECKS = 3  # one variance band per observable

    def __init__(self, work: Path):
        self.out = work / "tomography"
        self.out.mkdir(parents=True, exist_ok=True)
        self.parity_failed = set()

    def prepare(self, req: dict) -> dict:
        (self.out / "report.json").unlink(missing_ok=True)
        write_config(self.out / "config.json", {
            "kind": "tomography", "trials": req["trials"],
            "state": {"kind": "qubit", "bloch": req["bloch"]}})
        return req

    def serve(self, req: dict) -> int:
        return run_cli(["tomography", "--config", str(self.out / "config.json"),
                        "--seed", str(req["seed"]), "--out", str(self.out)])

    def check(self, req: dict, rc: int) -> None:
        if rc not in (0, 1):
            raise RequestFailed(f"tomography exit {rc}")
        report = read_report(self.out)
        bands = [c for c in report["checks"] if c["id"].startswith("variance-band-")]
        parity = [c for c in report["checks"] if c["id"] == "precision-parity"]
        values = [v for row in report["rows"] for v in row.values()
                  if isinstance(v, float)]
        if (len(bands) != self.BAND_CHECKS or not all(c["passed"] for c in bands)
                or not all(math.isfinite(v) for v in values)):
            raise RequestFailed(f"tomography variance band or estimate failed: "
                                f"{report['checks']}")
        # a 2.8-sigma test at 12,000 replicas: recorded, not a failure
        if not all(c["passed"] for c in parity):
            self.parity_failed.add(req["seed"])


class Ladder:
    """make_plan(n, sign) + apply_butterfly(plan, psi) on a random state."""

    TOL = 1e-12

    def __init__(self, work: Path):
        self.ref_s = 0.0

    def prepare(self, req: dict):
        rng = np.random.default_rng(req["seed"])
        size = 1 << req["n"]
        psi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return req["n"], req["sign"], psi / np.linalg.norm(psi)

    def serve(self, ctx):
        n, sign, psi = ctx
        plan = qrecon.make_plan(n, sign)
        return qrecon.apply_butterfly(plan, psi)

    def check(self, ctx, out) -> None:
        n, sign, psi = ctx
        t0 = time.perf_counter()
        ref = (np.fft.ifft if sign > 0 else np.fft.fft)(psi, norm="ortho")
        self.ref_s += time.perf_counter() - t0
        err = float(np.abs(out - ref).max())
        if not err <= self.TOL:
            raise RequestFailed(f"ladder n={n} sign={sign}: max error {err:.3g}")


class Derive:
    """`qrecon fft-derive` at levels=10, then `qrecon partition-audit` at width=4."""

    def __init__(self, work: Path):
        self.fft_out = work / "derive-fft"
        self.part_out = work / "derive-partitions"
        for out in (self.fft_out, self.part_out):
            out.mkdir(parents=True, exist_ok=True)
        self.fft_config = write_config(self.fft_out / "config.json",
                                       {"kind": "fft-derive", "levels": 10})
        self.part_config = write_config(self.part_out / "config.json",
                                        {"kind": "partition-audit", "width": 4})

    def prepare(self, req: dict) -> dict:
        for out in (self.fft_out, self.part_out):
            (out / "report.json").unlink(missing_ok=True)
        return req

    def serve(self, req: dict) -> tuple[int, int]:
        seed = str(req["seed"])
        return (run_cli(["fft-derive", "--config", str(self.fft_config),
                         "--seed", seed, "--out", str(self.fft_out)]),
                run_cli(["partition-audit", "--config", str(self.part_config),
                         "--seed", seed, "--out", str(self.part_out)]))

    def check(self, req: dict, rcs: tuple[int, int]) -> None:
        for rc, out in zip(rcs, (self.fft_out, self.part_out)):
            report = read_report(out)
            if rc != 0 or not all(c["passed"] for c in report["checks"]):
                raise RequestFailed(f"{report['kind']} exit {rc}: {report['checks']}")


HANDLERS = {"metric-check": MetricCheck, "tomography": Tomography,
            "ladder": Ladder, "derive": Derive}


def environment(seed: int, git_rev: str | None) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = "unknown"
    return {
        "backend": qrecon.BACKEND,
        "available_backends": list(qrecon.AVAILABLE_BACKENDS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "qr_threads": os.environ.get("QR_THREADS"),
        "git_rev": git_rev,
        "seed": seed,
    }


def layer_summary(tracer: Tracer, requests: int) -> dict:
    """Per-request calls and self time of each wrapped function, plus the
    kernel's cell rate and the plan's allocation peak."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = dict.fromkeys(tracer.names, 0)
    busy = dict.fromkeys(tracer.names, 0.0)
    cells = dict.fromkeys(tracer.names, 0.0)
    alloc = dict.fromkeys(tracer.names, 0)
    for sid, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        calls[name] += 1
        busy[name] += selfs[sid]
        cells[name] += tracer.cells.get(sid, 0.0)
        alloc[name] = max(alloc[name], tracer.alloc.get(sid, 0))
    out = {}
    for layer in LAYERS:
        name = layer.name
        out[f"{name}.calls"] = calls[name] / requests
        out[f"{name}.self_ms"] = 1e3 * busy[name] / requests
        if layer.trace_alloc:
            out[f"{name}.alloc_mb"] = alloc[name] / 2**20
        if layer.count_cells:
            out[f"{name}.mcells_per_s"] = (cells[name] / busy[name] / 1e6
                                           if busy[name] > 0 else 0.0)
    return out


def save_spans(tracer: Tracer, path: Path) -> None:
    """Write the spans as numpy columns; `name` indexes `names`, and `parent`
    is a row number (-1 for none)."""
    np.savez(path, names=np.array(tracer.names),
             name=np.frombuffer(tracer.name, dtype=np.int32),
             start=np.frombuffer(tracer.start), end=np.frombuffer(tracer.end),
             parent=np.frombuffer(tracer.parent, dtype=np.int32),
             request=np.frombuffer(tracer.request, dtype=np.int32),
             cells=_id_value_pairs(tracer.cells), alloc=_id_value_pairs(tracer.alloc))


def _id_value_pairs(extra: dict) -> np.ndarray:
    return np.array(list(extra.items()), dtype=float).reshape(-1, 2)


def serve_once(handler, req: dict, tracer: Tracer | None) -> tuple[float, str | None]:
    """Serve one request; returns (seconds, failure or None).  Only serve()
    is timed; preparing the input and checking the output are not."""
    ctx = handler.prepare(req)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = handler.serve(ctx)
        else:
            with tracer.span("request"):
                out = handler.serve(ctx)
    except Exception as exc:  # a request that raises counts as failed
        return time.perf_counter() - t0, repr(exc)
    elapsed = time.perf_counter() - t0
    try:
        handler.check(ctx, out)
    except (RequestFailed, OSError, ValueError, KeyError) as exc:
        return elapsed, str(exc)
    return elapsed, None


def serve_all(handler, requests: list[dict], tracer: Tracer | None,
              calibration) -> dict:
    """Serve the list once, in order, and time each serving.

    Other tenants of the host slow whole runs in spells that last minutes.
    So the workload's calibration runs between servings, and each untraced
    serving is also kept scaled by the calibration's reference time over the
    mean of the calibrations on either side of it ("reference seconds").
    With a tracer each request is served untraced and then traced.
    """
    calibrate, reference_s = calibration
    modes = [None] if tracer is None else [None, tracer]
    latencies = [[] for _ in modes]
    ref_latencies = []
    calibrations = [calibrate()]
    failures = []
    for i, req in enumerate(requests):
        for m, mode_tracer in enumerate(modes):
            replaced = []
            if mode_tracer is not None:
                mode_tracer.current_request = i
                replaced = install(mode_tracer, LAYERS, "qrecon")
            try:
                elapsed, failure = serve_once(handler, req, mode_tracer)
            finally:
                uninstall(replaced)
            calibrations.append(calibrate())
            latencies[m].append(elapsed)
            if mode_tracer is None:
                host = (calibrations[-2] + calibrations[-1]) / 2
                ref_latencies.append(elapsed * reference_s / host)
            if failure is not None:
                failures.append(f"request {i}: {failure}")
    return {"latencies_s": latencies[0], "ref_latencies_s": ref_latencies,
            "traced_latencies_s": latencies[-1] if tracer is not None else None,
            "calibration_s": calibrations, "failures": failures}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--git-rev", default=None)
    args = parser.parse_args(argv)

    if ROOT / "src" not in Path(qrecon.__file__).resolve().parents:
        print(f"worker: imported qrecon from {qrecon.__file__}, not from this "
              "checkout's src/", file=sys.stderr)
        return 3
    handler = HANDLERS[args.workload](args.work)
    elapsed, failure = serve_once(handler, warmup_request(args.workload), None)
    if failure is not None:
        print(f"worker: warm-up request failed: {failure}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    requests = make_requests(args.workload, args.seed, args.seconds)
    tracer = Tracer() if args.trace else None
    result = serve_all(handler, requests, tracer, CALIBRATIONS[args.workload])
    servings = len(requests) * (1 if tracer is None else 2)
    result.update({
        "servings": servings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "parity_fail": len(getattr(handler, "parity_failed", ())),
        "ref_fft_ms": 1e3 * getattr(handler, "ref_s", 0.0) / servings,
        "env": environment(args.seed, args.git_rev),
    })
    if tracer is not None:
        result["layers"] = layer_summary(tracer, len(requests))
        save_spans(tracer, args.work / "spans.npz")
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
