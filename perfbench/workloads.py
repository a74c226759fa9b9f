"""Workload definitions: seeded request lists and the layers a traced run wraps.

This module imports neither numpy nor qrecon, so the request lists can be
built (and tested) without the program under test.  The same workload, seed
and run length always give the same list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("metric-check", "tomography", "ladder", "derive")

# Seconds one request took at the commit that defined the benchmark (2-core
# Xeon VM, one BLAS thread).  They only size the request list, so that a run
# serves about `seconds` of work at that commit; the list, and with it the
# work a run measures, does not depend on how fast the code under test is.
NOMINAL_S = {"metric-check": 0.40, "tomography": 0.55, "ladder": 0.10, "derive": 1.2}

# latency_tail_ms needs at least 20 requests (10 above the tail percentile
# and 10 below it).
MIN_REQUESTS = 20

LADDER_SIZES = (16, 17, 18)
TOMOGRAPHY_TRIALS = (1_000, 10_000, 100_000)
TOMOGRAPHY_MAX_COMPONENT = 0.9   # keeps every observable away from a chart pole


def request_count(workload: str, seconds: int) -> int:
    count = max(MIN_REQUESTS,
                round(seconds / NOMINAL_S[workload]))
    if workload == "ladder":
        # every (n, sign) pair equally often, so seeds differ only in order
        # and state contents, not in the work a run holds
        per = 2 * len(LADDER_SIZES)
        count = per * math.ceil(count / per)
    return count


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _bloch_direction(rng: random.Random) -> list[float]:
    while True:
        vec = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in vec))
        if norm == 0.0:
            continue
        vec = [c / norm for c in vec]
        if max(abs(c) for c in vec) <= TOMOGRAPHY_MAX_COMPONENT:
            return vec


def _request(workload: str, rng: random.Random) -> dict:
    if workload == "tomography":
        return {"seed": _seed(rng), "bloch": _bloch_direction(rng),
                "trials": {name: rng.choice(TOMOGRAPHY_TRIALS) for name in "qpr"}}
    return {"seed": _seed(rng)}


def make_requests(workload: str, seed: int, seconds: int) -> list[dict]:
    """The run's fixed request list, a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    count = request_count(workload, seconds)
    if workload != "ladder":
        return [_request(workload, rng) for _ in range(count)]
    # alternating signs; each sign sees every size equally often, in a
    # seeded order
    pools = []
    for _ in (+1, -1):
        pool = list(LADDER_SIZES) * (count // (2 * len(LADDER_SIZES)))
        rng.shuffle(pool)
        pools.append(pool)
    requests = []
    for n_plus, n_minus in zip(*pools):
        requests.append({"n": n_plus, "sign": +1, "seed": _seed(rng)})
        requests.append({"n": n_minus, "sign": -1, "seed": _seed(rng)})
    return requests


def warmup_request(workload: str) -> dict:
    """The untimed request every workload process serves before it is ready.

    It is the same for every seed, so set-up time does not vary with it.
    """
    req = make_requests(workload, 0, 0)[0]
    if workload == "ladder":
        req = {"n": LADDER_SIZES[0], "sign": +1, "seed": req["seed"]}
    return req


@dataclass(frozen=True)
class Layer:
    """A public qrecon function that the traced run wraps.

    `count_cells` records the butterfly cells of a kernels.apply_stages_inplace
    call; `trace_alloc` records the tracemalloc peak of the call.
    """

    name: str                      # "<module>.<function>"
    count_cells: bool = False
    trace_alloc: bool = False


LAYERS = (
    Layer("cli.main"),
    Layer("metrics.random_state"),
    Layer("metrics.random_tangent"),
    Layer("metrics.extended_fisher_metric"),
    Layer("metrics.extended_fisher_metric_recursive"),
    Layer("metrics.fubini_study_metric"),
    Layer("bloch.chart_tangent_metric"),
    Layer("bloch.metric_in_coords"),
    Layer("sampling.tomography_experiment"),
    Layer("sampling.measurement_stream"),
    Layer("probmodel.prob_from_theta"),
    Layer("butterfly.make_plan", trace_alloc=True),
    Layer("butterfly.apply_butterfly"),
    Layer("butterfly.bit_reversal_permutation"),
    Layer("butterfly.assemble_transform"),
    Layer("butterfly.transform_columns"),
    Layer("butterfly.dft_matrix"),
    Layer("butterfly.verify_danielson_lanczos"),
    Layer("butterfly.shift_operator_check"),
    Layer("butterfly.derive_shift_phases"),
    Layer("kernels.apply_stages_inplace", count_cells=True),
    Layer("kernels.apply_stage_range"),
    Layer("partitions.shift_invariant_equal_partitions"),
    Layer("partitions.make_lsb_partition"),
    Layer("partitions.scale_transform_set"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.name}.calls", "count", "lower"))
        out.append((f"{layer.name}.self_ms", "ms", "lower"))
        if layer.trace_alloc:
            out.append((f"{layer.name}.alloc_mb", "MB", "lower"))
        if layer.count_cells:
            out.append((f"{layer.name}.mcells_per_s", "Mcells/s", "higher"))
    out += [("sampling.parity_fail", "count", "lower"),
            ("ref.numpy_fft.ms", "ms", "lower"),
            ("trace.overhead_frac", "fraction", "lower")]
    return out
