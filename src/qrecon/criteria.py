"""The paper's numerical criteria, each defined once.

A criterion is a function cfg -> (checks, report rows) of a validated
config alone: one measurement and the checks that judge it, each handed
the values it judges (`Check` takes the worst).  `CRITERIA` lists each
kind's criteria in run order.  A criterion draws only from PCG64
streams keyed by cfg["seed"] (`_stream`), never from another's: children
0-3 of SeedSequence(seed) for metric_sample, 4-5 for chart_sweep, and the
seed's own stream for closed_form_identities and speedup; a new criterion
takes the next free child, 6.  No other kind imports numpy.random
(tomography keys its own Philox streams).  The CLI runs the criteria at a
config's scope, tests/test_acceptance.py at the release scope.  Each
tolerance is a constant here, next to its check: no config can loosen it.
`qrecon.sampling` only simulates: the tomography variance band is built
(from the chi^2 spread of a sample variance) and judged here.
"""

from __future__ import annotations

import math
import time
from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from .bloch import (BlochPoint, chart_tangent_metric, metric_in_coords,
                    rebit_conjugate)
from .butterfly import (_ladder_deviations, apply_butterfly,
                        derive_shift_phases, dft_matrix, make_plan)
from .exceptions import RangeError
from .metrics import (INCREMENT_SD, _closed_form, _norm_preserving_differentials,
                      _recursion, extended_fisher_metric, fubini_study_metric,
                      random_state, state_amplitudes, tangent_amplitudes)
from .partitions import (DigitSubsetSet, PhaseSpaceSet, make_lsb_partition,
                         scale_transform_set,
                         shift_invariant_equal_partitions)
from .sampling import tomography_experiment

# amplitudes per stacked block of metric samples (a block holds at least one
# state); a performance constant only, since no check value depends on it.
# At 2^14 a request of at most 16,384 amplitudes, such as perfbench's
# metric-check (1,000 samples at 4 levels), is one block of about 200 B per
# amplitude at its tracemalloc peak (3.2 MB): 128 kB per draw array, 256 kB
# per complex stack, the recursion's leaf-major copies and the temporaries.
# That request's p50 used to follow the worker's heap history more than this
# code: where glibc trimmed the block's freed memory off the top of the heap
# after each request, the next one faulted about 700 pages back in and read
# 4.3-4.7 ref ms against 3.6-3.8 (perfbench --seconds 16, by checkout
# directory name, which moves the heap layout).  cli.HEAP_THRESHOLD now
# keeps that memory: every run took the same faults from six directory
# names, and with the metrics' unmasked passes the p50 read 3.1-3.9 ref ms
# against 3.5-5.0 without both (2-core Xeon VM, numpy 2.4.6).  Before the
# threshold, 2^12 blocks with the strided recursion read 4.71-4.95 and
# never faulted, and releasing the draws and amplitudes before the
# recursion cut the peak to 1.6 MB but read 4.27 against 3.79 ref ms.
METRIC_BLOCK_CELLS = 1 << 14

# the observables each tomography state kind measures
OBSERVABLES = {"rebit": ("q", "p"), "qubit": ("q", "p", "r")}

EXACT_TOL = 1e-12  # identities exact up to rounding, in metric-check and fft-derive


@dataclass(frozen=True)
class Check:
    """One value judged against its tolerance, here alone, frozen once judged:
    the max of the scalar or array given (NaN if an entry is, raising if empty)
    passes at <= tolerance, or >= tolerance for a `floor`; NaN fails both."""
    id: str
    description: str
    value: float  # given as a scalar or an array, stored as its max
    tolerance: float
    floor: InitVar[bool] = field(default=False, kw_only=True)
    passed: bool = field(init=False)

    def __post_init__(self, floor: bool):
        # numpy scalars stringify fine but np.bool_ is not JSON serializable
        value, tolerance = float(np.max(self.value)), float(self.tolerance)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "passed", bool(value >= tolerance if floor
                                                else value <= tolerance))

    def line(self) -> str:
        return (f"[{'PASS' if self.passed else 'FAIL'}] {self.id}: "
                f"value={self.value:.6g} tolerance={self.tolerance:.6g}")


def _stream(cfg: dict, *key: int) -> np.random.Generator:
    """cfg["seed"]'s PCG64 stream under spawn key `key`: for (k,) the k-th child
    np.random.default_rng(seed).spawn hands out, for () default_rng(seed)."""
    seq = np.random.SeedSequence(cfg["seed"], spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


FS_TOL = 1e-10         # fs-factor, max relative deviation
RECURSION_TOL = 1e-9   # recursion, max relative deviation
CHART_TOL = 1e-9       # chart-invariance, max relative spread over the charts


def metric_sample(cfg: dict):
    """fs-factor and recursion over cfg["samples"] random states and tangents
    of cfg["levels"] bits, drawn, built and evaluated a block of
    METRIC_BLOCK_CELLS amplitudes (at least one state) at a time.  Each draw
    (a state's Dirichlet weights and uniform phases, a tangent's drho and
    dphi normal increments) reads its own child 0-3 of the seed, one call per
    block; numpy fills an array one row after another, so sample i is row i
    of each stream whatever the block size."""
    nbits, samples = cfg["levels"], cfg["samples"]
    block = max(1, METRIC_BLOCK_CELLS >> nbits)
    # the streams before alpha: the other order read 7% slower in perfbench
    # metric-check (2-core Xeon VM, slower in 8 of 8 pairs) with the same
    # arithmetic, a heap-placement effect
    weight_rng, phase_rng, drho_rng, dphi_rng = (_stream(cfg, k) for k in range(4))
    alpha = np.ones(1 << nbits)  # Dirichlet(1, ..., 1)
    worst = np.zeros(2)
    for start in range(0, samples, block):
        shape = (min(block, samples - start), alpha.size)
        worst = np.maximum(worst, _metric_deviations(
            weight_rng.dirichlet(alpha, shape[0]),
            phase_rng.uniform(-math.pi, math.pi, shape),
            drho_rng.normal(0.0, INCREMENT_SD, shape),
            dphi_rng.normal(0.0, INCREMENT_SD, shape)))
    return [Check("fs-factor", "extended metric equals 4x Fubini-Study (max rel dev)",
                  worst[0], FS_TOL),
            Check("recursion", "even/odd recursion equals the closed form (max rel dev)",
                  worst[1], RECURSION_TOL)], []


def _metric_deviations(weights: np.ndarray, phases: np.ndarray,
                       drho: np.ndarray, dphi: np.ndarray) -> tuple[float, float]:
    """The worst fs-factor and recursion deviations of one (S, N) block of
    draws: extended_fisher_metric and extended_fisher_metric_recursive
    evaluated on one set of differentials."""
    amps = state_amplitudes(weights, phases)
    damps = tangent_amplitudes(amps, drho, dphi)
    differentials = _norm_preserving_differentials(amps, damps)
    efm = _closed_form(*differentials)
    scale = np.maximum(np.abs(efm), 1e-6)
    return (np.max(np.abs(efm - 4.0 * fubini_study_metric(amps, damps)) / scale),
            np.max(np.abs(efm - _recursion(*differentials)) / scale))


def closed_form_identities(cfg: dict):
    """gauge-zero on a random state of the seed's own stream and one-bit-form
    on a fixed tangent."""
    psi = random_state(cfg["levels"], _stream(cfg))
    gauge = extended_fisher_metric(psi, 1j * psi)
    theta, alpha = 1.1, 0.4
    dtheta, dalpha = 0.21, -0.34
    amps = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * alpha)])
    damps = np.array([
        -math.sin(theta / 2) * dtheta / 2,
        (math.cos(theta / 2) * dtheta / 2 + 1j * math.sin(theta / 2) * dalpha)
        * np.exp(1j * alpha),
    ])
    one_bit = abs(extended_fisher_metric(amps, damps)
                  - metric_in_coords(theta, dtheta, dalpha))
    return [Check("gauge-zero", "global-phase direction has zero length",
                  abs(gauge), EXACT_TOL),
            Check("one-bit-form", "one-bit metric reduces to dtheta^2 + sin^2 dalpha^2",
                  one_bit, EXACT_TOL)], []


def chart_sweep(cfg: dict):
    """chart-invariance over cfg["chart_points"] random points and tangents
    (see _chart_draw), evaluated one chart at a time over all of them."""
    points, tangents = _chart_draw(cfg)
    values = np.array([chart_tangent_metric(points, tangents, axis) for axis in "qpr"])
    top = values.max(axis=0)
    return [Check("chart-invariance", "tangent metric agrees across the q/p/r charts",
                  (top - values.min(axis=0)) / top, CHART_TOL)], []


def _chart_draw(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """count = cfg["chart_points"] unit points (count, 3) away from every
    chart pole, from child 4 of the seed, and count tangents (count, 3), from
    child 5.  Candidate points are normalized standard normals, drawn in
    batches the size of the count still missing; point i is the i-th
    accepted one and pairs with tangent row i, so a k-point draw is the
    prefix of any larger one."""
    count = cfg["chart_points"]
    point_rng, tangent_rng = _stream(cfg, 4), _stream(cfg, 5)
    points = np.empty((count, 3))
    drawn = 0
    while drawn < count:
        batch = point_rng.standard_normal((count - drawn, 3))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        batch = batch[np.abs(batch).max(axis=1) <= 0.99]  # drop those near a chart pole
        points[drawn:drawn + len(batch)] = batch
        drawn += len(batch)
    return points, tangent_rng.standard_normal((count, 3))


def ladder_transform(cfg: dict):
    """ladder-vs-dft, unitarity, shift-diagonal and, from two levels on,
    danielson-lanczos, all from one streamed pass over the ladder's columns.
    shift-diagonal is sqrt(N) max|P F - F D|, P the one-step cyclic shift and
    D the depth-n shift phases: with unitarity checked, P F = F D is
    F^dagger P F = D, and the value bounds that deviation up to the
    unitarity rounding."""
    n = cfg["levels"]
    dev = _ladder_deviations(n)
    checks = [Check("ladder-vs-dft", "assembled ladder equals the unitary Fourier matrix",
                    dev["ladder"], EXACT_TOL),
              Check("unitarity", "assembled ladder is unitary", dev["unitarity"], EXACT_TOL),
              Check("shift-diagonal", "cyclic shift is diagonal with the closed-form "
                    "phases: P F = F D, scaled by sqrt(N)", dev["shift"], EXACT_TOL)]
    if n >= 2:
        checks.append(Check("danielson-lanczos", "half-size recursion and ladder "
                            "reproduce the Fourier matrix",
                            (dev["recursion"], dev["ladder"]), EXACT_TOL))
    return checks, []


SHIFT_TOL = 4 * np.finfo(float).eps * 2 * math.pi  # a few ulps of 2*pi


def shift_phases(cfg: dict):
    """shift-recursion over every phase of depths 1..12, shift-depth-2 at 2."""
    recursion = np.concatenate([
        np.abs(derive_shift_phases(depth)
               + 2.0 * math.pi * np.arange(1 << depth) / (1 << depth))
        for depth in range(1, 13)])
    depth_2 = np.abs(derive_shift_phases(2)
                     - np.array([0.0, -math.pi / 2, -math.pi, -3 * math.pi / 2]))
    return [Check("shift-recursion", "shift-phase recursion equals -2*pi*k/2^l, "
                  "depths 1..12, to a few ulps", recursion, SHIFT_TOL),
            Check("shift-depth-2", "depth-2 shift phases are exactly "
                  "(0, -pi/2, -pi, -3pi/2)", depth_2, 0.0)], []


def lsb_uniqueness(cfg: dict):
    n = cfg["width"]
    counterexamples = sum(
        shift_invariant_equal_partitions(n, 1 << c)
        != [make_lsb_partition(n, n - c + 1)] for c in range(1, n + 1))
    check = Check("lsb-uniqueness",
                  f"exhaustive search over width {n}: shift-invariant equal-size "
                  "partitions are exactly the lsb families",
                  counterexamples, 0)
    return [check], [{"families_checked": n, "counterexamples": counterexamples}]


def scale_level_sum(cfg: dict):
    n = cfg["width"]
    violations = 0
    for q_lo in range(1, n + 1):
        for p_lo in range(1, n + 1):
            s = PhaseSpaceSet(DigitSubsetSet(n, q_lo, n, 0),
                              DigitSubsetSet(n, p_lo, n, 0))
            try:
                violations += scale_transform_set(s).level_sum != s.level_sum
            except RangeError:
                pass  # no image: the rescaling leaves the domain
    return [Check("scale-level-sum", "dyadic rescaling conserves the level sum",
                  violations, 0)], []


PARITY_TOL = 0.05  # precision-parity, max relative difference of two precisions
BAND_SIGMA = 5.0   # variance-band half-width, in chi^2 standard deviations


def tomography(cfg: dict):
    """precision-parity and one variance band per observable, from one
    experiment; one report row per observable."""
    state = cfg["state"]
    if state["kind"] == "rebit":
        thetas = {"q": state["theta_q"], "p": rebit_conjugate(state["theta_q"])}
    else:
        point = BlochPoint(*state["bloch"])
        thetas = {name: point.theta_of(name) for name in OBSERVABLES["qubit"]}
    trials = cfg["trials"]
    if not isinstance(trials, dict):
        trials = dict.fromkeys(thetas, trials)
    summaries = tomography_experiment(thetas, trials, seed=cfg["seed"],
                                      replicas=cfg["replicas"])
    # an estimate pinned at a boundary has no spread (an infinite precision;
    # a NaN one stays, to fail), and one precision nothing to agree with
    unpinned = [s for s in summaries if not math.isinf(s.precision_per_measurement)]
    checks = []
    if len(unpinned) > 1:
        prec = np.array([s.precision_per_measurement for s in unpinned])
        checks.append(Check("precision-parity", "per-measurement precision "
                            "contributions agree across observables",
                            np.abs(prec[:, None] - prec) / (0.5 * (prec[:, None] + prec)),
                            PARITY_TOL))
    # the sample variance of R normal draws over the true one is chi^2 with
    # R - 1 dof over R - 1, of relative spread sqrt(2 / (R - 1)); the band
    # 1 +- BAND_SIGMA spreads is judged as a ceiling on the distance from 1,
    # so that a variance too small fails above its tolerance too
    spread = math.sqrt(2.0 / (cfg["replicas"] - 1))
    for s in unpinned:
        deviation = s.var_hat * s.trials - 1.0
        z = deviation / spread
        p = math.erfc(abs(z) / math.sqrt(2.0))  # its two-sided normal p-value
        checks.append(Check(
            f"variance-band-{s.observable}",
            f"|M*var(theta_hat) - 1| of {s.observable} within {BAND_SIGMA} chi^2 "
            f"standard deviations (z={z:.2f}, p={p:.3g})",
            abs(deviation), BAND_SIGMA * spread))
    return checks, [{"observable": s.observable, "M": s.trials,
                     "thetaHat": s.theta_hat_mean, "varHat": s.var_hat,
                     "precisionPerMeasurement": s.precision_per_measurement}
                    for s in summaries]


MIN_SPEEDUP = 10.0   # speedup-N4096, dense product time over butterfly time
SPEEDUP_SIZE = 4096  # the one size the floor judges; every bench config times it


def speedup(cfg: dict):
    """The dense matrix-vector product against the butterfly apply, one row
    {N, dense_ns, butterfly_ns, speedup} per configured size, best of
    cfg["repeats"] on a vector of the seed's own stream; the check judges
    the SPEEDUP_SIZE row.  The ladder costs O(N log N) cell operations
    against O(N^2) for the dense product, so the speedup grows with N."""
    rng, rows = _stream(cfg), []
    for size in cfg["sizes"]:
        psi = rng.normal(size=size) + 1j * rng.normal(size=size)
        psi /= np.linalg.norm(psi)
        dense = dft_matrix(size, +1)
        plan = make_plan(size.bit_length() - 1, +1)
        apply_butterfly(plan, psi)  # warm up
        dense @ psi
        dense_ns = _best_ns(lambda: dense @ psi, cfg["repeats"])
        fly_ns = _best_ns(lambda: apply_butterfly(plan, psi), cfg["repeats"])
        rows.append({"N": size, "dense_ns": dense_ns, "butterfly_ns": fly_ns,
                     "speedup": dense_ns / fly_ns})
    checks = [Check(f"speedup-N{row['N']}",
                    f"butterfly beats the dense product at N={row['N']}",
                    row["speedup"], MIN_SPEEDUP, floor=True)
              for row in rows if row["N"] == SPEEDUP_SIZE]
    return checks, rows


def _best_ns(fn: Callable[[], object], repeats: int) -> int:
    """The least of `repeats` wall times of fn(), in nanoseconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return min(times)


# Each kind's criteria in run order, keyed by the check ids each one emits
# ("{...}" stands for a per-item suffix).
CRITERIA: dict[str, dict[tuple[str, ...], Callable]] = {
    "tomography": {("precision-parity", "variance-band-{observable}"): tomography},
    "metric-check": {
        ("fs-factor", "recursion"): metric_sample,
        ("gauge-zero", "one-bit-form"): closed_form_identities,
        ("chart-invariance",): chart_sweep,
    },
    "fft-derive": {
        ("ladder-vs-dft", "unitarity", "shift-diagonal", "danielson-lanczos"):
            ladder_transform,
        ("shift-recursion", "shift-depth-2"): shift_phases,
    },
    "partition-audit": {
        ("lsb-uniqueness",): lsb_uniqueness,
        ("scale-level-sum",): scale_level_sum,
    },
    "bench": {(f"speedup-N{SPEEDUP_SIZE}",): speedup},
}


def run(kind: str, cfg: dict) -> tuple[list[Check], list[dict], dict[str, float]]:
    """Every criterion of `kind` on a validated config, in table order: the
    checks, the report rows and each criterion's wall time in seconds, keyed
    by its function's name.  No criterion reads another's draws, so the
    order moves no value."""
    checks, rows, elapsed_s = [], [], {}
    for measure in CRITERIA[kind].values():
        started = time.perf_counter()
        more_checks, more_rows = measure(cfg)
        elapsed_s[measure.__name__] = time.perf_counter() - started
        checks += more_checks
        rows += more_rows
    return checks, rows, elapsed_s
