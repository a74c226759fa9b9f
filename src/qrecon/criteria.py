"""The paper's numerical criteria, each defined once.

A criterion is a function (cfg, rng) -> (checks, report rows): one
measurement and the checks that judge it.  `CRITERIA` lists each kind's
criteria in run order; the criteria of one run share one generator seeded
from cfg["seed"], so their order is their draw order.  The CLI runs them at
a config's scope, tests/test_acceptance.py at the release scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bench as bench_mod
from . import kernels
from .bloch import BlochPoint, chart_tangent_metric, metric_in_coords
from .butterfly import (_danielson_lanczos_terms, _ladder_deviations,
                        derive_shift_phases)
from .exceptions import RangeError
from .metrics import (Tangent, extended_fisher_metric,
                      extended_fisher_metric_recursive, fubini_study_metric,
                      random_state, random_tangent)
from .partitions import (DigitSubsetSet, PhaseSpaceSet, make_lsb_partition,
                         scale_transform_set,
                         shift_invariant_equal_partitions)
from .sampling import chi2_band, gaussian_p_value, tomography_experiment

# amplitudes per stacked block of metric samples (a block holds at least one
# state): 64 kB per stack and about 0.5 MB of metric temporaries
METRIC_BLOCK_CELLS = 1 << 12

# the observables each tomography state kind measures
OBSERVABLES = {"rebit": ("q", "p"), "qubit": ("q", "p", "r")}


@dataclass
class Check:
    id: str
    description: str
    value: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        # numpy scalars stringify fine but np.bool_ is not JSON serializable
        self.value = float(self.value)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.passed)

    def line(self) -> str:
        return (f"[{'PASS' if self.passed else 'FAIL'}] {self.id}: "
                f"value={self.value:.6g} tolerance={self.tolerance:.6g}")


def below(id: str, description: str, value: float, tolerance: float) -> Check:
    return Check(id, description, value, tolerance, value < tolerance)


def metric_sample(cfg: dict, rng: np.random.Generator, lowest: int | None = None):
    """fs-factor and recursion over cfg["samples"] random states and tangents
    of cfg["levels"] bits, or, given `lowest`, of a bit count each sample
    first draws from lowest..levels; evaluated a stacked block at a time."""
    top = cfg["levels"]
    pending: dict[int, list] = {}
    worst = np.zeros(2)
    for _ in range(cfg["samples"]):
        nbits = top if lowest is None else int(rng.integers(lowest, top + 1))
        psi = random_state(nbits, rng)
        rows = pending.setdefault(nbits, [])
        rows.append((psi.amps, random_tangent(psi, rng).damps))
        if len(rows) << nbits >= METRIC_BLOCK_CELLS:
            worst = np.maximum(worst, _metric_deviations(pending.pop(nbits)))
    for rows in pending.values():
        worst = np.maximum(worst, _metric_deviations(rows))
    return [below("fs-factor", "extended metric equals 4x Fubini-Study (max rel dev)",
                  worst[0], cfg["tol_fs"]),
            below("recursion", "even/odd recursion equals the closed form (max rel dev)",
                  worst[1], cfg["tol_recursive"])], []


def _metric_deviations(rows: list) -> tuple[float, float]:
    amps, damps = (np.array(col) for col in zip(*rows))
    efm = extended_fisher_metric(amps, damps)
    scale = np.maximum(np.abs(efm), 1e-6)
    return (np.max(np.abs(efm - 4.0 * fubini_study_metric(amps, damps)) / scale),
            np.max(np.abs(efm - extended_fisher_metric_recursive(amps, damps)) / scale))


def closed_form_identities(cfg: dict, rng: np.random.Generator):
    """gauge-zero on a random state and one-bit-form on a fixed tangent."""
    psi = random_state(cfg["levels"], rng)
    gauge = extended_fisher_metric(psi, Tangent(1j * psi.amps))
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
                  gauge, 1e-12, abs(gauge) < 1e-12),
            below("one-bit-form", "one-bit metric reduces to dtheta^2 + sin^2 dalpha^2",
                  one_bit, 1e-12)], []


def chart_sweep(cfg: dict, rng: np.random.Generator):
    worst = 0.0
    points = 0
    while points < cfg["chart_points"]:
        vec = rng.normal(size=3)
        vec /= np.linalg.norm(vec)
        if np.max(np.abs(vec)) > 0.99:
            continue  # too close to a chart pole
        points += 1
        point = BlochPoint(*vec)
        tangent = rng.normal(size=3)
        values = [chart_tangent_metric(point, tangent, axis) for axis in "qpr"]
        worst = max(worst, (max(values) - min(values)) / max(values))
    return [below("chart-invariance", "tangent metric agrees across the q/p/r charts",
                  worst, cfg["tol_chart"])], []


def ladder_transform(cfg: dict, rng: np.random.Generator):
    """ladder-vs-dft, unitarity, shift-diagonal and, from two levels on,
    danielson-lanczos, all from one streamed pass over the ladder's columns."""
    n = cfg["levels"]
    dev = _ladder_deviations(n)
    checks = [below("ladder-vs-dft", "assembled ladder equals the unitary Fourier matrix",
                    dev["ladder"], cfg["tol"]),
              below("unitarity", "assembled ladder is unitary", dev["unitarity"], 1e-12),
              below("shift-diagonal", "conjugated cyclic shift is diagonal with the "
                    "closed-form phases", max(dev["off_diagonal"], dev["diagonal"]),
                    1e-12)]
    if n >= 2:
        dl = _danielson_lanczos_terms(n, dev)
        worst = max(dl["cell_deviation"], dl["recursion_deviation"],
                    dl["ladder_deviation"], dl["half_period_deviation"])
        checks.append(below("danielson-lanczos", "final ladder cell and half-size "
                            "recursion reproduce the Fourier matrix", worst, cfg["tol"]))
    return checks, []


def shift_phases(cfg: dict, rng: np.random.Generator):
    rounding = 4 * np.finfo(float).eps * 2 * math.pi  # a few ulps of 2*pi
    worst = 0.0
    for depth in range(1, 13):
        vals = derive_shift_phases(depth).values
        closed = -2.0 * math.pi * np.arange(1 << depth) / (1 << depth)
        worst = max(worst, float(np.abs(vals - closed).max()))
    depth_2 = float(np.abs(derive_shift_phases(2).values
                           - np.array([0.0, -math.pi / 2, -math.pi,
                                       -3 * math.pi / 2])).max())
    return [Check("shift-recursion", "shift-phase recursion equals -2*pi*k/2^l, "
                  "depths 1..12, to a few ulps", worst, rounding, worst <= rounding),
            Check("shift-depth-2", "depth-2 shift phases are exactly "
                  "(0, -pi/2, -pi, -3pi/2)", depth_2, 0.0, depth_2 == 0.0)], []


def lsb_uniqueness(cfg: dict, rng: np.random.Generator):
    n = cfg["width"]
    counterexamples = sum(
        shift_invariant_equal_partitions(n, 1 << c)
        != [make_lsb_partition(n, n - c + 1)] for c in range(1, n + 1))
    check = Check("lsb-uniqueness",
                  f"exhaustive search over width {n}: shift-invariant equal-size "
                  "partitions are exactly the lsb families",
                  counterexamples, 0.5, counterexamples == 0)
    return [check], [{"families_checked": n, "counterexamples": counterexamples}]


def scale_level_sum(cfg: dict, rng: np.random.Generator):
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
                  violations, 0.5, violations == 0)], []


def tomography(cfg: dict, rng: np.random.Generator):
    """precision-parity and one variance band per observable, from one report."""
    state = cfg["state"]
    if state["kind"] == "rebit":
        thetas = {"q": state["theta_q"], "p": math.pi / 2.0 - state["theta_q"]}
    else:
        point = BlochPoint(*state["bloch"])
        thetas = {name: point.theta_of(name) for name in OBSERVABLES["qubit"]}
    trials = cfg["trials"]
    if not isinstance(trials, dict):
        trials = dict.fromkeys(thetas, trials)
    report = tomography_experiment(thetas, trials, seed=cfg["seed"],
                                   replicas=cfg["replicas"],
                                   parity_tolerance=cfg["parity_tol"])
    checks = [Check("precision-parity",
                    "per-measurement precision contributions agree across observables",
                    report.max_parity_deviation, cfg["parity_tol"],
                    report.parity_ok)]
    lo, hi = chi2_band(cfg["replicas"], cfg["band_sigma"])
    for s in report.summaries:
        if not math.isfinite(s.precision_per_measurement):
            continue  # boundary estimate, no spread to compare
        scaled = s.var_hat * s.trials
        z = (scaled - 1.0) / math.sqrt(2.0 / (cfg["replicas"] - 1))
        checks.append(Check(
            f"variance-band-{s.observable}",
            f"M*var(theta_hat) of {s.observable} inside the {cfg['band_sigma']}-sigma "
            f"chi^2 band around 1 (z={z:.2f}, p={gaussian_p_value(z):.3g})",
            scaled, hi, lo <= scaled <= hi))
    return checks, report.as_rows()


def speedup(cfg: dict, rng: np.random.Generator):
    rows = bench_mod.run_bench(cfg["sizes"], repeats=cfg["repeats"], seed=cfg["seed"])
    checks = [Check(f"speedup-N{row.size}",
                    f"butterfly beats the dense product at N={row.size} "
                    f"(backend {kernels.BACKEND})",
                    row.speedup, cfg["min_speedup"], row.speedup >= cfg["min_speedup"])
              for row in rows if row.size >= cfg["assert_at"]]
    return checks, [{"N": r.size, "dense_ns": r.dense_ns,
                     "butterfly_ns": r.butterfly_ns, "speedup": r.speedup}
                    for r in rows]


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
    "bench": {("speedup-N{size}",): speedup},
}


def run(kind: str, cfg: dict) -> tuple[list[Check], list[dict]]:
    """Every criterion of `kind` on a validated config, in table order."""
    rng = np.random.default_rng(cfg["seed"])
    checks, rows = [], []
    for measure in CRITERIA[kind].values():
        more_checks, more_rows = measure(cfg, rng)
        checks += more_checks
        rows += more_rows
    return checks, rows
