"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure), so the suite doubles as a human-readable checklist.
"""

import math
import time

import numpy as np
import pytest

from qrecon import bench as bench_mod
from qrecon.bloch import BlochPoint, chart_tangent_metric
from qrecon.butterfly import (apply_butterfly, assemble_transform,
                              bit_reversal_permutation, chain_propagate,
                              derive_shift_phases, dft_matrix, make_plan)
from qrecon.metrics import (extended_fisher_metric,
                            extended_fisher_metric_recursive,
                            fubini_study_distance, fubini_study_metric,
                            random_state, random_tangent)
from qrecon.partitions import (make_lsb_partition,
                               shift_invariant_equal_partitions)
from qrecon.sampling import (chi2_band, mle_theta, simulate_bernoulli,
                             tomography_experiment)

SEED = 20240801


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_01_fft_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 11):
        dev = float(np.abs(assemble_transform(n, "natural")
                           - dft_matrix(1 << n, +1)).max())
        worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    report("criterion-01 fft-equivalence",
           worst < 1e-12 and elapsed < 60.0,
           f"max |delta| = {worst:.3e} (< 1e-12) over n = 1..10 "
           f"in {elapsed:.1f}s (< 60s)")


def test_02_twiddle_recursion():
    worst = 0.0
    for depth in range(1, 13):
        values = derive_shift_phases(depth).values
        closed = -2.0 * math.pi * np.arange(1 << depth) / (1 << depth)
        worst = max(worst, float(np.abs(values - closed).max()))
    rounding = 4 * np.finfo(float).eps * 2 * math.pi
    s2 = derive_shift_phases(2).values
    s2_exact = np.array([0.0, -math.pi / 2, -math.pi, -3 * math.pi / 2])
    report("criterion-02 twiddle-recursion",
           worst <= rounding and np.array_equal(s2, s2_exact),
           f"recursion vs closed form max |delta| = {worst:.3e} "
           f"(<= {rounding:.1e}, a few ulps); depth-2 phases reproduced exactly")


def _metric_sample():
    rng = np.random.default_rng(SEED)
    groups = {}
    for _ in range(10_000):
        nbits = int(rng.integers(1, 7))
        psi = random_state(nbits, rng)
        tan = random_tangent(psi, rng)
        groups.setdefault(nbits, []).append((psi.amps, tan.damps))
    worst_fs = 0.0
    worst_rec = 0.0
    # one stacked evaluation per state size
    for rows in groups.values():
        amps, damps = (np.array(col) for col in zip(*rows))
        efm = extended_fisher_metric(amps, damps)
        scale = np.maximum(np.abs(efm), 1e-6)
        worst_fs = max(worst_fs, float(np.max(
            np.abs(efm - 4.0 * fubini_study_metric(amps, damps)) / scale)))
        worst_rec = max(worst_rec, float(np.max(
            np.abs(efm - extended_fisher_metric_recursive(amps, damps)) / scale)))
    return worst_fs, worst_rec


@pytest.fixture(scope="module")
def metric_deviations():
    return _metric_sample()


def test_03_metric_correspondence(metric_deviations):
    worst_fs, _ = metric_deviations
    report("criterion-03 metric-correspondence", worst_fs < 1e-9,
           f"extended metric vs 4x Fubini-Study: max rel dev = {worst_fs:.3e} "
           "(< 1e-9) over 10^4 samples, n <= 6")


def test_04_recursion_equals_closed_form(metric_deviations):
    _, worst_rec = metric_deviations
    report("criterion-04 metric-recursion", worst_rec < 1e-9,
           f"recursive vs closed-form metric: max rel dev = {worst_rec:.3e} "
           "(< 1e-9) on the same sample")


def test_05_chart_preservation():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    points = 0
    while points < 1_000:
        vec = rng.normal(size=3)
        vec /= np.linalg.norm(vec)
        if np.max(np.abs(vec)) > 0.99:  # exclude chart poles
            continue
        points += 1
        point = BlochPoint(*vec)
        tangent = rng.normal(size=3)
        values = [chart_tangent_metric(point, tangent, axis) for axis in "qpr"]
        worst = max(worst, (max(values) - min(values)) / max(values))
    report("criterion-05 chart-preservation", worst < 1e-9,
           f"tangent metric spread across q/p/r charts = {worst:.3e} "
           "(< 1e-9) over 10^3 points")


def test_06_cramer_rao_saturation():
    trials = 10_000
    replicas = 200
    lo, hi = chi2_band(replicas, sigma=5.0)
    detail = []
    ok = True
    for theta in (math.pi / 6, math.pi / 3, math.pi / 2):
        estimates = [
            mle_theta(simulate_bernoulli(theta, trials, seed=SEED,
                                         replica=r))[0]
            for r in range(replicas)
        ]
        scaled = float(np.var(estimates, ddof=1)) * trials
        ok = ok and lo <= scaled <= hi
        detail.append(f"theta={theta:.3f}: M*var={scaled:.3f}")
    report("criterion-06 cramer-rao", ok,
           "; ".join(detail) + f" all inside the 5-sigma band ({lo:.3f}, {hi:.3f})")


def test_07_precision_invariance():
    theta_q = math.pi / 3
    rep = tomography_experiment(
        {"q": theta_q, "p": math.pi / 2 - theta_q},
        {"q": 100_000, "p": 100_000}, seed=SEED, replicas=12_000,
        parity_tolerance=0.05)
    report("criterion-07 precision-invariance", rep.parity_ok,
           f"q vs p per-measurement precision deviation = "
           f"{rep.max_parity_deviation:.2%} (< 5%) at M = 10^5")


def test_08_partition_theorem():
    counterexamples = 0
    families = 0
    for n in range(1, 5):
        for c in range(1, n + 1):
            found = shift_invariant_equal_partitions(n, 1 << c)
            expected = [make_lsb_partition(n, n - c + 1)]
            families += 1
            if found != expected:
                counterexamples += 1
    report("criterion-08 partition-theorem", counterexamples == 0,
           f"exhaustive search over n <= 4 ({families} cardinality classes): "
           f"{counterexamples} counterexamples to the lsb family")


def test_09_linearity_consequence():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1_000):
        nbits = int(rng.integers(1, 9))
        plan = make_plan(nbits)
        a = random_state(nbits, rng).amps
        b = random_state(nbits, rng).amps
        before = fubini_study_distance(a, b)
        after = fubini_study_distance(apply_butterfly(plan, a),
                                      apply_butterfly(plan, b))
        worst = max(worst, abs(after - before))
    unit_dev = 0.0
    for n in range(1, 9):
        mat = assemble_transform(n)
        unit_dev = max(unit_dev, float(np.abs(mat @ mat.conj().T
                                              - np.eye(1 << n)).max()))
    report("criterion-09 linearity", worst < 1e-10 and unit_dev < 1e-12,
           f"distance drift = {worst:.3e} (< 1e-10) over 10^3 pairs; "
           f"unitarity defect = {unit_dev:.3e} (< 1e-12)")


def test_10_performance(tmp_path):
    rows = bench_mod.run_bench([4096], repeats=5, seed=0)
    bench_mod.write_csv(rows, str(tmp_path / "bench.csv"))
    speedup = rows[0].speedup
    emitted = (tmp_path / "bench.csv").read_text().splitlines()
    report("criterion-10 performance",
           speedup >= 10.0 and emitted[0] == "N,dense_ns,butterfly_ns,speedup",
           f"butterfly vs dense at N=4096: {speedup:.1f}x (>= 10x); "
           "timing CSV emitted")


def test_11_chain_coherence():
    rng = np.random.default_rng(SEED)
    worst_pair = 0.0
    worst_top = 0.0
    for _ in range(1_000):
        nbits = int(rng.integers(1, 7))
        size = 1 << nbits
        psi = random_state(nbits, rng).amps
        levels = chain_propagate(psi)
        for l in range(1, nbits + 1):
            half = 1 << (nbits - l)
            below = levels[l - 1].probs.reshape(-1, 2, half).sum(axis=1)
            above = levels[l].probs.reshape(-1, 2, half).sum(axis=1)
            worst_pair = max(worst_pair, float(np.abs(below - above).max()))
        target = np.abs(dft_matrix(size, +1) @ psi) ** 2
        br = bit_reversal_permutation(nbits)
        worst_top = max(worst_top,
                        float(np.abs(levels[-1].probs[br] - target).max()))
    report("criterion-11 chain-coherence",
           worst_pair < 1e-12 and worst_top < 1e-12,
           f"parent-vs-children mass defect = {worst_pair:.3e} (< 1e-12); "
           f"top level vs transformed distribution = {worst_top:.3e} (< 1e-12) "
           "over 10^3 states, n <= 6")
