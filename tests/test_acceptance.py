"""Acceptance gate: every release criterion at its stated tolerance.

The CLI's criteria (`qrecon.criteria`) at the release scope: 1..10 ladder
levels, one metric sample of 1,667 states at each of 1..6 bits, three
Cramer-Rao angles and widths 1..4.  Each check prints the CLI's PASS/FAIL
line (visible with `pytest -s` or on failure), so the suite doubles as a
checklist.
"""

import math
import time

import numpy as np
import pytest

from qrecon import cli, criteria
from qrecon.butterfly import (apply_butterfly, bit_reversal_permutation,
                              chain_propagate, dft_matrix, make_plan)
from qrecon.criteria import Check
from qrecon.metrics import fubini_study_distance, random_state

SEED = 20240801


def config(kind, **fields):
    return cli.validate(kind, {"seed": SEED, **fields})


def run(kind, **fields):
    """The checks of every `kind` criterion, in the CLI's order."""
    return criteria.run(kind, config(kind, **fields))[0]


def gate(checks, *ids):
    """Print the line of every check named in `ids`; each must be there and pass."""
    chosen = [c for c in checks if c.id in ids]
    for c in chosen:
        print(c.line())
    assert {c.id for c in chosen} == set(ids)
    assert all(c.passed for c in chosen), [c.line() for c in chosen if not c.passed]


@pytest.fixture(scope="module")
def fft_derive():
    """Every fft-derive check at 1..10 levels, and the time they took."""
    started = time.perf_counter()
    checks = [c for n in range(1, 11) for c in run("fft-derive", levels=n)]
    return checks, time.perf_counter() - started


def test_01_fft_equivalence(fft_derive):
    checks, elapsed = fft_derive
    gate(checks + [Check("elapsed-s", "1..10 levels in under a minute", elapsed, 60.0)],
         "ladder-vs-dft", "shift-diagonal", "danielson-lanczos", "elapsed-s")


def test_02_twiddle_recursion(fft_derive):
    gate(fft_derive[0], "shift-recursion", "shift-depth-2")


@pytest.fixture(scope="module")
def metric_checks():
    """One metric sample per level 1..6, then the gauge state, each drawn
    from the streams SEED keys."""
    checks = [c for levels in range(1, 7) for c in criteria.metric_sample(
        config("metric-check", samples=1_667, levels=levels))[0]]
    return checks + criteria.closed_form_identities(
        config("metric-check", levels=6))[0]


def test_03_metric_correspondence(metric_checks):
    gate(metric_checks, "fs-factor", "gauge-zero", "one-bit-form")


def test_04_recursion_equals_closed_form(metric_checks):
    gate(metric_checks, "recursion")


def test_05_chart_preservation():
    checks, _ = criteria.chart_sweep(config("metric-check", chart_points=1_000))
    gate(checks, "chart-invariance")


def test_06_cramer_rao_saturation():
    for theta in (math.pi / 6, math.pi / 3, math.pi / 2):
        gate(run("tomography", state={"kind": "rebit", "theta_q": theta},
                 trials={"q": 10_000}, replicas=200), "variance-band-q")


def test_07_precision_invariance():
    gate(run("tomography"), "precision-parity", "variance-band-q", "variance-band-p")


def test_08_partition_theorem():
    for width in range(1, 5):
        gate(run("partition-audit", width=width), "lsb-uniqueness", "scale-level-sum")


def test_09_linearity_consequence(fft_derive):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1_000):
        nbits = int(rng.integers(1, 9))
        plan = make_plan(nbits)
        a = random_state(nbits, rng)
        b = random_state(nbits, rng)
        before = fubini_study_distance(a, b)
        after = fubini_study_distance(apply_butterfly(plan, a),
                                      apply_butterfly(plan, b))
        worst = max(worst, abs(after - before))
    drift = Check("distance-drift", "ladder keeps Fubini-Study distances, "
                  "10^3 pairs", worst, 1e-10)
    gate(fft_derive[0] + [drift], "unitarity", "distance-drift")


def test_10_performance(tmp_path):
    cfg = cli.validate("bench", {"sizes": [4096], "repeats": 5})
    checks, rows, elapsed_s = criteria.run("bench", cfg)
    cli.write_report(tmp_path, "bench", cfg, checks, rows, 0.0, elapsed_s)
    gate(checks, "speedup-N4096")
    assert (tmp_path / "rows.csv").read_text().startswith(
        "N,dense_ns,butterfly_ns,speedup\n")


def test_11_chain_coherence():
    rng = np.random.default_rng(SEED)
    by_width = {}
    for _ in range(1_000):
        nbits = int(rng.integers(1, 7))
        by_width.setdefault(nbits, []).append(random_state(nbits, rng))
    worst_pair = 0.0
    worst_top = 0.0
    # one chain_propagate call and one dense product per width
    for nbits, states in by_width.items():
        states = np.array(states)
        levels = chain_propagate(states)  # (n + 1, S, N)
        for l in range(1, nbits + 1):
            half = 1 << (nbits - l)
            lower = levels[l - 1].reshape(len(states), -1, 2, half).sum(axis=2)
            upper = levels[l].reshape(len(states), -1, 2, half).sum(axis=2)
            worst_pair = max(worst_pair, float(np.abs(lower - upper).max()))
        # the Fourier matrix is symmetric: row i of states @ F is F @ states[i]
        target = np.abs(states @ dft_matrix(1 << nbits, +1)) ** 2
        br = bit_reversal_permutation(nbits)
        worst_top = max(worst_top,
                        float(np.abs(levels[-1][:, br] - target).max()))
    gate([Check("chain-mass", "parent-vs-children mass defect, 10^3 states, n <= 6",
                worst_pair, 1e-12),
          Check("chain-top", "top level equals the transformed distribution",
                worst_top, 1e-12)],
         "chain-mass", "chain-top")
