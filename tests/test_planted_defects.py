"""Planted defects: each release check is seen to catch one.

A row plants one defect in one derivation step, by monkeypatching the name
where the criterion looks it up (never a tolerance), runs the CLI and
expects exit 1 with a FAIL line for exactly the check ids it lists.  A
defect that no check catches yet is a row marked xfail(strict=True) that
names the ROADMAP item meant to close it, so that the change which lands
the item has to flip the row.  Every check of every kind but bench (whose
one value is a timing) fails in some row; the fft-derive rows run at levels
3 and 5, the metric-check rows at small samples.
"""

import fnmatch
import json
import math
import re
from dataclasses import dataclass

import pytest

from qrecon import butterfly, cli, criteria, kernels, sampling
from qrecon.partitions import PhaseSpaceSet


def root_entry_one_times(factor):
    """A patch of butterfly._root_table: entry 1 of every table times
    `factor`, so that the plans and the Fourier references read it."""
    real = butterfly._root_table

    def patched(size, sign):
        table = real(size, sign).copy()
        table[1] *= factor
        table.setflags(write=False)
        return table

    return [(butterfly, "_root_table", patched)]


def shift_phases_times(factor):
    """A patch of derive_shift_phases, every phase times `factor`, in both
    modules that look it up: butterfly's sweep and criteria's recursion."""
    real = butterfly.derive_shift_phases

    def patched(depth):
        return real(depth) * factor

    return [(butterfly, "derive_shift_phases", patched),
            (criteria, "derive_shift_phases", patched)]


def shift_phase_nan(depth, k):
    """A patch of derive_shift_phases where criteria looks it up: phase k of
    depth `depth` NaN, so that only the shift recursion reads it."""
    real = butterfly.derive_shift_phases

    def patched(l):
        phases = real(l).copy()
        if l == depth:
            phases[k] = math.nan
        return phases

    return [(criteria, "derive_shift_phases", patched)]


def natural_order_entry_nan():
    """A patch of butterfly._natural_order: entry 0 of every result NaN, so
    that the ladder's columns read it and the half-size recursion does not."""
    real = butterfly._natural_order

    def patched(tail, out):
        real(tail, out).reshape(-1)[0] = math.nan
        return out

    return [(butterfly, "_natural_order", patched)]


def replica_estimate_nan(observable):
    """A patch of sampling._replica_estimates: replica 0 of `observable` NaN."""
    real = sampling._replica_estimates

    def patched(theta, trials, seed, name, replicas):
        estimates = real(theta, trials, seed, name, replicas)
        if name == observable:
            estimates[0] = math.nan
        return estimates

    return [(sampling, "_replica_estimates", patched)]


def wrapped(module, name, change):
    """A patch of module.name: its result passed through
    change(result, *args), args the positional arguments of the call."""
    real = getattr(module, name)
    return [(module, name, lambda *args: change(real(*args), *args))]


def times(module, name, factor):
    """A patch of module.name, its result times `factor`."""
    return wrapped(module, name, lambda result, *args: result * factor)


def spread_times(factor, observables=("p", "q", "r")):
    """A patch of sampling._replica_estimates: the estimates of each of
    `observables` spread `factor` times as wide about their mean."""
    def change(est, theta, trials, seed, name, replicas):
        return est.mean() + (est - est.mean()) * factor if name in observables else est

    return wrapped(sampling, "_replica_estimates", change)


@dataclass(frozen=True)
class Row:
    id: str
    kind: str
    patches: list
    fails: frozenset
    config: dict  # the run's config fields besides version and kind


def fft_derive(id, patches, fails):
    """The fft-derive row at levels 3 and at levels 5, its id suffixed -3 and -5."""
    return [Row(f"{id}-{levels}", "fft-derive", patches, frozenset(fails),
                {"levels": levels}) for levels in (3, 5)]


def metric_check(id, patches, fails):
    """The metric-check row at 200 samples and 100 chart points."""
    return Row(id, "metric-check", patches, frozenset(fails),
               {"samples": 200, "chart_points": 100})


def partition_audit(id, patches, fails):
    """The partition-audit row at width 4."""
    return Row(id, "partition-audit", patches, frozenset(fails), {"width": 4})


def tomography(id, patches, fails):
    """The tomography row at its default config."""
    return Row(id, "tomography", patches, frozenset(fails), {})


ROWS = [
    *fft_derive("root-entry-1e-9", root_entry_one_times(1 + 1e-9),
                {"ladder-vs-dft", "unitarity", "shift-diagonal", "danielson-lanczos"}),
    *fft_derive("shift-phases-1e-9", shift_phases_times(1 + 1e-9),
                {"shift-diagonal", "shift-recursion", "shift-depth-2"}),
    # a NaN fails its check whichever way the check reduces its values
    *fft_derive("shift-phase-nan", shift_phase_nan(5, 3), {"shift-recursion"}),
    *fft_derive("natural-order-nan", natural_order_entry_nan(),
                {"ladder-vs-dft", "unitarity", "shift-diagonal", "danielson-lanczos"}),
    # a NaN variance is no boundary: r stays in the parity and has its band
    Row("replica-nan-r", "tomography", replica_estimate_nan("r"),
        frozenset({"precision-parity", "variance-band-r"}),
        {"state": {"kind": "qubit", "bloch": [0.6, 0.48, 0.64]},
         "trials": 10_000, "replicas": 2_000}),
    # at 1e-9 the recursion deviation lands on its tolerance
    metric_check("closed-form-1e-8", times(criteria, "_closed_form", 1 + 1e-8),
                 {"fs-factor", "recursion"}),
    metric_check("recursion-1e-8", times(criteria, "_recursion", 1 + 1e-8),
                 {"recursion"}),
    metric_check("fubini-study-1e-9", times(criteria, "fubini_study_metric", 1 + 1e-9),
                 {"fs-factor"}),
    metric_check("one-bit-metric-1e-9", times(criteria, "metric_in_coords", 1 + 1e-9),
                 {"one-bit-form"}),
    metric_check("extended-metric-plus-1e-9",
                 wrapped(criteria, "extended_fisher_metric",
                         lambda metric, *args: metric + 1e-9),
                 {"gauge-zero", "one-bit-form"}),
    metric_check("p-chart-metric-1e-8",
                 wrapped(criteria, "chart_tangent_metric",
                         lambda metric, points, tangents, axis:
                         metric * (1 + 1e-8) if axis == "p" else metric),
                 {"chart-invariance"}),
    # the q constraint moves up a bit and p stays: every one of the 9 images
    # at width 4 loses one level
    partition_audit("scale-keeps-p",
                    wrapped(criteria, "scale_transform_set",
                            lambda image, s: PhaseSpaceSet(image.q_constraint,
                                                           s.p_constraint)),
                    {"scale-level-sum"}),
    partition_audit("no-family-of-4",
                    wrapped(criteria, "shift_invariant_equal_partitions",
                            lambda families, n, cardinality:
                            [] if cardinality == 4 else families),
                    {"lsb-uniqueness"}),
    # M * var reads 0.098 (q) and 0.125 (p) off 1, against a band of 0.0646
    tomography("spread-1.05", spread_times(1.05),
               {"variance-band-q", "variance-band-p"}),
]


def blind_spot(row, reason):
    """row as a strict xfail: no check catches its defect until the
    ROADMAP item that `reason` names lands."""
    return pytest.param(row, id=row.id,
                        marks=pytest.mark.xfail(strict=True, reason=reason))

BLIND_SPOTS = [
    # 1e-14 relative is about 45 eps, yet every transform check passes on
    # rounding below EXACT_TOL = 1e-12
    *(blind_spot(row, "ROADMAP item 4: no fft-derive check bounds the ladder's "
                 "rounding a priori, so a root 1e-14 off passes them all")
      for row in fft_derive("root-entry-1e-14", root_entry_one_times(1 + 1e-14),
                            {"ladder-rounding"})),
    # unitarity reads 2.0e-13 at levels 5
    *(blind_spot(row, "ROADMAP item 4: no fft-derive check bounds the ladder's "
                 "rounding a priori, so an odd-n scale 1e-13 off passes them all")
      for row in fft_derive("odd-scale-1e-13",
                            wrapped(kernels, "_unit_scale", lambda scale, n:
                                    scale * (1 + 1e-13) if n & 1 else scale),
                            {"ladder-rounding"})),
    blind_spot(metric_check("recursion-1e-11", times(criteria, "_recursion", 1 + 1e-11),
                            {"metric-exact"}),
               "ROADMAP item 16: the recursion is judged at RECURSION_TOL = 1e-9, "
               "not at its rounding"),
    # a 6% precision gap between q and p, a break of hypothesis 2; at 40,001
    # replicas the same seed fails both checks
    blind_spot(tomography("q-spread-1.03", spread_times(1.03, ("q",)),
                          {"precision-parity", "variance-band-q"}),
               "ROADMAP item 1: at 12,000 replicas the parity gate is too wide "
               "to see a 6% precision gap"),
    # a bias of theta_hat of about 60 sd of the replica mean
    blind_spot(tomography("p0-1e-3",
                          wrapped(sampling, "prob_from_theta",
                                  lambda probs, theta: (probs[0] * (1 + 1e-3), probs[1])),
                          {"estimator-bias"}),
               "ROADMAP items 20 and 25: no check compares theta_hat's mean with theta"),
]


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in ROWS]
                         + BLIND_SPOTS)
def test_a_planted_defect_fails_its_checks(row, tmp_path, capsys, monkeypatch):
    for module, name, value in row.patches:
        monkeypatch.setattr(module, name, value)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"version": 1, "kind": row.kind, **row.config}))
    code = cli.main([row.kind, "--config", str(config), "--out", str(tmp_path)])
    failed = re.findall(r"^\[FAIL\] ([\w-]+):", capsys.readouterr().out, re.MULTILINE)
    assert (code, set(failed)) == (1, row.fails)


@pytest.mark.parametrize("kind", sorted(set(criteria.CRITERIA) - {"bench"}))
def test_every_check_fails_in_some_row(kind):
    # a per-item id such as variance-band-{observable} fails as any of its items
    patterns = {re.sub(r"\{\w+\}", "*", id) for key in criteria.CRITERIA[kind]
                for id in key}
    failed = set().union(*(row.fails for row in ROWS if row.kind == kind))
    assert {pattern for pattern in patterns
            if fnmatch.filter(failed, pattern)} == patterns
