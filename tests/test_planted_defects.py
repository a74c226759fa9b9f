"""Planted defects: each release check is seen to catch one.

A row plants one defect in one derivation step, by monkeypatching the name
where the criterion looks it up (never a tolerance), runs the CLI and
expects exit 1 with a FAIL line for exactly the check ids it lists.  A
defect that no check catches yet is a row marked xfail(strict=True) that
names the ROADMAP item meant to close it, so that the change which lands
the item has to flip the row.  The rows cover fft-derive, each at levels 3
and 5, and begin on tomography.
"""

import json
import math
import re
from dataclasses import dataclass

import pytest

from qrecon import butterfly, cli, criteria, sampling


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
]

# 1e-14 relative is about 45 eps, yet every transform check passes on
# rounding below EXACT_TOL = 1e-12
BLIND_SPOTS = [
    pytest.param(row, id=row.id, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: no fft-derive check bounds the ladder's "
        "rounding a priori, so a root 1e-14 off passes them all")))
    for row in fft_derive("root-entry-1e-14", root_entry_one_times(1 + 1e-14),
                          {"ladder-rounding"})
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


def test_every_fft_derive_check_fails_in_some_row():
    ids = {id for key in criteria.CRITERIA["fft-derive"] for id in key}
    assert set().union(*(row.fails for row in ROWS if row.kind == "fft-derive")) == ids
