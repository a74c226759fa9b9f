"""Planted defects: each release check is seen to catch one.

A row plants one defect in one derivation step, by monkeypatching the name
where the criterion looks it up (never a tolerance), runs the CLI and
expects exit 1 with a FAIL line for exactly the check ids it lists.  A
defect that no check catches yet is a row marked xfail(strict=True) that
names the ROADMAP item meant to close it, so that the change which lands
the item has to flip the row.  The rows cover fft-derive so far.
"""

import json
import re
from dataclasses import dataclass

import pytest

from qrecon import butterfly, cli, criteria


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


@dataclass(frozen=True)
class Row:
    id: str
    kind: str
    patches: list
    fails: frozenset


ROWS = [
    Row("root-entry-1e-9", "fft-derive", root_entry_one_times(1 + 1e-9),
        frozenset({"ladder-vs-dft", "unitarity", "shift-diagonal",
                   "danielson-lanczos"})),
    Row("shift-phases-1e-9", "fft-derive", shift_phases_times(1 + 1e-9),
        frozenset({"shift-diagonal", "shift-recursion", "shift-depth-2"})),
]

# 1e-14 relative is about 45 eps, yet every transform check passes on
# rounding below EXACT_TOL = 1e-12
BLIND_SPOTS = [
    pytest.param(Row("root-entry-1e-14", "fft-derive", root_entry_one_times(1 + 1e-14),
                     frozenset({"ladder-rounding"})),
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 4: no fft-derive check bounds the ladder's "
                     "rounding a priori, so a root 1e-14 off passes them all")),
                 id="root-entry-1e-14"),
]


@pytest.mark.parametrize("levels", [3, 5])
@pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in ROWS]
                         + BLIND_SPOTS)
def test_a_planted_defect_fails_its_checks(row, levels, tmp_path, capsys,
                                           monkeypatch):
    for module, name, value in row.patches:
        monkeypatch.setattr(module, name, value)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"version": 1, "kind": row.kind, "levels": levels}))
    code = cli.main([row.kind, "--config", str(config), "--out", str(tmp_path)])
    failed = re.findall(r"^\[FAIL\] ([\w-]+):", capsys.readouterr().out, re.MULTILINE)
    assert (code, set(failed)) == (1, row.fails)


def test_every_fft_derive_check_fails_in_some_row():
    ids = {id for key in criteria.CRITERIA["fft-derive"] for id in key}
    assert set().union(*(row.fails for row in ROWS if row.kind == "fft-derive")) == ids
