"""The golden corpus: what the CLI writes and what the ladder, metric and
pyramid layers return, pinned in golden.json.

A change that claims to keep every value's bits keeps every entry here.  A
CLI entry is one in-process `cli.main` run: its exit code, each check's
verdict (`verdicts`, check id -> passed) and the SHA-256 of report.json
(without the wall-clock fields and `env`), report.csv, rows.csv and
stdout.  A layer entry is one call on fixed inputs: the SHA-256 of its
result's dtype, shape and bytes, or its values when they are a few floats.
The bits rest on the build (numpy's generators and libm), so on a build
other than the one golden.json records only each CLI entry's exit code and
verdicts are checked; the digests and the layer entries skip and say which
two builds differ.  `bench` times itself, so its values are no fixed bits
and it has no entry.

To pin the corpus again, on purpose, after a change that moves values:

    PYTHONPATH=src python tests/test_golden.py

It first prints what moves against golden.json: a build change, each added
or removed entry, and each entry whose value moved with the parts that
changed, as test_entry_keeps_its_bits names them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qrecon import cli
from qrecon.butterfly import _ladder_deviations, apply_butterfly, make_plan
from qrecon.metrics import _recursion
from qrecon.probmodel import mass_pyramid

GOLDEN = Path(__file__).with_name("golden.json")
BUILD = {"python": platform.python_version(), "numpy": np.__version__,
         "machine": platform.machine()}
DROPPED = ("elapsed_s", "criterion_elapsed_s", "process", "env")  # no fixed bits
ON_ANY_BUILD = ("exit", "verdicts")  # the parts of a CLI entry that rest on no build


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    return _sha(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())


def _cli_run(kind: str, fields: dict) -> dict:
    """Exit code and output digests of `qrecon kind` on a config of fields."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        argv = [kind, "--out", str(out)]
        if fields:
            config = out / "config.json"
            config.write_text(json.dumps({"version": 1, "kind": kind, **fields}))
            argv += ["--config", str(config)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        doc = json.loads((out / "report.json").read_text())
        for field in DROPPED:
            doc.pop(field)
        rows = out / "rows.csv"
        return {"exit": code,
                "verdicts": {check["id"]: check["passed"] for check in doc["checks"]},
                "report.json": _sha(json.dumps(doc, indent=2).encode()),
                "report.csv": _sha((out / "report.csv").read_bytes()),
                "rows.csv": _sha(rows.read_bytes()) if rows.exists() else None,
                "stdout": _sha(stdout.getvalue().encode())}


def _state(n: int) -> np.ndarray:
    """A fixed complex state (N,) of no symmetry, N = 2**n, unnormalized."""
    k = np.arange(1 << n)
    return np.cos(0.37 * k + 0.1) + 1j * np.sin(1.3 * k + 0.2)


def _differentials(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed (rho, drho, dphi) stacks (3, N): rows of the simplex, with
    zero-sum mass flows."""
    k, row = np.arange(1 << n), np.arange(3)[:, None]
    rho = 1.0 + 0.5 * np.sin(0.9 * k + row)
    rho /= rho.sum(axis=-1, keepdims=True)
    drho = 0.01 * np.cos(1.7 * k + row)
    drho -= drho.mean(axis=-1, keepdims=True)
    return rho, drho, 0.02 * np.sin(0.3 * k - row)


def _corpus() -> dict:
    """Entry name -> a call that returns its JSON value."""
    runs = {f"{kind}/defaults": (kind, {}) for kind in cli.DEFAULTS if kind != "bench"}
    runs.update({f"tomography/seed-{s}": ("tomography", {"seed": s}) for s in (0, 7, 28)})
    runs["tomography/qubit"] = ("tomography", {
        "state": {"kind": "qubit", "bloch": [0.36, 0.48, 0.8]}, "trials": 5000})
    for levels in (1, 4, 8):
        # 1,000 samples at 8 levels are 16 blocks; the default 10,000 would
        # take most of a second
        samples = {"samples": 1000} if levels == 8 else {}
        for s in (0, 7):
            runs[f"metric-check/levels-{levels}/seed-{s}"] = (
                "metric-check", {"levels": levels, "seed": s, **samples})
    runs.update({f"fft-derive/levels-{n}": ("fft-derive", {"levels": n})
                 for n in (1, 3, 6, 10)})
    runs.update({f"partition-audit/width-{w}": ("partition-audit", {"width": w})
                 for w in (1, 2, 3, 4)})
    corpus = {f"cli/{name}": (lambda args=args: _cli_run(*args))
              for name, args in runs.items()}
    for n in range(1, 17):
        corpus[f"apply_butterfly/n-{n}"] = (
            lambda n=n: _array_sha(apply_butterfly(make_plan(n), _state(n))))
    for n in range(1, 11):
        corpus[f"_ladder_deviations/n-{n}"] = lambda n=n: _ladder_deviations(n)
    for n in range(11):
        corpus[f"_recursion/n-{n}"] = (
            lambda n=n: _array_sha(_recursion(*_differentials(n))))
        corpus[f"mass_pyramid/n-{n}"] = (
            lambda n=n: _array_sha(np.concatenate(
                [level.ravel() for level in mass_pyramid(_differentials(n)[0])])))
    return corpus


CORPUS = _corpus()
PINNED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"build": None,
                                                                  "entries": {}}


def _changed(got, pinned) -> list[str]:
    """The parts of an entry that moved: the keys whose values differ where
    both values are dicts, else "value" if the two differ at all."""
    if isinstance(got, dict) and isinstance(pinned, dict):
        return sorted(key for key in got.keys() | pinned.keys()
                      if got.get(key) != pinned.get(key))
    return [] if got == pinned else ["value"]


def test_every_entry_is_pinned():
    assert sorted(PINNED["entries"]) == sorted(CORPUS)


@pytest.mark.parametrize("name", list(CORPUS))
def test_entry_keeps_its_bits(name):
    pinned, other_build = PINNED["entries"].get(name), PINNED["build"] != BUILD
    skip = f"golden corpus pinned on {PINNED['build']}, this build is {BUILD}"
    if other_build and not name.startswith("cli/"):
        pytest.skip(skip)
    got = CORPUS[name]()
    if other_build:
        # a CLI run's exit code and verdicts rest on no build, its digests do
        got = {part: got[part] for part in ON_ANY_BUILD}
        pinned = {part: (pinned or {}).get(part) for part in ON_ANY_BUILD}
    changed = _changed(got, pinned)
    assert not changed, f"{name}: {', '.join(changed)} changed"
    if other_build:
        pytest.skip(f"{skip}: exit code and verdicts checked, digests skipped")


def test_another_build_checks_the_exit_codes_and_verdicts_only(monkeypatch):
    monkeypatch.setitem(globals(), "BUILD", {**BUILD, "numpy": "0.0"})
    name, entries = "cli/partition-audit/width-1", PINNED["entries"]
    pinned = entries[name]
    monkeypatch.setitem(entries, name, {**pinned, "report.json": "moved"})
    with pytest.raises(pytest.skip.Exception, match="exit code and verdicts checked"):
        test_entry_keeps_its_bits(name)
    monkeypatch.setitem(entries, name, {**pinned, "exit": 1})
    with pytest.raises(AssertionError, match="exit changed"):
        test_entry_keeps_its_bits(name)
    flipped = {**pinned["verdicts"], "lsb-uniqueness": False}
    monkeypatch.setitem(entries, name, {**pinned, "verdicts": flipped})
    with pytest.raises(AssertionError, match="verdicts changed"):
        test_entry_keeps_its_bits(name)
    with pytest.raises(pytest.skip.Exception, match="pinned on"):
        test_entry_keeps_its_bits("_recursion/n-3")


if __name__ == "__main__":
    entries = {name: call() for name, call in CORPUS.items()}
    if PINNED["build"] != BUILD:
        print(f"build changed: {PINNED['build']} -> {BUILD}")
    for name in sorted(PINNED["entries"].keys() - entries.keys()):
        print(f"removed: {name}")
    for name, got in entries.items():
        if name not in PINNED["entries"]:
            print(f"added: {name}")
        elif changed := _changed(got, PINNED["entries"][name]):
            print(f"moved: {name}: {', '.join(changed)}")
    GOLDEN.write_text(json.dumps({"build": BUILD, "entries": entries}, indent=1) + "\n")
    print(f"pinned {len(CORPUS)} entries on {BUILD} in {GOLDEN}", file=sys.stderr)
