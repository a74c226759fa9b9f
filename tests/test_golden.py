"""The golden corpus: what the CLI writes and what the ladder, metric and
pyramid layers return, pinned in golden.json.

A change that claims to keep every value's bits keeps every entry here.  A
CLI entry is one in-process `cli.main` run: its exit code and the SHA-256
of report.json (without the wall-clock fields and `env`), report.csv,
rows.csv and stdout.  A layer entry is one call on fixed inputs: the
SHA-256 of its result's dtype, shape and bytes, or its values when they
are a few floats.  The bits rest on the build (numpy's generators and
libm), so on a build other than the one golden.json records the corpus
skips and says which two builds differ.  `bench` times itself, so its
values are no fixed bits and it has no entry.

To pin the corpus again, on purpose, after a change that moves values:

    PYTHONPATH=src python tests/test_golden.py
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


def test_every_entry_is_pinned():
    assert sorted(PINNED["entries"]) == sorted(CORPUS)


@pytest.mark.parametrize("name", list(CORPUS))
def test_entry_keeps_its_bits(name):
    if PINNED["build"] != BUILD:
        pytest.skip(f"golden corpus pinned on {PINNED['build']}, this build is {BUILD}")
    got, pinned = CORPUS[name](), PINNED["entries"].get(name)
    if isinstance(got, dict) and isinstance(pinned, dict):
        changed = sorted(key for key in got.keys() | pinned.keys()
                         if got.get(key) != pinned.get(key))
        assert not changed, f"{name}: {', '.join(changed)} changed"
    assert got == pinned, f"{name} changed"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {"build": BUILD, "entries": {name: call() for name, call in CORPUS.items()}},
        indent=1) + "\n")
    print(f"pinned {len(CORPUS)} entries on {BUILD} in {GOLDEN}", file=sys.stderr)
