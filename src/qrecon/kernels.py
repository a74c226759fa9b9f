"""The in-place radix-2 butterfly kernel behind the ladder apply.

One vectorized numpy kernel runs every stage: each stage pairs the halves of
its blocks through a Hadamard cell, then multiplies by the twiddle diagonal
that follows it.  BACKEND names it for reports.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "python"
AVAILABLE_BACKENDS = (BACKEND,)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def butterfly_range(psi: np.ndarray, diags: np.ndarray, n: int,
                    l_start: int, l_end: int) -> None:
    """Apply stages l_start..l_end (with their twiddles) to psi in place."""
    for l in range(l_start, l_end + 1):
        half = 1 << (n - l)
        view = psi.reshape(-1, 2, half)
        top = view[:, 0, :].copy()
        bot = view[:, 1, :]
        view[:, 0, :] = (top + bot) * _INV_SQRT2
        view[:, 1, :] = (top - bot) * _INV_SQRT2
        if l < n:
            psi *= diags[l - 1]


def apply_stage_range(psi: np.ndarray, diags: np.ndarray, n: int,
                      l_start: int, l_end: int) -> None:
    """Run stages l_start..l_end (with their trailing twiddles) in place."""
    butterfly_range(psi, diags, n, l_start, l_end)


def apply_stages_inplace(psi: np.ndarray, diags: np.ndarray, n: int) -> None:
    """Run all n stages (with interleaved twiddles) on psi in place."""
    if psi.shape[0] != 1 << n:
        raise ValueError("state length does not match the plan order")
    butterfly_range(psi, diags, n, 1, n)
