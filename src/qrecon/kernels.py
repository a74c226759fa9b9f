"""The in-place radix-2 butterfly kernel behind the ladder apply.

One vectorized numpy kernel runs every stage: each stage pairs the halves of
its blocks through a Hadamard cell, then multiplies the second halves by the
stage's twiddle ramp (the first halves' twiddle is the identity).  `twiddles`
is `ButterflyPlan.ramps`: twiddles[l-1] is the ramp of 2**(n-l) entries that
follows stage l < n.  psi may be one state of N = 2**n components or a
C-contiguous (rows, N) stack of them; one call runs the stages on every row.
BACKEND names the kernel for reports.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

BACKEND = "python"
AVAILABLE_BACKENDS = (BACKEND,)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def butterfly_range(psi: np.ndarray, twiddles: Sequence[np.ndarray],
                    n: int, l_start: int, l_end: int) -> None:
    """Apply stages l_start..l_end (with their twiddles) to psi in place."""
    if psi.ndim > 1 and not psi.flags.c_contiguous:
        # the stage reshape would copy, and the stages would miss psi
        raise ValueError("a stack of states must be C-contiguous")
    for l in range(l_start, l_end + 1):
        half = 1 << (n - l)
        view = psi.reshape(-1, 2, half)
        top = view[:, 0, :]
        bot = view[:, 1, :]
        tmp = top - bot
        top += bot
        top *= _INV_SQRT2
        tmp *= _INV_SQRT2
        if l < n:
            tmp *= twiddles[l - 1]
        bot[...] = tmp


def apply_stage_range(psi: np.ndarray, twiddles: Sequence[np.ndarray],
                      n: int, l_start: int, l_end: int) -> None:
    """Run stages l_start..l_end (with their trailing twiddles) in place."""
    butterfly_range(psi, twiddles, n, l_start, l_end)


def apply_stages_inplace(psi: np.ndarray, twiddles: Sequence[np.ndarray],
                         n: int) -> None:
    """Run all n stages (with interleaved twiddles) on psi in place."""
    if psi.shape[0] != 1 << n:
        raise ValueError("state length does not match the plan order")
    butterfly_range(psi, twiddles, n, 1, n)
