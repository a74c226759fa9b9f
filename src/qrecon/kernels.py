"""The in-place radix-2 butterfly kernel behind the ladder apply.

One vectorized numpy kernel runs every stage: each stage takes the sum and
the difference of the halves of its blocks, then multiplies the difference
by the stage's twiddle ramp (the first halves' twiddle is the identity), in
three passes.  The cells carry no 1/sqrt(2): the ladder's one normalization,
2**(-n/2), is `scale`, by which stage n of a call (its own numbering)
multiplies both halves in place of the ramp.  That factor is exact for even
n; for odd n it is _INV_SQRT2 times a power of two, so it carries that
constant's error, 0.56 ulp (1/sqrt(2) rounded twice).  An unnormalized
stage grows an entry's modulus at most 2-fold, so entries up to about 1e300
stay finite through every width up to `exceptions.MAX_WIDTH` = 24
(2**24 * 1e300 is about 1.7e307).  `twiddles` is `ButterflyPlan.ramps`:
twiddles[l-1] is the ramp of 2**(n-l) entries that follows stage l < n.
psi may be one state of N = 2**n components or a C-contiguous (N, B) stack
of B column states; on a stack each stage works on every column at once,
so its innermost loops run along the B columns (with the ramp broadcast
down them) and stay long even where the stage's halves are short.  A stage
allocates nothing: the difference of its halves goes into the caller's
`scratch`, a flat array of psi's dtype and N * B / 2 entries or more, and
the stage's last multiply writes it straight into the second halves.  The
kernel runs at the caller's ufunc buffer size, in psi's dtype: complex
floats, or exact finite-field ints in an object array.
`apply_stages_inplace` is `apply_stage_range` over all n stages, with a
scratch of its own.  BACKEND names the kernel for reports.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

BACKEND = "python"
AVAILABLE_BACKENDS = (BACKEND,)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _unit_scale(n: int) -> float:
    """2**(-n/2), the factor that makes n unnormalized stages unitary: exact
    for even n, _INV_SQRT2's error for odd n."""
    return math.ldexp(_INV_SQRT2 if n & 1 else 1.0, -(n // 2))


def apply_stage_range(psi: np.ndarray, twiddles: Sequence[np.ndarray],
                      n: int, l_start: int, l_end: int,
                      scratch: np.ndarray, scale: float | None = None) -> None:
    """Run stages l_start..l_end (with their trailing twiddles) in place on
    one state (N,) or a column stack (N, B), using the flat `scratch` of psi's
    dtype, at least psi.size // 2 entries, for the halves' differences.  Stage
    n, if reached, scales both halves by `scale`, by default _unit_scale(n)."""
    if psi.ndim not in (1, 2) or psi.shape[0] != 1 << n:
        raise ValueError("need one state of 2**n components or an (N, B) stack")
    if psi.ndim == 2 and not psi.flags.c_contiguous:
        # the stage reshape would copy, and the stages would miss psi
        raise ValueError("a stack of states must be C-contiguous")
    half_size = psi.size // 2
    if (not isinstance(scratch, np.ndarray) or scratch.ndim != 1
            or not scratch.flags.c_contiguous
            or scratch.dtype != psi.dtype or scratch.size < half_size):
        raise ValueError("scratch must be a flat C-contiguous array of psi's "
                         "dtype and at least psi.size // 2 entries")
    cols = psi.shape[1:]  # () for one state, (B,) for a stack
    if scale is None:
        scale = _unit_scale(n)
    # a multiply into psi that cannot hold its values would fail after the
    # first stages had run: complex ramps in a float stack, say
    if not np.can_cast(np.result_type(*twiddles[l_start - 1:l_end], scale),
                       psi.dtype, "same_kind"):
        raise ValueError("the twiddle ramps and scale must fit psi's dtype")
    for l in range(l_start, l_end + 1):
        half = 1 << (n - l)
        # the block count, not -1: an empty stack (B = 0) has no size to infer it
        view = psi.reshape(psi.shape[0] // (2 * half), 2, half, *cols)
        top = view[:, 0]
        bot = view[:, 1]
        tmp = scratch[:half_size].reshape(top.shape)
        np.subtract(top, bot, out=tmp)
        top += bot
        if l < n:
            ramp = twiddles[l - 1]
            np.multiply(tmp, ramp[:, None] if cols else ramp, out=bot)
        else:
            top *= scale
            np.multiply(tmp, scale, out=bot)


def apply_stages_inplace(psi: np.ndarray, twiddles: Sequence[np.ndarray],
                         n: int) -> None:
    """Run all n stages (with interleaved twiddles) on psi in place."""
    apply_stage_range(psi, twiddles, n, 1, n, np.empty(psi.size // 2, psi.dtype))
