"""The butterfly reconstruction of the conjugate-variable transform.

A width-n system carries a ladder of n stage operators F_l (block Hadamard
cells pairing indices k and k + L/2 inside contiguous blocks of
L = 2**(n-l+1)) separated by diagonal twiddle phases t_l derived from the
cyclic-shift recursion.  Composing the ladder and undoing the bit-reversal
of the output reproduces the unitary discrete Fourier matrix exactly; the
in-place evaluation costs O(N log N) cell operations against O(N^2) for the
dense product.  `apply_butterfly` is the one body that runs the ladder, on
one state or on an (N, B) column stack; `transform_columns` is that call
with a plan built from (n, sign).

All four transform checks (ladder against the Fourier matrix, unitarity,
the diagonalized shift, the Danielson-Lanczos decomposition) come from one
streamed measurement over blocks of LADDER_BLOCK identity columns,
`_ladder_deviations`, which builds no dense matrix and needs
O(N * LADDER_BLOCK) memory at every size; `verify_danielson_lanczos` and
`shift_operator_check` rename its keys.  Its Fourier references read one
table of N roots at j*k mod N (exact argument reduction) and `make_plan`
keeps its own ramps, so the checks measure the ladder's rounding, not the
reference's.

Sign convention: `twiddle_phase` returns the phases of the q -> p ladder,
which adopts the minus sign in the shift recursion.  A plan built with
sign=+1 (the default) conjugates those diagonals, which composes the inverse
ladder and yields the +2*pi*i*j*k/N matrix, the positive-spatial-frequency
convention; sign=-1 keeps the raw phases and yields its conjugate.  Both are
unitary; `dft_matrix` defaults to the +1 convention.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .exceptions import DomainError, check_integer
from .probmodel import RENORM_TOL, Distribution

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _check_sign(sign) -> None:
    # bool is an int subclass: True is not a sign here
    if type(sign) is not int or sign not in (+1, -1):
        raise DomainError("sign must be the integer +1 or -1")


# ----------------------------------------------------------------- indexing

# typed: True and 1.0 must not hit the cache entry of 1
@functools.lru_cache(maxsize=None, typed=True)
def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index array br with br[y] = y with its n bits in reversed order."""
    n = check_integer("width", n, 0)
    br = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        br = np.concatenate([2 * br, 2 * br + 1])
    br.setflags(write=False)
    return br


def node_position(n: int, l: int, x: int, y: int) -> int:
    """Horizontal index of a diagram node: the l lowest bits of the p-index y
    in reversed order, followed by the n-l lowest bits of the q-index x.

    l = 0 returns x itself; l = n returns the bit reversal of y.
    """
    n = check_integer("width", n, 0)
    l = check_integer("level", l, 0, n)
    x = check_integer("q-index", x, 0, (1 << n) - 1)
    y = check_integer("p-index", y, 0, (1 << n) - 1)
    mu = 0
    for i in range(l):
        mu = (mu << 1) | ((y >> i) & 1)
    return (mu << (n - l)) | (x & ((1 << (n - l)) - 1))


# ------------------------------------------------------- phases and stages

def derive_shift_phases(l: int) -> np.ndarray:
    """Diagonal phases s_l[k] of the one-step shift at ladder depth l, a
    read-only array: the shift recursion solved upward from the two-point
    base (0, -pi).

    Depth m inherits its first half from half the depth m-1 phases and its
    second half by subtracting pi; the result equals the closed form
    -2*pi*k/2**l to rounding.
    """
    l = check_integer("depth", l, 1)
    values = np.array([0.0, -math.pi])
    for m in range(2, l + 1):
        half = 1 << (m - 1)
        new = np.empty(1 << m)
        new[:half] = values / 2.0
        new[half:] = new[:half] - math.pi
        values = new
    values.setflags(write=False)
    return values


def twiddle_phase(n: int, level: int, k: int) -> float:
    """Phase of entry k of the q -> p twiddle diagonal t_level.

    Zero on the first half of each block of 2**(n-level+1) entries, then a
    ramp of -2*pi*(offset into the second half)/blocksize.
    """
    n = check_integer("width", n, 1)
    level = check_integer("twiddle level", level, 1, n - 1)
    k = check_integer("index", k, 0, (1 << n) - 1)
    block = 1 << (n - level + 1)
    half = block >> 1
    r = k % block
    if r < half:
        return 0.0
    return -2.0 * math.pi * (r - half) / block


def twiddle_stage(n: int, level: int) -> np.ndarray:
    """Read-only phase vector of the q -> p twiddle diagonal t_level."""
    n = check_integer("width", n, 1)
    level = check_integer("twiddle level", level, 1, n - 1)
    block = 1 << (n - level + 1)
    half = block >> 1
    r = np.arange(1 << n) % block
    phases = np.where(r < half, 0.0, -2.0 * math.pi * (r - half) / block)
    phases.setflags(write=False)
    return phases


def stage_matrix(n: int, l: int) -> np.ndarray:
    """Dense operator of stage l: Hadamard cells pairing k and k + L/2 inside
    each contiguous block of L = 2**(n-l+1) components."""
    n = check_integer("width", n, 1)
    l = check_integer("stage", l, 1, n)
    # integer Kronecker factors, scaled once: a float -1/sqrt(2) times a
    # zero of the identity would leave -0.0 entries
    cell = np.kron([[1, 1], [1, -1]], np.eye(1 << (n - l), dtype=int))
    return np.kron(np.eye(1 << (l - 1), dtype=int), cell) * _INV_SQRT2


# ------------------------------------------------------------------- plans

@dataclass(frozen=True)
class ButterflyPlan:
    """Precomputed twiddle ramps for the n-stage ladder.

    The twiddle after stage l is the identity on the first half of every
    block of 2**(n-l+1) entries and one ramp on the second half, the same
    for every block.  ramps[l-1] holds that ramp, 2**(n-l) entries, for each
    l < n: N - 2 entries in all instead of the (n-1) * N full diagonals.
    sign=+1 stores the conjugated (inverse-ladder) values, sign=-1 the raw
    q -> p values.
    """

    n: int
    sign: int
    ramps: tuple[np.ndarray, ...] = field(repr=False)

    def diagonal(self, level: int) -> np.ndarray:
        """Full twiddle diagonal after stage `level`, expanded from its ramp
        alone."""
        level = check_integer("twiddle level", level, 1, self.n - 1)
        ramp = self.ramps[level - 1]
        row = np.ones(1 << self.n, dtype=complex)
        row.reshape(-1, 2, ramp.size)[:, 1, :] = ramp
        return row

    def twiddle_phases(self, level: int) -> np.ndarray:
        return np.angle(self.diagonal(level))


def make_plan(n: int, sign: int = +1) -> ButterflyPlan:
    """Plan the n-stage ladder: one np.exp over the level-1 ramp.

    The level-1 ramp has phases -2*pi*k/N, k < N/2; the level-l ramp is its
    stride-2**(l-1) slice, since -2*pi*(s*k)/N equals -2*pi*k/(N/s) exactly
    for a power of two s.  Every ramp is contiguous and read-only, and its
    values are bit-identical to the second halves of twiddle_stage.
    """
    n = check_integer("stage count", n, 1)
    _check_sign(sign)
    size = 1 << n
    phases = -2.0 * math.pi * np.arange(size >> 1) / size
    base = np.exp(-1j * sign * phases)
    ramps = []
    for level in range(1, n):
        ramp = np.ascontiguousarray(base[::1 << (level - 1)])
        ramp.setflags(write=False)
        ramps.append(ramp)
    return ButterflyPlan(n, sign, tuple(ramps))


def apply_butterfly(plan: ButterflyPlan, psi: np.ndarray,
                    order: str = "natural") -> np.ndarray:
    """Evaluate the ladder on psi, one state (N,) or a column stack (N, B), in
    O(N log N) cell operations per state.

    order 'bitReversed' returns the ladder output as produced (component mu
    holds the coefficient of the bit-reversed index); 'natural' undoes the
    permutation.  Matches the dense assemble_transform action to rounding.

    A state and a stack run the same four steps (Bailey's four-step FFT),
    with s = min(n, TAIL_STAGES):
      1. the first n - s stages run in place on a C-contiguous copy of psi;
      2. below them the ladder is 2**(n-s) independent s-stage ladders, one
         per contiguous block of 2**s entries (rows, on a stack): the blocks
         are gathered, in bit-reversed block order and GATHER_ENTRIES
         entries at a time, into a (2**s, N / 2**s, *cols) tail;
      3. the last s stages run on the tail as one (2**s, N / 2**s * B)
         stack, with the plan's last s - 1 ramps, so the short half-blocks
         of those stages become long rows;
      4. the tail's rows, read in bit-reversed order, give the natural
         order; its blocks, read back in bit-reversed order, the ladder's
         own order.
    Each entry meets the same float operations in the same order as in a
    pass of all n stages over one array, so the result has the same bits.
    """
    if order not in ("natural", "bitReversed"):
        raise DomainError(f"unknown order {order!r}")
    n = plan.n
    psi = np.asarray(psi)
    if psi.ndim not in (1, 2) or psi.shape[0] != 1 << n:
        raise DomainError("need one state or an (N, B) column stack of the "
                          "plan's length N")
    s = min(n, TAIL_STAGES)
    work = np.array(psi, dtype=complex, order="C")
    kernels.apply_stage_range(work, plan.ramps, n, 1, n - s)
    # explicit sizes, not -1: an empty stack (B = 0) has no size to infer it
    cols = psi.shape[1:]
    blocks = work.reshape(1 << (n - s), 1 << s, *cols)
    tail = np.empty((1 << s, 1 << (n - s), *cols), dtype=complex)
    perm = bit_reversal_permutation(n - s)
    step = max(1, GATHER_ENTRIES // max(1, blocks[0].size))
    for start in range(0, perm.size, step):
        chunk = perm[start:start + step]
        tail[:, start:start + chunk.size] = blocks[chunk].swapaxes(0, 1)
    del work, blocks
    kernels.apply_stage_range(tail.reshape(1 << s, tail.size >> s),
                              plan.ramps[n - s:], s, 1, s)
    if order == "natural":
        out = tail[bit_reversal_permutation(s)]
    else:
        out = tail.swapaxes(0, 1)[perm]
    return out.reshape(psi.shape)


def transform_columns(mat: np.ndarray, n: int, sign: int = +1,
                      order: str = "natural") -> np.ndarray:
    """Apply the composed n-stage ladder to one column or to every column of
    a 2-D stack: apply_butterfly with the plan make_plan(n, sign)."""
    return apply_butterfly(make_plan(n, sign), mat, order)


def assemble_transform(n: int, order: str = "natural", sign: int = +1) -> np.ndarray:
    """Dense matrix of the composed ladder.

    With sign=+1 and natural order this equals dft_matrix(2**n, +1), the
    unitary positive-exponent Fourier matrix, to rounding.
    """
    n = check_integer("width", n, 1)
    return transform_columns(np.eye(1 << n, dtype=complex), n, sign, order)


def dft_matrix(size: int, sign: int = +1) -> np.ndarray:
    """Unitary Fourier matrix exp(sign * 2*pi*i*j*k/N) / sqrt(N), entry (j, k)
    read from the table of N roots at j*k mod N (exact argument reduction)."""
    size = check_integer("size", size, 1)
    if size & (size - 1):
        raise DomainError("size must be a power of 2")
    _check_sign(sign)
    return _dft_columns(_roots(size, sign), np.arange(size))


def _roots(size: int, sign: int) -> np.ndarray:
    """exp(sign * 2*pi*i*m/N) for m < N: the table behind every Fourier reference."""
    return np.exp(sign * 2j * np.pi * np.arange(size) / size)


# Entries per row block of _dft_columns: the integer products j*k exist one
# block at a time, so the only N x B array is the complex result.
DFT_BLOCK = 1 << 16


def _dft_columns(roots: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns `cols` of the unitary Fourier matrix whose N roots are `roots`:
    each row block gathers roots[(j*k) & (N-1)] / sqrt(N)."""
    size = roots.size
    out = np.empty((size, len(cols)), dtype=complex)
    # out before the table, the mask in place: 2 MB less peak RSS at n = 10
    scaled = roots / math.sqrt(size)
    rows = max(1, DFT_BLOCK // len(cols))
    for start in range(0, size, rows):
        block = out[start:start + rows]
        idx = np.outer(np.arange(start, start + len(block)), cols)
        idx &= size - 1
        np.take(scaled, idx, out=block, mode="clip")
    return out


# ------------------------------------------------------------ verifications

# Identity columns per block of the streamed ladder measurement.  With the
# four-step stack apply, on a 2-core VM (alternated processes, best of 7
# calls each), blocks of 32 columns took 169-197 ms at n = 10 against
# 184-210 ms for 64 and 248-272 ms for 128, and at n = 12 4.1-4.3 s against
# 4.4 s, with a 53 MB process peak against 77 MB.
LADDER_BLOCK = 32

# Stages that apply_butterfly runs on its tail stack.  At n = 18 on a
# 2-core VM, a stage with half-blocks of 2 to 16 entries took 2.2 to 5.1 ms
# on one array, against 1.1 to 1.2 ms for a stage with half-blocks of 4,096
# or more.  On one state, tails of 5 to 9 stages gave about the same apply
# time (medians of 30 to 31 ms over five alternated sweeps) and a tail of 4
# took about 7% longer; on (1024, 32), (1024, 64) and (4096, 32) stacks,
# tails of 4 to 10 stages were level within the spread of two sweeps.
TAIL_STAGES = 6

# Entries per chunk of the block gather into apply_butterfly's tail, so that
# only one chunk of blocks is ever held twice.  Chunks of 2**11 to 2**20
# entries gave the same apply times within the spread of two sweeps, on
# states of n = 10..18 and on (1024, 64), (1024, 128) and (4096, 64)
# stacks; 2**14 holds the tracemalloc peak of one n = 16 state at 2.3 times
# its size, where a gather of the whole state makes it 3.
GATHER_ENTRIES = 1 << 14


def _ladder_deviations(n: int) -> dict[str, float]:
    """Worst deviations of the composed ladder F (sign +1, natural order),
    streamed over blocks J of LADDER_BLOCK identity columns.

    Per block, one apply_butterfly call gives F[:, J], compared with the
    Fourier columns J ("ladder"), and _recursion_columns gives the half-size
    recursion's columns J, compared with the same Fourier columns
    ("recursion").  A second call on the 2B-column stack [conj(F[:, J]) |
    conj(P F[:, J])], P the one-step cyclic shift of rows, gives columns J
    of F^dagger F and of F^dagger P F: F's matrix is symmetric, so F^dagger X
    = conj(F conj(X)).  The first should be the identity ("unitarity"); the
    second diagonal ("off_diagonal") with the depth-n shift phases on its
    diagonal ("diagonal").  Each value is the one a pass over the whole
    matrices gives, bit for bit, and no array holds more than O(N B) entries.

    From two levels on, the final cell F_1 t_1 restricted to each pair
    (j, j + N/2), the 2x2 stage cell times the pair's twiddles, is compared
    with [[1, W^j], [1, -W^j]]/sqrt(2), W = exp(2*pi*i/N), for all pairs in
    one (N/2, 2, 2) pass ("cell"), and W^(j + N/2) with -W^j
    ("half_period").
    """
    size = 1 << n
    plan = make_plan(n, +1)  # one plan for every block's two calls
    roots = _roots(size, +1)
    phases = np.exp(1j * derive_shift_phases(n))
    worst = np.zeros(5)
    for start in range(0, size, LADDER_BLOCK):
        cols = np.arange(start, min(start + LADDER_BLOCK, size))
        diag = (cols, np.arange(cols.size))  # the entries (j, j), j in J
        unit = np.zeros((size, cols.size), dtype=complex)
        unit[diag] = 1.0
        fwd = apply_butterfly(plan, unit)
        dft = _dft_columns(roots, cols)
        # [conj(F[:, J]) | conj(P F[:, J])], P F[i] = F[i - 1] cyclically
        stack = np.empty((size, 2 * cols.size), dtype=complex)
        np.conjugate(fwd, out=stack[:, :cols.size])
        np.conjugate(fwd[:-1], out=stack[1:, cols.size:])
        np.conjugate(fwd[-1], out=stack[0, cols.size:])
        back = apply_butterfly(plan, stack)
        gram, shift = np.hsplit(np.conjugate(back, out=back), 2)
        shift_diag = shift[diag]
        shift[diag] -= shift_diag  # leaves the off-diagonal part
        worst = np.maximum(worst, [np.abs(fwd - dft).max(),
                                   np.abs(gram - unit).max(),
                                   np.abs(shift).max(),
                                   np.abs(shift_diag - phases[cols]).max(),
                                   np.abs(_recursion_columns(n, cols, roots) - dft).max()])
    dev = dict(zip(("ladder", "unitarity", "off_diagonal", "diagonal", "recursion"),
                   map(float, worst)))
    if n >= 2:
        half = size >> 1
        # stage_matrix(1, 1) @ diag(t[j], t[j + N/2]): column c times entry c
        pairs = plan.diagonal(1).reshape(2, half).T
        cell = stage_matrix(1, 1) * pairs[:, None, :]
        ones, w = np.ones(half), roots[:half]
        target = np.array([[ones, w], [ones, -w]]).transpose(2, 0, 1)
        dev["cell"] = float(np.abs(cell - target * _INV_SQRT2).max())
        dev["half_period"] = float(np.abs(roots[half:] + roots[:half]).max())
    return dev


def _recursion_columns(n: int, cols: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Columns `cols` of the Danielson-Lanczos recursion for the 2**n-point
    Fourier matrix, built from the 2x2 base [[1, 1], [1, -1]]/sqrt(2) with
    one array pass per level: column c of the 2**m matrix is column c >> 1
    of the half-size matrix tiled down both halves (row j reads row
    j mod 2**(m-1)), times W^j = roots[j * 2**(n-m)], W = exp(2*pi*i/2**m),
    when c is odd, and times 1/sqrt(2).  Each column is built as a
    contiguous row and the (N, len(cols)) result is a transposed view."""
    base = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _INV_SQRT2
    out = base[cols >> (n - 1)]  # base is symmetric: row c is column c
    for m in range(2, n + 1):
        out = np.concatenate([out, out], axis=1)
        odd = np.flatnonzero((cols >> (n - m)) & 1)
        out[odd] = roots[::1 << (n - m)] * out[odd]
        out *= _INV_SQRT2
    return out.T


def verify_danielson_lanczos(n: int) -> dict:
    """Check the ladder against the half-size decomposition of the Fourier
    matrix.

    Confirms that the final cell F_1 t_1 couples components (j, j + N/2)
    through [[1, W^j], [1, -W^j]]/sqrt(2) with W = exp(2*pi*i/N), and that
    recursing that decomposition rebuilds dft_matrix(N, +1) entrywise.
    """
    n = check_integer("level count", n, 2)
    dev = _ladder_deviations(n)
    return {
        "n": n,
        "cell_deviation": dev["cell"],
        "recursion_deviation": dev["recursion"],
        "ladder_deviation": dev["ladder"],
        "half_period_deviation": dev["half_period"],
    }


def shift_operator_check(n: int) -> dict:
    """Conjugate the one-step cyclic shift of the transformed variable back
    through the ladder and compare with the diagonal exp(-2*pi*i*k/N).

    The diagonal phases are exactly the depth-n shift phases, tying the
    twiddle derivation to the translation symmetry it came from.
    """
    n = check_integer("level count", n, 1)
    deviations = _ladder_deviations(n)
    return {
        "n": n,
        "off_diagonal_max": deviations["off_diagonal"],
        "diagonal_deviation": deviations["diagonal"],
    }


def chain_propagate(psi: np.ndarray) -> list[Distribution]:
    """Per-level probability distributions along the ladder.

    Level 0 is |psi|^2 on the input indexing; level l the squared moduli of
    the partial ladder product through stage l (twiddles do not move mass);
    level n the output distribution in the diagram's node indexing, i.e. the
    transformed probabilities under bit reversal.  Stage cells are unitary
    on their two components, so each level-(l-1) pair mass equals the
    corresponding level-l pair mass.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise DomainError("chain_propagate needs one flat state vector psi")
    size = psi.size
    n = size.bit_length() - 1 if size else 0
    if size != 1 << n or n < 1:
        raise DomainError("state length must be a power of 2, at least 2")
    norm = float(np.vdot(psi, psi).real)
    if abs(norm - 1.0) > RENORM_TOL:
        raise DomainError("state is not normalized")
    plan = make_plan(n, +1)
    work = psi.copy()
    levels = [Distribution(np.abs(work) ** 2)]
    for l in range(1, n + 1):
        kernels.apply_stage_range(work, plan.ramps, n, l, l)
        levels.append(Distribution(np.abs(work) ** 2))
    return levels
