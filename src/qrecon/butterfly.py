"""The butterfly reconstruction of the conjugate-variable transform.

A width-n system carries a ladder of n stage operators F_l (block Hadamard
cells pairing indices k and k + L/2 inside contiguous blocks of
L = 2**(n-l+1)) separated by diagonal twiddle phases t_l derived from the
cyclic-shift recursion.  Composing the ladder and undoing the bit-reversal
of the output reproduces the unitary discrete Fourier matrix exactly; the
in-place evaluation costs O(N log N) cell operations against O(N^2) for the
dense product.  `apply_butterfly` runs the ladder on one state or on an
(N, B) column stack; `transform_columns` is that call with a plan built
from (n, sign).  Its body, `_ladder_tail` and `_natural_order`, is also
run by `_ladder_deviations` on block arrays that each of its workers holds
for a whole sweep.

All four transform checks (ladder against the Fourier matrix, unitarity,
the diagonalized shift, the Danielson-Lanczos decomposition) come from one
streamed measurement over blocks of LADDER_BLOCK identity columns,
`_ladder_deviations`, which builds no dense matrix and needs
O(N * LADDER_BLOCK) memory per worker (at most SWEEP_WORKERS of them) at
every size: two ladder passes per block, one for the columns and one, with
the sign -1 plan, for unitarity, while the shift is judged as P F = F D on
the columns alone.
`verify_danielson_lanczos` and `shift_operator_check` rename its keys.  The
plan's twiddle ramps and the Fourier references read one table of roots,
`_root_table`, filled exactly by symmetry from cos and sin on its first
octant; the references take entry j*k mod N (exact argument reduction).
Its error stays below one eps, so the checks measure the ladder's
rounding, not the table's.

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
import os
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .exceptions import (MAX_WIDTH, DomainError, check_integer, check_power_of_two,
                         check_rows, complex_array)
from .kernels import _INV_SQRT2
from .probmodel import _normalized


def _check_sign(sign) -> int:
    """sign as a Python int, if check_integer takes it to +1 or -1."""
    sign = check_integer("sign", sign, -1, 1)
    if sign == 0:
        raise DomainError("sign must be the integer +1 or -1")
    return sign


# ----------------------------------------------------------------- indexing

def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index array br with br[y] = y with its n bits in reversed order."""
    return _bit_reversal(check_integer("width", n, 0, MAX_WIDTH))


@functools.lru_cache(maxsize=None)
def _bit_reversal(n: int) -> np.ndarray:
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
    n = check_integer("width", n, 0, MAX_WIDTH)
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
    l = check_integer("depth", l, 1, MAX_WIDTH)
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
    """Phase of entry k of the q -> p twiddle diagonal t_level: the bits of
    twiddle_stage(n, level)[k], from the same float operations on k alone."""
    n = check_integer("width", n, 1, MAX_WIDTH)
    level = check_integer("twiddle level", level, 1, n - 1)
    k = check_integer("index", k, 0, (1 << n) - 1)
    block = 1 << (n - level + 1)
    half = block >> 1
    r = k % block
    return 0.0 if r < half else -2.0 * math.pi * (r - half) / block


def twiddle_stage(n: int, level: int) -> np.ndarray:
    """Read-only phase vector of the q -> p twiddle diagonal t_level: zero on
    the first half of each block of 2**(n-level+1) entries, then a ramp of
    -2*pi*(offset into the second half)/blocksize."""
    n = check_integer("width", n, 1, MAX_WIDTH)
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
    n = check_integer("width", n, 1, MAX_WIDTH // 2)
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


def make_plan(n: int, sign: int = +1) -> ButterflyPlan:
    """Plan the n-stage ladder from the root table of N = 2**n.

    The level-1 ramp is exp(sign * 2*pi*i*k/N), k < N/2: the table itself.
    The level-l ramp, exp(sign * 2*pi*i*k/(N/s)) with s = 2**(l-1), is the
    table's stride-s slice.  Every ramp is contiguous and read-only.
    """
    n = check_integer("stage count", n, 1, MAX_WIDTH)
    sign = _check_sign(sign)
    return _plan(n, sign, _root_table(1 << n, sign))


def _plan(n: int, sign: int, table: np.ndarray) -> ButterflyPlan:
    """The plan whose level-1 ramp is `table`, N/2 read-only roots."""
    ramps = []
    for level in range(1, n):
        ramp = np.ascontiguousarray(table[::1 << (level - 1)])
        ramp.setflags(write=False)
        ramps.append(ramp)
    return ButterflyPlan(n, sign, tuple(ramps))


def _root_table(size: int, sign: int) -> np.ndarray:
    """exp(sign * 2*pi*i*k/N) for k < N/2 (k = 0 alone at N = 1), read-only.

    np.cos and np.sin run on the angles of the first octant, k < N/8; the
    octant's end is sqrt(1/2) twice, and the rest of the half circle is
    filled exactly by swapping and negating the real and imaginary views:
    entry N/4 - k is (sin, cos) of k, entry N/4 + k is (-sin, cos) of k.
    Sign -1 negates the imaginary view.  N = 1, 2 and 4 give 1 and i.
    """
    if size < 8:
        table = np.array([1, 1j])[:max(1, size >> 1)]
    else:
        half, quarter, octant = size >> 1, size >> 2, size >> 3
        table = np.empty(half, dtype=complex)
        re, im = table.real, table.imag
        angles = np.arange(octant) * (2.0 * math.pi / size)
        np.cos(angles, out=re[:octant])
        np.sin(angles, out=im[:octant])
        re[octant] = im[octant] = math.sqrt(0.5)
        re[quarter:octant:-1] = im[:octant]
        im[quarter:octant:-1] = re[:octant]
        np.negative(im[1:quarter], out=re[quarter + 1:])
        im[quarter + 1:] = re[1:quarter]
    if sign < 0:
        np.negative(table.imag, out=table.imag)
    table.setflags(write=False)
    return table


def apply_butterfly(plan: ButterflyPlan, psi: np.ndarray) -> np.ndarray:
    """Evaluate the ladder on psi, one state (N,) or a column stack (N, B), in
    O(N log N) cell operations per state, in natural order: the ladder's own
    output is this result indexed by bit_reversal_permutation(n) (component
    mu holds the coefficient of the bit-reversed index).  Matches the dense
    assemble_transform action to rounding.

    _ladder_tail runs the ladder on a C-contiguous copy of psi, in blocks
    that fit in cache once the copy holds more than BLOCK_ENTRIES entries,
    and _natural_order reads its tail into the result.  Each entry meets the
    same float operations in the same order as in a pass of all n stages
    over one array, so the result has the same bits.  The stages' cells add
    and subtract without a 1/sqrt(2), and the last stage multiplies by the
    ladder's one normalization, 2**(-n/2) (kernels._unit_scale).  The copy
    is dropped before the result is allocated, so at most two states are
    held.  A non-finite entry, or entries so large that the stages' sums
    leave the float range (about 1.8e308 / 2**n), give non-finite output,
    and numpy warns of neither.
    """
    n = plan.n
    psi = complex_array(psi)
    if psi.ndim not in (1, 2) or psi.shape[0] != 1 << n:
        raise DomainError("need one state or an (N, B) column stack of the "
                          "plan's length N")
    shape, work = psi.shape, np.array(psi, order="C")
    del psi  # the converted copy of a real input goes before the tail comes
    tail = _ladder_tail(plan, work, np.empty(work.size, dtype=complex))
    del work
    return _natural_order(tail, np.empty(shape, dtype=complex))


def _head_stages(n: int, width: int) -> int:
    """Stages that _ladder_tail runs over the whole of an (N, width) stack,
    N = 2**n (width 1 for one state): n - b for the widest b >= TAIL_STAGES
    with 2**b * width <= BLOCK_ENTRIES, or 0 if there is none or b would
    reach n (and for an empty stack)."""
    b = (BLOCK_ENTRIES // width).bit_length() - 1 if width else n
    return n - b if TAIL_STAGES <= b < n else 0


def _ladder_tail(plan: ButterflyPlan, work: np.ndarray,
                 flat: np.ndarray) -> np.ndarray:
    """The ladder of apply_butterfly on `work`, a C-contiguous state (N,) or
    stack (N, B), which it overwrites in its own dtype: returns the tail, a
    (2**h, 2**s, 2**(b-s), *cols) view of `flat`, a flat buffer of work's
    dtype and size, which _natural_order reads in natural order.  With
    s = min(n, TAIL_STAGES), h = _head_stages(n, B) and b = n - h, so that
    h = 0 for an input of at most BLOCK_ENTRIES entries (Bailey's four-step
    and hierarchical-memory FFTs):
      1. the first h stages run over the whole of work;
      2. below them the ladder is 2**h independent ladders, one per
         contiguous block of 2**b entries (rows, on a stack), with the same
         ramps, the plan's last b - 1; their next b - s stages run one block
         at a time, in cache;
      3. below those the ladder is 2**(n-s) independent s-stage ladders, one
         per contiguous run of 2**s entries: the runs are gathered, in
         bit-reversed order and GATHER_ENTRIES entries at a time, into the
         tail, 2**(b-s) side by side in each of its 2**h blocks;
      4. the last s stages run on each tail block as one
         (2**s, 2**(b-s) * B) stack, with the plan's last s - 1 ramps, so
         the short half-blocks of those stages become long rows; the last
         stage multiplies by the whole ladder's 2**(-n/2), the one factor
         that normalizes the n add-and-subtract stages before it.

    No stage range allocates: each buffer is the other's scratch while it
    is idle, `flat` while stages 1..n-s run on work, the spent work while
    the tail stages run on flat.  The steps run at numpy's least ufunc
    buffer (STAGE_BUFSIZE), restored on return: numpy then reads the short
    strided half-blocks in place instead of copying them through its
    buffer, which changes no bit.
    """
    n = plan.n
    s = min(n, TAIL_STAGES)
    h = _head_stages(n, work.size >> n)
    b, cols = n - h, work.shape[1:]
    # an overflow or inf - inf gives non-finite output, not a warning; the
    # block also restores numpy's buffer size on exit, raise or not
    with np.errstate(over="ignore", invalid="ignore"):
        np.setbufsize(STAGE_BUFSIZE)
        if h:
            kernels.apply_stage_range(work, plan.ramps, n, 1, h, flat)
        # explicit sizes, not -1: an empty stack (B = 0) has no size to infer it
        for block in work.reshape(1 << h, 1 << b, *cols):
            kernels.apply_stage_range(block, plan.ramps[h:], b, 1, b - s, flat)
        runs = work.reshape(1 << (n - s), 1 << s, *cols)
        tail = flat.reshape(1 << h, 1 << s, 1 << (b - s), *cols)
        perm = bit_reversal_permutation(n - s).reshape(1 << h, 1 << (b - s))
        step = max(1, GATHER_ENTRIES // max(1, runs[0].size))
        for block, order in zip(tail, perm):
            for start in range(0, order.size, step):
                chunk = order[start:start + step]
                block[:, start:start + chunk.size] = runs[chunk].swapaxes(0, 1)
        scale = kernels._unit_scale(n)  # the whole ladder's, not the tail's
        for block in tail:
            kernels.apply_stage_range(block.reshape(1 << s, block.size >> s),
                                      plan.ramps[n - s:], s, 1, s, work.reshape(-1),
                                      scale)
    return tail


def _natural_order(tail: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ladder's result, held by _ladder_tail's tail, into `out`, a
    C-contiguous array of the tail's dtype and size, in natural order, and
    return out: with out viewed as (2**s, 2**h, 2**(b-s), *cols), entry
    (r, k, c) is tail[k, perm_s(r), c], perm_s the s-bit reversal."""
    count, rows = tail.shape[:2]
    perm = _bit_reversal(rows.bit_length() - 1)
    natural = out.reshape(rows, count, *tail.shape[2:])
    for k, block in enumerate(tail):
        natural[perm, k] = block  # perm is its own inverse
    return out


def transform_columns(mat: np.ndarray, n: int, sign: int = +1) -> np.ndarray:
    """Apply the composed n-stage ladder to one column or to every column of
    a 2-D stack: apply_butterfly with the plan make_plan(n, sign)."""
    return apply_butterfly(make_plan(n, sign), mat)


def assemble_transform(n: int, sign: int = +1) -> np.ndarray:
    """Dense matrix of the composed ladder, in natural order.

    With sign=+1 this equals dft_matrix(2**n, +1), the unitary
    positive-exponent Fourier matrix, to rounding.
    """
    n = check_integer("width", n, 1, MAX_WIDTH // 2)
    return transform_columns(np.eye(1 << n, dtype=complex), n, sign)


def dft_matrix(size: int, sign: int = +1) -> np.ndarray:
    """Unitary Fourier matrix exp(sign * 2*pi*i*j*k/N) / sqrt(N), entry (j, k)
    read from the table of N roots at j*k mod N (exact argument reduction)."""
    size = 1 << check_power_of_two("size", size, 0, MAX_WIDTH // 2)
    table = _roots(size, _check_sign(sign)) / math.sqrt(size)
    rows = min(size, max(1, DFT_BLOCK // size))
    return _dft_columns(table, np.arange(size), np.empty((size, size), dtype=complex),
                        np.empty((rows, size), dtype=np.intp))


def _roots(size: int, sign: int) -> np.ndarray:
    """exp(sign * 2*pi*i*m/N) for m < N, the table behind every Fourier
    reference: the half circle of _root_table, then its negation, since
    W^(m + N/2) = -W^m.  Read-only, so its first half can serve as a plan's
    level-1 ramp."""
    table = _root_table(size, sign)
    roots = np.concatenate((table, -table))[:size]
    roots.setflags(write=False)
    return roots


# Entries per row block of _dft_columns: the integer products j*k exist one
# block at a time, so the only N x B array is the complex result.
DFT_BLOCK = 1 << 16


def _dft_columns(table: np.ndarray, cols: np.ndarray, out: np.ndarray,
                 idx: np.ndarray) -> np.ndarray:
    """Columns `cols` of the unitary Fourier matrix whose N roots divided by
    sqrt(N) are `table`, written into `out`, an (N, len(cols)) complex
    array: each block of len(idx) rows gathers table[(j*k) & (N-1)], the
    products j*k held in `idx`, an integer (rows, len(cols)) buffer."""
    size = table.size
    for start in range(0, size, len(idx)):
        block = out[start:start + len(idx)]
        products = idx[:len(block)]
        np.multiply.outer(np.arange(start, start + len(block)), cols, out=products)
        products &= size - 1
        np.take(table, products, out=block, mode="clip")
    return out


# ------------------------------------------------------------ verifications

# Identity columns per block of the streamed ladder measurement.  On a 2-core
# VM (three rounds of nine alternated sweeps in one process, best of each),
# _ladder_deviations(10) on one worker took 67.8 to 68.7 ms at blocks of 32
# columns, against 79.0 to 80.2 ms for 16, 67.0 to 68.0 ms for 64 and 73.3
# to 73.7 ms for 128, so these timings are per worker; 64 doubled that
# sweep's tracemalloc peak at n = 10 (3.5 MiB at 32, 6.7 MiB at 64, when
# it held 6 * N * B block entries) for no gain.
LADDER_BLOCK = 32

# Widest streamed sweep: 2**n * LADDER_BLOCK <= 2**(MAX_WIDTH - 1), so that
# its (N, LADDER_BLOCK) block arrays hold at most half of the entries that
# MAX_WIDTH allows one array.
STREAMED_WIDTH = MAX_WIDTH - LADDER_BLOCK.bit_length()

# Workers of a _ladder_deviations sweep, the calling thread among them: two,
# or one where the process may run on one CPU only (its affinity set, or
# the machine's count where the platform has none).  Each worker's block
# arrays (1.75 MiB at n = 10) stay in one core's 2 MiB L2 cache, and numpy
# releases the GIL inside each array pass, so on a 2-core VM two workers
# overlap; at blocks of 16 columns, twice the Python glue per column made
# them lose to one.
SWEEP_WORKERS = min(2, len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# Stages that apply_butterfly runs on its tail stack.  At n = 18 on a 2-core
# VM, with the stages at STAGE_BUFSIZE, a stage with half-blocks of 64
# entries or more took 0.9 to 1.2 ms on one array, against 1.6 to 6.0 ms
# for half-blocks of 32 down to 2.  Over five alternated sweeps (medians of
# best-of-k), tails of 5 to 9 stages were level at n = 16 (3.0 to 3.2 ms)
# and n = 18 (23 to 24 ms) and a tail of 4 took 10 to 13% longer; from 9
# stages on, n = 10..14 and (1024, 32) and (1024, 64) stacks slowed by 20
# to 70%.  _ladder_deviations(10) read 176 to 182 ms for tails of 5 to 8.
TAIL_STAGES = 6

# Entries of the largest block that _ladder_tail runs on its own, once the
# stages whose blocks are larger have run over the whole state, and of each
# block of its tail: 1 MiB of complex128, half of the 2 MiB L2 cache of a
# core of the 2-core VM measured here.  Over three sweeps of 25 alternated
# applies (medians), n = 17 took 7.7 to 10.6 ms at 2**16, 7.5 to 10.1 ms at
# 2**15, 8.4 to 11.2 ms at 2**14 and 9.9 to 12.8 ms at 2**17 (one block),
# and n = 18 took 18.1 to 18.9 ms at 2**16, 17.1 to 18.6 ms at 2**15, 19.9
# to 20.6 ms at 2**14, 22.0 to 23.7 ms at 2**17 and 23.4 to 24.1 ms with no
# blocks.  2**15 gained nothing on an n = 16 state or on (1024, 64)
# stacks, which 2**16 keeps as one block.
BLOCK_ENTRIES = 1 << 16

# Entries per chunk of the block gather into a tail, so that
# only one chunk of blocks is ever held twice, and in cache.  On a 2-core VM
# the gather alone took 0.165 ms at 2**13 to 2**14 on a (1024, 64) stack
# against 0.22 ms at 2**11 and 0.8 to 1.1 ms for one chunk of the whole
# stack, 0.25 ms at 2**14 on an n = 16 state against 1.1 to 1.2 ms for one
# chunk, and 1.2 ms at 2**14 at n = 18 against 4.4 ms.  2**14 also holds
# the tracemalloc peak of one n = 16 state at 2.3 times its size.
GATHER_ENTRIES = 1 << 14

# numpy's ufunc buffer, in elements, while apply_butterfly runs: the least
# numpy accepts.  The default buffer of 8,192 copies a strided operand whose
# contiguous runs are shorter than about half of it, which no stage needs,
# since no operand is cast.  On a 2-core VM (seven alternated sweeps) the
# apply took 0.78 to 0.86 ms at n = 14 and 3.7 to 4.1 ms at n = 16 with
# buffers of 16 to 1,024, against 1.08 and 5.1 ms with the default; the
# bits are the same.  Half-blocks of 16 entries or fewer gain from the
# default buffer, so chain_propagate's per-stage calls keep it.
STAGE_BUFSIZE = 16


def _ladder_deviations(n: int) -> dict[str, float]:
    """Worst deviations of the composed ladder F (sign +1),
    streamed over blocks J of LADDER_BLOCK identity columns.

    Per block, one pass of apply_butterfly's body (_ladder_tail and
    _natural_order) gives F[:, J], compared with the Fourier columns
    J ("ladder"), and _recursion_columns gives the half-size recursion's
    columns J, compared with the same Fourier columns ("recursion").  The
    shift is judged on F[:, J] alone, with no ladder pass: for a unitary F,
    F^dagger P F = D exactly when P F = F D, P the one-step cyclic shift of
    rows and D the diagonal of the depth-n shift phases, so "shift" is
    sqrt(N) times the worst entry of P F[:, J] - F[:, J] D_J.  It bounds
    the worst entry of F^dagger P F - D up to the unitarity rounding, since
    an entry of F^dagger R is at most ||R[:, j]||_2 <= sqrt(N) max|R|.  A second
    pass, the sign -1 ladder on the B columns F[:, J] in place, gives columns
    J of F^dagger F, which should be the identity ("unitarity"): F's matrix
    is symmetric, so F^dagger = conj(F), the sign -1 ladder, whose bits are
    those of conj(F conj(X)).  Each value is the one a pass over the whole
    matrices gives, bit for bit.  N and LADDER_BLOCK are powers of 2, so
    every block is B = min(LADDER_BLOCK, N) columns wide.  Both plans and
    the references read one table of roots, built once per sweep: the
    sign -1 plan reads its conjugate, which has the bits of
    _root_table(N, -1), and the references its quotient by sqrt(N).  So the
    final cell's twiddles W^j and the table's half-period symmetry
    W^(j + N/2) = -W^j hold by construction; tests pin both on the table.

    The blocks are independent, so the sweep splits them among
    min(SWEEP_WORKERS, N / B) workers, worker w taking every workers-th
    block from the w-th (_sweep_blocks, with block arrays of its own).
    The calling thread is worker 0; the others run on a thread pool made
    for this call and joined before it returns, raise or not, and numpy
    releases the GIL inside each array pass.  The result is the
    elementwise max of the workers' worst values: max is exact, and each
    block's arithmetic is the same on any worker, so the values have the
    same bits at every worker count.
    """
    size = 1 << n
    b = min(LADDER_BLOCK, size)  # both powers of 2: every block is b wide
    roots = _roots(size, +1)  # one table for the references and both plans
    plan = _plan(n, +1, roots[:size >> 1])
    adjoint = _plan(n, -1, roots[:size >> 1].conj())
    phases = np.exp(1j * derive_shift_phases(n))
    sweep = functools.partial(_sweep_blocks, n, b, roots, roots / math.sqrt(size),
                              plan, adjoint, phases)
    starts = range(0, size, b)
    workers = min(SWEEP_WORKERS, len(starts))
    if workers == 1:
        worst = sweep(starts)
    else:
        # imported here, not with the module: it loads logging, which put
        # 0.5 MB on the peak RSS of processes that never sweep
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers - 1) as pool:  # joined on exit
            others = [pool.submit(sweep, starts[w::workers]) for w in range(1, workers)]
            worst = np.maximum.reduce([sweep(starts[::workers])]
                                      + [other.result() for other in others])
    worst[2] *= math.sqrt(size)
    return dict(zip(("ladder", "unitarity", "shift", "recursion"), map(float, worst)))


def _sweep_blocks(n: int, b: int, roots: np.ndarray, table: np.ndarray,
                  plan: ButterflyPlan, adjoint: ButterflyPlan, phases: np.ndarray,
                  starts: range) -> np.ndarray:
    """One worker's share of _ladder_deviations: the blocks of b identity
    columns that begin at `starts`, on block arrays allocated once for the
    share.  Returns the worst (ladder, unitarity, unscaled shift, recursion)
    values over the share, NaN if any block gave one.

    The share holds 7/2 * N * b complex entries: the Fourier columns `dft`
    and one arena of 5/2 * N * b, whose parts serve as `fwd` (the identity
    columns, then F[:, J], then F^dagger F[:, J]), `flat` (each pass's
    tail, then the ladder's and the shift's differences) and `mag` (the
    moduli, and the products j*k of _dft_columns before them).  After the
    unitarity check, flat and mag are _recursion_columns' 3/2 * N * b
    buffer, which leaves level n in flat; the recursion's difference goes
    into dft, whose last use it is.  `roots` is the sweep's table of N
    roots, `table` its quotient by sqrt(N).
    """
    size = 1 << n
    arena = np.empty(5 * size * b // 2, dtype=complex)
    fwd = arena[:size * b].reshape(size, b)
    flat = arena[size * b:2 * size * b]
    diff = flat.reshape(size, b)
    mag = arena[2 * size * b:].view(float).reshape(size, b)
    products = mag.view(np.intp)[:max(1, DFT_BLOCK // b)]
    dft = np.empty((size, b), dtype=complex)
    worst = np.zeros(4)
    for start in starts:
        cols = np.arange(start, start + b)
        diag = (cols, np.arange(b))  # the entries (j, j), j in J
        fwd.fill(0.0)
        fwd[diag] = 1.0  # the identity columns J, overwritten by F[:, J]
        _natural_order(_ladder_tail(plan, fwd, flat), fwd)
        _dft_columns(table, cols, dft, products)
        ladder = np.abs(np.subtract(fwd, dft, out=diff), out=mag).max()
        # P F - F D on columns J, P F[i] = F[i - 1] cyclically
        np.multiply(fwd, phases[cols], out=diff)
        np.subtract(fwd[:-1], diff[1:], out=diff[1:])
        np.subtract(fwd[-1], diff[0], out=diff[0])
        shift = np.abs(diff, out=mag).max()
        gram = _natural_order(_ladder_tail(adjoint, fwd, flat), fwd)
        gram[diag] -= 1.0  # leaves F^dagger F - I
        unitarity = np.abs(gram, out=mag).max()
        rec = _recursion_columns(n, cols, roots, arena[size * b:])
        recursion = np.abs(np.subtract(rec, dft, out=dft), out=mag).max()
        worst = np.maximum(worst, [ladder, unitarity, shift, recursion])
    return worst


def _recursion_columns(n: int, cols: np.ndarray, roots: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Columns `cols` of the Danielson-Lanczos recursion for the 2**n-point
    Fourier matrix, built from the 2x2 base [[1, 1], [1, -1]] * _INV_SQRT2
    with one array pass per level: column c of the 2**m matrix is column
    c >> 1 of the half-size matrix tiled down both halves (row j reads row
    j mod 2**(m-1)), times W^j = roots[j * 2**(n-m)], W = exp(2*pi*i/2**m),
    when c is odd, and times _INV_SQRT2, in the dtype of `roots`.  Each level
    is one contiguous row per column in `out`, a flat buffer of that dtype
    and 3/2 * len(cols) * N entries or more: level m at its start when n - m
    is even, after its first len(cols) * N entries when it is odd, so that
    no level overwrites the one it is built from and level n lands at the
    start.  The (N, len(cols)) result is a transposed view of `out`."""
    b, size = cols.size, 1 << n

    def rows(m):  # level m's b rows of 2**m entries
        return out[(n - m) % 2 * b * size:][:b << m].reshape(b, 1 << m)

    base = np.array([[1, 1], [1, -1]]) * _INV_SQRT2
    level = rows(1)
    level[...] = base[cols >> (n - 1)]  # base is symmetric: row c is column c
    for m in range(2, n + 1):
        half, prev = 1 << (m - 1), level
        level = rows(m)
        level[:, :half] = prev
        level[:, half:] = prev
        odd = ((cols >> (n - m)) & 1).astype(bool)[:, None]
        np.multiply(roots[::1 << (n - m)], level, out=level, where=odd)
        level *= _INV_SQRT2
    return level.T


def verify_danielson_lanczos(n: int) -> dict:
    """Check the ladder against the half-size decomposition of the Fourier
    matrix.

    Confirms that recursing the decomposition, whose final cell couples
    components (j, j + N/2) through [[1, W^j], [1, -W^j]]/sqrt(2) with
    W = exp(2*pi*i/N), rebuilds dft_matrix(N, +1) entrywise, and that the
    ladder does too.
    """
    n = check_integer("level count", n, 2, STREAMED_WIDTH)
    dev = _ladder_deviations(n)
    return {
        "n": n,
        "recursion_deviation": dev["recursion"],
        "ladder_deviation": dev["ladder"],
    }


def shift_operator_check(n: int) -> dict:
    """Check that the ladder diagonalizes the one-step cyclic shift P of the
    transformed variable: sqrt(N) times the worst entry of P F - F D, D the
    diagonal exp(-2*pi*i*k/N).

    For a unitary F (checked on the same sweep) P F = F D holds exactly when
    F^dagger P F = D, and the value bounds the worst entry of F^dagger P F - D
    up to the unitarity rounding.  The diagonal phases are exactly the
    depth-n shift phases, tying the twiddle derivation to the translation
    symmetry it came from.
    """
    n = check_integer("level count", n, 1, STREAMED_WIDTH)
    return {"n": n, "shift_deviation": _ladder_deviations(n)["shift"]}


def chain_propagate(psi: np.ndarray) -> np.ndarray:
    """Per-level probabilities along the ladder, for one state (N,) or a
    stack of states (S, N): a read-only (n + 1, N) or (n + 1, S, N) array.

    Level 0 is |psi|^2 on the input indexing; level l the squared moduli of
    the partial ladder product through stage l (twiddles do not move mass),
    in the ladder's in-place order; level n the output distribution in the
    diagram's node indexing, i.e. the transformed probabilities under bit
    reversal.  The kernel's stages add and subtract without 1/sqrt(2), so
    each doubles the mass: level l < n is the squared moduli times 2**(-l),
    an exact rescaling, and the last stage multiplies by 2**(-n/2) as
    apply_butterfly's does, so level n has the bits of its squared output.
    Each level-(l-1) pair mass equals the corresponding level-l pair mass.
    Norms are checked by _normalized; a stack runs as one (N, S) column
    stack, one kernel call per stage, and each row has its own call's bits.
    """
    psi = complex_array(psi)
    check_rows(psi=psi)
    n = check_power_of_two("state length", psi.shape[-1], 1)
    plan = make_plan(n, +1)
    work = np.array(_normalized(psi)[0].T, order="C")
    scratch = np.empty(work.size // 2, dtype=complex)  # shared by the n stages
    levels = np.empty((n + 1, *psi.shape))
    levels[0] = np.abs(work).T ** 2
    for l in range(1, n + 1):
        kernels.apply_stage_range(work, plan.ramps, n, l, l, scratch)
        levels[l] = np.abs(work).T ** 2
        if l < n:  # l unnormalized stages doubled the mass l times
            levels[l] *= math.ldexp(1.0, -l)
    levels.setflags(write=False)
    return levels
