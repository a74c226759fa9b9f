"""The butterfly reconstruction of the conjugate-variable transform.

A width-n system carries a ladder of n stage operators F_l (block Hadamard
cells pairing indices k and k + L/2 inside contiguous blocks of
L = 2**(n-l+1)) separated by diagonal twiddle phases t_l derived from the
cyclic-shift recursion.  Composing the ladder and undoing the bit-reversal
of the output reproduces the unitary discrete Fourier matrix exactly; the
in-place evaluation costs O(N log N) cell operations against O(N^2) for the
dense product.  `transform_columns` runs the ladder on a whole column stack
in one kernel call.

The transform checks (ladder against the Fourier matrix, unitarity, the
diagonalized shift, the Danielson-Lanczos recursion) come from one streamed
measurement over blocks of LADDER_BLOCK identity columns, so the ladder
side needs O(N * LADDER_BLOCK) memory and no dense N x N transform;
`verify_danielson_lanczos` and `shift_operator_check` report views of it.

Sign convention: `twiddle_phase` returns the phases of the q -> p ladder,
which adopts the minus sign in the shift recursion.  A plan built with
sign=+1 (the default) conjugates those diagonals, which composes the inverse
ladder and yields the +2*pi*i*j*k/N matrix, the positive-spatial-frequency
convention; sign=-1 keeps the raw phases and yields its conjugate.  Both are
unitary; `dft_matrix` defaults to the +1 convention.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .exceptions import DomainError
from .probmodel import Distribution

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ----------------------------------------------------------------- indexing

@functools.lru_cache(maxsize=None)
def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index array br with br[y] = y with its n bits in reversed order."""
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
    if not 0 <= l <= n:
        raise DomainError(f"level {l} outside 0..{n}")
    if not (0 <= x < (1 << n) and 0 <= y < (1 << n)):
        raise DomainError("index outside the width-n domain")
    mu = 0
    for i in range(l):
        mu = (mu << 1) | ((y >> i) & 1)
    return (mu << (n - l)) | (x & ((1 << (n - l)) - 1))


# ------------------------------------------------------- phases and stages

@dataclass(frozen=True)
class ShiftPhases:
    """Diagonal phases s_l[k] of the one-step shift at ladder depth l."""

    level: int
    values: np.ndarray = field(repr=False)


def derive_shift_phases(l: int) -> ShiftPhases:
    """Solve the shift recursion upward from the two-point base (0, -pi).

    Depth m inherits its first half from half the depth m-1 phases and its
    second half by subtracting pi; the result equals the closed form
    -2*pi*k/2**l to rounding.
    """
    if l < 1:
        raise DomainError("depth must be at least 1")
    values = np.array([0.0, -math.pi])
    for m in range(2, l + 1):
        half = 1 << (m - 1)
        new = np.empty(1 << m)
        new[:half] = values / 2.0
        new[half:] = new[:half] - math.pi
        values = new
    out = values.copy()
    out.setflags(write=False)
    return ShiftPhases(l, out)


def twiddle_phase(n: int, level: int, k: int) -> float:
    """Phase of entry k of the q -> p twiddle diagonal t_level.

    Zero on the first half of each block of 2**(n-level+1) entries, then a
    ramp of -2*pi*(offset into the second half)/blocksize.
    """
    if not 1 <= level <= n - 1:
        raise DomainError(f"twiddle level {level} outside 1..{n - 1}")
    if not 0 <= k < (1 << n):
        raise DomainError("index outside the width-n domain")
    block = 1 << (n - level + 1)
    half = block >> 1
    r = k % block
    if r < half:
        return 0.0
    return -2.0 * math.pi * (r - half) / block


@dataclass(frozen=True)
class TwiddleStage:
    """Phase vector of one twiddle diagonal (q -> p sign convention)."""

    level: int
    phases: np.ndarray = field(repr=False)


def twiddle_stage(n: int, level: int) -> TwiddleStage:
    block = 1 << (n - level + 1)
    half = block >> 1
    r = np.arange(1 << n) % block
    phases = np.where(r < half, 0.0, -2.0 * math.pi * (r - half) / block)
    phases.setflags(write=False)
    return TwiddleStage(level, phases)


def stage_matrix(n: int, l: int) -> np.ndarray:
    """Dense operator of stage l: Hadamard cells pairing k and k + L/2 inside
    each contiguous block of L = 2**(n-l+1) components."""
    if not 1 <= l <= n:
        raise DomainError(f"stage {l} outside 1..{n}")
    size = 1 << n
    half = 1 << (n - l)
    mat = np.zeros((size, size))
    for b in range(0, size, 2 * half):
        for k in range(half):
            i, j = b + k, b + k + half
            mat[i, i] = mat[i, j] = mat[j, i] = _INV_SQRT2
            mat[j, j] = -_INV_SQRT2
    return mat


# ------------------------------------------------------------------- plans

@dataclass(frozen=True)
class ButterflyPlan:
    """Precomputed twiddle ramps for the n-stage ladder.

    The twiddle after stage l is the identity on the first half of every
    block of 2**(n-l+1) entries and one ramp on the second half, the same
    for every block.  ramps[l-1] holds that ramp, 2**(n-l) entries, for each
    l < n: N - 2 entries in all instead of the (n-1) * N full diagonals.
    sign=+1 stores the conjugated (inverse-ladder) values, sign=-1 the raw
    q -> p values.  `diagonals` expands the ramps to the full diagonals.
    """

    n: int
    sign: int
    ramps: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def diagonals(self) -> np.ndarray:
        """Full (n-1, N) twiddle diagonals; diagonals[l-1] follows stage l."""
        size = 1 << self.n
        diags = np.ones((max(self.n - 1, 0), size), dtype=complex)
        for row, ramp in zip(diags, self.ramps):
            _expand_ramp(ramp, row)
        diags.setflags(write=False)
        return diags

    def diagonal(self, level: int) -> np.ndarray:
        """Full twiddle diagonal after stage `level`, expanded from its ramp
        alone."""
        if not 1 <= level <= self.n - 1:
            raise DomainError(f"twiddle level {level} outside 1..{self.n - 1}")
        return _expand_ramp(self.ramps[level - 1],
                            np.ones(1 << self.n, dtype=complex))

    def stage(self, l: int) -> np.ndarray:
        """Dense operator of stage l (the diagonals carry the twiddles)."""
        return stage_matrix(self.n, l)

    def twiddle_phases(self, level: int) -> np.ndarray:
        return np.angle(self.diagonal(level))

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "sign": self.sign,
            "twiddle_phases": [list(np.angle(row)) for row in self.diagonals],
        })


def _expand_ramp(ramp: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Write ramp into the second half of every block of a row of ones."""
    row.reshape(-1, 2, ramp.size)[:, 1, :] = ramp
    return row


def make_plan(n: int, sign: int = +1) -> ButterflyPlan:
    """Plan the n-stage ladder: one np.exp over the level-1 ramp.

    The level-1 ramp has phases -2*pi*k/N, k < N/2; the level-l ramp is its
    stride-2**(l-1) slice, since -2*pi*(s*k)/N equals -2*pi*k/(N/s) exactly
    for a power of two s.  Every ramp is contiguous and read-only, and its
    values are bit-identical to the second halves of twiddle_stage.
    """
    if n < 1:
        raise DomainError("plan needs at least one stage")
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
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
    """Evaluate the ladder on psi in O(N log N) cell operations.

    order 'bitReversed' returns the ladder output as produced (component mu
    holds the coefficient of the bit-reversed index); 'natural' undoes the
    permutation.  Matches the dense assemble_transform action to rounding.
    """
    work = np.array(psi, dtype=complex)
    if work.shape != (1 << plan.n,):
        raise DomainError("state length does not match the plan order")
    kernels.apply_stages_inplace(work, plan.ramps, plan.n)
    if order == "bitReversed":
        return work
    if order == "natural":
        return work[bit_reversal_permutation(plan.n)]
    raise DomainError(f"unknown order {order!r}")


def transform_columns(mat: np.ndarray, n: int, sign: int = +1,
                      order: str = "natural") -> np.ndarray:
    """Apply the composed ladder to every column of mat: one kernel call
    runs all stages on a C-contiguous copy of the column stack."""
    size = 1 << n
    if mat.shape[0] != size:
        raise DomainError("column length does not match the ladder order")
    plan = make_plan(n, sign)
    work = np.array(mat, dtype=complex, order="C")
    kernels.apply_stage_range(work, plan.ramps, n, 1, n)
    if order == "natural":
        return work[bit_reversal_permutation(n)]
    if order == "bitReversed":
        return work
    raise DomainError(f"unknown order {order!r}")


def assemble_transform(n: int, order: str = "natural", sign: int = +1) -> np.ndarray:
    """Dense matrix of the composed ladder.

    With sign=+1 and natural order this equals dft_matrix(2**n, +1), the
    unitary positive-exponent Fourier matrix, to rounding.
    """
    return transform_columns(np.eye(1 << n, dtype=complex), n, sign, order)


def dft_matrix(size: int, sign: int = +1) -> np.ndarray:
    """Unitary Fourier matrix exp(sign * 2*pi*i*j*k/N) / sqrt(N)."""
    if size < 1 or size & (size - 1):
        raise DomainError("size must be a power of 2")
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    return _dft_columns(size, np.arange(size), sign)


def _dft_columns(size: int, cols: np.ndarray, sign: int) -> np.ndarray:
    """Columns `cols` of dft_matrix(size, sign), entry for entry."""
    j = np.arange(size)
    return np.exp(sign * 2j * np.pi * np.outer(j, cols) / size) / math.sqrt(size)


# ------------------------------------------------------------ verifications

# Identity columns per block of the streamed ladder measurement.  At n = 10
# on a 2-core VM, blocks of 32 to 128 columns took about the same time, and
# one block of all N columns took about 1.3 times as long.
LADDER_BLOCK = 64


def _ladder_deviations(n: int) -> dict[str, float]:
    """Worst deviations of the composed ladder F (sign +1, natural order),
    streamed over blocks J of LADDER_BLOCK identity columns.

    Per block, one transform_columns call gives F[:, J], compared with the
    Fourier columns J ("ladder") and with the half-size recursion's columns
    J against the same Fourier columns ("recursion").  A second call on the
    2B-column stack [conj(F[:, J]) | conj(P F[:, J])], P the one-step cyclic
    shift of rows, gives columns J of F^dagger F and of F^dagger P F: F's
    matrix is symmetric, so F^dagger X = conj(F conj(X)).  The first should
    be the identity ("unitarity"); the second diagonal ("off_diagonal") with
    the depth-n shift phases on its diagonal ("diagonal").  Each value is the
    one a pass over the whole matrices gives, bit for bit; the ladder needs
    O(N B) memory, and only the recursion matrix is N x N.
    """
    size = 1 << n
    recursion = _recursive_dft(n)
    phases = np.exp(1j * derive_shift_phases(n).values)
    worst = np.zeros(5)
    for start in range(0, size, LADDER_BLOCK):
        cols = np.arange(start, min(start + LADDER_BLOCK, size))
        diag = (cols, np.arange(cols.size))  # the entries (j, j), j in J
        unit = np.zeros((size, cols.size), dtype=complex)
        unit[diag] = 1.0
        fwd = transform_columns(unit, n, +1, "natural")
        dft = _dft_columns(size, cols, +1)
        stack = np.conj(np.concatenate([fwd, np.roll(fwd, 1, axis=0)], axis=1))
        gram, shift = np.hsplit(np.conj(transform_columns(stack, n, +1, "natural")), 2)
        shift_diag = shift[diag]
        shift[diag] -= shift_diag  # leaves the off-diagonal part
        worst = np.maximum(worst, [np.abs(fwd - dft).max(),
                                   np.abs(gram - unit).max(),
                                   np.abs(shift).max(),
                                   np.abs(shift_diag - phases[cols]).max(),
                                   np.abs(recursion[:, cols] - dft).max()])
    return dict(zip(("ladder", "unitarity", "off_diagonal", "diagonal", "recursion"),
                    map(float, worst)))


def _recursive_dft(m: int) -> np.ndarray:
    """The Danielson-Lanczos recursion for the 2**m-point Fourier matrix:
    row j of the even and odd columns is row j mod N/2 of the half-size
    matrix, the odd ones times W^j, W = exp(2*pi*i/N)."""
    if m == 1:
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _INV_SQRT2
    sub = _recursive_dft(m - 1)
    size = 1 << m
    half = size // 2
    out = np.empty((size, size), dtype=complex)
    w = np.exp(2j * np.pi * np.arange(size) / size)
    for j in range(size):
        out[j, 0::2] = sub[j % half] * _INV_SQRT2
        out[j, 1::2] = w[j] * sub[j % half] * _INV_SQRT2
    return out


def _danielson_lanczos_terms(n: int, deviations: dict[str, float]) -> dict:
    """verify_danielson_lanczos's report, its ladder and recursion terms read
    from a _ladder_deviations(n) measurement."""
    size = 1 << n
    half = size // 2
    plan = make_plan(n, +1)
    w = np.exp(2j * np.pi * np.arange(half) / size)
    if size <= 512:
        # explicit dense check that F_1 t_1 couples exactly the pairs
        # (j, j + N/2) through [[1, W^j], [1, -W^j]]/sqrt(2)
        coupled = stage_matrix(n, 1) @ np.diag(plan.diagonal(1))
        cell_dev = 0.0
        for j in range(half):
            cell = coupled[np.ix_([j, j + half], [j, j + half])]
            target = np.array([[1.0, w[j]], [1.0, -w[j]]]) * _INV_SQRT2
            cell_dev = max(cell_dev, float(np.abs(cell - target).max()))
            zeroed = coupled[j].copy()
            zeroed[[j, j + half]] = 0.0
            cell_dev = max(cell_dev, float(np.abs(zeroed).max()))
    else:
        # the stage couples (j, j + N/2) by construction; check the diagonal
        d = plan.diagonal(1)
        cell_dev = max(float(np.abs(d[:half] - 1.0).max()),
                       float(np.abs(d[half:] - w).max()))
    j = np.arange(half)
    w_shift = np.exp(2j * np.pi * (j + half) / size)
    return {
        "n": n,
        "cell_deviation": cell_dev,
        "recursion_deviation": deviations["recursion"],
        "ladder_deviation": deviations["ladder"],
        "half_period_deviation": float(np.abs(w_shift + w).max()),
    }


def verify_danielson_lanczos(n: int) -> dict:
    """Check the ladder against the half-size decomposition of the Fourier
    matrix.

    Confirms that the final cell F_1 t_1 couples components (j, j + N/2)
    through [[1, W^j], [1, -W^j]]/sqrt(2) with W = exp(2*pi*i/N), and that
    recursing that decomposition rebuilds dft_matrix(N, +1) entrywise.
    """
    if n < 2:
        raise DomainError("need at least two levels")
    return _danielson_lanczos_terms(n, _ladder_deviations(n))


def shift_operator_check(n: int) -> dict:
    """Conjugate the one-step cyclic shift of the transformed variable back
    through the ladder and compare with the diagonal exp(-2*pi*i*k/N).

    The diagonal phases are exactly the depth-n shift phases, tying the
    twiddle derivation to the translation symmetry it came from.
    """
    if n < 1:
        raise DomainError("need at least one level")
    deviations = _ladder_deviations(n)
    return {
        "n": n,
        "off_diagonal_max": deviations["off_diagonal"],
        "diagonal_deviation": deviations["diagonal"],
    }


def chain_propagate(psi: np.ndarray, plan: ButterflyPlan | None = None) -> list[Distribution]:
    """Per-level probability distributions along the ladder.

    Level 0 is |psi|^2 on the input indexing; level l the squared moduli of
    the partial ladder product through stage l (twiddles do not move mass);
    level n the output distribution in the diagram's node indexing, i.e. the
    transformed probabilities under bit reversal.  Stage cells are unitary
    on their two components, so each level-(l-1) pair mass equals the
    corresponding level-l pair mass.
    """
    psi = np.asarray(psi, dtype=complex)
    size = psi.size
    n = size.bit_length() - 1 if size else 0
    if size != 1 << n or n < 1:
        raise DomainError("state length must be a power of 2, at least 2")
    if plan is None:
        plan = make_plan(n, +1)
    if plan.n != n:
        raise DomainError("plan order does not match the state")
    norm = float(np.vdot(psi, psi).real)
    if abs(norm - 1.0) > 1e-9:
        raise DomainError("state is not normalized")
    work = np.ascontiguousarray(psi.copy())
    levels = [Distribution(np.abs(work) ** 2)]
    for l in range(1, n + 1):
        kernels.apply_stage_range(work, plan.ramps, n, l, l)
        levels.append(Distribution(np.abs(work) ** 2))
    return levels
