"""Exception types shared across the package, and the guards that every
module and the CLI's config schema apply to their arguments: the integer,
real and name guards for scalars, the power-of-2 guard for a size 2**n, the
real and complex conversions for arrays, the shape guard for a state or a
stack of them, the finite-entry and unit-sum (norm) rules, and the row check
that names the first bad row.  No guard takes a bool or text for a number."""

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(ValueError):
    """A derived index or level would leave its admissible range."""


class SingularityError(ValueError):
    """The requested quantity is singular at the given point (boundary node,
    vanishing amplitude, degenerate image)."""


class ConfigError(ValueError):
    """An experiment configuration is malformed (CLI exit code 2)."""


# No array holds more than 2**MAX_WIDTH entries, so a width guard fails well
# before memory runs out: n <= MAX_WIDTH for a vector or table of N = 2**n,
# MAX_WIDTH // 2 for a dense N x N matrix, and butterfly.STREAMED_WIDTH for
# the streamed N x LADDER_BLOCK blocks, derived there from the block width.
MAX_WIDTH = 24

# A builder that makes one Python int per element of a width-n domain stops
# at MAX_OBJECT_WIDTH, since such an element costs far more than an array's
# 16 bytes: make_lsb_partition at width 16 takes 0.12 s and a 40 MB process
# peak (28 MB without it), at width 18 0.46 s and 79 MB, at 20 1.6 s and
# 236 MB.
MAX_OBJECT_WIDTH = 16

SUM_TOL = 1e-12          # a sum this close to 1 is taken as it is
RENORM_TOL = 1e-9        # one closer is divided out, one farther refused


def check_integer(what: str, value, lo: int, hi: int | None = None) -> int:
    """value as a Python int, if it is a Python or numpy integer (not a
    bool, not a float) in lo..hi (lo and up for hi None); DomainError
    otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, not {value!r}")
    if value < lo:
        raise DomainError(f"{what} must be at least {lo}, not {value}")
    if hi is not None and value > hi:
        raise DomainError(f"{what} {value} is above its cap, {hi}")
    return int(value)


def check_name(what: str, value, names) -> None:
    """DomainError unless value is a str naming an entry of names."""
    # the type test first: a list is unhashable, and NaN or 1.5 no key
    if not isinstance(value, str) or value not in names:
        raise DomainError(f"unknown {what} {value!r}; expected one of "
                          f"{', '.join(names)}")


def check_power_of_two(what: str, value, lo: int = 0, hi: int | None = None) -> int:
    """n for value = 2**n, if check_integer takes value to a power of 2 from
    2**lo to 2**hi (2**lo and up for hi None); DomainError otherwise."""
    size = check_integer(what, value, 1 << lo, None if hi is None else 1 << hi)
    if size & (size - 1):
        raise DomainError(f"{what} must be a power of 2, not {size}")
    return size.bit_length() - 1


def reject_rows(bad: np.ndarray, exc: type[Exception], message: str) -> None:
    """Raise exc(message) if any row of a stack is flagged, naming the first;
    a 0-d flag stands for a single state."""
    if bad.any():
        if bad.ndim:
            message = f"{message} (row {int(np.flatnonzero(bad)[0])})"
        raise exc(message)


def check_unit_sums(what: str, sums) -> np.ndarray:
    """Which sums (squared norms, totals, |S|^2: one, or one per row) miss 1
    by more than SUM_TOL, for the caller to divide out; DomainError naming
    the first row that misses it by more than RENORM_TOL or is NaN or inf."""
    off = np.abs(sums - 1.0)
    bad, rescale = ~(off <= RENORM_TOL), off > SUM_TOL  # NaN is bad
    if bad.any():
        reject_rows(bad, DomainError,
                    f"{what} {float(np.asarray(sums)[bad].flat[0])} is not 1")
    return rescale


def check_finite(**arrays: np.ndarray) -> None:
    """DomainError naming the argument and the first row of it that has a
    non-finite entry; checked once for a whole block."""
    for name, arr in arrays.items():
        reject_rows(~np.isfinite(arr).all(axis=-1), DomainError,
                    f"{name} has a non-finite entry")


def check_rows(stack: bool = True, **arrays: np.ndarray) -> None:
    """DomainError naming the argument unless the arrays share the first's
    shape: one row (N,) with N >= 1 or, if stack, a stack (S, N) of them."""
    shape = None
    for name, arr in arrays.items():
        if shape is None:
            shape = arr.shape
            if arr.ndim not in ((1, 2) if stack else (1,)) or not shape[-1]:
                raise DomainError(f"{name} must be a non-empty row (N,)"
                                  f"{' or a stack (S, N)' if stack else ''}, "
                                  f"not shape {shape}")
        elif arr.shape != shape:
            raise DomainError(f"{name} must have shape {shape}, not {arr.shape}")


_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def _is_number(item) -> bool:
    """Whether item, an array, a list or tuple (nested) or an item of one,
    neither is nor holds a bool or text, which numpy's conversion would take
    for a number."""
    if isinstance(item, (list, tuple)):
        kinds = set(map(type, item))  # one test per item type, not per item
        if any(issubclass(kind, (list, tuple, np.ndarray)) for kind in kinds):
            return all(map(_is_number, item))
        return not any(issubclass(kind, _NOT_NUMBERS) for kind in kinds)
    if isinstance(item, np.ndarray):
        kind = item.dtype.kind
        return kind not in "bUS" and (kind != "O" or all(map(_is_number, item.flat)))
    return not isinstance(item, _NOT_NUMBERS)


def _array(values, dtype: type, refused: str, what: str) -> np.ndarray:
    """values as an array of dtype, the array itself if it is one already;
    DomainError for ragged nesting, an array of a kind in `refused` or of
    bools or text, or an object array, list or tuple with a bool or text
    item.  A list or tuple is walked item by item, an array is not."""
    try:
        arr = np.asarray(values)
        walked = values if isinstance(values, (list, tuple)) else arr
        if _is_number(walked) and arr.dtype.kind not in refused:
            return arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):  # also an int too large
        pass
    raise DomainError(f"not an array of {what}: {values!r}")


def real_array(values) -> np.ndarray:
    """values as a float array; DomainError for bools, text, complex numbers
    or ragged nesting."""
    return _array(values, float, "c", "reals")


def complex_array(values) -> np.ndarray:
    """values as a complex array; DomainError for bools, text or ragged
    nesting."""
    return _array(values, complex, "", "numbers")


def check_real(what: str, value) -> float:
    """value as a Python float, if real_array takes it to one finite number
    (a 0-d array; None becomes NaN there); DomainError otherwise."""
    try:
        arr = real_array(value)
    except DomainError:
        arr = None
    if arr is None or arr.ndim or not math.isfinite(arr):
        raise DomainError(f"{what} must be a finite real number, not {value!r}")
    return float(arr)
