"""Exception types shared across the package, and the guards that every
module and the CLI's config schema apply to their arguments: the integer,
real (neither takes a bool) and name guards for scalars, the real and
complex conversions for arrays, and the row check that names the first bad
row of a stack."""

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


def reject_rows(bad: np.ndarray, exc: type[Exception], message: str) -> None:
    """Raise exc(message) if any row of a stack is flagged, naming the first;
    a 0-d flag stands for a single state."""
    if bad.any():
        if bad.ndim:
            message = f"{message} (row {int(np.flatnonzero(bad)[0])})"
        raise exc(message)


def _array(values, dtype: type, refused: str, what: str) -> np.ndarray:
    """values as an array of dtype, the array itself if it is one already;
    DomainError for ragged nesting or an array of a kind in `refused`."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in refused:
            return arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):  # also an int too large
        pass
    raise DomainError(f"not an array of {what}: {values!r}")


def real_array(values) -> np.ndarray:
    """values as a float array; DomainError for text, complex numbers or
    ragged nesting."""
    return _array(values, float, "cUS", "reals")


def complex_array(values) -> np.ndarray:
    """values as a complex array; DomainError for text or ragged nesting."""
    return _array(values, complex, "US", "numbers")


def check_real(what: str, value) -> float:
    """value as a Python float, if it is no bool and real_array takes it to
    one finite number (a 0-d array; None becomes NaN there); DomainError
    otherwise.  A 0-d object array is judged by its item, since converting
    it to float would take a bool or a numeral string in it as a number."""
    item = value
    while isinstance(item, np.ndarray) and item.dtype == object and not item.ndim:
        item = item.item()
    try:
        arr = _array(item, float, "bcUS", "reals")
    except DomainError:
        arr = None
    if arr is None or arr.ndim or not math.isfinite(arr):
        raise DomainError(f"{what} must be a finite real number, not {value!r}")
    return float(arr)
