"""Exception types shared across the package, and the integer guard that
every module applies to its widths, levels, sizes and indices."""

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
# MAX_WIDTH // 2 for a dense N x N matrix, MAX_WIDTH - 6 for N x 64 blocks.
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
    if value < lo or (hi is not None and value > hi):
        bounds = f"{lo}..{hi}" if hi is not None else f"{lo} and up"
        raise DomainError(f"{what} {value} outside {bounds}")
    return int(value)
