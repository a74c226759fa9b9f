"""Probability distributions on dyadic domains, the theta parametrization of
binary outcomes, and conditional-probability factorization trees.

A distribution over 2**n outcomes factorizes as a binary tree of conditional
probabilities: the root node holds the marginal of bit n (the least
significant bit), and the node at level l conditioned on the suffix
(j_{l+1}, .., j_n) holds the probability that bit l is 0 given those lower
bits.  Multiplying the node values along a root-to-leaf path reproduces the
leaf probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .exceptions import (SUM_TOL, DomainError, check_finite, check_integer,
                         check_power_of_two, check_real, check_rows, check_unit_sums,
                         real_array)
from .partitions import Partition


def _normalized(amps: np.ndarray, *tangents: np.ndarray) -> tuple[np.ndarray, ...]:
    """(amps, *tangents), one state (N,) or a stack (S, N) and tangents of its
    shape, with each state's squared norm (one pass over the real and
    imaginary parts) taken through exceptions.check_unit_sums and the rows it
    flags divided by their norm, the arrays themselves when it flags none.
    A row's norm has the same bits alone as inside a stack, and one that
    overflows is inf, which the norm rule refuses."""
    with np.errstate(over="ignore"):
        norm2 = (amps.real ** 2 + amps.imag ** 2).sum(axis=-1)
    rescale = check_unit_sums("squared norm", norm2)
    if rescale.any():
        rows, norm = rescale[..., None], np.sqrt(norm2)[..., None]
        return tuple(np.where(rows, v / norm, v) for v in (amps, *tangents))
    return (amps, *tangents)


def prob_from_theta(theta: float) -> tuple[float, float]:
    """(cos^2(theta/2), sin^2(theta/2)); the two entries sum to 1."""
    t = check_real("theta", theta)
    return math.cos(t / 2.0) ** 2, math.sin(t / 2.0) ** 2


def theta_from_prob(p0: float) -> float:
    """Inverse of prob_from_theta, theta = 2*arccos(sqrt(p0)) in [0, pi]."""
    p0 = check_real("p0", p0)
    if not -SUM_TOL <= p0 <= 1.0 + SUM_TOL:
        raise DomainError(f"probability {p0} outside [0, 1]")
    p0 = min(max(p0, 0.0), 1.0)
    return 2.0 * math.acos(math.sqrt(p0))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Normalized probability vector over 2**n outcomes."""

    probs: np.ndarray  # given as any sequence of floats, stored read-only

    def __post_init__(self):
        arr = real_array(self.probs)
        check_rows(stack=False, probs=arr)
        check_power_of_two("probs length", arr.size)
        check_finite(probs=arr)  # NaN passes every comparison below
        if arr.min() < -SUM_TOL:
            raise DomainError("negative probability")
        arr = np.clip(arr, 0.0, None)
        total = arr.sum()
        if check_unit_sums("probability sum", total):
            arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def nbits(self) -> int:
        return int(self.probs.size).bit_length() - 1

    def __len__(self) -> int:
        return int(self.probs.size)


def s_variable(d: Distribution | Sequence[float]) -> float:
    """S = rho(0) - rho(1) of a binary distribution; equals cos(theta)."""
    probs = d.probs if isinstance(d, Distribution) else real_array(d)
    if probs.size != 2:
        raise DomainError("S-variable is defined for binary distributions")
    return float(probs[0] - probs[1])


@dataclass(frozen=True, eq=False)
class ConditionalTree:
    """Binary factorization tree of a distribution over 2**n outcomes.

    node(l, suffix) stores rho(bit l = 0 | bits l+1..n = suffix), where
    suffix is the integer value of the n-l lower bits.  Zero-mass suffixes
    carry the convention value 1/2, which keeps the tree total; the factor
    is annihilated on reconstitution by the vanishing parent mass.  The tree
    is immutable: `levels` is a tuple of read-only arrays, levels[i] holding
    the 2**i nodes of level n - i indexed by suffix, root level first.
    """

    depth: int
    levels: tuple[np.ndarray, ...]  # given as any sequence of level sequences

    def __post_init__(self):
        depth = check_integer("depth", self.depth, 0)
        try:
            count = len(self.levels)
        except TypeError:  # not a sequence at all
            count = None
        if count != depth:
            raise DomainError("level count does not match depth")
        store = []
        for i, lev in enumerate(self.levels):
            arr = real_array(lev).copy()  # frozen below: never the caller's array
            if arr.ndim != 1 or arr.size != 1 << i:
                raise DomainError(f"level {depth - i} must be a flat vector of "
                                  f"{1 << i} values")
            check_finite(**{f"level {depth - i}": arr})  # NaN passes the range test
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise DomainError("conditional probability outside [0, 1]")
            arr.setflags(write=False)
            store.append(arr)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "levels", tuple(store))

    def node(self, level: int, suffix: int) -> float:
        """Probability that bit `level` is 0 given the lower bits `suffix`."""
        level = check_integer("level", level, 1, self.depth)
        check_integer("suffix", suffix, 0, (1 << (self.depth - level)) - 1)
        return float(self.levels[self.depth - level][suffix])

    def nodes(self) -> Iterator[tuple[int, int, float]]:
        """Yield (level, suffix, p0) from the root (level n) downward."""
        for i, lev in enumerate(self.levels):
            level = self.depth - i
            for suffix, p0 in enumerate(lev):
                yield level, suffix, float(p0)


def mass_pyramid(values: np.ndarray) -> list[np.ndarray]:
    """Suffix sums of values over its last axis, 2**n entries long.

    pyramid[k] has 2**(n-k) entries along the last axis: entry s sums the
    values whose n-k lower bits equal s.  Each level halves the resolution
    by dropping the current top bit, so pyramid[n] is the total and the
    children of the node s at pyramid[k] are pyramid[k-1][s] (the next bit
    up is 0) and pyramid[k-1][s + 2**(n-k)] (it is 1).  Leading axes are a
    stack of independent vectors: the levels are _leaf_pyramid's, viewed
    with the leaf axis last again.
    """
    return [np.moveaxis(level, 0, -1)
            for level in _leaf_pyramid(np.moveaxis(values, -1, 0))]


def _leaf_pyramid(rows: np.ndarray) -> list[np.ndarray]:
    """mass_pyramid over the first axis, the leaf axis of a leaf-major
    stack (2**n, ...): each level adds the two halves of the finer one, so
    on a C-ordered stack every addition runs over whole contiguous rows."""
    pyramid = [rows]
    while len(rows) > 1:
        half = len(rows) // 2
        rows = rows[:half] + rows[half:]
        pyramid.append(rows)
    return pyramid


def factorize(d: Distribution) -> ConditionalTree:
    """Conditional-probability tree of d, resolving least significant bits
    first; zero-mass conditionals are set to 1/2."""
    n = d.nbits
    levels = []
    # masses[k] has 2**(n-k) entries indexed by the lower n-k bits; the
    # level-l nodes divide masses[l-1] (bit l plus suffix) by masses[l].
    masses = mass_pyramid(d.probs)
    for level in range(n, 0, -1):
        fine = masses[level - 1]
        coarse = masses[level]
        num = fine[: 1 << (n - level)]  # entries with bit `level` = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            p0 = np.where(coarse > 0.0, num / np.where(coarse > 0.0, coarse, 1.0), 0.5)
        levels.append(np.clip(p0, 0.0, 1.0))
    return ConditionalTree(n, levels)


def reconstitute(tree: ConditionalTree) -> Distribution:
    """Distribution whose leaf probabilities are the root-to-leaf products."""
    mass = np.array([1.0])
    for p0 in tree.levels:
        mass = np.concatenate([p0 * mass, (1.0 - p0) * mass])
    return Distribution(mass)


def marginalize_to_partition(d: Distribution, p: Partition) -> Distribution:
    """Sum the probabilities of d per set of p, in p's set order."""
    if (1 << p.domain_width) != len(d):
        raise DomainError("partition domain does not match distribution")
    return Distribution([sum(d.probs[x] for x in s) for s in p.sets])
