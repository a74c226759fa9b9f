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

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .exceptions import DomainError
from .partitions import Partition

SUM_TOL = 1e-12          # accepted deviation of sum(probs) from 1
RENORM_TOL = 1e-9        # constructors renormalize within this, reject beyond


@dataclass(frozen=True)
class ThetaAngle:
    """Angle in [0, pi] parametrizing a binary distribution as
    (cos^2(theta/2), sin^2(theta/2))."""

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= math.pi:
            raise DomainError(f"theta {self.value} outside [0, pi]")


def prob_from_theta(theta: ThetaAngle | float) -> tuple[float, float]:
    """(cos^2(theta/2), sin^2(theta/2)); the two entries sum to 1."""
    t = theta.value if isinstance(theta, ThetaAngle) else float(theta)
    return math.cos(t / 2.0) ** 2, math.sin(t / 2.0) ** 2


def theta_from_prob(p0: float) -> ThetaAngle:
    """Inverse of prob_from_theta, theta = 2*arccos(sqrt(p0))."""
    if not -SUM_TOL <= p0 <= 1.0 + SUM_TOL:
        raise DomainError(f"probability {p0} outside [0, 1]")
    p0 = min(max(p0, 0.0), 1.0)
    return ThetaAngle(2.0 * math.acos(math.sqrt(p0)))


class Distribution:
    """Normalized probability vector over 2**n outcomes."""

    __slots__ = ("probs",)

    def __init__(self, probs: Sequence[float]):
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1 or arr.size & (arr.size - 1):
            raise DomainError("need a flat vector with power-of-2 length")
        if not np.isfinite(arr).all():
            # NaN passes every comparison below
            raise DomainError("probabilities must be finite")
        if arr.min() < -SUM_TOL:
            raise DomainError("negative probability")
        arr = np.clip(arr, 0.0, None)
        total = arr.sum()
        if abs(total - 1.0) > RENORM_TOL:
            raise DomainError(f"probabilities sum to {total}, not 1")
        if abs(total - 1.0) > SUM_TOL:
            arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    @property
    def nbits(self) -> int:
        return int(self.probs.size).bit_length() - 1

    def __len__(self) -> int:
        return int(self.probs.size)

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(self.probs, other.probs)

    def to_json(self) -> str:
        return json.dumps(list(self.probs))

    @classmethod
    def from_json(cls, text: str) -> "Distribution":
        return cls(json.loads(text))


def s_variable(d: Distribution | Sequence[float]) -> float:
    """S = rho(0) - rho(1) of a binary distribution; equals cos(theta)."""
    probs = d.probs if isinstance(d, Distribution) else np.asarray(d, dtype=float)
    if probs.size != 2:
        raise DomainError("S-variable is defined for binary distributions")
    return float(probs[0] - probs[1])


class ConditionalTree:
    """Binary factorization tree of a distribution over 2**n outcomes.

    node(l, suffix) stores rho(bit l = 0 | bits l+1..n = suffix), where
    suffix is the integer value of the n-l lower bits.  Zero-mass suffixes
    carry the convention value 1/2, which keeps the tree total; the factor
    is annihilated on reconstitution by the vanishing parent mass.
    """

    __slots__ = ("depth", "_levels")

    def __init__(self, depth: int, levels: Sequence[Sequence[float]]):
        # levels[0] is the root level (level n, one node), levels[-1] the
        # deepest level (level 1, 2**(n-1) nodes).
        if len(levels) != depth:
            raise DomainError("level count does not match depth")
        self.depth = depth
        store = []
        for i, lev in enumerate(levels):
            arr = np.asarray(lev, dtype=float)
            if arr.size != 1 << i:
                raise DomainError("malformed level width")
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise DomainError("conditional probability outside [0, 1]")
            arr.setflags(write=False)
            store.append(arr)
        self._levels = tuple(store)

    def node(self, level: int, suffix: int) -> float:
        """Probability that bit `level` is 0 given the lower bits `suffix`."""
        if not 1 <= level <= self.depth:
            raise DomainError(f"level {level} outside 1..{self.depth}")
        if not 0 <= suffix < (1 << (self.depth - level)):
            raise DomainError("suffix out of range for level")
        return float(self._levels[self.depth - level][suffix])

    def nodes(self) -> Iterator[tuple[int, int, float]]:
        """Yield (level, suffix, p0) from the root (level n) downward."""
        for i, lev in enumerate(self._levels):
            level = self.depth - i
            for suffix, p0 in enumerate(lev):
                yield level, suffix, float(p0)

    def with_node(self, level: int, suffix: int, p0: float) -> "ConditionalTree":
        levels = [lev.copy() for lev in self._levels]
        levels[self.depth - level][suffix] = p0
        return ConditionalTree(self.depth, levels)

    def to_json(self) -> str:
        def build(level: int, suffix: int):
            doc = {"p0": self.node(level, suffix), "children": []}
            if level > 1:
                doc["children"] = [build(level - 1, suffix | (k << (self.depth - level)))
                                   for k in (0, 1)]
            return doc
        return json.dumps(build(self.depth, 0))

    @classmethod
    def from_json(cls, text: str, depth: int) -> "ConditionalTree":
        levels = [np.full(1 << i, 0.5) for i in range(depth)]

        def walk(doc, level: int, suffix: int):
            levels[depth - level][suffix] = doc["p0"]
            for k, child in enumerate(doc["children"]):
                walk(child, level - 1, suffix | (k << (depth - level)))

        walk(json.loads(text), depth, 0)
        return cls(depth, levels)


def mass_pyramid(values: np.ndarray) -> list[np.ndarray]:
    """Suffix sums of values over its last axis, 2**n entries long.

    pyramid[k] has 2**(n-k) entries along the last axis: entry s sums the
    values whose n-k lower bits equal s.  Each level halves the resolution
    by dropping the current top bit, so pyramid[n] is the total and the
    children of the node s at pyramid[k] are pyramid[k-1][s] (the next bit
    up is 0) and pyramid[k-1][s + 2**(n-k)] (it is 1).  Leading axes are a
    stack of independent vectors.
    """
    pyramid = [values]
    while values.shape[-1] > 1:
        values = values.reshape(*values.shape[:-1], 2, -1).sum(axis=-2)
        pyramid.append(values)
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
    n = tree.depth
    mass = np.array([1.0])
    for level in range(n, 0, -1):
        p0 = tree._levels[n - level]
        mass = np.concatenate([p0 * mass, (1.0 - p0) * mass])
    return Distribution(mass)


def marginalize_to_partition(d: Distribution, p: Partition) -> Distribution:
    """Sum the probabilities of d per set of p, in p's set order."""
    if (1 << p.domain_width) != len(d):
        raise DomainError("partition domain does not match distribution")
    return Distribution([sum(d.probs[x] for x in s) for s in p.sets])
