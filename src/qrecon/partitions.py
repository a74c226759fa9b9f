"""Bit-pattern set partitions of dyadic domains and their symmetries.

Bit positions are 1-indexed from the MOST significant bit: for a width-n
domain, bit 1 is the top bit and bit n the bottom bit of ``x``, so the value
of bit ``i`` of ``x`` is ``(x >> (n - i)) & 1``.

Domains always have ``2**n`` elements and partitions a power-of-2 number of
sets.  ``Partition(n, sets)`` is the one constructor: it sorts each set,
orders the sets by smallest member and checks that they partition the
domain, so every Partition is valid and structural equality is value
equality.  A partition is shift-invariant when ``apply_shift(p, 1) == p``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .exceptions import (MAX_OBJECT_WIDTH, DomainError, RangeError, check_integer,
                         check_power_of_two)

ENUMERATION_WIDTH_CAP = 4  # brute-force searches refuse above this width


@dataclass(frozen=True)
class DigitSubsetSet:
    """The set {x : bits lo..hi of x equal pattern} over a width-bit domain."""

    width: int
    lo: int
    hi: int
    pattern: int

    def __post_init__(self):
        for what in ("width", "lo", "hi", "pattern"):
            check_integer(what, getattr(self, what), 0)
        if not (1 <= self.lo <= self.hi <= self.width):
            raise DomainError(
                f"need 1 <= lo <= hi <= width, got lo={self.lo} hi={self.hi} "
                f"width={self.width}")
        if not (0 <= self.pattern < (1 << self.nbits)):
            raise DomainError(
                f"pattern {self.pattern} does not fit in {self.nbits} bits")

    @property
    def nbits(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, x: int) -> bool:
        return (x >> (self.width - self.hi)) & ((1 << self.nbits) - 1) == self.pattern

    def members(self) -> Iterator[int]:
        for x in range(1 << self.width):
            if x in self:
                yield x


@dataclass(frozen=True)
class Partition:
    """A partition of {0, .., 2**domain_width - 1} into a power-of-2 number
    of disjoint sets.  Construction sorts each set and orders the sets by
    least element, so structural equality is value equality, and rejects
    anything that is not such a partition."""

    domain_width: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = check_integer("width", self.domain_width, 0, MAX_OBJECT_WIDTH)
        try:
            # disjoint sets sort by their least element; an empty one sorts first
            canon = tuple(sorted(tuple(sorted(set(s))) for s in self.sets))
            elements = [operator.index(x) for s in canon for x in s]
        except TypeError as exc:  # not a collection of collections of integers
            raise DomainError(f"sets must be collections of integers: {exc}") from exc
        object.__setattr__(self, "domain_width", n)
        object.__setattr__(self, "sets", canon)
        if not all(canon):
            raise DomainError("partition contains an empty set")
        seen: set[int] = set()
        for x in elements:
            if not 0 <= x < (1 << n):
                raise DomainError(f"element {x} outside width-{n} domain")
            if x in seen:
                raise DomainError(f"element {x} appears in two sets")
            seen.add(x)
        if len(seen) != (1 << n):
            raise DomainError("union of sets does not cover the domain")
        check_power_of_two("number of sets", len(canon))

    def __len__(self) -> int:
        return len(self.sets)

    def index_of(self, x: int) -> int:
        for i, s in enumerate(self.sets):
            if x in s:
                return i
        raise DomainError(f"{x} not in domain")


@dataclass(frozen=True)
class PhaseSpaceSet:
    """Conjunction of one bit-pattern constraint on q and one on p."""

    q_constraint: DigitSubsetSet
    p_constraint: DigitSubsetSet

    @property
    def level_sum(self) -> int:
        return self.q_constraint.lo + self.p_constraint.lo


def make_lsb_partition(n: int, l: int) -> Partition:
    """Partition of the width-n domain whose sets fix bits l..n (the n-l+1
    least significant bits).  Set mu collects every x with x mod 2**(n-l+1)
    == mu; each set has 2**(l-1) elements.
    """
    n = check_integer("width", n, 1, MAX_OBJECT_WIDTH)
    l = check_integer("level l", l, 1, n)
    period = 1 << (n - l + 1)
    sets = [tuple(range(mu, 1 << n, period)) for mu in range(period)]
    return Partition(n, sets)


def apply_shift(p: Partition, k: int) -> Partition:
    """Shift every element by +k mod 2**n, keeping the set grouping."""
    size = 1 << p.domain_width
    k = check_integer("shift", k, -math.inf) % size  # any integer
    return Partition(p.domain_width, [[(x + k) % size for x in s] for s in p.sets])


def is_invariant_under_shift(p: Partition) -> bool:
    """True iff shifting by +1 maps every set onto a set of the partition."""
    return apply_shift(p, 1) == p


def finest_common_partition(a: Partition, b: Partition) -> Partition:
    """Product of all binary subpartitions shared by a and b (lattice meet).

    A shared binary subpartition is a two-block coarsening of both inputs;
    the product of all of them is the partition whose blocks are the
    connected components of the overlap graph of a's and b's sets.  The
    coarsest possible result is the single-set partition.
    """
    if a.domain_width != b.domain_width:
        raise DomainError("partitions live on different domains")
    parent: dict[int, int] = {x: x for x in range(1 << a.domain_width)}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for part in (a, b):
        for s in part.sets:
            for x in s[1:]:
                union(s[0], x)
    blocks: dict[int, list[int]] = {}
    for x in parent:
        blocks.setdefault(find(x), []).append(x)
    return Partition(a.domain_width, blocks.values())


def scale_transform_set(s: PhaseSpaceSet) -> PhaseSpaceSet:
    """Dyadic rescaling q -> 2q, p -> p/2 acting on a phase-space set.

    The q constraint moves one bit toward significance and the p constraint
    one bit away; the level sum q.lo + p.lo is conserved.  A p constraint
    pushed past the bottom bit loses its finest pattern bit (resolution
    loss); a constraint pushed entirely off either end raises RangeError,
    mirroring the exclusion of boundary levels.
    """
    q, p = s.q_constraint, s.p_constraint
    if q.lo - 1 < 1:
        raise RangeError("q constraint already at the most significant bit")
    new_q = DigitSubsetSet(q.width, q.lo - 1, q.hi - 1, q.pattern)
    if p.lo + 1 > p.width:
        raise RangeError("p constraint pushed past the least significant bit")
    if p.hi + 1 > p.width:
        new_p = DigitSubsetSet(p.width, p.lo + 1, p.width, p.pattern >> 1)
    else:
        new_p = DigitSubsetSet(p.width, p.lo + 1, p.hi + 1, p.pattern)
    return PhaseSpaceSet(new_q, new_p)


def enumerate_binary_partitions(n: int) -> list[Partition]:
    """All partitions of the width-n domain into two equal-size sets.

    Refuses n > ENUMERATION_WIDTH_CAP: the count C(2^n - 1, 2^(n-1) - 1)
    explodes combinatorially.
    """
    n = check_integer("width", n, 1)
    if n > ENUMERATION_WIDTH_CAP:
        raise DomainError(f"enumeration capped at width {ENUMERATION_WIDTH_CAP}")
    size = 1 << n
    half = size // 2
    out = []
    rest = list(range(1, size))
    for extra in itertools.combinations(rest, half - 1):
        first = (0, *extra)
        second = tuple(x for x in range(size) if x not in first)
        out.append(Partition(n, [first, second]))
    return out


def shift_invariant_equal_partitions(n: int, cardinality: int) -> list[Partition]:
    """Exhaustive search for shift-invariant partitions with `cardinality`
    equal-size sets, in the order itertools.combinations lists their 0-sets.

    Any shift-invariant partition is the orbit of its 0-set under +1: every
    block contains some x, and the block of x is the 0-block shifted by x.
    Enumerating all candidate 0-blocks of the right size is therefore a
    complete search.  A candidate is a 2**n-bit mask, the odd masks with as
    many bits as a block has members, so its shift by +k is a rotation of
    the mask.  One array pass takes every rotation of every candidate; the
    orbit size is the count of distinct rotations and the coverage their
    OR.  Each surviving orbit becomes a Partition and is re-checked
    directly.
    """
    n = check_integer("width", n, 0)
    if n > ENUMERATION_WIDTH_CAP:
        raise DomainError(f"enumeration capped at width {ENUMERATION_WIDTH_CAP}")
    cardinality = 1 << check_power_of_two("cardinality", cardinality, 0, n)
    size = 1 << n
    full = (1 << size) - 1
    # the cap keeps masks below 2**16, so every rotation fits an int32
    masks = np.arange(1, full + 1, 2, dtype=np.int32)
    masks = masks[np.bitwise_count(masks) == size // cardinality]
    shifts = np.arange(size, dtype=np.int32)[:, None]
    orbits = masks << shifts
    orbits |= masks >> (size - shifts)
    orbits &= full
    orbits.sort(axis=0)
    distinct = 1 + np.count_nonzero(np.diff(orbits, axis=0), axis=0)
    keep = (distinct == cardinality) & (np.bitwise_or.reduce(orbits, axis=0) == full)
    found = []
    for orbit in orbits[:, keep].T.tolist():
        p = Partition(n, [[x for x in range(size) if (mask >> x) & 1]
                          for mask in set(orbit)])
        if is_invariant_under_shift(p):
            found.append(p)
    # every 0-set is the first set of its partition
    return sorted(found, key=lambda p: p.sets[0])
