"""Bit-pattern set partitions of dyadic domains and their symmetries.

Bit positions are 1-indexed from the MOST significant bit: for a width-n
domain, bit 1 is the top bit and bit n the bottom bit of ``x``, so the value
of bit ``i`` of ``x`` is ``(x >> (n - i)) & 1``.  All serializations follow
the same convention.

Domains always have ``2**n`` elements and partitions a power-of-2 number of
sets.  Partitions are canonically ordered by smallest member, so structural
equality is value equality.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .exceptions import DomainError, RangeError

ENUMERATION_WIDTH_CAP = 4  # brute-force searches refuse above this width


@dataclass(frozen=True)
class DigitSubsetSet:
    """The set {x : bits lo..hi of x equal pattern} over a width-bit domain."""

    width: int
    lo: int
    hi: int
    pattern: int

    def __post_init__(self):
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
    """A partition of {0, .., 2**domain_width - 1} into disjoint sets."""

    domain_width: int
    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_sets(cls, domain_width: int, sets: Iterable[Iterable[int]]) -> "Partition":
        canon = tuple(sorted((tuple(sorted(set(s))) for s in sets), key=lambda s: s[0]))
        p = cls(domain_width, canon)
        p.validate()
        return p

    def validate(self) -> None:
        n = self.domain_width
        seen: set[int] = set()
        for s in self.sets:
            for x in s:
                if not 0 <= x < (1 << n):
                    raise DomainError(f"element {x} outside width-{n} domain")
                if x in seen:
                    raise DomainError(f"element {x} appears in two sets")
                seen.add(x)
        if len(seen) != (1 << n):
            raise DomainError("union of sets does not cover the domain")
        if len(self.sets) & (len(self.sets) - 1):
            raise DomainError("number of sets must be a power of 2")

    def __len__(self) -> int:
        return len(self.sets)

    def index_of(self, x: int) -> int:
        for i, s in enumerate(self.sets):
            if x in s:
                return i
        raise DomainError(f"{x} not in domain")

    def as_frozensets(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(s) for s in self.sets)

    def to_json(self) -> str:
        return json.dumps({"n": self.domain_width, "sets": [list(s) for s in self.sets]})

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        doc = json.loads(text)
        return cls.from_sets(doc["n"], doc["sets"])


@dataclass(frozen=True)
class PhaseSpaceSet:
    """Conjunction of one bit-pattern constraint on q and one on p."""

    q_constraint: DigitSubsetSet
    p_constraint: DigitSubsetSet

    def contains(self, q: int, p: int) -> bool:
        return q in self.q_constraint and p in self.p_constraint

    @property
    def level_sum(self) -> int:
        return self.q_constraint.lo + self.p_constraint.lo


def make_lsb_partition(n: int, l: int) -> Partition:
    """Partition of the width-n domain whose sets fix bits l..n (the n-l+1
    least significant bits).  Set mu collects every x with x mod 2**(n-l+1)
    == mu; each set has 2**(l-1) elements.
    """
    if not 1 <= l <= n:
        raise DomainError(f"level l={l} outside 1..{n}")
    period = 1 << (n - l + 1)
    sets = [tuple(range(mu, 1 << n, period)) for mu in range(period)]
    return Partition.from_sets(n, sets)


def apply_shift(p: Partition, k: int) -> Partition:
    """Shift every element by +k mod 2**n, keeping the set grouping."""
    size = 1 << p.domain_width
    return Partition.from_sets(
        p.domain_width, [[(x + k) % size for x in s] for s in p.sets])


def is_invariant_under_shift(p: Partition) -> bool:
    """True iff shifting by +1 maps every set onto a set of the partition."""
    size = 1 << p.domain_width
    originals = p.as_frozensets()
    return all(
        frozenset((x + 1) % size for x in s) in originals for s in p.sets)


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
    return Partition.from_sets(a.domain_width, blocks.values())


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
    if n > ENUMERATION_WIDTH_CAP:
        raise DomainError(f"enumeration capped at width {ENUMERATION_WIDTH_CAP}")
    size = 1 << n
    half = size // 2
    out = []
    rest = list(range(1, size))
    for extra in itertools.combinations(rest, half - 1):
        first = (0, *extra)
        second = tuple(x for x in range(size) if x not in first)
        out.append(Partition.from_sets(n, [first, second]))
    return out


def shift_invariant_equal_partitions(n: int, cardinality: int) -> list[Partition]:
    """Exhaustive search for shift-invariant partitions with `cardinality`
    equal-size sets.

    Any shift-invariant partition is the orbit of its 0-set under +1: every
    block contains some x, and the block of x is the 0-block shifted by x.
    Enumerating all candidate 0-blocks of the right size is therefore a
    complete search.  A candidate is a 2**n-bit mask, so its shift by +k is
    a rotation of the mask, its orbit a set of masks and its coverage their
    OR; each surviving orbit is re-checked directly.
    """
    if n > ENUMERATION_WIDTH_CAP:
        raise DomainError(f"enumeration capped at width {ENUMERATION_WIDTH_CAP}")
    if cardinality & (cardinality - 1) or not 1 <= cardinality <= (1 << n):
        raise DomainError("cardinality must be a power of 2 within the domain")
    size = 1 << n
    block = size // cardinality
    full = (1 << size) - 1
    found = []
    for extra in itertools.combinations(range(1, size), block - 1):
        base = 1 + sum(1 << x for x in extra)
        orbit = {((base << k) | (base >> (size - k))) & full for k in range(size)}
        if len(orbit) != cardinality:
            continue
        if functools.reduce(operator.or_, orbit) != full:
            continue
        p = Partition.from_sets(
            n, [[x for x in range(size) if (mask >> x) & 1] for mask in orbit])
        if is_invariant_under_shift(p):
            found.append(p)
    return found
