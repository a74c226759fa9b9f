import functools
import itertools
import operator

import numpy as np
import pytest

from qrecon.exceptions import DomainError, RangeError
from qrecon.partitions import (DigitSubsetSet, Partition, PhaseSpaceSet,
                               apply_shift, enumerate_binary_partitions,
                               finest_common_partition,
                               is_invariant_under_shift, make_lsb_partition,
                               scale_transform_set,
                               shift_invariant_equal_partitions)


def binary_coarsenings(p: Partition) -> list[frozenset[frozenset[int]]]:
    """All two-block coarsenings of p: a brute-force oracle for the meet."""
    k = len(p.sets)
    out = []
    for r in range(0, k - 1):
        for combo in itertools.combinations(range(1, k), r):
            left = frozenset(x for i in (0, *combo) for x in p.sets[i])
            right = frozenset(x for i in range(k) if i not in (0, *combo)
                              for x in p.sets[i])
            if right:
                out.append(frozenset((left, right)))
    return out


def shift_invariant_equal_partitions_oracle(n: int, cardinality: int) -> list[Partition]:
    """The orbit search on frozensets: a brute-force oracle for the bitmask one."""
    size = 1 << n
    block = size // cardinality
    found = []
    for extra in itertools.combinations(range(1, size), block - 1):
        base = frozenset((0, *extra))
        orbit = {frozenset((x + k) % size for x in base) for k in range(size)}
        if len(orbit) != cardinality:
            continue
        covered = set().union(*orbit)
        if len(covered) != size:
            continue
        p = Partition(n, orbit)
        if is_invariant_under_shift(p):
            found.append(p)
    return found


def shift_invariant_equal_partitions_loop(n: int, cardinality: int) -> list[Partition]:
    """The search as one Python loop over itertools.combinations: an oracle
    for the array pass, with the order of its results."""
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
        p = Partition(
            n, [[x for x in range(size) if (mask >> x) & 1] for mask in orbit])
        if is_invariant_under_shift(p):
            found.append(p)
    return found


def part(n, *sets):
    return Partition(n, sets)


class TestDigitSubsetSet:
    def test_membership_fixes_the_selected_bits(self):
        # bits 2..3 of a width-3 value, pattern 10 (bit 1 is most significant)
        s = DigitSubsetSet(width=3, lo=2, hi=3, pattern=0b10)
        assert sorted(s.members()) == [2, 6]

    def test_rejects_bad_ranges(self):
        with pytest.raises(DomainError):
            DigitSubsetSet(3, 0, 2, 0)
        with pytest.raises(DomainError):
            DigitSubsetSet(3, 3, 2, 0)
        with pytest.raises(DomainError):
            DigitSubsetSet(3, 1, 2, 4)


class TestMakeLsbPartition:
    def test_lowest_bit_split_is_parity(self):
        assert make_lsb_partition(3, 3) == part(3, (0, 2, 4, 6), (1, 3, 5, 7))

    def test_full_resolution_gives_singletons(self):
        assert make_lsb_partition(3, 1) == part(3, *[(x,) for x in range(8)])

    def test_two_bit_split(self):
        # frozen by enumerating bit patterns on bits 2..3 and collecting members
        assert make_lsb_partition(3, 2) == part(3, (0, 4), (1, 5), (2, 6), (3, 7))

    def test_set_sizes(self):
        for n in (2, 3, 4):
            for l in range(1, n + 1):
                p = make_lsb_partition(n, l)
                assert len(p) == 1 << (n - l + 1)
                assert all(len(s) == 1 << (l - 1) for s in p.sets)

    def test_level_out_of_range(self):
        with pytest.raises(DomainError):
            make_lsb_partition(3, 0)
        with pytest.raises(DomainError):
            make_lsb_partition(3, 4)


class TestApplyShift:
    def test_parity_flip(self):
        assert apply_shift(make_lsb_partition(3, 3), 1) == make_lsb_partition(3, 3)

    def test_elementwise_shift_not_a_reordering(self):
        shifted = apply_shift(part(2, (0, 1), (2, 3)), 1)
        assert shifted == part(2, (1, 2), (3, 0))
        assert shifted != part(2, (0, 1), (2, 3))

    def test_modular_period(self):
        p = part(3, (0, 1, 2, 3), (4, 5, 6, 7))
        assert apply_shift(p, 8) == p

    def test_negative_and_huge_shifts_wrap(self):
        p = part(2, (0, 1), (2, 3))
        assert apply_shift(p, -1) == apply_shift(p, 3) == part(2, (3, 0), (1, 2))
        assert apply_shift(p, 10**30 + 1) == apply_shift(p, 1)
        assert apply_shift(p, np.int64(-3)) == apply_shift(p, 1)

    @pytest.mark.parametrize("k", [None, "x", [], 1.0, True])
    def test_a_shift_must_be_an_integer(self, k):
        with pytest.raises(DomainError, match="shift"):
            apply_shift(part(2, (0, 1), (2, 3)), k)


class TestShiftInvariance:
    def test_lsb_family_is_invariant(self):
        assert is_invariant_under_shift(make_lsb_partition(3, 3))

    def test_msb_halves_are_not(self):
        assert not is_invariant_under_shift(part(2, (0, 1), (2, 3)))

    def test_singletons_are_invariant(self):
        assert is_invariant_under_shift(make_lsb_partition(3, 1))


class TestFinestCommonPartition:
    def test_msb_vs_parity_meet_is_trivial(self):
        a = part(2, (0, 1), (2, 3))
        b = part(2, (0, 2), (1, 3))
        assert finest_common_partition(a, b) == part(2, (0, 1, 2, 3))

    def test_singletons_absorb_into_the_other_partition(self):
        b = part(3, (0, 2, 4, 6), (1, 3, 5, 7))
        singles = make_lsb_partition(3, 1)
        assert finest_common_partition(singles, b) == b

    def test_idempotent_and_commutative(self):
        a = make_lsb_partition(3, 2)
        b = part(3, (0, 1, 2, 3), (4, 5, 6, 7))
        assert finest_common_partition(a, a) == a
        assert finest_common_partition(a, b) == finest_common_partition(b, a)

    def test_trivial_partition_absorbs(self):
        omega = part(2, (0, 1, 2, 3))
        for other in enumerate_binary_partitions(2):
            assert finest_common_partition(omega, other) == omega

    def test_associative(self):
        a = make_lsb_partition(3, 1)
        b = make_lsb_partition(3, 2)
        c = part(3, (0, 1, 2, 3), (4, 5, 6, 7))
        left = finest_common_partition(finest_common_partition(a, b), c)
        right = finest_common_partition(a, finest_common_partition(b, c))
        assert left == right

    def test_matches_shared_binary_coarsening_oracle(self):
        # independent construction: collect the two-block coarsenings both
        # partitions share and split the domain on each of them
        pairs = [
            (part(2, (0, 1), (2, 3)), part(2, (0, 2), (1, 3))),
            (make_lsb_partition(3, 2), make_lsb_partition(3, 3)),
            (make_lsb_partition(3, 1), part(3, (0, 1, 2, 3), (4, 5, 6, 7))),
            (part(3, (0, 1), (2, 3), (4, 5), (6, 7)),
             part(3, (0, 2), (1, 3), (4, 6), (5, 7))),
        ]
        for a, b in pairs:
            shared = set(binary_coarsenings(a)) & set(binary_coarsenings(b))
            size = 1 << a.domain_width
            labels = {}
            for x in range(size):
                labels[x] = tuple(x in next(iter(c)) for c in sorted(
                    shared, key=lambda c: sorted(map(sorted, c))))
            blocks = {}
            for x, lab in labels.items():
                blocks.setdefault(lab, []).append(x)
            oracle = Partition(a.domain_width, blocks.values())
            assert finest_common_partition(a, b) == oracle

    def test_meet_outside_the_dyadic_class_is_rejected(self):
        # these two quarterings share {0,1} and {2,3} as binary coarsenings,
        # so their meet has three blocks; the module models power-of-2
        # partitions only and refuses to construct it
        a = part(3, (0, 1), (2, 3), (4, 5), (6, 7))
        b = part(3, (0, 1), (2, 3), (4, 6), (5, 7))
        with pytest.raises(DomainError):
            finest_common_partition(a, b)


class TestScaleTransform:
    def make(self, n, q_lo, q_hi, p_lo, p_hi, qpat=0, ppat=0):
        return PhaseSpaceSet(DigitSubsetSet(n, q_lo, q_hi, qpat),
                             DigitSubsetSet(n, p_lo, p_hi, ppat))

    def test_boundary_p_constraint_raises(self):
        s = self.make(3, 2, 3, 3, 3)
        with pytest.raises(RangeError):
            scale_transform_set(s)

    def test_boundary_q_constraint_raises(self):
        s = self.make(3, 1, 2, 2, 3)
        with pytest.raises(RangeError):
            scale_transform_set(s)

    def test_interior_shift_moves_both_windows(self):
        s = self.make(4, 3, 4, 3, 4, qpat=0b10, ppat=0b11)
        out = scale_transform_set(s)
        assert (out.q_constraint.lo, out.q_constraint.hi) == (2, 3)
        assert out.q_constraint.pattern == 0b10
        # p window clamps at the bottom bit and drops its finest pattern bit
        assert (out.p_constraint.lo, out.p_constraint.hi) == (4, 4)
        assert out.p_constraint.pattern == 0b1

    def test_level_sum_conserved(self):
        for q_lo in range(2, 5):
            for p_lo in range(1, 4):
                s = self.make(4, q_lo, 4, p_lo, 4)
                assert scale_transform_set(s).level_sum == s.level_sum

    def test_constant_level_sum_family_maps_into_itself(self):
        n = 4
        family = {(l, n + 1 - l) for l in range(1, n + 1)}
        for l, lp in family:
            s = self.make(n, l, n, lp, n)
            try:
                out = scale_transform_set(s)
            except RangeError:
                continue
            assert (out.q_constraint.lo, out.p_constraint.lo) in family

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_constraint_pair_moves_its_members(self, n):
        # q -> 2q mod 2**n lands in the q image and p -> p >> 1 in the p
        # image, for every pair of constraints that has an image, p windows
        # that stop above the bottom bit (the interior branch) included
        constraints = [DigitSubsetSet(n, lo, hi, pattern)
                       for lo in range(1, n + 1) for hi in range(lo, n + 1)
                       for pattern in range(1 << (hi - lo + 1))]
        interior = 0
        for q, p in itertools.product(constraints, repeat=2):
            try:
                out = scale_transform_set(PhaseSpaceSet(q, p))
            except RangeError:
                continue
            interior += p.hi < n
            assert out.level_sum == q.lo + p.lo
            assert all((2 * x) % (1 << n) in out.q_constraint for x in q.members())
            assert all(y >> 1 in out.p_constraint for y in p.members())
        assert interior > 0 or n == 1


class TestEnumerateBinaryPartitions:
    def test_counts(self):
        assert len(enumerate_binary_partitions(1)) == 1
        assert len(enumerate_binary_partitions(2)) == 3
        assert len(enumerate_binary_partitions(3)) == 35

    def test_refuses_large_width(self):
        with pytest.raises(DomainError):
            enumerate_binary_partitions(5)


class TestShiftInvariantSearch:
    def test_products_of_binary_partitions_width_3(self):
        # every equal-quarter partition reachable as a product of two binary
        # halvings is shift-invariant exactly when it is the lsb family
        halvings = enumerate_binary_partitions(3)
        expected = make_lsb_partition(3, 3)
        target = make_lsb_partition(3, 2)
        seen_invariant = set()
        for a, b in itertools.combinations(halvings, 2):
            prod = {}
            for x in range(8):
                prod.setdefault((a.index_of(x), b.index_of(x)), []).append(x)
            if len(prod) != 4 or any(len(v) != 2 for v in prod.values()):
                continue
            p = Partition(3, prod.values())
            if is_invariant_under_shift(p):
                seen_invariant.add(p.sets)
        assert seen_invariant == {target.sets}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_only_the_parity_halving_is_invariant(self, n):
        # direct sweep over every equal-half binary partition
        invariant = [p for p in enumerate_binary_partitions(n)
                     if is_invariant_under_shift(p)]
        assert invariant == [make_lsb_partition(n, n)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orbit_search_finds_only_lsb_families(self, n):
        for c in range(1, n + 1):
            found = shift_invariant_equal_partitions(n, 1 << c)
            assert found == [make_lsb_partition(n, n - c + 1)]

    def test_refuses_large_width(self):
        with pytest.raises(DomainError):
            shift_invariant_equal_partitions(5, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bitmask_search_equals_the_set_oracle(self, n):
        for c in range(n + 1):
            assert (shift_invariant_equal_partitions(n, 1 << c)
                    == shift_invariant_equal_partitions_oracle(n, 1 << c))


class TestArraySearch:
    @pytest.mark.parametrize("n", range(0, 5))
    def test_equals_the_loop_in_its_order(self, n):
        for c in range(n + 1):
            assert (shift_invariant_equal_partitions(n, 1 << c)
                    == shift_invariant_equal_partitions_loop(n, 1 << c))


# a float, a bool or a negative width is not a width, level or cardinality
@pytest.mark.parametrize("call", [
    lambda: shift_invariant_equal_partitions(-1, 1),
    lambda: shift_invariant_equal_partitions(2.0, 2),
    lambda: shift_invariant_equal_partitions(2, 2.0),
    lambda: shift_invariant_equal_partitions(True, 2),
    lambda: shift_invariant_equal_partitions(2, True),
    lambda: enumerate_binary_partitions(-1),
    lambda: enumerate_binary_partitions(0),
    lambda: enumerate_binary_partitions(2.0),
    lambda: make_lsb_partition(2.0, 1),
    lambda: make_lsb_partition(2, 1.0),
    lambda: make_lsb_partition(True, True),
    lambda: DigitSubsetSet(2.0, 1, 2, 0),
    lambda: DigitSubsetSet(2, True, 2, 0),
    lambda: DigitSubsetSet(2, 1, 2, 0.0),
    lambda: Partition("x", [[0], [1]]),
    lambda: Partition(1.0, [[0], [1]]),
    lambda: Partition(True, [[0], [1]]),
    lambda: Partition(10**30, [[0]]),
    # sets of integers: 0.5 and 1 once passed as a partition of width 1
    lambda: Partition(1, [[0.5], [1]]),
    lambda: Partition(1, [["a"], [0, 1]]),
    lambda: Partition(1, [[[0]], [1]]),
    lambda: Partition(1, [0, 1]),
    lambda: Partition(1, None),
], ids=["search-width-negative", "search-width-float", "search-card-float",
        "search-width-true", "search-card-true", "binary-width-negative",
        "binary-width-0", "binary-width-float", "lsb-width-float",
        "lsb-level-float", "lsb-true-true", "digit-width-float",
        "digit-lo-true", "digit-pattern-float", "partition-width-str",
        "partition-width-float", "partition-width-true", "partition-width-1e30",
        "partition-element-float", "partition-element-str",
        "partition-element-list", "partition-sets-of-ints", "partition-sets-none"])
def test_integer_arguments_are_checked(call):
    with pytest.raises(DomainError):
        call()


class TestPartitionSets:
    def test_sets_are_sorted_members(self):
        p = make_lsb_partition(3, 2)
        assert p.domain_width == 3
        assert p.sets == ((0, 4), (1, 5), (2, 6), (3, 7))

    @pytest.mark.parametrize("sets", [[[], [0, 1]], [[0, 1], []], [[0], [1], [], []]])
    def test_an_empty_set_is_rejected(self, sets):
        with pytest.raises(DomainError, match="empty set"):
            Partition(1, sets)

    def test_validate_rejects_an_empty_set(self):
        with pytest.raises(DomainError, match="empty set"):
            Partition(1, ((), (0, 1))).validate()

    def test_validation_rejects_overlap_and_gaps(self):
        with pytest.raises(DomainError):
            part(2, (0, 1), (1, 2, 3))
        with pytest.raises(DomainError):
            part(2, (0, 1), (2,))

    def test_construction_sorts_the_sets(self):
        p = Partition(2, [[3, 1], [2, 0]])
        assert p.sets == ((0, 2), (1, 3))
        assert p == Partition(2, ((0, 2), (1, 3)))
