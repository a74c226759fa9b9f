import math

import numpy as np
import pytest

from qrecon.exceptions import DomainError
from qrecon.partitions import make_lsb_partition, Partition
from qrecon.probmodel import (ConditionalTree, Distribution, _leaf_pyramid,
                              factorize, marginalize_to_partition,
                              mass_pyramid,
                              prob_from_theta, reconstitute, s_variable,
                              theta_from_prob)


def random_distribution(rng, nbits):
    return Distribution(rng.dirichlet(np.ones(1 << nbits)))


class TestThetaParametrization:
    @pytest.mark.parametrize("theta,expected", [
        (0.0, (1.0, 0.0)),
        (math.pi / 2, (0.5, 0.5)),
        (math.pi, (0.0, 1.0)),
    ])
    def test_cardinal_values(self, theta, expected):
        p0, p1 = prob_from_theta(theta)
        assert p0 == pytest.approx(expected[0], abs=1e-15)
        assert p1 == pytest.approx(expected[1], abs=1e-15)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_inverse_endpoints(self):
        assert theta_from_prob(1.0) == 0.0
        assert theta_from_prob(0.5) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for p0 in rng.uniform(0, 1, 200):
            back, _ = prob_from_theta(theta_from_prob(p0))
            assert back == pytest.approx(p0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            theta_from_prob(1.2)


class TestSVariable:
    def test_values(self):
        assert s_variable(Distribution([1.0, 0.0])) == 1.0
        assert s_variable(Distribution([0.5, 0.5])) == 0.0
        assert s_variable(Distribution([0.75, 0.25])) == pytest.approx(0.5)

    def test_equals_cos_theta(self):
        rng = np.random.default_rng(5)
        for p0 in rng.uniform(0, 1, 50):
            d = Distribution([p0, 1 - p0])
            assert s_variable(d) == pytest.approx(
                math.cos(theta_from_prob(p0)), abs=1e-12)

    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            s_variable(Distribution([0.25] * 4))


class TestDistributionValidation:
    def test_renormalizes_small_drift(self):
        d = Distribution(np.full(4, 0.25 * (1 + 2e-10)))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(DomainError, match=r"^probability sum 1\.2 is not 1$"):
            Distribution([0.3, 0.3, 0.3, 0.3])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Distribution([1.1, -0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # NaN fails no comparison, so it used to pass both sum checks
        with pytest.raises(DomainError, match="^probs has a non-finite entry$"):
            Distribution([0.5, bad])

    def test_rejects_non_dyadic_length(self):
        with pytest.raises(DomainError):
            Distribution([1 / 3.0] * 3)

    def test_rejects_zero_outcomes(self):
        with pytest.raises(DomainError):
            Distribution([])


def reshape_sum_pyramid(values):
    """Reference: mass_pyramid with each level summed over a length-2 axis,
    values.reshape(..., 2, half).sum(axis=-2)."""
    pyramid = [values]
    while values.shape[-1] > 1:
        half = values.shape[-1] // 2
        values = values.reshape(*values.shape[:-1], 2, half).sum(axis=-2)
        pyramid.append(values)
    return pyramid


class TestMassPyramid:
    @pytest.mark.parametrize("nbits", range(0, 7))
    def test_levels_are_suffix_sums(self, nbits):
        rng = np.random.default_rng(nbits)
        values = rng.normal(size=1 << nbits)
        pyramid = mass_pyramid(values)
        assert len(pyramid) == nbits + 1
        x = np.arange(1 << nbits)
        for k, level in enumerate(pyramid):
            width = 1 << (nbits - k)
            expected = [values[x % width == s].sum() for s in range(width)]
            assert np.allclose(level, expected, rtol=1e-13, atol=1e-13)

    def test_stack_equals_its_rows(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(5, 16))
        for level, rows in zip(mass_pyramid(stack),
                               zip(*(mass_pyramid(row) for row in stack))):
            assert np.array_equal(level, np.array(rows))

    # the recursion builds its pyramids leaf-major and relies on these bits
    @pytest.mark.parametrize("nbits", range(0, 7))
    def test_leaf_major_levels_are_the_transposed_levels(self, nbits):
        stack = np.random.default_rng(nbits).normal(size=(9, 1 << nbits))
        rows = _leaf_pyramid(np.ascontiguousarray(stack.T))
        for level, leaf_major in zip(mass_pyramid(stack), rows, strict=True):
            assert leaf_major.flags.c_contiguous
            assert level.tobytes() == np.ascontiguousarray(leaf_major.T).tobytes()

    @pytest.mark.parametrize("count", [None, 0, 1, 7, 256])
    @pytest.mark.parametrize("nbits", range(0, 9))
    def test_half_slices_add_as_the_length_two_axis_sum(self, nbits, count):
        rng = np.random.default_rng(10 * nbits + 1)
        values = rng.normal(size=(1 << nbits) if count is None
                            else (count, 1 << nbits))
        pyramid = mass_pyramid(values)
        assert len(pyramid) == len(reshape_sum_pyramid(values))
        for level, expected in zip(pyramid, reshape_sum_pyramid(values)):
            assert level.shape == expected.shape
            assert level.tobytes() == expected.tobytes()


class TestFactorize:
    def test_uniform_gives_half_everywhere(self):
        tree = factorize(Distribution([0.25] * 4))
        assert all(p0 == 0.5 for _, _, p0 in tree.nodes())

    def test_one_point_distribution(self):
        # mass at outcome 0: certainty along the all-zero path, convention
        # value 1/2 on every zero-mass suffix
        probs = np.zeros(8)
        probs[0] = 1.0
        tree = factorize(Distribution(probs))
        for level, suffix, p0 in tree.nodes():
            assert p0 == (1.0 if suffix == 0 else 0.5)

    @pytest.mark.parametrize("outcome", [3, 5, 6])
    def test_one_point_support_path_nodes_are_certain(self, outcome):
        probs = np.zeros(8)
        probs[outcome] = 1.0
        tree = factorize(Distribution(probs))
        for level, suffix, p0 in tree.nodes():
            on_path = (outcome & ((1 << (3 - level)) - 1)) == suffix
            if on_path:
                assert p0 in (0.0, 1.0)
            else:
                assert p0 == 0.5

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            nbits = int(rng.integers(1, 5))
            d = random_distribution(rng, nbits)
            back = reconstitute(factorize(d))
            assert np.abs(back.probs - d.probs).max() < 1e-12

    def test_round_trip_with_zero_mass_region(self):
        probs = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        back = reconstitute(factorize(Distribution(probs)))
        assert np.abs(back.probs - probs).max() < 1e-12

    def test_nodes_resolve_least_significant_bits_first(self):
        d = Distribution([0.1, 0.2, 0.3, 0.4])
        tree = factorize(d)
        # root (level 2) is the marginal of the bottom bit
        assert tree.node(2, 0) == pytest.approx(0.1 + 0.3)
        # level-1 node with suffix 1 conditions on bottom bit = 1
        assert tree.node(1, 1) == pytest.approx(0.2 / (0.2 + 0.4))


class TestReconstitute:
    def test_all_half_tree_is_uniform(self):
        tree = ConditionalTree(3, [np.full(1 << i, 0.5) for i in range(3)])
        assert np.allclose(reconstitute(tree).probs, 1 / 8.0)

    def test_one_point_tree(self):
        levels = [np.ones(1), np.array([1.0, 0.5]), np.array([1.0, 0.5, 0.5, 0.5])]
        d = reconstitute(ConditionalTree(3, levels))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(d.probs, expected)


class TestConditionalTreeValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_node_rejected(self, bad):
        with pytest.raises(DomainError, match="^level 1 has a non-finite entry$"):
            ConditionalTree(1, [[bad]])
        with pytest.raises(DomainError, match="^level 1 has a non-finite entry$"):
            ConditionalTree(2, [[0.5], [0.5, bad]])

    @pytest.mark.parametrize("levels", [[[[0.5]]], [[0.5], [[0.5, 0.5]]],
                                        [[0.5], [[0.5], [0.5]]], [0.5]])
    def test_levels_must_be_flat(self, levels):
        with pytest.raises(DomainError, match="flat vector"):
            ConditionalTree(len(levels), levels)

    @pytest.mark.parametrize("level,suffix", [(0, 0), (3, 0), (1, -1), (1, 4),
                                              (2, 2), (2, -1)])
    def test_node_checks_its_position(self, level, suffix):
        tree = ConditionalTree(2, [[0.5], [0.5, 0.5]])
        with pytest.raises(DomainError):
            tree.node(level, suffix)

    # a float or a bool is not a level, a suffix or a depth, even when it
    # equals one
    @pytest.mark.parametrize("level,suffix", [(1, 0.0), (1.0, 0), (True, 1),
                                              (2, False), (np.int64(1), 1.0)])
    def test_node_positions_must_be_integers(self, level, suffix):
        tree = ConditionalTree(2, [[0.5], [0.5, 0.5]])
        with pytest.raises(DomainError):
            tree.node(level, suffix)

    @pytest.mark.parametrize("depth", [True, 1.0, -1])
    def test_depth_must_be_a_non_negative_integer(self, depth):
        with pytest.raises(DomainError):
            ConditionalTree(depth, [[0.5]])

    @pytest.mark.parametrize("levels", [5, None, 0.5])
    def test_levels_must_be_a_sequence(self, levels):
        with pytest.raises(DomainError, match="level count"):
            ConditionalTree(1, levels)

    def test_the_callers_array_stays_writeable_and_unchanged(self):
        level = np.array([0.5])
        tree = ConditionalTree(1, [level])
        assert level.flags.writeable
        level[0] = 0.25
        assert tree.node(1, 0) == 0.5

    def test_the_levels_are_a_read_only_tuple(self):
        tree = ConditionalTree(2, [[0.5], [0.25, 0.75]])
        assert isinstance(tree.levels, tuple)
        assert [lev.tolist() for lev in tree.levels] == [[0.5], [0.25, 0.75]]
        with pytest.raises(ValueError):
            tree.levels[1][0] = 0.5
        for name, value in (("levels", ()), ("depth", 3)):
            with pytest.raises(AttributeError):
                setattr(tree, name, value)

    def test_numpy_integer_positions_are_taken(self):
        tree = ConditionalTree(np.int64(2), [[0.5], [0.25, 0.75]])
        assert tree.depth == 2 and type(tree.depth) is int
        assert tree.node(np.int32(1), np.uint8(1)) == 0.75


class TestMarginalize:
    def test_whole_domain(self):
        rng = np.random.default_rng(1)
        d = random_distribution(rng, 2)
        omega = Partition(2, [(0, 1, 2, 3)])
        assert marginalize_to_partition(d, omega).probs.tolist() == [
            pytest.approx(1.0)]

    def test_uniform_onto_halves(self):
        d = Distribution([0.125] * 8)
        out = marginalize_to_partition(d, make_lsb_partition(3, 3))
        assert np.allclose(out.probs, [0.5, 0.5])

    def test_one_point_on_parity(self):
        probs = np.zeros(8)
        probs[5] = 1.0
        out = marginalize_to_partition(Distribution(probs), make_lsb_partition(3, 3))
        assert out.probs.tolist() == [0.0, 1.0]

    def test_commutes_with_coarsening(self):
        rng = np.random.default_rng(9)
        d = random_distribution(rng, 3)
        fine = make_lsb_partition(3, 2)
        coarse = make_lsb_partition(3, 3)
        via_fine = marginalize_to_partition(d, fine)
        # regroup the four fine masses into the two coarse ones
        regrouped = [
            sum(via_fine.probs[i] for i, s in enumerate(fine.sets)
                if set(s) <= set(cs))
            for cs in coarse.sets
        ]
        direct = marginalize_to_partition(d, coarse)
        assert np.allclose(regrouped, direct.probs, atol=1e-15)
