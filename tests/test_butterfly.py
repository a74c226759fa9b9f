import functools
import math
import tracemalloc

import numpy as np
import pytest

from qrecon import butterfly, kernels
from qrecon.butterfly import (apply_butterfly, assemble_transform,
                              bit_reversal_permutation, chain_propagate,
                              derive_shift_phases, dft_matrix, make_plan,
                              node_position, shift_operator_check,
                              stage_matrix, transform_columns, twiddle_phase,
                              twiddle_stage, verify_danielson_lanczos)
from qrecon.exceptions import DomainError
from qrecon.metrics import fubini_study_distance, random_state


def random_psi(rng, n):
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


# widths, levels, depths and sizes that are not integers in range
@pytest.mark.parametrize("call", [
    lambda: twiddle_stage(3, 0),
    lambda: twiddle_stage(3, 3),
    lambda: twiddle_stage(3, 5),
    lambda: stage_matrix(3.0, 1),
    lambda: verify_danielson_lanczos(2.5),
    lambda: dft_matrix(4.0),
    lambda: dft_matrix(True),
    lambda: derive_shift_phases(True),
    lambda: bit_reversal_permutation(-1),
], ids=["twiddle-level-0", "twiddle-level-n", "twiddle-level-past-n",
        "stage-width-float", "dl-levels-float", "dft-size-float",
        "dft-size-true", "shift-depth-true", "bit-reversal-negative"])
def test_integer_arguments_are_checked(call):
    with pytest.raises(DomainError):
        call()


class TestNodePosition:
    def test_bottom_level_is_the_q_index(self):
        for x in range(8):
            assert node_position(3, 0, x, 0) == x

    def test_top_level_is_bit_reversed_p_index(self):
        for y in range(8):
            assert node_position(3, 3, 0, y) == int(f"{y:03b}"[::-1], 2)

    def test_mixed_level(self):
        # q bits (x2, x3) = (1, 0), p bit y3 = 1 concatenate to [1 1 0]
        assert node_position(3, 1, 0b010, 0b001) == 6

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            node_position(3, 4, 0, 0)
        with pytest.raises(DomainError):
            node_position(3, 1, 8, 0)


class TestShiftPhases:
    def test_base_case(self):
        assert derive_shift_phases(1).tolist() == [0.0, -math.pi]

    def test_depth_two(self):
        assert derive_shift_phases(2).tolist() == [
            0.0, -math.pi / 2, -math.pi, -3 * math.pi / 2]

    @pytest.mark.parametrize("depth", [3, 5, 12])
    def test_recursion_matches_closed_form(self, depth):
        values = derive_shift_phases(depth)
        closed = -2.0 * math.pi * np.arange(1 << depth) / (1 << depth)
        assert np.abs(values - closed).max() < 4 * np.finfo(float).eps * 2 * math.pi

    def test_half_block_difference(self):
        for depth in (2, 4, 6):
            v = derive_shift_phases(depth)
            half = 1 << (depth - 1)
            assert np.allclose(v[half:] - v[:half], -math.pi, atol=1e-15)


class TestTwiddlePhase:
    def test_level_one_of_three(self):
        values = [twiddle_phase(3, 1, k) for k in range(8)]
        assert values[:4] == [0.0] * 4
        assert values[4:] == pytest.approx(
            [0.0, -math.pi / 4, -math.pi / 2, -3 * math.pi / 4])

    def test_level_two_of_three_repeats(self):
        values = [twiddle_phase(3, 2, k) for k in range(8)]
        assert values == pytest.approx([0.0, 0.0, 0.0, -math.pi / 2] * 2)

    def test_block_difference_relation(self):
        for n in range(2, 7):
            for level in range(1, n):
                block = 1 << (n - level + 1)
                half = block // 2
                phases = twiddle_stage(n, level)
                for b in range(0, 1 << n, block):
                    for k in range(half):
                        diff = phases[b + k + half] - phases[b + k]
                        assert diff == pytest.approx(-2 * math.pi * k / block,
                                                     abs=1e-12)

    def test_matches_shift_phases_of_the_subsystem(self):
        # the in-block phase step of twiddle level l' is the depth n-l'+1
        # shift ladder restricted to its first half
        n = 5
        for level in range(1, n):
            depth = n - level + 1
            shift = derive_shift_phases(depth)
            phases = twiddle_stage(n, level)
            block = 1 << depth
            half = block // 2
            for k in range(half):
                assert phases[k + half] - phases[k] == pytest.approx(
                    shift[k], abs=1e-12)

    def test_range_errors(self):
        with pytest.raises(DomainError):
            twiddle_phase(3, 3, 0)
        with pytest.raises(DomainError):
            twiddle_phase(3, 1, 8)


class TestStageMatrix:
    def test_single_level_is_hadamard(self):
        assert np.allclose(stage_matrix(1, 1),
                           np.array([[1, 1], [1, -1]]) / math.sqrt(2))

    def test_self_inverse(self):
        for n, l in ((2, 1), (3, 2), (4, 4)):
            m = stage_matrix(n, l)
            assert np.allclose(m @ m, np.eye(1 << n), atol=1e-15)

    def test_norm_preserving(self):
        rng = np.random.default_rng(0)
        psi = random_psi(rng, 3)
        for l in (1, 2, 3):
            assert np.linalg.norm(stage_matrix(3, l) @ psi) == pytest.approx(
                1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_cell_loop_bit_for_bit(self, n):
        # the per-cell construction: +0.0 off the cells, +-1/sqrt(2) on them
        size = 1 << n
        for l in range(1, n + 1):
            half = 1 << (n - l)
            loop = np.zeros((size, size))
            for b in range(0, size, 2 * half):
                for k in range(half):
                    i, j = b + k, b + k + half
                    loop[i, i] = loop[i, j] = loop[j, i] = butterfly._INV_SQRT2
                    loop[j, j] = -butterfly._INV_SQRT2
            assert stage_matrix(n, l).tobytes() == loop.tobytes()


class TestAssembleTransform:
    def test_single_level_is_hadamard(self):
        assert np.allclose(assemble_transform(1),
                           np.array([[1, 1], [1, -1]]) / math.sqrt(2))

    def test_two_level_natural_order_entries(self):
        expected = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2
        assert np.abs(assemble_transform(2, "natural") - expected).max() < 1e-15

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_fourier_matrix(self, n):
        dev = np.abs(assemble_transform(n, "natural") - dft_matrix(1 << n)).max()
        assert dev < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unitary(self, n):
        mat = assemble_transform(n)
        assert np.abs(mat @ mat.conj().T - np.eye(1 << n)).max() < 1e-12

    def test_minus_sign_gives_the_conjugate(self):
        assert np.abs(assemble_transform(3, "natural", -1)
                      - dft_matrix(8, -1)).max() < 1e-13

    def test_bit_reversed_ordering(self):
        n = 3
        br = bit_reversal_permutation(n)
        raw = assemble_transform(n, "bitReversed")
        assert np.allclose(raw[br], assemble_transform(n, "natural"), atol=0)


class TestDftMatrix:
    def test_two_point_is_hadamard(self):
        assert np.allclose(dft_matrix(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2))

    def test_four_point_row(self):
        row = dft_matrix(4)[1] * 2
        assert np.allclose(row, [1, 1j, -1, -1j], atol=1e-15)

    @pytest.mark.parametrize("size", [2, 16, 256, 1024])
    def test_unitary(self, size):
        mat = dft_matrix(size)
        assert np.abs(mat @ mat.conj().T - np.eye(size)).max() < 1e-11

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            dft_matrix(12)

    @pytest.mark.parametrize("sign", [True, 1.0])
    def test_sign_must_be_an_integer(self, sign):
        with pytest.raises(DomainError):
            dft_matrix(4, sign)

    # one row per block, uneven blocks of a few rows, and the default
    @pytest.mark.parametrize("block", [1, 1000, butterfly.DFT_BLOCK])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_row_blocks_give_the_whole_array_bits(self, monkeypatch, block, sign):
        monkeypatch.setattr(butterfly, "DFT_BLOCK", block)
        for n in range(10):
            size = 1 << n
            j = np.arange(size)
            whole = (np.exp(sign * 2j * np.pi * (np.outer(j, j) % size) / size)
                     / math.sqrt(size))
            assert dft_matrix(size, sign).tobytes() == whole.tobytes()

    # each entry is the root of j*k mod N: row 1 holds all N of them, and
    # every other row repeats them bit for bit (compared a row band at a
    # time, so no second N x N array exists)
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_entries_depend_on_j_k_mod_n_only(self, n, sign):
        size = 1 << n
        mat = dft_matrix(size, sign)
        j = np.arange(size)
        for start in range(0, size, 256):
            band = j[start:start + 256]
            assert (mat[band].tobytes()
                    == mat[1][np.outer(band, j) % size].tobytes())


class TestApplyButterfly:
    def test_point_input_spreads_uniformly(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        out = apply_butterfly(make_plan(3), psi)
        assert np.allclose(np.abs(out) ** 2, 1 / 8.0, atol=1e-15)

    def test_constant_input_concentrates(self):
        psi = np.full(8, 1 / math.sqrt(8), dtype=complex)
        out = apply_butterfly(make_plan(3), psi)
        probs = np.abs(out) ** 2
        assert probs[0] == pytest.approx(1.0, abs=1e-14)
        assert probs[1:].max() < 1e-14

    def test_matches_dense_product_at_n12(self):
        rng = np.random.default_rng(1)
        n = 12
        psi = random_psi(rng, n)
        out = apply_butterfly(make_plan(n), psi)
        dense = dft_matrix(1 << n) @ psi
        assert np.abs(out - dense).max() < 1e-11

    def test_orders_are_consistent(self):
        rng = np.random.default_rng(2)
        plan = make_plan(4)
        psi = random_psi(rng, 4)
        raw = apply_butterfly(plan, psi, order="bitReversed")
        nat = apply_butterfly(plan, psi, order="natural")
        assert np.array_equal(raw[bit_reversal_permutation(4)], nat)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            apply_butterfly(make_plan(3), np.ones(4, dtype=complex) / 2)

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_numpy_fft(self, n, sign):
        rng = np.random.default_rng(100 + n)
        psi = random_psi(rng, n)
        ref = (np.fft.ifft if sign > 0 else np.fft.fft)(psi, norm="ortho")
        out = apply_butterfly(make_plan(n, sign), psi)
        assert np.abs(out - ref).max() < 1e-12

    @pytest.mark.parametrize("order", ["natural", "bitReversed"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 19))
    def test_equals_one_pass_of_all_stages_bit_for_bit(self, n, sign, order):
        # n <= 6 is all tail, n = 7 has one stage before it
        rng = np.random.default_rng(500 + n)
        psi = random_psi(rng, n)
        plan = make_plan(n, sign)
        one_pass = psi.copy()
        kernels.apply_stages_inplace(one_pass, plan.ramps, n)
        if order == "natural":
            one_pass = one_pass[bit_reversal_permutation(n)]
        assert apply_butterfly(plan, psi, order).tobytes() == one_pass.tobytes()

    def test_unknown_order(self):
        with pytest.raises(DomainError):
            apply_butterfly(make_plan(3), np.ones(8, dtype=complex), "reversed")

    def test_strided_input_is_copied_not_changed(self):
        rng = np.random.default_rng(3)
        wide = random_psi(rng, 6)
        before = wide.copy()
        out = apply_butterfly(make_plan(5), wide[::2])
        assert np.array_equal(wide, before)
        assert np.array_equal(out, apply_butterfly(make_plan(5), wide[::2].copy()))


class TestTransformColumns:
    @pytest.mark.parametrize("order", ["natural", "bitReversed"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_stack_equals_per_column_apply(self, n, sign, order):
        rng = np.random.default_rng(200 + n)
        mat = rng.normal(size=(1 << n, 5)) + 1j * rng.normal(size=(1 << n, 5))
        plan = make_plan(n, sign)
        columns = np.stack([apply_butterfly(plan, mat[:, j], order)
                            for j in range(5)], axis=1)
        for stack in (transform_columns(mat, n, sign, order),
                      apply_butterfly(plan, mat, order)):
            assert stack.tobytes() == columns.tobytes()

    def test_an_empty_stack_transforms_to_an_empty_stack(self):
        out = transform_columns(np.ones((8, 0)), 3)
        assert out.shape == (8, 0)

    @pytest.mark.parametrize("shape", [(), (8, 2, 2)])
    def test_rejects_an_array_that_is_not_one_or_two_d(self, shape):
        with pytest.raises(DomainError):
            transform_columns(np.ones(shape), 3)

    def test_unknown_order_fails_before_any_kernel_call(self, monkeypatch):
        calls = []
        real = kernels.apply_stage_range
        monkeypatch.setattr(kernels, "apply_stage_range",
                            lambda *args: calls.append(1) or real(*args))
        with pytest.raises(DomainError):
            transform_columns(np.eye(1024, dtype=complex), 10, +1, "bogus")
        assert calls == []

    @pytest.mark.parametrize("n", [3.0, -1])
    def test_rejects_a_width_that_is_not_a_positive_integer(self, n):
        with pytest.raises(DomainError):
            transform_columns(np.ones((8, 2), dtype=complex), n)

    def test_kernel_rejects_a_non_contiguous_stack(self):
        stack = np.ones((8, 4), dtype=complex).T
        with pytest.raises(ValueError):
            kernels.apply_stage_range(stack, make_plan(3).ramps, 3, 1, 3)


class TestVerifyDanielsonLanczos:
    def test_two_level_cell_is_exact(self):
        report = verify_danielson_lanczos(2)
        assert report["cell_deviation"] == 0.0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_deviations_tiny(self, n):
        report = verify_danielson_lanczos(n)
        assert report["cell_deviation"] < 1e-12
        assert report["recursion_deviation"] < 1e-12
        assert report["ladder_deviation"] < 1e-12
        assert report["half_period_deviation"] < 1e-12


class TestShiftOperatorCheck:
    def test_single_level_diag(self):
        # conjugating the two-point swap yields diag(1, -1)
        fwd = assemble_transform(1)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        conj = fwd.conj().T @ swap @ fwd
        assert np.allclose(conj, np.diag([1.0, -1.0]), atol=1e-15)
        report = shift_operator_check(1)
        assert report["off_diagonal_max"] < 1e-15
        assert report["diagonal_deviation"] < 1e-15

    def test_two_level_phases(self):
        fwd = assemble_transform(2)
        shift = np.zeros((4, 4))
        for x in range(4):
            shift[(x + 1) % 4, x] = 1.0
        diag = np.diag(fwd.conj().T @ shift @ fwd)
        expected = np.exp(-2j * np.pi * np.arange(4) / 4)
        assert np.abs(diag - expected).max() < 1e-14

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_matches_closed_form(self, n):
        report = shift_operator_check(n)
        assert report["off_diagonal_max"] < 1e-12
        assert report["diagonal_deviation"] < 1e-12


class TestChainPropagate:
    def test_point_input_top_level_uniform(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        levels = chain_propagate(psi)
        assert len(levels) == 4
        assert np.allclose(levels[-1].probs, 1 / 8.0, atol=1e-15)

    def test_pair_masses_survive_each_stage(self):
        rng = np.random.default_rng(5)
        n = 5
        psi = random_psi(rng, n)
        levels = chain_propagate(psi)
        for l in range(1, n + 1):
            half = 1 << (n - l)
            parent_from_below = levels[l - 1].probs.reshape(-1, 2, half).sum(axis=1)
            parent_from_above = levels[l].probs.reshape(-1, 2, half).sum(axis=1)
            assert np.abs(parent_from_below - parent_from_above).max() < 1e-12

    def test_top_level_is_bit_reversed_output_distribution(self):
        rng = np.random.default_rng(6)
        n = 6
        psi = random_psi(rng, n)
        levels = chain_propagate(psi)
        target = np.abs(dft_matrix(1 << n) @ psi) ** 2
        br = bit_reversal_permutation(n)
        assert np.abs(levels[-1].probs[br] - target).max() < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            chain_propagate(np.ones(4, dtype=complex))

    def test_rejects_a_stack_by_its_own_name(self):
        with pytest.raises(DomainError, match="chain_propagate"):
            chain_propagate(np.ones((2, 2)) / 2)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_top_level_is_the_squared_ladder_output(self, n):
        rng = np.random.default_rng(8)
        psi = random_psi(rng, n)
        levels = chain_propagate(psi)
        raw = apply_butterfly(make_plan(n), psi, "bitReversed")
        assert np.array_equal(levels[-1].probs, np.abs(raw) ** 2)


class TestTransformPreservesGeometry:
    def test_distance_preserved(self):
        rng = np.random.default_rng(7)
        plan = make_plan(5)
        for _ in range(25):
            a = random_state(5, rng).amps
            b = random_state(5, rng).amps
            before = fubini_study_distance(a, b)
            after = fubini_study_distance(apply_butterfly(plan, a),
                                          apply_butterfly(plan, b))
            assert after == pytest.approx(before, abs=1e-10)


class TestPlanDiagonals:
    def test_unit_modulus_diagonals(self):
        plan = make_plan(4)
        for level in range(1, 4):
            assert np.abs(np.abs(plan.diagonal(level)) - 1.0).max() < 1e-15


class TestPlanRamps:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_one_ramp_per_twiddle_level(self, n):
        # ramps[l-1] has 2**(n-l) entries for l = 1..n-1: N - 2 in all
        ramps = make_plan(n).ramps
        assert [r.size for r in ramps] == [1 << (n - l) for l in range(1, n)]
        assert sum(r.size for r in ramps) == 2**n - 2
        for r in ramps:
            assert r.flags.c_contiguous and not r.flags.writeable

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_diagonals_equal_the_twiddle_stages_exactly(self, n, sign):
        plan = make_plan(n, sign)
        for level in range(1, n):
            expected = np.exp(-1j * sign * twiddle_stage(n, level))
            assert np.array_equal(plan.diagonal(level), expected)

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_level_phases_equal_the_expanded_diagonals(self, n, sign):
        plan = make_plan(n, sign)
        for level in range(1, n):
            assert np.array_equal(plan.twiddle_phases(level),
                                  np.angle(plan.diagonal(level)))

    @pytest.mark.parametrize("level", [0, 4, -1])
    def test_twiddle_level_out_of_range(self, level):
        with pytest.raises(DomainError):
            make_plan(4).twiddle_phases(level)

    @pytest.mark.parametrize("args", [(True,), (3, 1.0), (3.0,)],
                             ids=["n-true", "sign-1.0", "n-3.0"])
    def test_order_and_sign_must_be_integers(self, args):
        with pytest.raises(DomainError):
            make_plan(*args)

    def test_one_level_phases_expand_only_that_level(self):
        # all 17 expanded diagonals of n = 18 would take 68 MB; one level
        # takes a 4 MB diagonal and its 2 MB of phases
        plan = make_plan(18)
        tracemalloc.start()
        try:
            plan.twiddle_phases(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestColumnStackKernel:
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("cols", [1, 3, 64])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_stack_equals_per_column_apply(self, n, cols, sign):
        rng = np.random.default_rng(300 + n)
        stack = (rng.normal(size=(1 << n, cols))
                 + 1j * rng.normal(size=(1 << n, cols)))
        plan = make_plan(n, sign)
        columns = [apply_butterfly(plan, stack[:, j], "bitReversed")
                   for j in range(cols)]
        kernels.apply_stage_range(stack, plan.ramps, n, 1, n)
        assert np.array_equal(stack, np.stack(columns, axis=1))

    @pytest.mark.parametrize("shape", [(4, 8), (16, 2), (7,), (8, 2, 2)])
    def test_rejects_a_stack_whose_first_axis_is_not_n(self, shape):
        with pytest.raises(ValueError):
            kernels.apply_stage_range(np.ones(shape, dtype=complex),
                                      make_plan(3).ramps, 3, 1, 3)

    def test_transform_columns_leaves_a_single_column_unchanged(self):
        mat = np.zeros((8, 1), dtype=complex)
        mat[0] = 1.0
        transform_columns(mat, 3)
        assert mat[0, 0] == 1.0 and not mat[1:].any()


class TestFourStepStack:
    """A stack runs the same four steps as one state: stages in place, the
    blocks gathered into a tail chunk by chunk, the tail stages, the rows
    read back."""

    # 1,000 entries: at most 15 blocks of 64 per chunk, so from n = 10 on a
    # gather spans several chunks and ends in a partial one
    @pytest.mark.parametrize("gather", [butterfly.GATHER_ENTRIES, 1000])
    @pytest.mark.parametrize("order", ["natural", "bitReversed"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("cols", [1, 5, 64, 128])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_stack_equals_per_column_states_bit_for_bit(
            self, n, cols, sign, order, gather, monkeypatch):
        monkeypatch.setattr(butterfly, "GATHER_ENTRIES", gather)
        rng = np.random.default_rng(700 + n)
        stack = (rng.normal(size=(1 << n, cols))
                 + 1j * rng.normal(size=(1 << n, cols)))
        plan = make_plan(n, sign)
        columns = np.stack([apply_butterfly(plan, stack[:, j], order)
                            for j in range(cols)], axis=1)
        assert apply_butterfly(plan, stack, order).tobytes() == columns.tobytes()

    @pytest.mark.parametrize("order", ["natural", "bitReversed"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_one_pass_of_all_stages_bit_for_bit(self, n, sign, order):
        rng = np.random.default_rng(800 + n)
        stack = rng.normal(size=(1 << n, 7)) + 1j * rng.normal(size=(1 << n, 7))
        plan = make_plan(n, sign)
        one_pass = stack.copy()
        kernels.apply_stages_inplace(one_pass, plan.ramps, n)
        if order == "natural":
            one_pass = one_pass[bit_reversal_permutation(n)]
        assert apply_butterfly(plan, stack, order).tobytes() == one_pass.tobytes()

    @pytest.mark.parametrize("order", ["natural", "bitReversed"])
    @pytest.mark.parametrize("n", [3, 12])
    def test_an_empty_stack_gives_an_empty_stack(self, n, order):
        out = apply_butterfly(make_plan(n), np.ones((1 << n, 0)), order)
        assert out.shape == (1 << n, 0) and out.dtype == complex

    @pytest.mark.parametrize("order", ["natural", "bitReversed"])
    def test_one_state_holds_no_second_full_size_temporary(self, order):
        # the copy of the state and the tail are two states; a gather of all
        # blocks at once would make a third
        n = 16
        psi = random_psi(np.random.default_rng(4), n)
        plan = make_plan(n)
        tracemalloc.start()
        try:
            apply_butterfly(plan, psi, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * psi.nbytes


@functools.lru_cache(maxsize=None)
def recursive_dft(m):
    """The Danielson-Lanczos recursion for the 2**m-point Fourier matrix, a
    whole matrix per level: row j of the even and odd columns is row
    j mod N/2 of the half-size matrix, the odd ones times W^j,
    W = exp(2*pi*i/N)."""
    if m == 1:
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * butterfly._INV_SQRT2
    sub = recursive_dft(m - 1)
    size = 1 << m
    half = size // 2
    out = np.empty((size, size), dtype=complex)
    w = np.exp(2j * np.pi * np.arange(size) / size)
    for j in range(size):
        out[j, 0::2] = sub[j % half] * butterfly._INV_SQRT2
        out[j, 1::2] = w[j] * sub[j % half] * butterfly._INV_SQRT2
    return out


def dense_deviations(n):
    """The whole-matrix passes the streamed measurement replaces.  From two
    levels on they include the dense final-cell check: F_1 t_1 as an N x N
    matrix couples each pair (j, j + N/2) through [[1, W^j], [1, -W^j]]/sqrt(2),
    W = exp(2*pi*i/N), and row j holds nothing outside its pair; and the
    half-period relation W^(j + N/2) = -W^j."""
    size = 1 << n
    fwd = assemble_transform(n, "natural", +1)
    dft = dft_matrix(size, +1)
    gram = np.conj(transform_columns(np.conj(fwd), n, +1, "natural"))
    shifted = np.conj(transform_columns(np.conj(np.roll(fwd, 1, axis=0)), n, +1,
                                        "natural"))
    off = shifted - np.diag(np.diag(shifted))
    phases = np.exp(1j * derive_shift_phases(n))
    dev = {"ladder": float(np.abs(fwd - dft).max()),
           "unitarity": float(np.abs(gram - np.eye(size)).max()),
           "off_diagonal": float(np.abs(off).max()),
           "diagonal": float(np.abs(np.diag(shifted) - phases).max()),
           "recursion": float(np.abs(recursive_dft(n) - dft).max())}
    if n < 2:
        return dev
    half = size // 2
    w = np.exp(2j * np.pi * np.arange(half) / size)
    coupled = stage_matrix(n, 1) @ np.diag(make_plan(n, +1).diagonal(1))
    cell_dev = 0.0
    for j in range(half):
        cell = coupled[np.ix_([j, j + half], [j, j + half])]
        target = np.array([[1.0, w[j]], [1.0, -w[j]]]) * butterfly._INV_SQRT2
        cell_dev = max(cell_dev, float(np.abs(cell - target).max()))
        zeroed = coupled[j].copy()
        zeroed[[j, j + half]] = 0.0
        cell_dev = max(cell_dev, float(np.abs(zeroed).max()))
    w_shift = np.exp(2j * np.pi * (np.arange(half) + half) / size)
    return {**dev, "cell": cell_dev, "half_period": float(np.abs(w_shift + w).max())}


class TestLadderDeviations:
    @pytest.mark.parametrize("block", [
        1, 3, pytest.param(butterfly.LADDER_BLOCK, id="default")])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_recursion_columns_equal_the_whole_matrix(self, n, block):
        whole = recursive_dft(n)
        for start in range(0, 1 << n, block):
            cols = np.arange(start, min(start + block, 1 << n))
            assert (butterfly._recursion_columns(
                n, cols, butterfly._roots(1 << n, +1)).tobytes()
                == whole[:, cols].tobytes())

    # N = 2..256 falls below, at and above the default block of columns
    @pytest.mark.parametrize("block", [
        1, 3, pytest.param(butterfly.LADDER_BLOCK, id="default")])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_streamed_equal_the_dense_passes(self, n, block, monkeypatch):
        monkeypatch.setattr(butterfly, "LADDER_BLOCK", block)
        assert butterfly._ladder_deviations(n) == dense_deviations(n)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_reports_are_views_of_one_measurement(self, n):
        dense = dense_deviations(n)
        assert verify_danielson_lanczos(n) == {
            "n": n, "cell_deviation": dense["cell"],
            "recursion_deviation": dense["recursion"],
            "ladder_deviation": dense["ladder"],
            "half_period_deviation": dense["half_period"]}
        shift = shift_operator_check(n)
        assert (shift["off_diagonal_max"], shift["diagonal_deviation"]) == (
            dense["off_diagonal"], dense["diagonal"])

    def test_a_nan_in_one_block_is_not_lost(self, monkeypatch):
        monkeypatch.setattr(butterfly, "LADDER_BLOCK", 2)
        real = butterfly._dft_columns

        def poisoned(roots, cols):
            out = real(roots, cols)
            if cols[0] == 2:
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(butterfly, "_dft_columns", poisoned)
        dev = butterfly._ladder_deviations(3)
        assert math.isnan(dev["ladder"]) and math.isnan(dev["recursion"])

    # against roots reduced exactly, only the ladder's own rounding is left:
    # a few ulps at every size, where the old reference grew with sqrt(N)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_ladder_deviation_is_a_few_ulps(self, n):
        assert butterfly._ladder_deviations(n)["ladder"] <= 4 * np.finfo(float).eps
