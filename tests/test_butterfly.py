import functools
import math
import os
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qrecon import butterfly, criteria, kernels, probmodel
from qrecon.butterfly import (apply_butterfly, assemble_transform,
                              bit_reversal_permutation, chain_propagate,
                              derive_shift_phases, dft_matrix, make_plan,
                              node_position, shift_operator_check,
                              stage_matrix, transform_columns, twiddle_phase,
                              twiddle_stage, verify_danielson_lanczos)
from qrecon.exceptions import DomainError
from qrecon.metrics import fubini_study_distance, random_state

EPS = np.finfo(float).eps


def random_psi(rng, n):
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def ladder_output(plan, psi, order):
    """apply_butterfly's result in natural order, or in the ladder's own
    bit-reversed order: the natural result indexed by bit_reversal_permutation."""
    out = apply_butterfly(plan, psi)
    return out if order == "natural" else out[bit_reversal_permutation(plan.n)]


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
    # unhashable: checked before any cache lookup
    lambda: bit_reversal_permutation([]),
    lambda: bit_reversal_permutation(np.eye(2)),
], ids=["twiddle-level-0", "twiddle-level-n", "twiddle-level-past-n",
        "stage-width-float", "dl-levels-float", "dft-size-float",
        "dft-size-true", "shift-depth-true", "bit-reversal-negative",
        "bit-reversal-list", "bit-reversal-array"])
def test_integer_arguments_are_checked(call):
    with pytest.raises(DomainError):
        call()


class TestSignGuard:
    """A sign goes through exceptions.check_integer: any Python or numpy
    integer +1 or -1 is taken and gives the bytes of the Python int."""

    @pytest.mark.parametrize("sign", [np.int64(1), np.int64(-1), np.int32(1),
                                      np.int32(-1), np.int8(-1), np.uint8(1)],
                             ids=["int64+1", "int64-1", "int32+1", "int32-1", "int8-1",
                                  "uint8+1"])
    def test_numpy_integer_signs_give_the_python_int_bytes(self, sign):
        plan, expected = make_plan(3, sign), make_plan(3, int(sign))
        assert type(plan.sign) is int and plan.sign == sign
        assert all(a.tobytes() == b.tobytes() for a, b in zip(plan.ramps, expected.ramps))
        assert dft_matrix(8, sign).tobytes() == dft_matrix(8, int(sign)).tobytes()
        mat = random_psi(np.random.default_rng(3), 2)[:, None] * np.ones(3)
        assert (transform_columns(mat, 2, sign).tobytes()
                == transform_columns(mat, 2, int(sign)).tobytes())

    @pytest.mark.parametrize("sign", [True, np.True_, 0, 2, -2, 1.0, np.float64(-1.0),
                                      None, "1"])
    @pytest.mark.parametrize("call", [lambda s: make_plan(3, s), lambda s: dft_matrix(8, s),
                                      lambda s: transform_columns(np.eye(4), 2, s)],
                             ids=["make_plan", "dft_matrix", "transform_columns"])
    def test_anything_else_is_refused(self, call, sign):
        with pytest.raises(DomainError, match="sign"):
            call(sign)


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

    @pytest.mark.parametrize("n", range(2, 9))
    def test_entries_are_the_stage_bits(self, n):
        for level in range(1, n):
            stage = twiddle_stage(n, level)
            for k in range(1 << n):
                assert np.float64(twiddle_phase(n, level, k)).tobytes() == stage[k].tobytes()

    def test_one_entry_builds_no_vector(self):
        # the 2**24-entry stage vector alone would take 128 MB
        tracemalloc.start()
        try:
            first = twiddle_phase(24, 3, 5)
            second = twiddle_phase(24, 3, 3 * 2**21 + 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (first, second) == (0.0, -2.0 * math.pi * 5 / 2**22)

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
        assert np.abs(assemble_transform(2) - expected).max() < 1e-15

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_fourier_matrix(self, n):
        dev = np.abs(assemble_transform(n) - dft_matrix(1 << n)).max()
        assert dev < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unitary(self, n):
        mat = assemble_transform(n)
        assert np.abs(mat @ mat.conj().T - np.eye(1 << n)).max() < 1e-12

    def test_minus_sign_gives_the_conjugate(self):
        assert np.abs(assemble_transform(3, -1)
                      - dft_matrix(8, -1)).max() < 1e-13


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
            whole = butterfly._roots(size, sign)[np.outer(j, j) % size] / math.sqrt(size)
            assert dft_matrix(size, sign).tobytes() == whole.tobytes()

    # each entry is the root of j*k mod N: row 1 holds all N of them, and
    # every other row repeats them bit for bit (compared a row band at a
    # time, so no second N x N array exists, on int64 views, which compare
    # the bits without copying them out to bytes)
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_entries_depend_on_j_k_mod_n_only(self, n, sign):
        size = 1 << n
        mat = dft_matrix(size, sign)
        j = np.arange(size)
        for start in range(0, size, 256):
            band = j[start:start + 256]
            assert np.array_equal(mat[band].view(np.int64),
                                  mat[1][np.outer(band, j) % size].view(np.int64))


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
        assert ladder_output(plan, psi, order).tobytes() == one_pass.tobytes()

    def test_strided_input_is_copied_not_changed(self):
        rng = np.random.default_rng(3)
        wide = random_psi(rng, 6)
        before = wide.copy()
        out = apply_butterfly(make_plan(5), wide[::2])
        assert np.array_equal(wide, before)
        assert np.array_equal(out, apply_butterfly(make_plan(5), wide[::2].copy()))

    # the cells add and subtract, so an entry grows at most 2**l-fold over
    # l stages before the last one scales by 2**(-n/2); a power of two
    # commutes with every rounding of the stages, so only an overflow or
    # an underflow can make the scaled input's bytes differ
    @pytest.mark.parametrize("target", [1e300, 1e-270], ids=["near-1e300", "near-1e-270"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", [12, 18])
    def test_power_of_two_scaling_commutes_with_the_ladder(self, n, sign, target):
        psi = random_psi(np.random.default_rng(1300 + n), n)
        k = math.floor(math.log2(target / np.abs(psi).max()))
        plan = make_plan(n, sign)
        scaled = apply_butterfly(plan, psi * 2.0**k)
        assert np.isfinite(scaled).all()
        assert scaled.tobytes() == (apply_butterfly(plan, psi) * 2.0**k).tobytes()

    # a non-finite entry, or a sum past the float range, gives non-finite
    # output and no numpy warning, which -W error would make an exception
    # that is not the package's own
    @pytest.mark.parametrize("n,psi", [
        (2, [math.inf, 0.0, 0.0, 0.0]),
        (2, [math.nan, 1.0, 0.0, 0.0]),
        (10, np.full(1 << 10, 1e308)),
        (10, np.r_[1e308, -1e308, np.zeros((1 << 10) - 2)])],
        ids=["inf-n2", "nan-n2", "1e308-n10", "plus-minus-1e308-n10"])
    def test_a_non_finite_result_raises_no_warning(self, n, psi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_butterfly(make_plan(n), psi)
        assert not np.isfinite(out).all()

    # the sign -1 plan's table is the sign +1 table with its imaginary view
    # negated, and a complex product of conjugates is the conjugate of the
    # product, so _ladder_deviations' unitarity pass needs no conjugation
    @pytest.mark.parametrize("shape", ["state", "stack"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_the_sign_minus_plan_is_the_conjugated_ladder(self, n, shape):
        rng = np.random.default_rng(1400 + n)
        psi = (random_psi(rng, n) if shape == "state"
               else np.stack([random_psi(rng, n) for _ in range(32)], axis=1))
        direct = apply_butterfly(make_plan(n, -1), psi)
        conjugated = np.conj(apply_butterfly(make_plan(n, +1), np.conj(psi)))
        assert direct.tobytes() == conjugated.tobytes()


class TestTransformColumns:
    @pytest.mark.parametrize("order", ["natural", "bitReversed"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_stack_equals_per_column_apply(self, n, sign, order):
        rng = np.random.default_rng(200 + n)
        mat = rng.normal(size=(1 << n, 5)) + 1j * rng.normal(size=(1 << n, 5))
        plan = make_plan(n, sign)
        columns = np.stack([ladder_output(plan, mat[:, j], order)
                            for j in range(5)], axis=1)
        assert ladder_output(plan, mat, order).tobytes() == columns.tobytes()
        if order == "natural":
            assert transform_columns(mat, n, sign).tobytes() == columns.tobytes()

    def test_an_empty_stack_transforms_to_an_empty_stack(self):
        out = transform_columns(np.ones((8, 0)), 3)
        assert out.shape == (8, 0)

    @pytest.mark.parametrize("shape", [(), (8, 2, 2)])
    def test_rejects_an_array_that_is_not_one_or_two_d(self, shape):
        with pytest.raises(DomainError):
            transform_columns(np.ones(shape), 3)

    @pytest.mark.parametrize("n", [3.0, -1])
    def test_rejects_a_width_that_is_not_a_positive_integer(self, n):
        with pytest.raises(DomainError):
            transform_columns(np.ones((8, 2), dtype=complex), n)

    def test_kernel_rejects_a_non_contiguous_stack(self):
        stack = np.ones((4, 8), dtype=complex).T  # (N, B) = (8, 4), strided
        with pytest.raises(ValueError, match="stack of states must be C-contiguous"):
            kernels.apply_stage_range(stack, make_plan(3).ramps, 3, 1, 3,
                                      np.empty(16, dtype=complex))


class TestVerifyDanielsonLanczos:
    def test_reports_the_recursion_and_the_ladder(self):
        assert set(verify_danielson_lanczos(2)) == {
            "n", "recursion_deviation", "ladder_deviation"}

    @pytest.mark.parametrize("n", range(2, 11))
    def test_deviations_tiny(self, n):
        report = verify_danielson_lanczos(n)
        assert report["recursion_deviation"] < 1e-12
        assert report["ladder_deviation"] < 1e-12


class TestShiftOperatorCheck:
    def test_single_level_diag(self):
        # conjugating the two-point swap yields diag(1, -1)
        fwd = assemble_transform(1)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        conj = fwd.conj().T @ swap @ fwd
        assert np.allclose(conj, np.diag([1.0, -1.0]), atol=1e-15)
        assert shift_operator_check(1)["shift_deviation"] < 1e-15

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
        assert shift_operator_check(n)["shift_deviation"] < 1e-12


class TestChainPropagate:
    def test_point_input_top_level_uniform(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        levels = chain_propagate(psi)
        assert len(levels) == 4
        assert np.allclose(levels[-1], 1 / 8.0, atol=1e-15)

    def test_pair_masses_survive_each_stage(self):
        rng = np.random.default_rng(5)
        n = 5
        psi = random_psi(rng, n)
        levels = chain_propagate(psi)
        for l in range(1, n + 1):
            half = 1 << (n - l)
            parent_from_below = levels[l - 1].reshape(-1, 2, half).sum(axis=1)
            parent_from_above = levels[l].reshape(-1, 2, half).sum(axis=1)
            assert np.abs(parent_from_below - parent_from_above).max() < 1e-12

    def test_top_level_is_bit_reversed_output_distribution(self):
        rng = np.random.default_rng(6)
        n = 6
        psi = random_psi(rng, n)
        levels = chain_propagate(psi)
        target = np.abs(dft_matrix(1 << n) @ psi) ** 2
        br = bit_reversal_permutation(n)
        assert np.abs(levels[-1][br] - target).max() < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            chain_propagate(np.ones(4, dtype=complex))

    @pytest.mark.parametrize("shape", [(1, 2, 4), (2, 2, 2, 2)])
    def test_rejects_more_than_a_stack(self, shape):
        with pytest.raises(DomainError, match=r"psi must be a non-empty row \(N,\) or a stack"):
            chain_propagate(np.full(shape, 0.5))

    # the squared norm of these is NaN or infinite, which the norm rule
    # refuses before any stage runs
    @pytest.mark.parametrize("psi", [[np.nan, 0.0], [np.inf, 0.0], [np.inf, np.inf],
                                     [0.5, 0.5, np.nan, 0.5]],
                             ids=["nan", "inf", "inf-inf", "nan-of-four"])
    def test_a_non_finite_state_is_not_normalized(self, psi):
        with pytest.raises(DomainError, match="^squared norm (nan|inf) is not 1$"):
            chain_propagate(np.array(psi, dtype=complex))

    def test_a_state_whose_norm_overflows_is_refused(self):
        # 1e200 squared overflows: inf, refused with no overflow warning first
        with pytest.raises(DomainError, match="^squared norm inf is not 1$"):
            chain_propagate(np.array([1e200, 0.5], dtype=complex))

    @pytest.mark.parametrize("bad", [2.0, np.nan, np.inf], ids=["large", "nan", "inf"])
    def test_a_bad_row_of_a_stack_is_named(self, bad):
        stack = np.full((4, 8), math.sqrt(1 / 8), dtype=complex)
        stack[2, 5] = bad
        with pytest.raises(DomainError, match=r"squared norm .* is not 1 \(row 2\)$"):
            chain_propagate(stack)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_row_of_a_stack_has_the_bits_of_its_own_call(self, n):
        rng = np.random.default_rng(40 + n)
        stack = np.array([random_state(n, rng) for _ in range(9)])
        levels = chain_propagate(stack)
        assert levels.shape == (n + 1, 9, 1 << n)
        for i, psi in enumerate(stack):
            assert levels[:, i].tobytes() == chain_propagate(psi).tobytes()

    @pytest.mark.parametrize("shape", [(8,), (3, 8), (0, 8)])
    def test_one_read_only_array_of_levels(self, shape):
        levels = chain_propagate(np.full(shape, math.sqrt(1 / 8), dtype=complex))
        assert isinstance(levels, np.ndarray) and levels.dtype == float
        assert levels.shape == (4, *shape)
        assert not levels.flags.writeable

    def test_a_stack_runs_one_kernel_call_per_stage(self, monkeypatch):
        calls = []
        real = kernels.apply_stage_range
        monkeypatch.setattr(kernels, "apply_stage_range",
                            lambda *args: calls.append(args[0].shape) or real(*args))
        chain_propagate(np.full((5, 16), 0.25, dtype=complex))
        assert calls == [(16, 5)] * 4

    def test_a_state_off_norm_by_rounding_is_rescaled(self):
        psi = np.full(4, 0.5 * (1 + 1e-11), dtype=complex)
        assert chain_propagate(psi)[0].tobytes() == (
            np.abs(probmodel._normalized(psi)[0]) ** 2).tobytes()

    # one kernel convention: the last stage scales by the whole ladder's
    # 2**(-n/2) in both
    @pytest.mark.parametrize("n", range(1, 11))
    def test_top_level_is_the_squared_ladder_output(self, n):
        psi = random_state(n, np.random.default_rng(8))
        levels = chain_propagate(psi)
        raw = apply_butterfly(make_plan(n), psi)[bit_reversal_permutation(n)]
        assert levels[-1].tobytes() == (np.abs(raw) ** 2).tobytes()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_level_of_a_stack_sums_to_one(self, n):
        # Levels l < n are the unnormalized stages' squared moduli times
        # 2**(-l), which is exact.  Bound, first order in u = eps/2: a stage
        # moves an entry by at most 6u relative (u for the sum or difference,
        # 2.83u for the complex multiply by the ramp, 2u for the ramp's own
        # error, one eps at most), so l stages move the squared norm by at
        # most 12*l*u, and stage n adds 4u (the odd-n scale's error and its
        # multiply, squared).  A level's sum adds 5u per term (hypot within
        # an ulp, squared, rounded) and at most (19 + n)u of summation
        # (numpy's pairwise sum of 2**n terms), and level 0's sum stands
        # for the input's own norm with as much again.
        u = EPS / 2
        stack = np.array([random_state(n, np.random.default_rng(80 + n))
                          for _ in range(9)])
        sums = chain_propagate(stack).sum(axis=2)  # (n + 1, 9)
        off = np.abs(sums - 1.0)
        for l in range(1, n + 1):
            bound = off[0] + (12 * l + 4 * (l == n) + 2 * (24 + n)) * u
            assert (off[l] <= bound).all()


class TestTransformPreservesGeometry:
    def test_distance_preserved(self):
        rng = np.random.default_rng(7)
        plan = make_plan(5)
        for _ in range(25):
            a = random_state(5, rng)
            b = random_state(5, rng)
            before = fubini_study_distance(a, b)
            after = fubini_study_distance(apply_butterfly(plan, a),
                                          apply_butterfly(plan, b))
            assert after == pytest.approx(before, abs=1e-10)


class TestPlanDiagonals:
    def test_unit_modulus_diagonals(self):
        plan = make_plan(4)
        for level in range(1, 4):
            assert np.abs(np.abs(plan.diagonal(level)) - 1.0).max() < 1e-15


# pi to 50 digits: an x87 long double keeps 64 of its bits
LONG_PI = np.longdouble("3.14159265358979323846264338327950288419716939937510")


class TestRootTable:
    """The one table behind every plan and Fourier reference: exp(sign *
    2*pi*i*k/N), k < N/2, from cos and sin on the first octant."""

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(0, 21))
    def test_within_one_eps_of_the_exact_roots(self, n, sign):
        size = 1 << n
        table = butterfly._root_table(size, sign)
        assert table.shape == (max(1, size >> 1),) and not table.flags.writeable
        k = np.arange(table.size)
        if np.finfo(np.longdouble).eps < EPS:
            angles = 2 * LONG_PI * k.astype(np.longdouble) / size
            re = table.real.astype(np.longdouble) - np.cos(angles)
            im = table.imag.astype(np.longdouble) - sign * np.sin(angles)
            assert np.sqrt(re * re + im * im).max() <= EPS
        else:
            # a long double that is only a double: np.exp rounds its angle
            # and is itself up to 1.8 eps off at these sizes
            expected = np.exp(sign * 2j * np.pi * k / size)
            assert np.abs(table - expected).max() <= 2 * EPS

    @pytest.mark.parametrize("n", range(2, 21))
    def test_quarter_turn_symmetries_hold_exactly(self, n):
        size = 1 << n
        quarter = size >> 2
        table = butterfly._root_table(size, +1)
        k = np.arange(quarter + 1)
        assert np.array_equal(table[quarter - k], 1j * np.conj(table[k]))
        assert np.array_equal(table[k[:-1] + quarter], 1j * table[k[:-1]])

    @pytest.mark.parametrize("n", range(0, 21))
    def test_minus_sign_is_the_conjugate(self, n):
        plus, minus = (butterfly._root_table(1 << n, s) for s in (+1, -1))
        assert minus.tobytes() == np.conj(plus).tobytes()

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_small_circles_are_exact(self, sign):
        assert butterfly._roots(1, sign).tolist() == [1]
        assert butterfly._roots(2, sign).tolist() == [1, -1]
        assert butterfly._roots(4, sign).tolist() == [1, sign * 1j, -1, -sign * 1j]

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_second_half_circle_is_the_negated_first(self, n, sign):
        roots = butterfly._roots(1 << n, sign)
        half = roots.size >> 1
        assert roots[half:].tobytes() == (-roots[:half]).tobytes()
        assert roots[:half].tobytes() == butterfly._root_table(1 << n, sign).tobytes()


class TestPlanRamps:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_one_ramp_per_twiddle_level(self, n):
        # ramps[l-1] has 2**(n-l) entries for l = 1..n-1: N - 2 in all
        ramps = make_plan(n).ramps
        assert [r.size for r in ramps] == [1 << (n - l) for l in range(1, n)]
        assert sum(r.size for r in ramps) == 2**n - 2
        for r in ramps:
            assert r.flags.c_contiguous and not r.flags.writeable

    # np.exp of a rounded phase is itself up to 1.57 eps off at these sizes
    # and the ramps read up to 1.625 eps from it, so the bound is two eps;
    # test_ramps_are_strided_slices_of_the_table pins the ramps' exact values
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_diagonals_are_the_twiddle_stages_within_two_eps(self, n, sign):
        plan = make_plan(n, sign)
        for level in range(1, n):
            expected = np.exp(-1j * sign * twiddle_stage(n, level))
            assert np.abs(plan.diagonal(level) - expected).max() <= 2 * EPS

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_ramps_are_strided_slices_of_the_table(self, n, sign):
        table = butterfly._root_table(1 << n, sign)
        ramps = make_plan(n, sign).ramps
        for level in range(1, n):
            assert ramps[level - 1].tobytes() == table[::1 << (level - 1)].tobytes()

    @pytest.mark.parametrize("level", [0, 4, -1])
    def test_twiddle_level_out_of_range(self, level):
        with pytest.raises(DomainError):
            make_plan(4).diagonal(level)

    @pytest.mark.parametrize("args", [(True,), (3, 1.0), (3.0,)],
                             ids=["n-true", "sign-1.0", "n-3.0"])
    def test_order_and_sign_must_be_integers(self, args):
        with pytest.raises(DomainError):
            make_plan(*args)

    def test_one_diagonal_expands_only_that_level(self):
        # all 17 expanded diagonals of n = 18 would take 68 MB; one level
        # takes a 4 MB diagonal
        plan = make_plan(18)
        tracemalloc.start()
        try:
            plan.diagonal(1)
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
        columns = [ladder_output(plan, stack[:, j], "bitReversed")
                   for j in range(cols)]
        kernels.apply_stage_range(stack, plan.ramps, n, 1, n,
                                  np.empty(stack.size // 2, dtype=complex))
        assert np.array_equal(stack, np.stack(columns, axis=1))

    @pytest.mark.parametrize("shape", [(4, 8), (16, 2), (7,), (8, 2, 2)])
    def test_rejects_a_stack_whose_first_axis_is_not_n(self, shape):
        with pytest.raises(ValueError):
            kernels.apply_stage_range(np.ones(shape, dtype=complex),
                                      make_plan(3).ramps, 3, 1, 3,
                                      np.empty(16, dtype=complex))

    # (the stack's dtype, the scratch): the scratch must be flat, long
    # enough and of the stack's own dtype, whichever ring that is
    @pytest.mark.parametrize("dtype, scratch", [
        (complex, np.empty(15, dtype=complex)), (complex, np.empty(16)),
        (complex, np.empty((4, 4), dtype=complex)),
        (object, np.empty(16, dtype=complex)), (complex, np.empty(16, dtype=object))],
        ids=["too-short", "float", "two-d", "complex-for-object", "object-for-complex"])
    def test_rejects_a_scratch_that_cannot_hold_the_halves(self, dtype, scratch):
        with pytest.raises(ValueError):
            kernels.apply_stage_range(np.ones((8, 4), dtype=dtype),
                                      make_plan(3).ramps, 3, 1, 3, scratch)

    # (the stack's dtype, the ramps, the scale): a multiply into a stack that
    # cannot hold its values once failed after the first stage had run
    @pytest.mark.parametrize("dtype, ramps, scale", [
        (float, make_plan(3).ramps, None), (float, (np.ones(4), np.ones(2)), 1j),
        (complex, tuple(r.astype(object) for r in make_plan(3).ramps), None)],
        ids=["complex-ramps-in-float", "complex-scale-in-float",
             "object-ramps-in-complex"])
    def test_rejects_ramps_or_a_scale_the_stack_cannot_hold(self, dtype, ramps,
                                                            scale):
        psi = np.ones(8, dtype=dtype)
        with pytest.raises(ValueError, match="fit psi's dtype"):
            kernels.apply_stage_range(psi, ramps, 3, 1, 3,
                                      np.empty(4, dtype=dtype), scale)
        assert np.array_equal(psi, np.ones(8))

    def test_a_stage_range_allocates_no_temporary(self):
        # the halves' differences go to the caller's scratch, and the last
        # multiply writes the second halves: no per-stage array, no copy
        n = 10
        stack = np.ones((1 << n, 32), dtype=complex)
        scratch = np.empty(stack.size // 2, dtype=complex)
        plan = make_plan(n)
        with np.errstate():
            np.setbufsize(butterfly.STAGE_BUFSIZE)
            tracemalloc.start()
            try:
                kernels.apply_stage_range(stack, plan.ramps, n, 1, n, scratch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 0.01 * stack.nbytes

    def test_transform_columns_leaves_a_single_column_unchanged(self):
        mat = np.zeros((8, 1), dtype=complex)
        mat[0] = 1.0
        transform_columns(mat, 3)
        assert mat[0, 0] == 1.0 and not mat[1:].any()


# the cases of one (n, cols, sign) are collected one after another
@functools.lru_cache(maxsize=1)
def four_step_case(n, cols, sign):
    """TestFourStepStack's seeded (N, cols) stack and, as its reference, each
    column run through apply_butterfly as one state, in natural order, at
    the shipped GATHER_ENTRIES: two read-only arrays."""
    rng = np.random.default_rng(700 + n)
    stack = (rng.normal(size=(1 << n, cols))
             + 1j * rng.normal(size=(1 << n, cols)))
    plan = make_plan(n, sign)
    columns = np.stack([apply_butterfly(plan, stack[:, j]) for j in range(cols)],
                       axis=1)
    stack.setflags(write=False)
    columns.setflags(write=False)
    return stack, columns


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
        stack, columns = four_step_case(n, cols, sign)  # before the patch
        if order == "bitReversed":
            columns = columns[bit_reversal_permutation(n)]
        monkeypatch.setattr(butterfly, "GATHER_ENTRIES", gather)
        out = ladder_output(make_plan(n, sign), stack, order)
        assert out.tobytes() == columns.tobytes()

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
        assert ladder_output(plan, stack, order).tobytes() == one_pass.tobytes()

    @pytest.mark.parametrize("n", [3, 12])
    def test_an_empty_stack_gives_an_empty_stack(self, n):
        out = apply_butterfly(make_plan(n), np.ones((1 << n, 0)))
        assert out.shape == (1 << n, 0) and out.dtype == complex

    def test_one_state_holds_no_second_full_size_temporary(self):
        # the copy of the state and the tail are two states; a gather of all
        # blocks at once would make a third
        n = 16
        psi = random_psi(np.random.default_rng(4), n)
        plan = make_plan(n)
        tracemalloc.start()
        try:
            apply_butterfly(plan, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * psi.nbytes


DEFAULT_BUFSIZE = 8192  # numpy's ufunc buffer, in elements, unless set


def default_buffer_ladder(plan, psi, order):
    """All n stages as one loop of this module's own, with the kernel's float
    operations in the kernel's order, at numpy's default buffer size: the
    cells add and subtract, and only the last stage scales, by 2**(-n/2)."""
    n = plan.n
    scale = math.ldexp(butterfly._INV_SQRT2 if n & 1 else 1.0, -(n // 2))
    out = np.array(psi, dtype=complex)
    cols = out.shape[1:]
    with np.errstate():
        np.setbufsize(DEFAULT_BUFSIZE)
        for l in range(1, n + 1):
            half = 1 << (n - l)
            view = out.reshape(-1, 2, half, *cols)
            top, bot = view[:, 0], view[:, 1]
            tmp = top - bot
            top += bot
            if l < n:
                ramp = plan.ramps[l - 1]
                tmp *= ramp[:, None] if cols else ramp
            else:
                top *= scale
                tmp *= scale
            bot[...] = tmp
    return out[bit_reversal_permutation(n)] if order == "natural" else out


class TestStageBuffer:
    """apply_butterfly runs its stages at numpy's least ufunc buffer size and
    leaves the caller's buffer size as it found it."""

    # at these sizes the middle stages' contiguous runs are shorter than
    # half the default buffer, so the default buffer copies them
    @pytest.mark.parametrize("order", ["natural", "bitReversed"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("shape", [(1 << 13,), (1 << 14,), (1 << 15,),
                                       (1 << 16,), (1024, 32), (1024, 64)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_equals_the_default_buffer_loop_bit_for_bit(self, shape, sign, order):
        rng = np.random.default_rng(900 + len(shape))
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        plan = make_plan(shape[0].bit_length() - 1, sign)
        ref = default_buffer_ladder(plan, psi, order)
        assert ladder_output(plan, psi, order).tobytes() == ref.tobytes()

    def test_the_stages_run_at_the_least_buffer(self, monkeypatch):
        seen = []
        real = kernels.apply_stage_range
        monkeypatch.setattr(kernels, "apply_stage_range",
                            lambda *args: seen.append(np.getbufsize()) or real(*args))
        apply_butterfly(make_plan(12), np.ones(1 << 12, dtype=complex))
        assert seen == [butterfly.STAGE_BUFSIZE] * 2
        # one-pass stages have half-blocks of a few entries, which gain from
        # the default buffer
        seen.clear()
        chain_propagate(np.full(1 << 4, 0.25, dtype=complex))
        assert seen == [DEFAULT_BUFSIZE] * 4

    def test_the_buffer_size_is_restored(self):
        before = np.getbufsize()
        apply_butterfly(make_plan(12), np.ones(1 << 12, dtype=complex))
        assert np.getbufsize() == before

    def test_the_buffer_size_is_restored_when_a_stage_raises(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("stage failed")

        before = np.getbufsize()
        monkeypatch.setattr(kernels, "apply_stage_range", fail)
        with pytest.raises(RuntimeError):
            apply_butterfly(make_plan(12), np.ones(1 << 12, dtype=complex))
        assert np.getbufsize() == before

    def test_a_callers_own_buffer_size_survives_the_call(self):
        with np.errstate():
            np.setbufsize(64)
            apply_butterfly(make_plan(12), np.ones(1 << 12, dtype=complex))
            assert np.getbufsize() == 64
        assert np.getbufsize() == DEFAULT_BUFSIZE


# (shape, BLOCK_ENTRIES, head stages h): the ladder splits into 2**h blocks
# of 2**(n - h) rows, each at least TAIL_STAGES wide
SMALL_BLOCKS = [
    ((1 << 8,), 1 << 7, 1), ((1 << 9,), 1 << 7, 2), ((1 << 10,), 1 << 7, 3),
    ((1 << 11,), 1 << 7, 4), ((1 << 12,), 1 << 10, 2),
    ((256, 2), 1 << 8, 1), ((512, 2), 1 << 9, 1), ((1024, 4), 1 << 9, 3),
    ((2048, 8), 1 << 10, 4), ((4096, 3), 1 << 10, 4),
    ((256, 4), 1 << 8, 2)]  # blocks of TAIL_STAGES rows: no stages between


def block_case_id(value):
    return "x".join(map(str, value)) if isinstance(value, tuple) else str(value)


class TestBlockedLadder:
    """Past BLOCK_ENTRIES entries, apply_butterfly runs its first h stages
    over the whole copy, the next b - 6 in each of 2**h blocks of 2**b rows
    and the last 6 in each of 2**h tail blocks, which it reads back in
    natural order; the bits are those of one ladder."""

    @pytest.mark.parametrize("n, width, head", [
        (16, 1, 0), (17, 1, 1), (18, 1, 2), (20, 1, 4), (10, 32, 0),
        (10, 64, 0), (12, 32, 1), (14, 8, 1), (10, 128, 1), (7, 1024, 1),
        (12, 4096, 0), (17, 0, 0), (1, 1, 0), (6, 1, 0)])
    def test_head_stages_at_the_shipped_block(self, n, width, head):
        assert butterfly.BLOCK_ENTRIES == 1 << 16
        assert butterfly._head_stages(n, width) == head

    @pytest.mark.parametrize("order", ["natural", "bitReversed"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("shape, entries, head", SMALL_BLOCKS,
                             ids=block_case_id)
    def test_small_blocks_equal_one_ladder_bit_for_bit(
            self, shape, entries, head, sign, order, monkeypatch):
        rng = np.random.default_rng(1100 + len(shape) * 16 + head)
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        n = shape[0].bit_length() - 1
        plan = make_plan(n, sign)
        whole = ladder_output(plan, psi, order)
        ref = default_buffer_ladder(plan, psi, order)
        monkeypatch.setattr(butterfly, "BLOCK_ENTRIES", entries)
        assert butterfly._head_stages(n, psi.size >> n) == head
        blocked = ladder_output(plan, psi, order)
        assert blocked.tobytes() == whole.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape, entries, head", SMALL_BLOCKS[:5],
                             ids=block_case_id)
    def test_small_blocks_run_a_head_range_then_one_range_a_block(
            self, shape, entries, head, monkeypatch):
        seen = []
        real = kernels.apply_stage_range
        monkeypatch.setattr(kernels, "apply_stage_range",
                            lambda psi, tw, n, lo, hi, scratch, scale=None:
                            seen.append((psi.shape[0], lo, hi))
                            or real(psi, tw, n, lo, hi, scratch, scale))
        monkeypatch.setattr(butterfly, "BLOCK_ENTRIES", entries)
        apply_butterfly(make_plan(shape[0].bit_length() - 1), np.ones(shape))
        rows = shape[0] >> head
        b = rows.bit_length() - 1
        tail = butterfly.TAIL_STAGES
        assert seen == ([(shape[0], 1, head)] + [(rows, 1, b - tail)] * (1 << head)
                        + [(1 << tail, 1, tail)] * (1 << head))

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", [17, 18])
    def test_shipped_blocks_equal_one_ladder_and_numpy_fft(
            self, n, sign, monkeypatch):
        psi = random_psi(np.random.default_rng(1200 + n), n)
        plan = make_plan(n, sign)
        blocked = apply_butterfly(plan, psi)
        ref = (np.fft.ifft if sign > 0 else np.fft.fft)(psi, norm="ortho")
        assert np.abs(blocked - ref).max() < 1e-12
        monkeypatch.setattr(butterfly, "BLOCK_ENTRIES", 1 << 30)
        assert blocked.tobytes() == apply_butterfly(plan, psi).tobytes()

    def test_an_empty_stack_of_shipped_length_stays_empty(self):
        out = apply_butterfly(make_plan(17), np.ones((1 << 17, 0)))
        assert out.shape == (1 << 17, 0) and out.dtype == complex

    def test_a_blocked_state_holds_no_third_state(self):
        # the copy and the flat buffer of the tail, then the tail and the
        # result: two states at a time, as at n = 16
        n = 17
        psi = random_psi(np.random.default_rng(5), n)
        plan = make_plan(n)
        tracemalloc.start()
        try:
            apply_butterfly(plan, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * psi.nbytes

    def test_every_stage_range_of_a_blocked_apply_runs_at_the_least_buffer(
            self, monkeypatch):
        seen = []
        real = kernels.apply_stage_range
        monkeypatch.setattr(kernels, "apply_stage_range",
                            lambda *args: seen.append(np.getbufsize()) or real(*args))
        before = np.getbufsize()
        apply_butterfly(make_plan(17), np.ones(1 << 17, dtype=complex))
        # one head range, then one range in each of the two blocks and one
        # in each of the two tail blocks
        assert seen == [butterfly.STAGE_BUFSIZE] * 5
        assert np.getbufsize() == before


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
    w = butterfly._roots(size, +1)
    for j in range(size):
        out[j, 0::2] = sub[j % half] * butterfly._INV_SQRT2
        out[j, 1::2] = w[j] * sub[j % half] * butterfly._INV_SQRT2
    return out


def dense_deviations(n):
    """The whole-matrix passes the streamed measurement replaces."""
    size = 1 << n
    fwd = assemble_transform(n, +1)
    dft = dft_matrix(size, +1)
    gram = np.conj(transform_columns(np.conj(fwd), n, +1))
    phases = np.exp(1j * derive_shift_phases(n))
    residual = np.roll(fwd, 1, axis=0) - fwd * phases  # P F - F D
    return {"ladder": float(np.abs(fwd - dft).max()),
            "unitarity": float(np.abs(gram - np.eye(size)).max()),
            "shift": float(np.sqrt(size) * np.abs(residual).max()),
            "recursion": float(np.abs(recursive_dft(n) - dft).max())}


class TestLadderDeviations:
    @pytest.mark.parametrize("block", [
        1, 3, pytest.param(butterfly.LADDER_BLOCK, id="default")])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_recursion_columns_equal_the_whole_matrix(self, n, block):
        whole = recursive_dft(n)
        # one buffer for every block, as a sweep holds it; NaN until written
        buf = np.full(3 * (block << n) // 2, np.nan, dtype=complex)
        for start in range(0, 1 << n, block):
            cols = np.arange(start, min(start + block, 1 << n))
            assert (butterfly._recursion_columns(
                n, cols, butterfly._roots(1 << n, +1), buf).tobytes()
                == whole[:, cols].tobytes())

    # N = 2..256 falls below, at and above the default block of columns
    @pytest.mark.parametrize("block", [
        1, 2, pytest.param(butterfly.LADDER_BLOCK, id="default")])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_streamed_equal_the_dense_passes(self, n, block, monkeypatch):
        monkeypatch.setattr(butterfly, "LADDER_BLOCK", block)
        assert butterfly._ladder_deviations(n) == dense_deviations(n)

    def test_the_block_width_is_a_power_of_two(self):
        # so is N, so every block of a sweep is min(LADDER_BLOCK, N) wide
        block = butterfly.LADDER_BLOCK
        assert block >= 1 and block & (block - 1) == 0

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_a_sweep_builds_one_root_table(self, n, monkeypatch):
        calls = []
        real = butterfly._root_table

        def counted(size, sign):
            calls.append((size, sign))
            return real(size, sign)

        monkeypatch.setattr(butterfly, "_root_table", counted)
        butterfly._ladder_deviations(n)
        assert calls == [(1 << n, +1)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_pass_runs_on_the_same_block_arrays(self, workers, monkeypatch):
        passes = []
        real = butterfly._ladder_tail

        def recorded(plan, work, flat):
            passes.append((work, flat))
            return real(plan, work, flat)

        monkeypatch.setattr(butterfly, "SWEEP_WORKERS", workers)
        monkeypatch.setattr(butterfly, "_ladder_tail", recorded)
        butterfly._ladder_deviations(8)  # 8 blocks, two passes each
        assert len(passes) == 16
        # one (work, flat) pair per worker; passes holds every array, so no
        # two live arrays share an id
        pairs = {}
        for work, flat in passes:
            assert pairs.setdefault(id(work), (work, flat))[1] is flat
        assert len(pairs) == workers
        arrays = [a for pair in pairs.values() for a in pair]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_worker_count_gives_the_same_bits(self, workers, monkeypatch):
        # three workers split n = 8's 8 blocks 3, 3, 2
        monkeypatch.setattr(butterfly, "SWEEP_WORKERS", 1)
        serial = {n: butterfly._ladder_deviations(n) for n in range(1, 11)}
        monkeypatch.setattr(butterfly, "SWEEP_WORKERS", workers)
        assert {n: butterfly._ladder_deviations(n) for n in range(1, 11)} == serial

    def test_more_workers_than_cores_at_a_short_switch_interval(self, monkeypatch):
        # the workers share only read-only tables: interleaving them as
        # finely as the interpreter allows changes no bit
        monkeypatch.setattr(butterfly, "SWEEP_WORKERS", 1)
        serial = butterfly._ladder_deviations(9)
        monkeypatch.setattr(butterfly, "SWEEP_WORKERS", 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert butterfly._ladder_deviations(9) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_the_workers_take_every_workers_th_block(self, monkeypatch):
        shares = []
        real = butterfly._sweep_blocks

        def recorded(*args):
            shares.append(list(args[-1]))
            return real(*args)

        monkeypatch.setattr(butterfly, "SWEEP_WORKERS", 3)
        monkeypatch.setattr(butterfly, "_sweep_blocks", recorded)
        butterfly._ladder_deviations(8)
        b = butterfly.LADDER_BLOCK
        assert sorted(shares) == [[0, 3 * b, 6 * b], [b, 4 * b, 7 * b], [2 * b, 5 * b]]

    def test_a_raise_in_a_pool_worker_propagates(self, monkeypatch):
        real = butterfly._recursion_columns
        before = threading.active_count()

        def failing(n, cols, roots, out):
            if cols[0] == butterfly.LADDER_BLOCK:  # the second block: a pool worker's
                assert threading.current_thread() is not threading.main_thread()
                raise FloatingPointError("block 1")
            return real(n, cols, roots, out)

        monkeypatch.setattr(butterfly, "SWEEP_WORKERS", 2)
        monkeypatch.setattr(butterfly, "_recursion_columns", failing)
        with pytest.raises(FloatingPointError, match="block 1"):
            butterfly._ladder_deviations(8)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_sweep(self, monkeypatch):
        monkeypatch.setattr(butterfly, "SWEEP_WORKERS", 2)
        before = threading.active_count()
        butterfly._ladder_deviations(10)
        assert threading.active_count() == before

    def test_one_block_runs_inline(self, monkeypatch):
        submitted = []
        real = ThreadPoolExecutor.submit

        def recorded(pool, *args, **kwargs):
            submitted.append(args)
            return real(pool, *args, **kwargs)

        monkeypatch.setattr(butterfly, "SWEEP_WORKERS", 2)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", recorded)
        for n in range(1, 6):  # N <= LADDER_BLOCK: one block, one worker
            butterfly._ladder_deviations(n)
        assert submitted == []
        butterfly._ladder_deviations(6)  # two blocks: the pool takes one
        assert len(submitted) == 1

    def test_sweep_workers_is_at_most_two_available_cpus(self):
        assert 1 <= butterfly.SWEEP_WORKERS <= min(2, os.cpu_count())
        if hasattr(os, "sched_getaffinity"):
            assert butterfly.SWEEP_WORKERS <= len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_reports_are_views_of_one_measurement(self, n):
        dense = dense_deviations(n)
        assert verify_danielson_lanczos(n) == {
            "n": n, "recursion_deviation": dense["recursion"],
            "ladder_deviation": dense["ladder"]}
        assert shift_operator_check(n) == {"n": n, "shift_deviation": dense["shift"]}

    # an entry of F^dagger (P F - F D) is at most sqrt(N) max|P F - F D|, and
    # F^dagger P F - D is that plus (F^dagger F - I) D, so the shift value
    # bounds the conjugated shift's deviation up to the unitarity rounding
    @pytest.mark.parametrize("n", range(1, 9))
    def test_the_shift_bounds_the_conjugated_shift(self, n):
        fwd = assemble_transform(n, +1)
        conjugated = np.conj(transform_columns(np.conj(np.roll(fwd, 1, axis=0)), n, +1))
        phases = np.exp(1j * derive_shift_phases(n))
        dense = dense_deviations(n)
        assert dense["shift"] >= (np.abs(conjugated - np.diag(phases)).max()
                                  - dense["unitarity"])

    @pytest.mark.parametrize("entry", ["first", "last"])
    @pytest.mark.parametrize("n", [3, 8, 10])
    def test_a_shift_phase_one_root_step_off_fails(self, n, entry, monkeypatch):
        def shift_diagonal():
            checks, _ = criteria.ladder_transform({"levels": n})
            return next(c for c in checks if c.id == "shift-diagonal")

        assert shift_diagonal().passed
        real = butterfly.derive_shift_phases

        def one_step_off(l):
            phases = real(l).copy()
            phases[0 if entry == "first" else -1] -= 2 * math.pi / (1 << l)
            return phases

        monkeypatch.setattr(butterfly, "derive_shift_phases", one_step_off)
        check = shift_diagonal()
        assert not check.passed and check.value > 1e3 * check.tolerance

    def test_a_nan_in_one_block_is_not_lost(self, monkeypatch):
        monkeypatch.setattr(butterfly, "LADDER_BLOCK", 2)
        real = butterfly._dft_columns

        def poisoned(table, cols, out, products):
            out = real(table, cols, out, products)
            if cols[0] == 2:
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(butterfly, "_dft_columns", poisoned)
        dev = butterfly._ladder_deviations(3)
        assert math.isnan(dev["ladder"]) and math.isnan(dev["recursion"])

    def test_a_sweep_holds_its_block_arrays_once(self):
        # the block arrays are allocated once per sweep and each pass reads
        # its tail back into them: 5.81 MiB when every block made its own
        tracemalloc.start()
        try:
            butterfly._ladder_deviations(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.4 * 2**20

    # against roots reduced exactly, only the ladder's own rounding is left:
    # a few ulps at every size, where the old reference grew with sqrt(N)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_ladder_deviation_is_a_few_ulps(self, n):
        assert butterfly._ladder_deviations(n)["ladder"] <= 4 * np.finfo(float).eps


# The exact ring: GF(P), P = 15 * 2**27 + 1, whose primitive root 31 gives a
# primitive 2**n-th root of unity for every n <= 27 (Pollard, Math. Comp. 25,
# 365, 1971).  P = 1 mod 8, so sqrt(2) = zeta + 1/zeta, zeta a primitive 8th
# root, lies in GF(P) too, and so does the ladder's 2**(-n/2).
P = 15 * 2**27 + 1
ZETA = pow(31, (P - 1) // 8, P)
RING_INV_SQRT2 = pow(ZETA + pow(ZETA, -1, P), -1, P)


def ring_root(n, sign=+1):
    """A primitive 2**n-th root of unity g in GF(P), or 1/g for sign -1."""
    g = pow(31, (P - 1) >> n, P)
    return g if sign > 0 else pow(g, -1, P)


@functools.lru_cache(maxsize=None)
def ring_powers(root, count):
    """root**k mod P for k < count: Python ints in a read-only object array."""
    out = np.empty(count, dtype=object)
    value = 1
    for k in range(count):
        out[k] = value
        value = value * root % P
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def ring_fourier(n, sign):
    """The ring's Fourier matrix, entry (j, k) g**(sign * j*k) * 2**(-n/2),
    read from the powers of g at j*k mod N."""
    size = 1 << n
    j = np.arange(size)
    out = (ring_powers(ring_root(n, sign), size)[np.multiply.outer(j, j) % size]
           * pow(RING_INV_SQRT2, n, P) % P)
    out.setflags(write=False)
    return out


def ring_plan(n, sign=+1):
    """The shipped _plan on the ring's table of N/2 powers of g."""
    return butterfly._plan(n, sign, ring_powers(ring_root(n, sign), (1 << n) >> 1))


def ring_ladder(plan, x):
    """apply_butterfly's body, _ladder_tail then _natural_order, on a copy of
    the object array x, reduced mod P once at the end."""
    work = np.array(x, dtype=object, order="C")
    tail = butterfly._ladder_tail(plan, work, np.empty(work.size, dtype=object))
    return butterfly._natural_order(tail, np.empty(work.shape, dtype=object)) % P


def unequal_entries(plan):
    """Entries of the plan's ladder matrix, run over blocks of LADDER_BLOCK
    identity columns as the sweep runs it, that differ from ring_fourier."""
    n, size = plan.n, 1 << plan.n
    b = min(butterfly.LADDER_BLOCK, size)
    count = 0
    for start in range(0, size, b):
        eye = np.zeros((size, b), dtype=object)
        eye[np.arange(start, start + b), np.arange(b)] = 1
        count += np.count_nonzero(ring_ladder(plan, eye)
                                  != ring_fourier(n, plan.sign)[:, start:start + b])
    return count


@functools.lru_cache(maxsize=None)
def dense_step(n):
    """One seeded dense probe x of N uniform entries of GF(P), as Python
    ints, and the Danielson-Lanczos step on it, [E + W o O, E - W o O] *
    2**(-1/2): E and O the ring's ladder at n - 1 on the even and odd
    entries of x, W**k = g**k.  Called only under TestExactLadder's ring."""
    x = np.random.default_rng(4300 + n).integers(0, P, 1 << n).astype(object)
    halves = ring_ladder(ring_plan(n - 1), np.stack([x[0::2], x[1::2]], axis=1))
    even = halves[:, 0]
    odd = halves[:, 1] * ring_powers(ring_root(n), (1 << n) >> 1)
    return x, np.concatenate([even + odd, even - odd]) * RING_INV_SQRT2 % P


class TestExactLadder:
    """The shipped ladder and the Danielson-Lanczos reference, run unchanged
    over GF(P): every operation is in the dtype of the arrays, here Python
    ints in object arrays, so the ring's values replace the float ones where
    the code looks them up (the plan's table, kernels._unit_scale and
    butterfly._INV_SQRT2).  In a radix-2 ladder each input reaches each
    output by one path, so an entry of the unscaled matrix is +-w**e; g has
    order N, so +-g**e = g**(j*k) in GF(P) exactly when +-w**e = w**(j*k).
    Equality here is a proof of the stage order, the twiddles, the gather
    and the one normalization, with no tolerance."""

    @pytest.fixture(autouse=True)
    def ring(self, monkeypatch):
        monkeypatch.setattr(kernels, "_unit_scale", lambda n: pow(RING_INV_SQRT2, n, P))
        monkeypatch.setattr(butterfly, "_INV_SQRT2", RING_INV_SQRT2)

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_entry_is_the_ring_fourier_entry(self, n, sign):
        assert unequal_entries(ring_plan(n, sign)) == 0

    # two head stages, then 4 tail blocks of 64 rows x 32 columns, each run
    # of 2,048 entries gathered as a chunk of its own; the plans of both
    # signs differ only in their ramps, which the unblocked cases cover
    def test_the_blocked_four_step_path_is_exact(self, monkeypatch):
        monkeypatch.setattr(butterfly, "BLOCK_ENTRIES", 1 << 11)
        monkeypatch.setattr(butterfly, "GATHER_ENTRIES", 100)
        assert butterfly._head_stages(8, butterfly.LADDER_BLOCK) == 2
        assert unequal_entries(ring_plan(8)) == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_recursion_columns_are_exact(self, n):
        size = 1 << n
        b = min(butterfly.LADDER_BLOCK, size)
        roots = ring_powers(ring_root(n), size)
        buf = np.empty(3 * b * size // 2, dtype=object)
        for start in range(0, size, b):
            cols = np.arange(start, start + b)
            got = butterfly._recursion_columns(n, cols, roots, buf) % P
            assert np.array_equal(got, ring_fourier(n, +1)[:, cols])

    # past the full-matrix range, by induction on n: once the ladder at
    # n - 1 is proven, a wrong linear map at n passes one uniform probe with
    # probability at most 1/P (Schwartz, J. ACM 27, 701, 1980).  A sparse
    # identity probe would meet only a few ramp entries.
    @pytest.mark.parametrize("n", range(9, 15))
    def test_the_danielson_lanczos_step_holds_on_a_dense_probe(self, n):
        x, step = dense_step(n)
        assert np.array_equal(ring_ladder(ring_plan(n), x), step)

    @pytest.mark.parametrize("n, unequal", [(3, 8), (6, 64), (8, 256)])
    def test_a_level_one_ramp_entry_one_root_step_off_is_caught(self, n, unequal):
        g = ring_root(n)
        table = ring_powers(g, (1 << n) >> 1).copy()
        table[1] = table[1] * g % P
        table.setflags(write=False)
        assert unequal_entries(butterfly._plan(n, +1, table)) == unequal

    def test_a_level_five_ramp_entry_one_root_step_off_fails_the_probe(self):
        n, level = 14, 5
        ramps = list(ring_plan(n).ramps)
        bad = ramps[level - 1].copy()  # bad[k] = w**k, w the level's own root
        bad[1] = bad[1] * ring_root(n - level + 1) % P
        ramps[level - 1] = bad
        x, step = dense_step(n)
        out = ring_ladder(butterfly.ButterflyPlan(n, +1, tuple(ramps)), x)
        assert np.count_nonzero(out != step) > 0
