import math

import numpy as np
import pytest

from qrecon.exceptions import DomainError, SingularityError
from qrecon.metrics import (ZERO_MASS, StateVector, Tangent,
                            amplitude_phase_differentials,
                            extended_fisher_metric,
                            extended_fisher_metric_recursive,
                            fisher_info_theta, fisher_info_theta_numeric,
                            fisher_matrix_numeric, fubini_study_distance,
                            fubini_study_metric, random_state, random_tangent)
from qrecon.probmodel import Distribution, factorize, reconstitute


def haar_unitary(size, rng):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestFisherInfoTheta:
    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, 1.234])
    def test_analytic_value_is_one(self, theta):
        assert fisher_info_theta(theta) == 1.0

    def test_numeric_cross_check(self):
        for theta in np.linspace(0.3, math.pi - 0.3, 25):
            assert abs(fisher_info_theta_numeric(theta) - 1.0) < 1e-10

    def test_small_theta_extrapolation(self):
        # the numeric sum approaches 1 toward the boundary as well
        values = [fisher_info_theta_numeric(t, step=t * 1e-3)
                  for t in (0.2, 0.1, 0.05)]
        assert all(abs(v - 1.0) < 1e-5 for v in values)


class TestFisherMatrixNumeric:
    def test_single_bit_scalar(self):
        tree = factorize(Distribution([0.3, 0.7]))
        mat = fisher_matrix_numeric(tree)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_uniform_two_bit_diagonal(self):
        tree = factorize(Distribution([0.25] * 4))
        mat = fisher_matrix_numeric(tree)
        assert np.allclose(mat, np.diag([1.0, 0.5, 0.5]), atol=1e-8)

    def test_diagonal_weights_are_suffix_masses(self):
        rng = np.random.default_rng(4)
        d = Distribution(rng.dirichlet(np.ones(8)))
        tree = factorize(d)
        mat = fisher_matrix_numeric(tree)
        off = mat - np.diag(np.diag(mat))
        assert np.abs(off).max() < 1e-8
        # the diagonal entry of node (l, s) is the mass of its suffix
        expected = []
        for level, suffix, _ in tree.nodes():
            width = 3 - level
            mask = (np.arange(8) & ((1 << width) - 1)) == suffix
            expected.append(d.probs[mask].sum())
        assert np.allclose(np.diag(mat), expected, atol=1e-8)

    def test_matches_expected_log_likelihood_hessian(self):
        rng = np.random.default_rng(8)
        d = Distribution(rng.dirichlet(np.ones(8)))
        tree = factorize(d)
        mat = fisher_matrix_numeric(tree)
        nodes = [(lev, suf, p0) for lev, suf, p0 in tree.nodes()]
        step = 1e-4

        def loglik(thetas):
            t = tree
            for (lev, suf, _), th in zip(nodes, thetas):
                t = t.with_node(lev, suf, math.cos(th / 2.0) ** 2)
            probs = reconstitute(t).probs
            return float(np.sum(d.probs * np.log(probs)))

        base = np.array([2.0 * math.acos(math.sqrt(p0)) for _, _, p0 in nodes])
        hess = np.empty((len(nodes), len(nodes)))
        for a in range(len(nodes)):
            for b in range(len(nodes)):
                t = base.copy()
                vals = []
                for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    t = base.copy()
                    t[a] += sa * step
                    t[b] += sb * step
                    vals.append(loglik(t))
                hess[a, b] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * step**2)
        assert np.abs(mat - (-hess)).max() < 1e-6

    def test_boundary_node_raises(self):
        tree = factorize(Distribution([1.0, 0.0]))
        with pytest.raises(SingularityError):
            fisher_matrix_numeric(tree)


class TestExtendedFisherMetric:
    def test_global_phase_costs_nothing(self):
        rng = np.random.default_rng(0)
        psi = random_state(3, rng)
        assert extended_fisher_metric(psi, Tangent(1j * 0.3 * psi.amps)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_one_bit_chart_form(self):
        theta, alpha = 0.9, -0.7
        dtheta, dalpha = 0.13, 0.41
        psi = np.array([math.cos(theta / 2),
                        math.sin(theta / 2) * np.exp(1j * alpha)])
        dpsi = np.array([
            -math.sin(theta / 2) * dtheta / 2,
            (math.cos(theta / 2) * dtheta / 2
             + 1j * math.sin(theta / 2) * dalpha) * np.exp(1j * alpha),
        ])
        expected = dtheta**2 + math.sin(theta) ** 2 * dalpha**2
        assert extended_fisher_metric(psi, dpsi) == pytest.approx(expected, abs=1e-12)

    def test_equals_four_fubini_study(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            nbits = int(rng.integers(1, 7))
            psi = random_state(nbits, rng)
            tan = random_tangent(psi, rng)
            efm = extended_fisher_metric(psi, tan)
            assert efm == pytest.approx(4.0 * fubini_study_metric(psi, tan),
                                        rel=1e-10, abs=1e-12)

    def test_recursion_equals_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            nbits = int(rng.integers(1, 7))
            psi = random_state(nbits, rng)
            tan = random_tangent(psi, rng)
            closed = extended_fisher_metric(psi, tan)
            rec = extended_fisher_metric_recursive(psi, tan)
            assert rec == pytest.approx(closed, rel=1e-9, abs=1e-12)

    def test_uniform_probabilities_pure_phase(self):
        size = 8
        rng = np.random.default_rng(5)
        dphi = rng.normal(size=size)
        psi = np.full(size, 1 / math.sqrt(size), dtype=complex)
        dpsi = 1j * psi * dphi
        expected = 4.0 * (np.sum(dphi**2) / size - (np.sum(dphi) / size) ** 2)
        assert extended_fisher_metric(psi, dpsi) == pytest.approx(expected, abs=1e-12)
        assert extended_fisher_metric_recursive(psi, dpsi) == pytest.approx(
            expected, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        psi = random_state(4, rng)
        tan = random_tangent(psi, rng)
        base_closed = extended_fisher_metric(psi, tan)
        base_rec = extended_fisher_metric_recursive(psi, tan)
        for _ in range(20):
            perm = rng.permutation(16)
            p_psi = StateVector(psi.amps[perm])
            p_tan = Tangent(tan.damps[perm])
            assert extended_fisher_metric(p_psi, p_tan) == pytest.approx(
                base_closed, abs=1e-12)
            assert extended_fisher_metric_recursive(p_psi, p_tan) == pytest.approx(
                base_rec, abs=1e-12)

    def test_zero_mass_component_contributes_nothing(self):
        psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        dpsi = np.array([0.0, 0.0, 0.0, 0.0], dtype=complex)
        assert extended_fisher_metric(psi, dpsi) == 0.0

    def test_perturbing_a_dead_component_raises(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(SingularityError):
            extended_fisher_metric(psi, np.array([0.0, 0.1 + 0.0j]))

    def test_norm_breaking_tangent_rejected(self):
        psi = np.array([0.6, 0.8], dtype=complex)
        with pytest.raises(DomainError):
            extended_fisher_metric(psi, 0.1 * psi)  # pure radial direction


def random_stack(nbits, count, rng):
    """count states and norm-preserving tangents as (count, 2**nbits) stacks."""
    pairs = []
    for _ in range(count):
        psi = random_state(nbits, rng)
        pairs.append((psi.amps, random_tangent(psi, rng).damps))
    return tuple(np.array(col) for col in zip(*pairs))


def empty_branch_flow_state():
    """A state whose odd branch holds 1e-13 of the mass, all of it at x = 1
    except 1e-28 at x = 3, and a tangent that moves mass onto x = 3.

    Inside that branch x = 3 is empty (conditional mass 1e-15), yet the
    branch's conditional mass flow toward it is 2e-13, above ZERO_MASS.
    """
    amps = np.array([math.sqrt(1.0 - 1e-13), math.sqrt(1e-13), 0.0, 1e-14],
                    dtype=complex)
    damps = np.array([0.0, 0.0, 0.0, 1e-12], dtype=complex)
    return amps, damps


METRICS = [extended_fisher_metric, extended_fisher_metric_recursive,
           fubini_study_metric]


def per_node_recursion(rho, drho, dphi):
    """Reference: the recursion one tree node per call, branch k holding the
    entries congruent to k mod 2."""
    if rho.size == 1:
        return 0.0
    total = 0.0
    mass, dmass, mean = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    for k in (0, 1):
        sub_rho, sub_drho, sub_dphi = rho[k::2], drho[k::2], dphi[k::2]
        mass[k], dmass[k] = sub_rho.sum(), sub_drho.sum()
        if mass[k] <= ZERO_MASS:
            continue
        cond_rho = sub_rho / mass[k]
        mean[k] = np.sum(cond_rho * sub_dphi)
        total += mass[k] * per_node_recursion(
            cond_rho, (sub_drho - cond_rho * dmass[k]) / mass[k], sub_dphi)
    if ZERO_MASS < mass[0] < 1.0 - ZERO_MASS:
        theta = 2.0 * math.acos(math.sqrt(mass[0]))
        dtheta = -2.0 * dmass[0] / math.sin(theta)
        total += dtheta**2 + math.sin(theta) ** 2 * (mean[1] - mean[0]) ** 2
    elif abs(dmass[0]) > ZERO_MASS:
        raise SingularityError("mass flow across an empty branch")
    return total


class TestStackedMetrics:
    @pytest.mark.parametrize("nbits", range(0, 7))
    def test_stack_equals_its_rows_one_by_one(self, nbits):
        rng = np.random.default_rng(100 + nbits)
        amps, damps = random_stack(nbits, 40, rng)
        for metric in METRICS:
            stacked = metric(amps, damps)
            assert isinstance(stacked, np.ndarray) and stacked.shape == (40,)
            rows = [metric(a, d) for a, d in zip(amps, damps)]
            assert all(isinstance(v, float) for v in rows)
            np.testing.assert_allclose(stacked, rows, rtol=1e-13, atol=1e-15)
        for part, rows in zip(amplitude_phase_differentials(amps, damps),
                              zip(*(amplitude_phase_differentials(a, d)
                                    for a, d in zip(amps, damps)))):
            assert np.array_equal(part, np.array(rows))

    @pytest.mark.parametrize("nbits", range(1, 7))
    def test_stacked_recursion_equals_closed_form(self, nbits):
        rng = np.random.default_rng(200 + nbits)
        amps, damps = random_stack(nbits, 200, rng)
        np.testing.assert_allclose(
            extended_fisher_metric_recursive(amps, damps),
            extended_fisher_metric(amps, damps), rtol=1e-11, atol=1e-14)

    @pytest.mark.parametrize("nbits", range(1, 7))
    def test_levels_agree_with_the_per_node_reference(self, nbits):
        rng = np.random.default_rng(300 + nbits)
        amps, damps = random_stack(nbits, 100, rng)
        # a dead leaf and, for nbits > 1, a dead odd branch
        amps[0, 1], damps[0, 1] = 0.0, 0.0
        if nbits > 1:
            amps[1, 1::2], damps[1, 1::2] = 0.0, 0.0
        for row in (0, 1):
            amps[row] /= np.linalg.norm(amps[row])
            damps[row] = Tangent.projected(amps[row], damps[row]).damps
        expected = [per_node_recursion(*amplitude_phase_differentials(a, d))
                    for a, d in zip(amps, damps)]
        np.testing.assert_allclose(extended_fisher_metric_recursive(amps, damps),
                                   expected, rtol=1e-12, atol=1e-15)

    def test_size_one_state_gives_zero(self):
        psi = np.array([1.0 + 0.0j])
        d = np.array([0.3j])   # a pure global phase
        assert extended_fisher_metric_recursive(psi, d) == 0.0
        assert extended_fisher_metric(psi, d) == 0.0
        stacked = extended_fisher_metric_recursive(np.tile(psi, (3, 1)),
                                                   np.tile(d, (3, 1)))
        assert np.array_equal(stacked, np.zeros(3))

    def test_dead_leaf_contributes_nothing(self):
        # x = 2 carries no mass and is not perturbed
        rng = np.random.default_rng(7)
        amps = np.array([0.6, 0.48j, 0.0, 0.64], dtype=complex)
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        raw[2] = 0.0
        damps = Tangent.projected(amps, raw).damps
        closed = extended_fisher_metric(amps, damps)
        assert extended_fisher_metric_recursive(amps, damps) == pytest.approx(
            closed, rel=1e-12)
        live = np.array([0, 1, 3])
        assert extended_fisher_metric(amps[live], damps[live]) == pytest.approx(
            closed, rel=1e-14)
        good_a, good_d = random_stack(2, 2, rng)
        stack_a = np.stack([good_a[0], amps, good_a[1]])
        stack_d = np.stack([good_d[0], damps, good_d[1]])
        for metric in METRICS:
            np.testing.assert_allclose(
                metric(stack_a, stack_d),
                [metric(a, d) for a, d in zip(stack_a, stack_d)], rtol=1e-13)

    def test_dead_branch_contributes_nothing(self):
        # the odd branch (x = 1, 3, 5, 7) is empty: the metric is that of the
        # even branch's distribution, with no split term at the root
        rng = np.random.default_rng(8)
        sub_a, sub_d = random_stack(2, 1, rng)
        amps = np.zeros(8, dtype=complex)
        damps = np.zeros(8, dtype=complex)
        amps[0::2], damps[0::2] = sub_a[0], sub_d[0]
        expected = extended_fisher_metric(sub_a[0], sub_d[0])
        assert extended_fisher_metric(amps, damps) == pytest.approx(expected,
                                                                    rel=1e-12)
        assert extended_fisher_metric_recursive(amps, damps) == pytest.approx(
            expected, rel=1e-12)
        stack_a = np.stack([amps, amps[::-1]])
        stack_d = np.stack([damps, damps[::-1]])
        np.testing.assert_allclose(
            extended_fisher_metric_recursive(stack_a, stack_d),
            [expected, extended_fisher_metric(amps[::-1], damps[::-1])],
            rtol=1e-12)

    def test_empty_branch_flow_raises_for_the_offending_row(self):
        amps, damps = empty_branch_flow_state()
        with pytest.raises(SingularityError, match="empty branch"):
            extended_fisher_metric_recursive(amps, damps)
        good_a, good_d = random_stack(2, 3, np.random.default_rng(9))
        stack_a = np.stack([good_a[0], good_a[1], amps, good_a[2]])
        stack_d = np.stack([good_d[0], good_d[1], damps, good_d[2]])
        with pytest.raises(SingularityError, match=r"empty branch \(row 2\)"):
            extended_fisher_metric_recursive(stack_a, stack_d)
        # the closed form has no chart and takes the same row
        assert np.all(np.isfinite(extended_fisher_metric(stack_a, stack_d)))

    def test_radial_slack_is_projected_out_at_the_root_too(self):
        # a radial part inside TANGENT_TOL moves no conditional mass; the
        # recursion drops it at every node, the root included, and so tracks
        # the closed form to second order in it
        rng = np.random.default_rng(12)
        amps, damps = random_stack(3, 200, rng)
        damps = damps + 5e-10 * amps
        np.testing.assert_allclose(
            extended_fisher_metric_recursive(amps, damps),
            extended_fisher_metric(amps, damps), rtol=1e-12)
        # nor does it count as mass flow into the empty branch of |0>
        assert extended_fisher_metric_recursive(
            np.array([1.0, 0.0j]), np.array([1e-10, 0.0j])) == 0.0

    def test_perturbed_dead_component_names_its_row(self):
        amps = np.array([[0.6, 0.8], [1.0, 0.0]], dtype=complex)
        damps = np.array([[0.0, 0.0], [0.0, 0.1]], dtype=complex)
        for metric in (extended_fisher_metric, extended_fisher_metric_recursive):
            with pytest.raises(SingularityError, match=r"\(row 1\)"):
                metric(amps, damps)

    def test_norm_breaking_row_rejected(self):
        rng = np.random.default_rng(11)
        amps, damps = random_stack(3, 4, rng)
        damps[2] = damps[2] + 0.1 * amps[2]   # a radial component
        for metric in (extended_fisher_metric, extended_fisher_metric_recursive):
            with pytest.raises(DomainError, match=r"norm.*\(row 2\)"):
                metric(amps, damps)

    def test_zero_state_row_rejected(self):
        amps = np.array([[0.6, 0.8], [0.0, 0.0]], dtype=complex)
        with pytest.raises(DomainError, match=r"\(row 1\)"):
            fubini_study_metric(amps, np.ones((2, 2), dtype=complex))

    @pytest.mark.parametrize("metric", METRICS)
    def test_mismatched_shapes_rejected(self, metric):
        with pytest.raises(DomainError):
            metric(np.ones((2, 4)) / 2.0, np.zeros((3, 4)))
        with pytest.raises(DomainError):
            metric(np.ones((1, 2, 4)) / 2.0, np.zeros((1, 2, 4)))


class TestFubiniStudy:
    def test_gauge_direction_is_null(self):
        rng = np.random.default_rng(10)
        psi = random_state(3, rng)
        assert fubini_study_metric(psi, Tangent(1j * psi.amps * 1e-2)) == \
            pytest.approx(0.0, abs=1e-16)

    def test_orthonormal_tangent_has_unit_length(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        d = np.zeros(4, dtype=complex)
        d[1] = 1.0
        assert fubini_study_metric(psi, d) == pytest.approx(1.0, abs=1e-15)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            psi = random_state(3, rng)
            tan = random_tangent(psi, rng)
            u = haar_unitary(8, rng)
            before = fubini_study_metric(psi, tan)
            after = fubini_study_metric(u @ psi.amps, u @ tan.damps)
            assert after == pytest.approx(before, rel=1e-12, abs=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            fubini_study_metric(np.zeros(2, dtype=complex), np.ones(2, dtype=complex))


class TestFubiniStudyDistance:
    def test_identical_states(self):
        psi = np.array([0.6, 0.8j])
        assert fubini_study_distance(psi, psi) == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_states(self):
        assert fubini_study_distance(np.array([1, 0j]), np.array([0, 1j])) == \
            pytest.approx(math.pi / 2)

    def test_equal_superposition(self):
        psi1 = np.array([1.0, 0.0], dtype=complex)
        psi2 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        assert fubini_study_distance(psi1, psi2) == pytest.approx(math.pi / 4)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = random_state(2, rng)
            b = random_state(2, rng)
            u = haar_unitary(4, rng)
            assert fubini_study_distance(u @ a.amps, u @ b.amps) == pytest.approx(
                fubini_study_distance(a, b), abs=1e-10)


class TestTangent:
    def test_projected_tangent_preserves_norm(self):
        rng = np.random.default_rng(14)
        psi = random_state(3, rng)
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        tan = Tangent.projected(psi, raw)
        assert tan.is_norm_preserving(psi)

    def test_state_vector_normalizes_small_drift(self):
        amps = np.ones(4, dtype=complex) / 2.0 * (1 + 1e-11)
        sv = StateVector(amps)
        assert float(np.vdot(sv.amps, sv.amps).real) == pytest.approx(1.0, abs=1e-14)

    def test_state_vector_rejects_large_drift(self):
        with pytest.raises(DomainError):
            StateVector(np.ones(4, dtype=complex))
