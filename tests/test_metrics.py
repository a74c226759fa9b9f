import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qrecon import criteria, metrics, probmodel
from qrecon.exceptions import DomainError, SingularityError
from qrecon.metrics import (ZERO_MASS, amplitude_phase_differentials,
                            extended_fisher_metric,
                            extended_fisher_metric_recursive, fisher_matrix,
                            fubini_study_distance, fubini_study_metric,
                            random_state, random_tangent, state_amplitudes,
                            tangent_amplitudes)
from qrecon.probmodel import (ConditionalTree, Distribution, factorize,
                              mass_pyramid, reconstitute)

UNIT = np.finfo(float).eps / 2  # unit roundoff of a double


def haar_unitary(size, rng):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestFisherMatrix:
    def test_depth_one_is_the_unit_chart_information(self):
        # the one-node tree's matrix is the theta chart's information, 1 for
        # every theta, close to the boundary as well: 1 within (3n + 6)u at
        # n = 1 (the bound derived below, the exact mass being 1)
        for theta in [*np.linspace(0.3, math.pi - 0.3, 25), 0.2, 0.1, 0.05]:
            tree = ConditionalTree(1, [[math.cos(theta / 2.0) ** 2]])
            assert abs(fisher_matrix(tree)[0, 0] - 1.0) <= 9 * UNIT

    def test_single_bit_scalar(self):
        tree = factorize(Distribution([0.3, 0.7]))
        mat = fisher_matrix(tree)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_uniform_two_bit_diagonal(self):
        tree = factorize(Distribution([0.25] * 4))
        mat = fisher_matrix(tree)
        assert np.allclose(mat, np.diag([1.0, 0.5, 0.5]), atol=1e-8)

    def test_diagonal_weights_are_suffix_masses(self):
        rng = np.random.default_rng(4)
        d = Distribution(rng.dirichlet(np.ones(8)))
        tree = factorize(d)
        mat = fisher_matrix(tree)
        off = mat - np.diag(np.diag(mat))
        assert np.abs(off).max() < 1e-8
        # the diagonal entry of node (l, s) is the mass of its suffix
        expected = []
        for level, suffix, _ in tree.nodes():
            width = 3 - level
            mask = (np.arange(8) & ((1 << width) - 1)) == suffix
            expected.append(d.probs[mask].sum())
        assert np.allclose(np.diag(mat), expected, atol=1e-8)

    @pytest.mark.parametrize("nbits", range(1, 11))
    def test_diagonal_with_trace_n_up_to_rounding(self, nbits):
        # Bounds from rounding, u the unit roundoff, first order in u.  A
        # leaf of reconstitute is n products with n roundings of 1 - p0, and
        # a branch mass of the pyramid adds at most n - 1 roundings of
        # positive sums: within (3n - 1)u of its exact mass.  A score takes
        # at most 2u, its square 5u, a product and the two-term sum 1u each.
        # So a diagonal entry is its exact suffix mass M within (3n + 6)u
        # and the pyramid's mass m within 3n u of it: |F_aa - m_a| <=
        # (6n + 6)u m_a.  Each level's exact masses sum to 1, so the
        # correctly rounded (fsum) trace is n within n (3n + 6)u + n u.  An
        # off-diagonal entry is level k's score times the mean score
        # M(w0 s0 + w1 s1), |mean| <= M sqrt(q0 q1) 2(3n + 3)u with
        # sqrt(q0 q1) <= 1/2; one more product, and |S_k| sqrt(M_b) <=
        # sqrt(M_a) (Cauchy-Schwarz over level k's node a), give |F_ab| <=
        # (3n + 4)u sqrt(M_a M_b).
        rng = np.random.default_rng(nbits)
        for _ in range(20):
            tree = ConditionalTree(nbits, [rng.uniform(size=1 << i)
                                           for i in range(nbits)])
            mat = fisher_matrix(tree)
            masses = np.concatenate(
                mass_pyramid(reconstitute(tree).probs)[:0:-1])
            diag = np.diag(mat)
            assert np.all(np.abs(diag - masses) <= (6 * nbits + 6) * UNIT * masses)
            assert abs(math.fsum(diag) - nbits) <= nbits * (3 * nbits + 7) * UNIT
            off = np.abs(mat - np.diag(diag))
            assert np.all(off <= (3 * nbits + 4) * UNIT
                          * np.sqrt(np.outer(masses, masses)))

    def test_matches_expected_log_likelihood_hessian(self):
        # the independent oracle: central differences of the expected
        # log-likelihood over the theta-node coordinates, each evaluation a
        # tree built from the perturbed level arrays
        rng = np.random.default_rng(8)
        d = Distribution(rng.dirichlet(np.ones(8)))
        tree = factorize(d)
        mat = fisher_matrix(tree)
        step = 1e-4

        def loglik(thetas):
            levels = [np.cos(thetas[(1 << i) - 1:(2 << i) - 1] / 2.0) ** 2
                      for i in range(tree.depth)]
            probs = reconstitute(ConditionalTree(tree.depth, levels)).probs
            return float(np.sum(d.probs * np.log(probs)))

        base = np.array([2.0 * math.acos(math.sqrt(p0)) for _, _, p0 in tree.nodes()])
        hess = np.empty((base.size, base.size))
        for a in range(base.size):
            for b in range(base.size):
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
            fisher_matrix(tree)

    def test_a_deeper_boundary_node_is_named(self):
        tree = ConditionalTree(2, [[0.5], [0.3, 0.0]])
        with pytest.raises(SingularityError, match="level 1, suffix 1"):
            fisher_matrix(tree)

    # below about 5.6e-309 (1 over the largest double) q1/p0 overflows, so
    # the score would be infinite and the matrix inf and NaN
    @pytest.mark.parametrize("levels, where", [
        ([[1e-310], [0.5, 0.5]], "level 2, suffix 0"),
        ([[0.5], [0.3, 5e-324]], "level 1, suffix 1")], ids=["root", "deeper"])
    def test_a_subnormal_node_is_refused(self, levels, where):
        with pytest.raises(SingularityError, match=where):
            fisher_matrix(ConditionalTree(2, levels))

    def test_a_tiny_normal_node_keeps_its_matrix(self):
        # the suffix masses are 1, p0 and 1 - p0; the bounds are those of
        # test_diagonal_with_trace_n_up_to_rounding at n = 2
        mat = fisher_matrix(ConditionalTree(2, [[1e-300], [0.5, 0.5]]))
        masses = np.array([1.0, 1e-300, 1.0 - 1e-300])
        diag = np.diag(mat)
        assert np.all(np.abs(diag - masses) <= 18 * UNIT * masses)
        assert np.all(np.abs(mat - np.diag(diag))
                      <= 10 * UNIT * np.sqrt(np.outer(masses, masses)))

    def test_depth_zero_gives_an_empty_matrix(self):
        assert fisher_matrix(ConditionalTree(0, [])).shape == (0, 0)

    def test_a_tree_too_deep_for_the_dense_matrix_is_refused(self):
        # depth 13 would fill a (2**13 - 1) x (2**13 - 1) matrix
        tree = ConditionalTree(13, [np.full(1 << i, 0.5) for i in range(13)])
        with pytest.raises(DomainError, match="depth 13"):
            fisher_matrix(tree)


class TestExtendedFisherMetric:
    def test_global_phase_costs_nothing(self):
        rng = np.random.default_rng(0)
        psi = random_state(3, rng)
        assert extended_fisher_metric(psi, 1j * 0.3 * psi) == \
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
            p_psi, p_tan = psi[perm], tan[perm]
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


def numpy_draws(rng, shape):
    """(weights, phases, drho, dphi) of one state and tangent (N,) or a block
    (S, N), from numpy's own calls in the order random_state and
    random_tangent make them."""
    return (rng.dirichlet(np.ones(shape[-1]), shape[:-1] or None),
            rng.uniform(-math.pi, math.pi, shape),
            rng.normal(0.0, metrics.INCREMENT_SD, shape),
            rng.normal(0.0, metrics.INCREMENT_SD, shape))


def random_stack(nbits, count, rng):
    """count states and norm-preserving tangents as (count, 2**nbits) stacks."""
    pairs = []
    for _ in range(count):
        psi = random_state(nbits, rng)
        pairs.append((psi, random_tangent(psi, rng)))
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


def stack_with_dead_rows(nbits):
    """100 random states and tangents of nbits bits; row 0 has a dead leaf
    and, for nbits > 1, row 1 a dead odd branch."""
    rng = np.random.default_rng(300 + nbits)
    amps, damps = random_stack(nbits, 100, rng)
    amps[0, 1], damps[0, 1] = 0.0, 0.0
    if nbits > 1:
        amps[1, 1::2], damps[1, 1::2] = 0.0, 0.0
    for row in (0, 1):
        amps[row] /= np.linalg.norm(amps[row])
        damps[row] -= np.vdot(amps[row], damps[row]).real * amps[row]
    return amps, damps


def masked_differentials(amps, damps):
    """Reference: (rho, drho, dphi) with dphi gathered and scattered at the
    live components only, whether or not any component is dead."""
    rho = np.abs(amps) ** 2
    alive = rho > ZERO_MASS
    dphi = np.zeros_like(rho)
    dphi[alive] = (damps[alive] / amps[alive]).imag
    return rho, 2.0 * (amps.conj() * damps).real, dphi


def reshape_sum_recursion(rho, drho, dphi):
    """Reference: the level passes with both branches of a node on a
    length-2 axis, [..., k, s], reduced by .sum(axis=-2) and .any(axis=-2)
    (mass_pyramid is pinned to its own length-2-axis form in
    test_probmodel.py)."""
    mass, flow, phase = (mass_pyramid(v) for v in (rho, drho, rho * dphi))
    metric = np.zeros_like(rho)
    broken = np.zeros(rho.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for level in range(1, len(mass)):
            split = mass[level].shape[:-1] + (2, mass[level].shape[-1])
            m_k, d_k, p_k = (v[level - 1].reshape(split)
                             for v in (mass, flow, phase))
            m_s = mass[level][..., None, :]
            q = m_k / m_s
            dq = (d_k - q * flow[level][..., None, :]) / m_s
            live = q > ZERO_MASS
            mean = np.where(live, p_k / m_k, 0.0)
            q0, q1, dq0 = q[..., 0, :], q[..., 1, :], dq[..., 0, :]
            interior = (q0 > ZERO_MASS) & (q0 < 1.0 - ZERO_MASS)
            node = (dq0**2 / (q0 * q1)
                    + 4.0 * q0 * q1 * (mean[..., 1, :] - mean[..., 0, :]) ** 2)
            metric = (np.where(live, q * metric.reshape(split), 0.0).sum(axis=-2)
                      + np.where(interior, node, 0.0))
            broken = ((live & broken.reshape(split)).any(axis=-2)
                      | (~interior & (np.abs(dq0) > ZERO_MASS)))
    assert not broken[..., 0].any()
    return metric[..., 0]


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
        amps, damps = stack_with_dead_rows(nbits)
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
        damps = raw - np.vdot(amps, raw).real * amps
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

    @pytest.mark.parametrize("metric", [extended_fisher_metric,
                                        extended_fisher_metric_recursive])
    def test_a_state_of_no_amplitudes_is_rejected(self, metric):
        with pytest.raises(DomainError, match="psi must be a non-empty row"):
            metric(np.zeros(0, dtype=complex), np.zeros(0, dtype=complex))

    @pytest.mark.parametrize("metric", METRICS)
    def test_a_stack_of_no_states_gives_no_values(self, metric):
        empty = np.zeros((0, 4), dtype=complex)
        assert metric(empty, empty).shape == (0,)

    @pytest.mark.parametrize("metric", METRICS)
    def test_mismatched_shapes_rejected(self, metric):
        with pytest.raises(DomainError):
            metric(np.ones((2, 4)) / 2.0, np.zeros((3, 4)))
        with pytest.raises(DomainError):
            metric(np.ones((1, 2, 4)) / 2.0, np.zeros((1, 2, 4)))


class TestHalfSlicePasses:
    """The recursion's half-slice passes and the differentials' all-alive
    path keep the bits of the length-2-axis and masked forms."""

    @pytest.mark.parametrize("count", [None, 0, 1, 7, 256])
    @pytest.mark.parametrize("nbits", range(0, 9))
    def test_recursion_keeps_the_bits_of_the_reshape_sum_form(self, nbits, count):
        rng = np.random.default_rng(400 + nbits)
        shape = (1 << nbits,) if count is None else (count, 1 << nbits)
        weights, phases, drho, dphi = numpy_draws(rng, shape)
        amps = state_amplitudes(weights, phases)
        damps = tangent_amplitudes(amps, drho, dphi)
        differentials = amplitude_phase_differentials(amps, damps)
        for part, expected in zip(differentials, masked_differentials(amps, damps)):
            assert part.tobytes() == expected.tobytes()
        assert (np.asarray(extended_fisher_metric_recursive(amps, damps)).tobytes()
                == reshape_sum_recursion(*differentials).tobytes())

    @pytest.mark.parametrize("nbits", range(1, 7))
    def test_dead_leaf_and_dead_branch_rows_keep_their_bits(self, nbits):
        amps, damps = stack_with_dead_rows(nbits)
        differentials = amplitude_phase_differentials(amps, damps)
        for part, expected in zip(differentials, masked_differentials(amps, damps)):
            assert part.tobytes() == expected.tobytes()
        assert (extended_fisher_metric_recursive(amps, damps).tobytes()
                == reshape_sum_recursion(*differentials).tobytes())

    @pytest.mark.parametrize("function", [amplitude_phase_differentials,
                                          extended_fisher_metric,
                                          extended_fisher_metric_recursive])
    def test_one_perturbed_dead_component_keeps_its_message(self, function):
        rng = np.random.default_rng(13)
        amps, damps = random_stack(3, 5, rng)
        amps[3, 2], damps[3, 2] = 0.0, 0.1
        amps[3] /= np.linalg.norm(amps[3])  # a state still: past the norm rule
        with pytest.raises(SingularityError) as raised:
            function(amps, damps)
        assert str(raised.value) == ("perturbation of a zero-amplitude component "
                                     "(row 3)")


def renormalized_tangent(amps, damps, keep):
    """damps on the components keep, with its radial part there projected out
    so that it preserves the norm of amps; 0 elsewhere."""
    out = np.zeros_like(damps)
    a, d = amps[keep], damps[keep]
    out[keep] = d - (np.vdot(a, d).real / np.vdot(a, a).real) * a
    return out


class TestUnmaskedPasses:
    """A recursion level whose nodes are all interior, with both branches
    live, skips the masks, and so does the closed form of a block with no
    zero-mass component; any other level or block takes the masked pass.
    In a (S, 16) stack with one zero-mass leaf, level 1 and the closed form
    are masked and levels 2-4 are not, where each row alone takes the
    unmasked pass everywhere its own empty branches do not reach."""

    @staticmethod
    def stack():
        amps, damps = random_stack(4, 6, np.random.default_rng(17))
        amps[2, 5], damps[2, 5] = 0.0, 0.0  # a zero-mass leaf, no flow
        amps[2] /= np.linalg.norm(amps[2])
        damps[2] = renormalized_tangent(amps[2], damps[2], np.arange(16) != 5)
        return amps, damps

    @pytest.mark.parametrize("metric", [extended_fisher_metric,
                                        extended_fisher_metric_recursive])
    def test_each_row_has_the_bits_of_its_single_row_call(self, metric):
        amps, damps = self.stack()
        stacked = metric(amps, damps)
        for row, (a, d) in enumerate(zip(amps, damps)):
            assert stacked[row].tobytes() == np.float64(metric(a, d)).tobytes(), row
        assert extended_fisher_metric_recursive(amps[2], damps[2]) == pytest.approx(
            extended_fisher_metric(amps[2], damps[2]), rel=1e-12)

    def test_flow_into_an_empty_branch_is_refused_below_interior_levels(self):
        # row 4's level-1 node (3, 11) holds 1e-13 of the mass and its leaf
        # 11 1e-28 of it: the tangent moves 2e-13 of the node's mass into
        # that empty branch.  Levels 2-4 are interior in every row, so only
        # the unmasked passes carry the fault up to the root
        amps, damps = self.stack()
        keep = ~np.isin(np.arange(16), (3, 11))
        amps[4, keep] *= math.sqrt((1.0 - 1e-13) / np.sum(np.abs(amps[4, keep]) ** 2))
        amps[4, 3], amps[4, 11] = math.sqrt(1e-13), 1e-14
        damps[4] = renormalized_tangent(amps[4], damps[4], keep)
        damps[4, 11] = 1e-12
        with pytest.raises(SingularityError, match=r"^mass flow across an empty "
                                                   r"branch \(row 4\)$"):
            extended_fisher_metric_recursive(amps, damps)
        with pytest.raises(SingularityError, match="empty branch$"):
            extended_fisher_metric_recursive(amps[4], damps[4])
        rest = np.arange(6) != 4
        np.testing.assert_allclose(
            extended_fisher_metric_recursive(amps[rest], damps[rest]),
            extended_fisher_metric(amps[rest], damps[rest]), rtol=1e-12)


class TestExactRationals:
    @pytest.mark.parametrize("nbits", [1, 2, 3])
    def test_both_forms_give_one_fraction(self, nbits):
        # a rational (rho, drho, dphi), sum drho = 0: the forms' int
        # literals keep every value a Fraction, and the identity is exact
        rng = np.random.default_rng(nbits)
        size = 1 << nbits
        weights = [Fraction(int(w)) for w in rng.integers(1, 50, size)]
        steps = [Fraction(int(k), 97) for k in rng.integers(-20, 21, size)]
        rho = np.array([[w / sum(weights) for w in weights]], dtype=object)
        drho = np.array([[k - sum(steps) / size for k in steps]], dtype=object)
        dphi = np.array([[Fraction(int(k), 13) for k in rng.integers(-30, 31, size)]],
                        dtype=object)
        (closed,) = metrics._closed_form(rho, drho, dphi)
        (recursive,) = metrics._recursion(rho, drho, dphi)
        assert type(closed) is Fraction and type(recursive) is Fraction
        assert closed == recursive


def per_sample_and_block(seed, bit_counts):
    """{nbits: ((states, tangents) stacked from per-sample random_state and
    random_tangent, (states, tangents) built as one block from the same
    draws)} and the two generators afterwards."""
    one, block = np.random.default_rng(seed), np.random.default_rng(seed)
    stacked, draws = {}, {}
    for nbits in bit_counts:
        psi = random_state(nbits, one)
        stacked.setdefault(nbits, []).append((psi, random_tangent(psi, one)))
        draws.setdefault(nbits, []).append(numpy_draws(block, (1 << nbits,)))
    out = {}
    for nbits, rows in draws.items():
        weights, phases, drho, dphi = (np.array(col) for col in zip(*rows))
        amps = state_amplitudes(weights, phases)
        out[nbits] = (tuple(np.array(col) for col in zip(*stacked[nbits])),
                      (amps, tangent_amplitudes(amps, drho, dphi)))
    return out, one, block


class TestBlockBuilders:
    @pytest.mark.parametrize("nbits", [-1, 2.0, True, np.float64(3.0), "3"])
    def test_nbits_must_be_a_non_negative_integer(self, nbits):
        with pytest.raises(DomainError, match="nbits"):
            random_state(nbits, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 7, 401, 20240801])
    def test_block_is_the_stack_of_per_sample_results(self, seed):
        for nbits in range(11):
            built, one, block = per_sample_and_block(seed, [nbits] * 5)
            (states, tangents), (amps, damps) = built[nbits]
            assert amps.shape == damps.shape == (5, 1 << nbits)
            assert amps.tobytes() == states.tobytes()
            assert damps.tobytes() == tangents.tobytes()
            assert block.bit_generator.state == one.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 7, 401, 20240801])
    def test_mixed_bit_counts_from_one(self, seed):
        bit_counts = np.random.default_rng(seed).integers(1, 7, size=60).tolist()
        built, one, block = per_sample_and_block(seed, bit_counts)
        assert set(built) == set(bit_counts)
        for (states, tangents), (amps, damps) in built.values():
            assert amps.tobytes() == states.tobytes()
            assert damps.tobytes() == tangents.tobytes()
        assert block.bit_generator.state == one.bit_generator.state

    def test_one_row_is_a_state_and_a_tangent(self):
        rng = np.random.default_rng(3)
        weights, phases, drho, dphi = numpy_draws(rng, (8,))
        amps = state_amplitudes(weights, phases)
        damps = tangent_amplitudes(amps, drho, dphi)
        assert amps.shape == damps.shape == (8,)
        assert probmodel._normalized(amps)[0].tobytes() == amps.tobytes()
        assert extended_fisher_metric(amps, damps) > 0.0  # norm-preserving

    def test_rows_off_norm_by_rounding_are_renormalized_alone(self):
        amps = np.array([[0.6, 0.8], [0.6, 0.8 + 1e-11]], dtype=complex)
        out = probmodel._normalized(amps)[0]
        for row, expected in zip(out, amps):
            assert row.tobytes() == probmodel._normalized(expected)[0].tobytes()
        assert out[1].tobytes() != amps[1].tobytes()

    # rows off norm by more than SUM_TOL are rescaled; the array pass must
    # give each row inside the stack the bits it gets alone
    @pytest.mark.parametrize("size", [1, 16, 1 << 14])
    def test_a_stack_normalizes_as_its_rows_do_alone(self, size):
        rng = np.random.default_rng(size)
        amps = rng.normal(size=(5, size)) + 1j * rng.normal(size=(5, size))
        amps /= np.sqrt((np.abs(amps) ** 2).sum(axis=1))[:, None]
        amps *= 1.0 + np.array([0.0, 1e-11, -3e-11, 2e-10, -4e-10])[:, None]
        out = probmodel._normalized(amps)[0]
        for row, alone in zip(out, amps):
            assert row.tobytes() == probmodel._normalized(alone)[0].tobytes()
        assert all(a.tobytes() != b.tobytes() for a, b in zip(out[1:], amps[1:]))

    def test_off_norm_row_is_named(self):
        amps = np.full((3, 4), 0.5, dtype=complex)
        amps[2, 0] = 0.75
        with pytest.raises(DomainError, match=r"row 2"):
            probmodel._normalized(amps)

    def test_random_tangent_takes_one_state(self):
        with pytest.raises(DomainError, match=r"psi must be a non-empty row \(N,\), not"):
            random_tangent(np.ones((2, 4)) / 2, np.random.default_rng(0))

    @pytest.mark.parametrize("weights,phases,match", [
        (np.ones((3, 4)), np.zeros(4), "phases must have shape"),
        (np.ones(4), np.zeros((1, 4)), "phases must have shape"),
        (np.ones(0), np.zeros(0), "weights must be a non-empty"),
        (np.ones((2, 0)), np.zeros((2, 0)), "weights must be a non-empty"),
        (np.ones((1, 2, 4)), np.zeros((1, 2, 4)), "weights must be a non-empty"),
        (np.float64(1.0), np.float64(0.0), "weights must be a non-empty"),
    ], ids=["stack-and-row", "row-and-stack", "empty", "empty-rows", "3-d", "0-d"])
    def test_state_draws_of_a_bad_shape_are_named(self, weights, phases, match):
        with pytest.raises(DomainError, match=match):
            state_amplitudes(weights, phases)

    @pytest.mark.parametrize("name,value", [
        ("weights", np.nan), ("weights", np.inf), ("phases", np.nan),
    ])
    def test_non_finite_state_draw_row_is_named(self, name, value):
        draws = {"weights": np.full((4, 8), 1 / 8), "phases": np.zeros((4, 8))}
        draws[name][3, 5] = value
        with pytest.raises(DomainError, match=rf"{name} .*\(row 3\)"):
            state_amplitudes(**draws)

    # a negative weight is refused by name; a zero row floors every
    # probability at 0.1 / N, and _normalized names its squared norm (0.1)
    @pytest.mark.parametrize("row,match", [
        (np.zeros(8), r"squared norm 0\.0999.* is not 1 \(row 1\)"),
        (-np.ones(8), r"weights must be non-negative \(row 1\)"),
        (np.r_[-1.0, np.ones(7)], r"weights must be non-negative \(row 1\)"),
    ], ids=["zero", "negative", "one-negative"])
    def test_weight_row_that_is_no_distribution_is_named(self, row, match):
        weights = np.full((3, 8), 1 / 8)
        weights[1] = row
        with pytest.raises(DomainError, match=match):
            state_amplitudes(weights, np.zeros((3, 8)))

    @pytest.mark.parametrize("name", ["drho", "dphi"])
    def test_tangent_draws_must_match_the_states(self, name):
        amps = state_amplitudes(np.full((3, 4), 1 / 4), np.zeros((3, 4)))
        draws = {"drho": np.zeros((3, 4)), "dphi": np.zeros((3, 4))}
        for bad in (np.zeros(4), np.zeros((3, 8)), np.zeros((2, 4))):
            with pytest.raises(DomainError, match=f"{name} must have shape"):
                tangent_amplitudes(amps, **{**draws, name: bad})
        draws[name][2, 1] = np.nan
        with pytest.raises(DomainError, match=rf"{name} .*\(row 2\)"):
            tangent_amplitudes(amps, **draws)

    def test_empty_states_are_named(self):
        with pytest.raises(DomainError, match="amps must be a non-empty"):
            tangent_amplitudes(np.ones((2, 0), dtype=complex), np.zeros((2, 0)),
                               np.zeros((2, 0)))


class TestTangentAmplitudes:
    """A tangent is the state times its log-derivative,
    psi (drho / (2 rho) + i dphi)."""

    # numpy may reuse a temporary of 256 KiB or more for a product's result
    # and swap the operands when it does; every size here is past that
    @pytest.mark.parametrize("count,size", [(300, 128), (4096, 16), (40, 1024)])
    def test_stack_rows_are_their_single_row_calls(self, count, size):
        rng = np.random.default_rng(count + size)
        weights, phases, drho, dphi = numpy_draws(rng, (count, size))
        amps = state_amplitudes(weights, phases)
        damps = tangent_amplitudes(amps, drho, dphi)
        assert damps.nbytes >= 1 << 18
        for i in range(count):
            row = tangent_amplitudes(amps[i], drho[i], dphi[i])
            assert row.tobytes() == damps[i].tobytes()

    # With u = 2**-53 and L = |c / (2 rho) + i dphi|, c the centred drho:
    # rho = re**2 + im**2 is within 2u of |psi|**2 and c / (2 rho) within 3u
    # of its exact value; each part of the product psi L and of the real
    # part of conj(psi) dpsi takes two products and a sum, at most 2u of
    # |psi| |L| per part, so 2 Re(conj(psi) dpsi) is within
    # 2 (3u + 2 sqrt(2) u + 2u) rho |L| < 16u rho |L| of c (|c| <= 2 rho |L|).
    # The quotient dpsi / psi (Smith's algorithm, scaling by the ratio of
    # psi's parts, at most 1) errs by at most 3 sqrt(2) u |L| from its
    # numerator and 5u |L| from its scale; with the 2 sqrt(2) u |L| of the
    # product, dphi comes back within 13u |L|.  Both bounds are to first
    # order in u.
    @pytest.mark.parametrize("nbits", range(11))
    def test_is_the_inverse_of_the_differentials(self, nbits):
        rng = np.random.default_rng(900 + nbits)
        weights, phases, drho, dphi = numpy_draws(rng, (50, 1 << nbits))
        psi = state_amplitudes(weights, phases)
        rho, back_drho, back_dphi = amplitude_phase_differentials(
            psi, tangent_amplitudes(psi, drho, dphi))
        centred = drho - drho.mean(axis=-1, keepdims=True)
        scale = np.hypot(centred / (2.0 * rho), dphi) * 2.0**-53
        assert rho.tobytes() == (np.abs(psi) ** 2).tobytes()
        assert np.all(np.abs(back_drho - centred) <= 16.0 * rho * scale)
        assert np.all(np.abs(back_dphi - dphi) <= 13.0 * scale)

    def test_a_state_with_a_zero_amplitude_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError,
                               match="^amps has a zero-amplitude component$"):
                random_tangent(np.array([1.0, 0.0]), np.random.default_rng(0))

    def test_a_zero_amplitude_row_of_a_stack_is_named(self):
        amps = state_amplitudes(np.full((4, 8), 1 / 8), np.zeros((4, 8)))
        amps[2, 5] = ZERO_MASS ** 0.5 / 2.0  # rho = ZERO_MASS / 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError,
                               match=r"^amps has a zero-amplitude component \(row 2\)$"):
                tangent_amplitudes(amps, np.zeros((4, 8)), np.ones((4, 8)))


# Recipes that compute numpy's dirichlet, uniform and normal values from raw
# generator calls, in numpy's operation order: the oracle of those calls.

def dirichlet_recipe(exponentials):
    """Each exponential times 1 / acc, acc its row's sum taken strictly left
    to right (np.sum would add pairwise)."""
    return exponentials * (1.0 / np.add.accumulate(exponentials, axis=-1)[..., -1:])


def uniform_recipe(uniforms):
    """low + (high - low) u on [low, high) = [-pi, pi)."""
    return uniforms * (math.pi - -math.pi) + -math.pi


def normal_recipe(normals):
    """loc + scale z with loc 0 and scale 0.1."""
    return normals * 0.1 + 0.0


def recipe_draws(rng, shape):
    """numpy_draws computed by the recipes from raw generator calls."""
    return (dirichlet_recipe(rng.standard_exponential(shape)),
            uniform_recipe(rng.random(shape)),
            normal_recipe(rng.standard_normal(shape)),
            normal_recipe(rng.standard_normal(shape)))


class TestNumpyRecipes:
    """numpy's dirichlet, uniform and normal give the recipes' values on the
    same raw draws to the byte, and leave the generator where the raw calls
    leave it: so the seeded samples are those the raw draws gave, and if
    numpy changes one of its algorithms, this fails instead of every seeded
    value drifting silently."""

    @pytest.mark.parametrize("seed", [0, 7, 123, 99991, 20240801])
    def test_rows_are_the_recipes_of_the_raw_draws(self, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for nbits in range(11):
            shape = (1 << nbits,)
            for value, oracle in zip(numpy_draws(ours, shape), recipe_draws(theirs, shape)):
                assert value.shape == shape
                assert value.tobytes() == oracle.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 7, 20240801])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 16), (256, 16), (232, 16), (3, 1024)])
    def test_blocks_are_the_recipes_of_the_raw_draws(self, seed, shape):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for value, oracle in zip(numpy_draws(ours, shape), recipe_draws(theirs, shape)):
            assert value.shape == shape
            assert value.tobytes() == oracle.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 7, 401])
    def test_random_samples_are_the_recipes_built(self, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for nbits in range(9):
            psi = random_state(nbits, ours)
            tangent = random_tangent(psi, ours)
            weights, phases, drho, dphi = recipe_draws(theirs, (1 << nbits,))
            assert psi.tobytes() == state_amplitudes(weights, phases).tobytes()
            assert tangent.tobytes() == tangent_amplitudes(psi, drho, dphi).tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


def numpy_call(rng, method, count, size):
    """One of metric_sample's draws: a row (N,) for count None, else a block
    (count, N)."""
    shape = size if count is None else (count, size)
    if method == "dirichlet":
        return rng.dirichlet(np.ones(size), count)
    if method == "uniform":
        return rng.uniform(-math.pi, math.pi, shape)
    return rng.normal(0.0, metrics.INCREMENT_SD, shape)


class TestChunkedDraws:
    """One (S, N) call of each draw equals S (N,) calls, to the byte: numpy
    fills an array one row after another.  metric_sample draws a block of
    samples with one call per kind; if numpy ever changes its fill, this fails
    instead of the block size silently becoming visible in seeded values."""

    @pytest.mark.parametrize("method", ["dirichlet", "uniform", "normal"])
    @pytest.mark.parametrize("seed", [0, 7, 20240801])
    def test_one_block_call_is_its_row_calls(self, method, seed):
        block, rows = np.random.default_rng(seed), np.random.default_rng(seed)
        for count, size in [(7, 16), (3, 1), (5, 1024)]:
            stacked = numpy_call(block, method, count, size)
            alone = [numpy_call(rows, method, None, size) for _ in range(count)]
            assert stacked.shape == (count, size)
            assert stacked.tobytes() == np.array(alone).tobytes()
        assert block.bit_generator.state == rows.bit_generator.state


class TestMetricSample:
    # 300 samples leave a partial last block at every block size but one state
    # per block (16 cells at 4 and 7 levels)
    @pytest.mark.parametrize("levels", [1, 4, 7])
    def test_check_values_do_not_depend_on_the_block_size(self, monkeypatch, levels):
        values = set()
        for cells in (16, criteria.METRIC_BLOCK_CELLS, 1 << 20):
            monkeypatch.setattr(criteria, "METRIC_BLOCK_CELLS", cells)
            checks, _ = criteria.metric_sample({"levels": levels, "samples": 300},
                                               np.random.default_rng(11))
            values.add(tuple(float.hex(c.value) for c in checks))
        assert len(values) == 1

    @pytest.mark.parametrize("levels,count", [(0, 5), (1, 7), (4, 256), (8, 16)])
    def test_block_deviations_are_those_of_the_public_metrics(self, levels, count):
        rng = np.random.default_rng(600 + levels)
        draws = numpy_draws(rng, (count, 1 << levels))
        amps = state_amplitudes(*draws[:2])
        damps = tangent_amplitudes(amps, *draws[2:])
        efm = extended_fisher_metric(amps, damps)
        scale = np.maximum(np.abs(efm), 1e-6)
        expected = (np.max(np.abs(efm - 4.0 * fubini_study_metric(amps, damps)) / scale),
                    np.max(np.abs(efm - extended_fisher_metric_recursive(amps, damps))
                           / scale))
        assert (np.array(criteria._metric_deviations(*draws)).tobytes()
                == np.array(expected).tobytes())

    def test_one_generator_call_per_kind_per_block(self):
        calls = []

        def counted(name):
            def draw(self, *args, **kwargs):
                calls.append(name)
                return getattr(np.random.Generator, name)(self, *args, **kwargs)
            return draw

        # spawned streams are of the parent's type, so they count too; the
        # raw calls are counted so that none of them is made beside numpy's
        names = ("dirichlet", "uniform", "normal", "standard_exponential", "random",
                 "standard_normal")
        counting = type("Counting", (np.random.Generator,),
                        {name: counted(name) for name in names})
        criteria.metric_sample({"levels": 4, "samples": 1000}, counting(np.random.PCG64(3)))
        blocks = -(-1000 // (criteria.METRIC_BLOCK_CELLS >> 4))
        assert sorted(calls) == sorted(["dirichlet", "uniform", "normal", "normal"] * blocks)


class TestMetricBlockMemory:
    # the live arrays of one block, per amplitude: the four float64 draws
    # (32 B), the complex amplitudes and tangent (32 B), the differentials
    # (32 B, since dphi is a view of a complex quotient), the recursion's
    # leaf-major copies and phase product (32 B), their pyramid levels above
    # the leaves (24 B) and the first level's temporaries; measured 199-201 B
    # at 2^12 and 2^14 cells
    BYTES_PER_AMPLITUDE = 224

    @pytest.mark.parametrize("cells", [1 << 12, criteria.METRIC_BLOCK_CELLS])
    def test_peak_is_bounded_per_amplitude_of_a_block(self, monkeypatch, cells):
        monkeypatch.setattr(criteria, "METRIC_BLOCK_CELLS", cells)
        cfg = {"levels": 4, "samples": 1000}
        # a first call makes numpy's and the spawn's one-off allocations
        criteria.metric_sample({**cfg, "samples": 1}, np.random.default_rng(7))
        tracemalloc.start()
        try:
            criteria.metric_sample(cfg, np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        amplitudes = min(cfg["samples"], cells >> cfg["levels"]) << cfg["levels"]
        assert peak <= self.BYTES_PER_AMPLITUDE * amplitudes


class TestFubiniStudy:
    def test_gauge_direction_is_null(self):
        rng = np.random.default_rng(10)
        psi = random_state(3, rng)
        assert fubini_study_metric(psi, 1j * psi * 1e-2) == \
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
            after = fubini_study_metric(u @ psi, u @ tan)
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
            assert fubini_study_distance(u @ a, u @ b) == pytest.approx(
                fubini_study_distance(a, b), abs=1e-10)

    @pytest.mark.parametrize("a,b", [
        (np.ones((2, 2)) / 2.0, np.ones((2, 2)) / 2.0),
        (np.array([0.6, 0.8]), np.ones(4) / 2.0),
        (np.array([]), np.array([])),
    ], ids=["stacks", "lengths-2-and-4", "empty"])
    def test_shapes_are_checked(self, a, b):
        with pytest.raises(DomainError,
                           match=r"psi1 must be a non-empty row|psi2 must have shape"):
            fubini_study_distance(a, b)

    # two vectors on one ray, and one twice the other: the clamp of
    # |<a|b>|**2 into [0, 1] is for rounding, not for a norm
    @pytest.mark.parametrize("a,b,norm2", [
        ([3.0, 0.0], [0.1, 0.0], "9.0"), ([2.0, 0.0], [1.0, 0.0], "4.0"),
    ], ids=["one-ray", "double"])
    def test_states_off_their_norm_are_refused(self, a, b, norm2):
        with pytest.raises(DomainError, match=f"^squared norm {norm2} is not 1$"):
            fubini_study_distance(a, b)

    def test_a_state_off_its_norm_by_rounding_is_rescaled(self):
        rng = np.random.default_rng(14)
        a, b = random_state(3, rng), random_state(3, rng)
        off = a * math.sqrt(1.0 + 1e-11)
        rescaled = probmodel._normalized(off)[0]
        assert rescaled.tobytes() != off.tobytes()
        assert fubini_study_distance(off, b) == fubini_study_distance(rescaled, b)
        assert fubini_study_distance(b, off) == fubini_study_distance(b, rescaled)


class TestExtendedMetricNormRule:
    """The extended metric equals 4x Fubini-Study only on normalized states
    (Wootters 1981), so both forms take the state through the norm rule and
    divide the tangent by the same factor."""

    METRICS = [extended_fisher_metric, extended_fisher_metric_recursive]

    @staticmethod
    def pair():
        psi = random_state(3, np.random.default_rng(0))
        return psi, random_tangent(psi, np.random.default_rng(1))

    @pytest.mark.parametrize("metric", METRICS, ids=lambda f: f.__name__)
    def test_a_state_off_norm_is_refused(self, metric):
        psi, d = self.pair()
        with pytest.raises(DomainError, match=r"^squared norm 4\.0.* is not 1$"):
            metric(2.0 * psi, 2.0 * d)
        with pytest.raises(DomainError, match=r"is not 1 \(row 1\)$"):
            metric(np.array([psi, psi * 1.000001, psi]), np.array([d, d, d]))

    @pytest.mark.parametrize("metric", METRICS, ids=lambda f: f.__name__)
    def test_a_state_off_norm_by_rounding_is_rescaled_with_its_tangent(self, metric):
        psi, d = self.pair()
        scale = 1.0 + 1e-10
        assert metric(scale * psi, scale * d) == pytest.approx(
            4.0 * fubini_study_metric(psi, d), rel=1e-13, abs=0.0)


class TestTangent:
    @pytest.mark.parametrize("radial,accepted", [(1e-9, True), (1e-8, False)])
    def test_norm_preservation_is_what_the_metric_accepts(self, radial, accepted):
        # |sum drho| = 2 * radial against TANGENT_TOL = 1e-8 on both sides
        psi = np.array([0.6, 0.8])
        tan = 0.01j * np.ones(2) + radial * psi
        if accepted:
            assert extended_fisher_metric(psi, tan) > 0.0
        else:
            with pytest.raises(DomainError, match="preserve the norm"):
                extended_fisher_metric(psi, tan)

    def test_a_stack_preserves_the_norm_row_by_row(self):
        # the rows drift by +-2e-3: their sum cancels, but each row breaks it
        amps = np.array([[0.6, 0.8], [0.8, 0.6]], dtype=complex)
        damps = 0.01j * np.ones((2, 2)) + np.array([[1e-3], [-1e-3]]) * amps
        with pytest.raises(DomainError, match="row 0"):
            extended_fisher_metric(amps, damps)

    def test_normalized_removes_small_drift(self):
        amps = np.ones(4, dtype=complex) / 2.0 * (1 + 1e-11)
        out = probmodel._normalized(amps)[0]
        assert float(np.vdot(out, out).real) == pytest.approx(1.0, abs=1e-14)

    def test_normalized_rejects_large_drift(self):
        with pytest.raises(DomainError):
            probmodel._normalized(np.ones(4, dtype=complex))

    # a NaN squared norm fails every comparison with a tolerance, so the
    # rule is written as "not within RENORM_TOL"
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.5)],
                             ids=["nan", "inf", "nan-real"])
    def test_normalized_rejects_a_non_finite_row_by_number(self, bad):
        amps = np.full((3, 4), 0.5, dtype=complex)
        amps[1, 2] = bad
        with pytest.raises(DomainError,
                           match=r"squared norm (nan|inf) is not 1 \(row 1\)"):
            probmodel._normalized(amps)
        with pytest.raises(DomainError, match=r"^squared norm (nan|inf) is not 1$"):
            probmodel._normalized(amps[1])


class TestNonFiniteMetricInputs:
    """A NaN or infinite entry is refused, before any divide, from the
    per-row sums each metric computes anyway, and a stack names its row."""

    @pytest.mark.parametrize("psi,d", [
        ([np.nan, 0.8], [0.1, 0.1j]), ([0.6, 0.8], [np.inf, 0.1j]),
        ([np.inf, 0.8], [0.1, 0.1j]), ([0.6, 0.8], [0.1, np.nan]),
    ], ids=["nan-state", "inf-tangent", "inf-state", "nan-tangent"])
    @pytest.mark.parametrize("metric", [extended_fisher_metric,
                                        extended_fisher_metric_recursive,
                                        amplitude_phase_differentials],
                             ids=lambda f: f.__name__)
    def test_extended_metric_refuses_without_warnings(self, metric, psi, d):
        # the metrics take the state through the norm rule first
        state_refused = metric is not amplitude_phase_differentials and not all(
            map(np.isfinite, psi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match=r"^squared norm (nan|inf) is not 1$" if state_refused
                               else r"^drho = 2 Re\(conj\(psi\) dpsi\) is not finite$"):
                metric(np.array(psi, dtype=complex), np.array(d, dtype=complex))

    def test_a_non_finite_row_of_a_stack_is_named(self):
        amps = np.array([[0.6, 0.8], [0.8, 0.6], [0.6, 0.8]], dtype=complex)
        damps = 0.01j * amps
        damps[2, 0] = np.nan
        with pytest.raises(DomainError, match=r"is not finite \(row 2\)"):
            extended_fisher_metric(amps, damps)
        with pytest.raises(DomainError, match=r"tangent is not finite \(row 2\)"):
            fubini_study_metric(amps, damps)

    @pytest.mark.parametrize("psi,d,match", [
        ([np.nan, 0.8], [0.1, 0.1j], "squared norm of the state"),
        ([np.inf, 0.8], [0.1, 0.1j], "squared norm of the state"),
        ([0.6, 0.8], [np.inf, 0.1j], "squared length of the tangent"),
        ([0.6, 0.8], [np.nan, 0.1j], "squared length of the tangent"),
    ], ids=["nan-state", "inf-state", "inf-tangent", "nan-tangent"])
    def test_fubini_study_metric_refuses(self, psi, d, match):
        with pytest.raises(DomainError, match=f"^{match} is not finite$"):
            fubini_study_metric(psi, d)

    @pytest.mark.parametrize("a,b", [
        ([np.nan, 1.0], [1.0, 0.0]), ([1.0, 0.0], [0.0, np.inf]),
        ([np.inf, 0.0], [1.0, 0.0]),
    ], ids=["nan-first", "inf-second", "inf-first"])
    def test_fubini_study_distance_refuses(self, a, b):
        with pytest.raises(DomainError, match="^squared norm (nan|inf) is not 1$"):
            fubini_study_distance(a, b)

    # a finite entry whose square overflows: the norm rule refuses its inf
    # squared norm, with no overflow warning first (an error under -W error)
    def test_extended_metric_refuses_an_overflowing_norm(self):
        with pytest.raises(DomainError, match="^squared norm inf is not 1$"):
            extended_fisher_metric([1e200, 0.5], [0.1, 0.1j])

    def test_fubini_study_distance_refuses_an_overflowing_norm(self):
        with pytest.raises(DomainError, match="^squared norm inf is not 1$"):
            fubini_study_distance([1e200, 0.5], [1.0, 0.0])
