import math

import numpy as np
import pytest

from qrecon import criteria
from qrecon.bloch import (BlochPoint, ExtendedCoords, bloch_from_extended,
                          chart_tangent_metric, extended_from_bloch,
                          metric_in_coords, pauli_expectations,
                          psi_from_bloch, rebit_conjugate, shift_rotation_2,
                          transformed_phase_jacobian)
from qrecon.butterfly import transform_columns
from qrecon.criteria import CHART_TOL
from qrecon.exceptions import DomainError, SingularityError
from qrecon.probmodel import s_variable


def random_point(rng, pole_margin=0.0):
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if np.max(np.abs(v)) <= 1.0 - pole_margin:
            return BlochPoint(*v)


def one_point(point, velocity, axis):
    """chart_tangent_metric on a one-row stack: the value at one BlochPoint."""
    return float(chart_tangent_metric(point.as_array()[None],
                                      np.asarray(velocity, dtype=float)[None],
                                      axis)[0])


class TestRebitConjugate:
    def test_cardinal_points(self):
        assert rebit_conjugate(0.0) == pytest.approx(math.pi / 2)
        assert rebit_conjugate(math.pi / 2) == pytest.approx(0.0)

    def test_circle_identity(self):
        rng = np.random.default_rng(0)
        for theta_q in rng.uniform(0, math.pi, 100):
            theta_p = rebit_conjugate(theta_q)
            assert math.cos(theta_q) ** 2 + math.cos(theta_p) ** 2 == \
                pytest.approx(1.0, abs=1e-12)

    def test_extends_below_zero(self):
        assert rebit_conjugate(3.0) < 0.0  # extended chart, probabilities even


class TestBlochCharts:
    def test_polar_point_of_r_chart(self):
        pt = bloch_from_extended(ExtendedCoords("r", 0.0, 0.0))
        assert (pt.sr, pt.sq, pt.sp) == (1.0, 0.0, 0.0)

    def test_equator_of_r_chart_points_at_q(self):
        pt = bloch_from_extended(ExtendedCoords("r", math.pi / 2, 0.0))
        assert pt.sq == pytest.approx(1.0)
        assert pt.sp == pytest.approx(0.0, abs=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            coords = ExtendedCoords(
                rng.choice(["q", "p", "r"]),
                rng.uniform(0, math.pi),
                rng.uniform(-math.pi, math.pi),
            )
            assert bloch_from_extended(coords).norm2() == pytest.approx(
                1.0, abs=1e-12)

    def test_pole_reports_alpha_undefined(self):
        coords = extended_from_bloch("r", BlochPoint(0.0, 0.0, 1.0))
        assert coords.theta == 0.0
        assert coords.alpha is None

    def test_inverse_at_equator(self):
        coords = extended_from_bloch("r", BlochPoint(1.0, 0.0, 0.0))
        assert coords.theta == pytest.approx(math.pi / 2)
        assert coords.alpha == pytest.approx(0.0)

    def test_atan2_minus_pi_is_alpha_pi(self):
        # atan2(-0.0, -1.0) is -pi, outside the azimuth range (-pi, pi]
        assert extended_from_bloch("q", BlochPoint(0.0, -1.0, -0.0)).alpha == math.pi

    @pytest.mark.parametrize("axis", [None, -1, 1.5, True, math.nan, 10**30, "x"])
    def test_unknown_axis_raises_domain_error(self, axis):
        with pytest.raises(DomainError):
            extended_from_bloch(axis, BlochPoint(1.0, 0.0, 0.0))

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pt = random_point(rng, pole_margin=1e-6)
            for axis in "qpr":
                back = bloch_from_extended(extended_from_bloch(axis, pt))
                assert np.allclose(back.as_array(), pt.as_array(), atol=1e-12)


class TestPsiFromBloch:
    def test_q_determined(self):
        psi = psi_from_bloch(BlochPoint(1.0, 0.0, 0.0))
        assert np.allclose(psi, [1.0, 0.0], atol=1e-15)

    def test_q_outcome_0_has_probability_one_plus_s_over_two(self):
        # the state's q labels follow outcome_probabilities and s_variable,
        # the convention of every other binary outcome
        rng = np.random.default_rng(13)
        for _ in range(200):
            pt = random_point(rng)
            psi = psi_from_bloch(pt)
            rho = np.abs(psi) ** 2
            assert np.allclose(rho, pt.outcome_probabilities("q"), atol=1e-12)
            assert s_variable(rho) == pytest.approx(
                pauli_expectations(psi).sq, abs=1e-12)

    def test_p_determined(self):
        psi = psi_from_bloch(BlochPoint(0.0, 1.0, 0.0))
        assert np.allclose(psi, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-15)

    def test_expectations_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pt = random_point(rng)
            back = pauli_expectations(psi_from_bloch(pt))
            assert np.allclose(back.as_array(), pt.as_array(), atol=1e-12)

    def test_gauge_fixed_first_phase(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            psi = psi_from_bloch(random_point(rng, pole_margin=1e-3))
            assert psi[0].imag == 0.0
            assert psi[0].real >= 0.0


# the q -> p change of basis is the one-stage ladder, transform_columns(psi, 1)
class TestHadamard:
    def test_matrix_action(self):
        out = transform_columns(np.array([1.0, 0.0]), 1)
        assert np.allclose(out, np.array([1.0, 1.0]) / math.sqrt(2))

    def test_self_inverse(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        assert np.allclose(transform_columns(transform_columns(psi, 1), 1), psi,
                           atol=1e-15)

    def test_output_moduli_are_p_probabilities(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            pt = random_point(rng)
            out = transform_columns(psi_from_bloch(pt), 1)
            rho_p = np.abs(out) ** 2
            assert rho_p[0] == pytest.approx((1 + pt.sp) / 2, abs=1e-12)
            assert rho_p[1] == pytest.approx((1 - pt.sp) / 2, abs=1e-12)

    def test_unitary(self):
        rng = np.random.default_rng(7)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.linalg.norm(transform_columns(psi, 1)) == pytest.approx(
            np.linalg.norm(psi), abs=1e-14)


class TestMetricInCoords:
    def test_equator_azimuth(self):
        assert metric_in_coords(math.pi / 2, 0.0, 1.0) == pytest.approx(1.0)

    def test_pole_azimuth_degenerates(self):
        assert metric_in_coords(0.0, 0.0, 5.0) == 0.0

    def test_chart_agreement_interior(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            pt = random_point(rng, pole_margin=0.1)
            tangent = rng.normal(size=3)
            for scale in (1.0, 1e-3):  # a short tangent must not lose digits
                values = [one_point(pt, scale * tangent, axis) for axis in "qpr"]
                assert max(values) - min(values) < 1e-10 * max(values)

    def test_chart_value_is_the_sphere_metric(self):
        rng = np.random.default_rng(9)
        pt = random_point(rng, pole_margin=0.1)
        tangent = rng.normal(size=3)
        projected = tangent - np.dot(tangent, pt.as_array()) * pt.as_array()
        expected = float(np.dot(projected, projected))
        assert one_point(pt, tangent, "q") == pytest.approx(
            expected, rel=1e-9)


# each chart's (mu, nu, xi) components of a stack row (sq, sp, sr)
CHART_TRIPLETS = {"q": (0, 1, 2), "r": (2, 0, 1), "p": (1, 2, 0)}


def chart_tangent_metric_oracle(points, velocities, axis, step=2e-4):
    """The chain rule by finite differences, over a (P, 3) stack: follow the
    great circle through each point along its projected tangent at unit
    speed, differentiate the chart angles by Richardson-extrapolated central
    differences, and scale the metric dtheta^2 + sin^2(theta) dalpha^2 by
    speed**2.  chart_tangent_metric's closed form must agree with it to
    CHART_TOL."""
    p = np.asarray(points, dtype=float)
    v = np.asarray(velocities, dtype=float)
    v = v - np.sum(v * p, axis=1, keepdims=True) * p
    speed = np.linalg.norm(v, axis=1)
    if (speed < 1e-15).any():
        raise DomainError("zero tangent")
    direction = v / speed[:, None]
    mu, nu, xi = CHART_TRIPLETS[axis]

    def chart_at(t):
        c = math.cos(t) * p + math.sin(t) * direction
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        theta = np.arccos(np.clip(c[:, mu], -1.0, 1.0))
        if (np.sin(theta) < 1e-12).any():
            raise SingularityError("tangent curve crosses a chart pole")
        alpha = np.arctan2(c[:, xi], c[:, nu])
        alpha[alpha <= -math.pi] = math.pi
        return theta, np.exp(1j * alpha)

    def derivatives(h):
        t_plus, a_plus = chart_at(h)
        t_minus, a_minus = chart_at(-h)
        return ((t_plus - t_minus) / (2.0 * h),
                np.angle(a_plus / a_minus) / (2.0 * h))

    theta0, _ = chart_at(0.0)
    coarse = derivatives(step)
    fine = derivatives(step / 2.0)
    dtheta = (4.0 * fine[0] - coarse[0]) / 3.0
    dalpha = (4.0 * fine[1] - coarse[1]) / 3.0
    return (dtheta**2 + np.sin(theta0) ** 2 * dalpha**2) * speed**2


class TestChartTangentMetricOracle:
    def test_agrees_with_the_oracle_within_chart_tol(self):
        rng = np.random.default_rng(2024)
        scales = (1.0, 1e-3, 1e-6, 1e-9)  # short tangents included
        points, tangents = [], []
        for k in range(20_000):
            points.append(random_point(rng, pole_margin=0.01).as_array())
            tangents.append(scales[k % len(scales)] * rng.normal(size=3))
        points, tangents = np.array(points), np.array(tangents)
        for axis in "qpr":
            closed = chart_tangent_metric(points, tangents, axis)
            oracle = chart_tangent_metric_oracle(points, tangents, axis)
            assert (np.abs(closed - oracle) <= CHART_TOL * oracle).all()

    def test_guards_match_the_oracle(self):
        pole = np.array([[0.0, 0.0, 1.0]])  # a one-row stack
        for metric in (chart_tangent_metric, chart_tangent_metric_oracle):
            with pytest.raises(DomainError):
                metric(pole, np.array([[0.0, 0.0, 2.0]]), "q")  # radial only
            with pytest.raises(SingularityError):
                metric(pole, np.array([[1.0, 0.0, 0.0]]), "r")


ON_SPHERE = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8], [0.8, 0.0, 0.6]])


class TestChartTangentMetricStack:
    @pytest.mark.parametrize("axis", "qpr")
    def test_a_stack_is_the_per_point_calls_byte_for_byte(self, axis):
        # each one-row stack gives its row of the full stack
        rng = np.random.default_rng(31)
        points = [random_point(rng, pole_margin=0.01) for _ in range(500)]
        tangents = rng.normal(size=(500, 3))
        stacked = chart_tangent_metric(np.array([pt.as_array() for pt in points]),
                                       tangents, axis)
        single = np.array([one_point(pt, tangent, axis)
                           for pt, tangent in zip(points, tangents)])
        assert stacked.shape == (500,)
        assert stacked.tobytes() == single.tobytes()

    def test_an_empty_stack_gives_an_empty_array(self):
        assert chart_tangent_metric(np.empty((0, 3)), np.empty((0, 3)), "q").shape == (0,)

    @pytest.mark.parametrize("point,velocity,axis,exc,match", [
        (ON_SPHERE[:1], [[0.0, 0.0, 1.0]], "x", DomainError, "axis"),
        (ON_SPHERE[:1], [[0.0, 1.0]], "q", DomainError, "one shape"),
        (ON_SPHERE[:1], [[np.nan, 0.0, 1.0]], "q", DomainError, "non-finite"),
        (ON_SPHERE[:1], "abc", "q", DomainError, "reals"),
        (ON_SPHERE[:1], [[0.0, 0.0, 1j]], "q", DomainError, "reals"),
        ((0.6, 0.8, 0.0), [0.0, 0.0, 1.0], "q", DomainError, r"\(P, 3\) stacks"),
        (BlochPoint(0.6, 0.8, 0.0), [0.0, 0.0, 1.0], "q", DomainError, "reals"),
        (ON_SPHERE, np.ones((2, 3)), "q", DomainError, "one shape"),
        (ON_SPHERE[0], np.ones(3), "q", DomainError, "one shape"),
        (ON_SPHERE * [[1.0], [1.1], [1.0]], np.ones((3, 3)), "q", DomainError,
         r"\|S\|\^2 1\.21.* is not 1 \(row 1\)"),
        (ON_SPHERE * [[1.0], [1.0], [np.nan]], np.ones((3, 3)), "q", DomainError,
         r"\|S\|\^2 nan is not 1 \(row 2\)"),
        (ON_SPHERE, [[1.0, 0, 0], [1.0, 0, np.inf], [1.0, 0, 0]], "q", DomainError,
         r"velocity has a non-finite entry \(row 1\)"),
        (ON_SPHERE, [[0, 0, 1.0], ON_SPHERE[1], [0, 0, 1.0]], "q", DomainError,
         r"zero tangent \(row 1\)"),
        (np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]), np.ones((2, 3)), "r",
         SingularityError, r"chart pole \(row 1\)"),
    ], ids=["axis", "short-velocity", "nan-velocity", "text-velocity",
            "complex-velocity", "tuple-point", "bloch-point",
            "stack-shapes", "flat-point-array", "off-sphere-row", "nan-row",
            "inf-velocity-row", "zero-tangent-row", "pole-row"])
    def test_bad_input_is_rejected(self, point, velocity, axis, exc, match):
        with pytest.raises(exc, match=match):
            chart_tangent_metric(point, velocity, axis)


class TestChartSweep:
    @pytest.mark.parametrize("chart_points", [1, 1_000])
    def test_one_call_per_axis(self, monkeypatch, chart_points):
        calls = []

        def counted(point, velocity, axis):
            calls.append(axis)
            return chart_tangent_metric(point, velocity, axis)

        monkeypatch.setattr(criteria, "chart_tangent_metric", counted)
        checks, _ = criteria.chart_sweep({"chart_points": chart_points, "seed": 5})
        assert calls == ["q", "p", "r"]
        assert checks[0].passed

    def test_a_short_draw_is_the_prefix_of_a_long_one(self):
        # the pole rule drops a candidate among the first 50 of seed 9's
        # point stream (child 4), so the 50-point draw takes a second batch
        # where the 200-point one is still in its first
        seq = np.random.SeedSequence(9, spawn_key=(4,))
        raw = np.random.Generator(np.random.PCG64(seq)).standard_normal((50, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        assert (np.abs(raw).max(axis=1) > 0.99).any()
        short = criteria._chart_draw({"chart_points": 50, "seed": 9})
        long = criteria._chart_draw({"chart_points": 200, "seed": 9})
        for part, whole in zip(short, long):
            assert part.tobytes() == whole[:50].tobytes()
        points, tangents = long
        assert points.shape == tangents.shape == (200, 3)
        norms = np.linalg.norm(points, axis=1)
        assert np.abs(norms - 1.0).max() <= 4 * np.finfo(float).eps
        assert np.abs(points).max() <= 0.99


class TestShiftRotation:
    def test_p_shift_leaves_q_probabilities(self):
        out = shift_rotation_2(np.array([1.0, 0.0]), "p")
        assert np.allclose(out, [1.0, 0.0])

    def test_p_shift_swaps_p_outcomes(self):
        rng = np.random.default_rng(10)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        before = pauli_expectations(psi)
        after = pauli_expectations(shift_rotation_2(psi, "p"))
        assert after.sp == pytest.approx(-before.sp, abs=1e-12)
        assert after.sq == pytest.approx(before.sq, abs=1e-12)

    @pytest.mark.parametrize("axis", ["r", np.ones((2, 2)), None])
    def test_an_unknown_axis_is_refused(self, axis):
        with pytest.raises(DomainError):
            shift_rotation_2(np.array([1.0, 0.0]), axis)

    def test_q_shift_is_component_swap(self):
        out = shift_rotation_2(np.array([0.2 + 0.1j, 0.9]), "q")
        assert np.allclose(out, [0.9, 0.2 + 0.1j])

    def test_conjugation_identity(self):
        # H diag(1,-1) H equals the swap matrix
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(h @ np.diag([1, -1]) @ h, [[0, 1], [1, 0]], atol=1e-15)


class TestTransformedPhaseJacobian:
    def test_concentrated_state(self):
        jac = transformed_phase_jacobian(np.array([1.0, 0.0]))
        assert np.allclose(jac, [[1.0, 0.0], [1.0, 0.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        step = 1e-7
        for _ in range(50):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            if min(abs(psi[0] + psi[1]), abs(psi[0] - psi[1])) < 0.2:
                continue
            jac = transformed_phase_jacobian(psi)
            for j in (0, 1):
                bumped = psi.copy()
                bumped[j] *= np.exp(1j * step)
                lowered = psi.copy()
                lowered[j] *= np.exp(-1j * step)
                for k in (0, 1):
                    up = np.angle(transform_columns(bumped, 1)[k])
                    dn = np.angle(transform_columns(lowered, 1)[k])
                    fd = (up - dn) / (2 * step)
                    assert jac[k, j] == pytest.approx(fd, abs=1e-6)

    def test_weighted_phase_mean_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            if min(abs(psi[0] + psi[1]), abs(psi[0] - psi[1])) < 1e-3:
                continue
            jac = transformed_phase_jacobian(psi)
            rho = np.abs(psi) ** 2
            rho_out = np.abs(transform_columns(psi, 1)) ** 2
            for dphi in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                         rng.normal(size=2)):
                dphi_out = jac @ dphi
                assert float(rho_out @ dphi_out) == pytest.approx(
                    float(rho @ dphi), abs=1e-12)

    def test_degenerate_image_raises(self):
        psi = np.array([1.0, 1.0]) / math.sqrt(2)
        with pytest.raises(SingularityError):
            transformed_phase_jacobian(psi)
        psi = np.array([1.0, -1.0]) / math.sqrt(2)
        with pytest.raises(SingularityError):
            transformed_phase_jacobian(psi)


class TestValidation:
    def test_off_sphere_rejected(self):
        with pytest.raises(DomainError):
            BlochPoint(1.0, 1.0, 0.0)

    # the norm rule of exceptions.check_unit_sums; a square past the float
    # range is an infinite |S|^2, not an OverflowError
    @pytest.mark.parametrize("components,norm2", [
        ((1.0, 1.0, 0.0), "2.0"), ((0.0, 1e200, 0.0), "inf"),
    ], ids=["off-sphere", "huge"])
    def test_off_sphere_point_names_its_norm(self, components, norm2):
        with pytest.raises(DomainError, match=rf"^\|S\|\^2 {norm2} is not 1$"):
            BlochPoint(*components)

    def test_nan_component_rejected(self):
        with pytest.raises(DomainError):
            BlochPoint(np.nan, 0.0, 0.0)

    def test_bad_axis_rejected(self):
        with pytest.raises(DomainError):
            ExtendedCoords("x", 0.5, 0.0)

    @pytest.mark.parametrize("make", [
        lambda: BlochPoint("x", 0.0, 0.0),
        lambda: BlochPoint(np.ones((2, 2)), 0.0, 0.0),
        lambda: BlochPoint(0.0, None, 1.0),
        lambda: BlochPoint(1e200, 0.0, 0.0),  # its square overflows a float
        lambda: ExtendedCoords("q", "x", 0.1),
        lambda: ExtendedCoords("q", 0.5, np.ones(2)),
        lambda: BlochPoint(True, 0.0, 0.0),
        lambda: BlochPoint(np.True_, 0.0, 0.0),
        lambda: ExtendedCoords("q", True, None),
        lambda: ExtendedCoords("q", np.True_, None),
    ], ids=["text", "matrix", "none", "huge", "text-theta", "vector-alpha",
            "true", "np-true", "true-theta", "np-true-theta"])
    def test_a_field_must_be_a_real_number(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("make,match", [
        (lambda: ExtendedCoords("q", 4.0, 0.0), r"theta outside \[0, pi\]"),
        (lambda: ExtendedCoords("q", 1.0, 4.0), r"alpha outside \(-pi, pi\]"),
        (lambda: pauli_expectations([1, 0, 0]), "two-component state expected"),
    ], ids=["theta", "alpha", "three-components"])
    def test_a_value_out_of_range_is_refused(self, make, match):
        with pytest.raises(DomainError, match=match):
            make()

    @pytest.mark.parametrize("name", ["x", 5, None, ["q"]])
    @pytest.mark.parametrize("call", [
        lambda a: BlochPoint(0.6, 0.8, 0.0).component(a),
        lambda a: BlochPoint(0.6, 0.8, 0.0).theta_of(a),
        lambda a: BlochPoint(0.6, 0.8, 0.0).outcome_probabilities(a),
        lambda a: ExtendedCoords(a, 0.5, 0.0),
        lambda a: extended_from_bloch(a, BlochPoint(0.6, 0.8, 0.0)),
        lambda a: chart_tangent_metric([[0.6, 0.8, 0.0]], [[0.0, 0.0, 1.0]], a),
        lambda a: shift_rotation_2(np.array([1.0, 0.0]), a),
    ], ids=["component", "theta_of", "outcome_probabilities", "ExtendedCoords",
            "extended_from_bloch", "chart_tangent_metric", "shift_rotation_2"])
    def test_an_unknown_observable_is_refused(self, call, name):
        with pytest.raises(DomainError, match="unknown axis"):
            call(name)

    def test_fields_are_stored_as_floats(self):
        pt = BlochPoint(np.float64(0.6), 0.8, 0)
        assert [type(v) for v in (pt.sq, pt.sp, pt.sr)] == [float] * 3
        assert (pt.sq, pt.sp, pt.sr) == (0.6, 0.8, 0.0)

    def test_outcome_probabilities(self):
        pt = BlochPoint(0.6, 0.8, 0.0)
        assert pt.outcome_probabilities("q") == (0.8, pytest.approx(0.2))
