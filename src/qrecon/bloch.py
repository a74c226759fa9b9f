"""Reconstructed one-bit systems: the rebit circle, the Bloch sphere with its
three observable-adapted charts, the two-dimensional complex representation,
and the Hadamard change of basis between the q and p descriptions.

Conventions pinned here (the chart freedom alpha -> pi/2 - alpha makes them
author-relative; this module fixes one and offers no other):

* expectations: sQ = |psi_1|^2 - |psi_0|^2, sP = 2 Re(conj(psi_0) psi_1),
  sR = 2 Im(conj(psi_0) psi_1);
* charts rotate the observable triplet: axis q spans (q, p, r), axis r spans
  (r, q, p), axis p spans (p, r, q); the polar angle sits on the axis,
  S_axis = cos(theta), and alpha sweeps the remaining pair (cos, sin);
* the global phase is gauge-fixed to phi_0 = 0 whenever a state vector is
  constructed from chart or sphere data.

`extended_from_bloch` and `chart_tangent_metric` read a point's chart
angles through one map (`_chart_angles`).  The chart sweep of
`metric-check` stays scalar, one point and axis per call: vector cos/arccos
need not match `math` bit for bit.  Each call works on plain floats and
three-vectors and builds no BlochPoint or ExtendedCoords on its curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, SingularityError
from .probmodel import RENORM_TOL, ThetaAngle

POLE_TOL = 1e-12

# axis -> (mu, nu, xi): S_mu = cos t, S_nu = sin t cos a, S_xi = sin t sin a
CHART_TRIPLETS = {"q": ("q", "p", "r"), "r": ("r", "q", "p"), "p": ("p", "r", "q")}

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _check_on_sphere(norm2: float) -> None:
    if abs(norm2 - 1.0) > RENORM_TOL:
        raise DomainError(f"off-sphere point, |S|^2 = {norm2}")


def _chart_angles(mu: float, nu: float, xi: float) -> tuple[float, float | None]:
    """(theta, alpha) of the sphere point whose components along the chart
    triplet (mu, nu, xi) are given; alpha is None at a pole of the chart."""
    theta = math.acos(min(max(mu, -1.0), 1.0))
    if math.sin(theta) < POLE_TOL:
        return theta, None
    alpha = math.atan2(xi, nu)
    if alpha <= -math.pi:
        alpha = math.pi
    return theta, alpha


@dataclass(frozen=True)
class BlochPoint:
    """Point (sQ, sP, sR) on the unit sphere of S-variables."""

    sq: float
    sp: float
    sr: float

    def __post_init__(self):
        _check_on_sphere(self.norm2())

    def norm2(self) -> float:
        return self.sq**2 + self.sp**2 + self.sr**2

    def component(self, name: str) -> float:
        return {"q": self.sq, "p": self.sp, "r": self.sr}[name]

    def as_array(self) -> np.ndarray:
        return np.array([self.sq, self.sp, self.sr])

    @classmethod
    def from_components(cls, values: dict[str, float]) -> "BlochPoint":
        return cls(values["q"], values["p"], values["r"])

    def theta_of(self, observable: str) -> float:
        """Polar parameter of one observable, arccos(S)."""
        return math.acos(min(max(self.component(observable), -1.0), 1.0))

    def outcome_probabilities(self, observable: str) -> tuple[float, float]:
        """(rho(0), rho(1)) of one observable, ((1+S)/2, (1-S)/2)."""
        s = self.component(observable)
        return (1.0 + s) / 2.0, (1.0 - s) / 2.0


@dataclass(frozen=True)
class ExtendedCoords:
    """Chart (theta, alpha) adapted to one observable axis.

    alpha is None exactly at the chart poles theta in {0, pi}, where the
    azimuth is undefined.
    """

    axis: str
    theta: float
    alpha: float | None

    def __post_init__(self):
        if self.axis not in CHART_TRIPLETS:
            raise DomainError(f"unknown axis {self.axis!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError("theta outside [0, pi]")
        if self.alpha is not None and not -math.pi < self.alpha <= math.pi + 1e-15:
            raise DomainError("alpha outside (-pi, pi]")


def rebit_conjugate(theta_q: ThetaAngle | float) -> float:
    """theta_p = pi/2 - theta_q on the rebit circle.

    The value can leave [0, pi]; the rebit chart extends to negative angles,
    and probabilities only see cos^2/sin^2 (even in theta).
    """
    t = theta_q.value if isinstance(theta_q, ThetaAngle) else float(theta_q)
    return math.pi / 2.0 - t


def bloch_from_extended(coords: ExtendedCoords) -> BlochPoint:
    """Map chart coordinates to the sphere: S_mu = cos t, S_nu = sin t cos a,
    S_xi = sin t sin a for the axis triplet (mu, nu, xi)."""
    mu, nu, xi = CHART_TRIPLETS[coords.axis]
    alpha = 0.0 if coords.alpha is None else coords.alpha
    values = {
        mu: math.cos(coords.theta),
        nu: math.sin(coords.theta) * math.cos(alpha),
        xi: math.sin(coords.theta) * math.sin(alpha),
    }
    return BlochPoint.from_components(values)


def extended_from_bloch(axis: str, point: BlochPoint) -> ExtendedCoords:
    """Invert bloch_from_extended; at a pole of the chart alpha is None."""
    return ExtendedCoords(axis, *_chart_angles(
        *(point.component(name) for name in CHART_TRIPLETS[axis])))


def psi_from_bloch(point: BlochPoint) -> np.ndarray:
    """Two-component state vector in the q description, phi_0 = 0 gauge.

    Solves sQ = |psi_1|^2 - |psi_0|^2 and the transverse expectations:
    psi = (sin(t/2), cos(t/2) e^{i a}) with t = arccos(sQ), a = atan2(sR, sP).
    """
    theta = math.acos(min(max(point.sq, -1.0), 1.0))
    transverse = math.hypot(point.sp, point.sr)
    alpha = math.atan2(point.sr, point.sp) if transverse > POLE_TOL else 0.0
    return np.array([math.sin(theta / 2.0),
                     math.cos(theta / 2.0) * np.exp(1j * alpha)])


def pauli_expectations(psi: np.ndarray) -> BlochPoint:
    """(sQ, sP, sR) of a two-component state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise DomainError("two-component state expected")
    cross = complex(np.conj(psi[0]) * psi[1])
    return BlochPoint(
        sq=float(abs(psi[1]) ** 2 - abs(psi[0]) ** 2),
        sp=2.0 * cross.real,
        sr=2.0 * cross.imag,
    )


def hadamard_transform(psi: np.ndarray) -> np.ndarray:
    """Basis change q -> p; the output moduli squared are the p-outcome
    probabilities ((1+sP)/2, (1-sP)/2) of the same Bloch point."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise DomainError("two-component state expected")
    return HADAMARD @ psi


def metric_in_coords(theta: float, dtheta: float, dalpha: float) -> float:
    """Chart form of the extended metric, dtheta^2 + sin^2(theta) dalpha^2."""
    return dtheta**2 + math.sin(theta) ** 2 * dalpha**2


def shift_rotation_2(psi: np.ndarray, axis: str) -> np.ndarray:
    """One-step shift of a two-value observable: axis 'q' swaps the
    components, axis 'p' applies diag(1, -1) (swaps the p outcomes while
    leaving the q probabilities untouched)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise DomainError("two-component state expected")
    if axis == "q":
        return psi[::-1].copy()
    if axis == "p":
        return np.array([psi[0], -psi[1]])
    raise DomainError(f"unknown axis {axis!r}")


def transformed_phase_jacobian(psi: np.ndarray) -> np.ndarray:
    """Jacobian d phi'_k / d phi_j of the Hadamard-transformed phases.

    Row k, column j holds (-1)^(j*k) Im(i conj(psi_0 + (-1)^k psi_1) psi_j)
    / |psi_0 + (-1)^k psi_1|^2: the sign tracks how psi_j enters the image
    component k, so it flips only for the (k=1, j=1) entry.  The weighted
    phase mean rho_0 dphi_0 + rho_1 dphi_1 is invariant under this map.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise DomainError("two-component state expected")
    jac = np.empty((2, 2))
    for k in (0, 1):
        image = psi[0] + (-1) ** k * psi[1]
        weight = abs(image) ** 2
        if weight < 1e-24:
            raise SingularityError("degenerate image component under Hadamard")
        for j in (0, 1):
            jac[k, j] = (-1) ** (j * k) * (1j * np.conj(image) * psi[j]).imag / weight
    return jac


def chart_tangent_metric(point: BlochPoint, velocity: np.ndarray, axis: str) -> float:
    """Chart value of the metric for a sphere tangent, by numeric chain rule.

    Follows the great circle through `point` with initial velocity
    `velocity` (projected onto the tangent plane), differentiates the chart
    functions theta(t), alpha(t) at t = 0 by Richardson-extrapolated central
    differences, and evaluates dtheta^2 + sin^2(theta) dalpha^2.  Every
    chart must return the same number for the same tangent.

    The curve is differentiated at unit speed and the metric, being
    quadratic in the tangent, is scaled by speed**2 afterwards; a short
    tangent would otherwise move the curve so little over the difference
    step that rounding error dominates.
    """
    p = point.as_array()
    v = np.asarray(velocity, dtype=float)
    v = v - np.dot(v, p) * p
    speed = math.sqrt(v.dot(v))  # np.linalg.norm of a real vector
    if speed < 1e-15:
        raise DomainError("zero tangent")
    direction = v / speed
    # positions of the chart triplet (mu, nu, xi) in (sQ, sP, sR)
    order = ["qpr".index(name) for name in CHART_TRIPLETS[axis]]

    def chart_at(t: float) -> tuple[float, complex]:
        c = math.cos(t) * p + math.sin(t) * direction
        s = (c / math.sqrt(c.dot(c))).tolist()
        _check_on_sphere(s[0] ** 2 + s[1] ** 2 + s[2] ** 2)
        theta, alpha = _chart_angles(*(s[i] for i in order))
        if alpha is None:
            raise SingularityError("tangent curve crosses a chart pole")
        return theta, np.exp(1j * alpha)

    def derivatives(h: float) -> tuple[float, float]:
        t_plus, a_plus = chart_at(h)
        t_minus, a_minus = chart_at(-h)
        dtheta = (t_plus - t_minus) / (2.0 * h)
        # phase difference through the complex exponential avoids the +-pi wrap
        dalpha = float(np.angle(a_plus / a_minus)) / (2.0 * h)
        return dtheta, dalpha

    theta0, _ = chart_at(0.0)
    step = 2e-4
    coarse = derivatives(step)
    fine = derivatives(step / 2.0)
    dtheta = (4.0 * fine[0] - coarse[0]) / 3.0
    dalpha = (4.0 * fine[1] - coarse[1]) / 3.0
    return metric_in_coords(theta0, dtheta, dalpha) * speed**2
