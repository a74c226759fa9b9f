"""Reconstructed one-bit systems: the rebit circle, the Bloch sphere with its
three observable-adapted charts, and the two-dimensional complex
representation, whose Hadamard change of basis q -> p is the one-stage
butterfly ladder `transform_columns(psi, 1)`.

Conventions pinned here (the chart freedom alpha -> pi/2 - alpha makes them
author-relative; this module fixes one and offers no other):

* expectations: sQ = |psi_0|^2 - |psi_1|^2, sP = 2 Re(conj(psi_0) psi_1),
  sR = 2 Im(conj(psi_0) psi_1); outcome 0 has probability (1 + S)/2;
* charts rotate the observable triplet: axis q spans (q, p, r), axis r spans
  (r, q, p), axis p spans (p, r, q); the polar angle sits on the axis,
  S_axis = cos(theta), and alpha sweeps the remaining pair (cos, sin);
* the global phase is gauge-fixed to phi_0 = 0 whenever a state vector is
  constructed from chart or sphere data.

`extended_from_bloch` and `psi_from_bloch` read a point's chart angles
through one map (`_chart_angles`).  `chart_tangent_metric` differentiates
the same angles by the chain rule in closed form, one array pass over a
(P, 3) stack of points and tangents, so the chart sweep of `metric-check`
makes one call per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (DomainError, SingularityError, check_finite, check_name,
                         check_real, check_unit_sums, complex_array, real_array,
                         reject_rows)

POLE_TOL = 1e-12

# axis -> (mu, nu, xi): S_mu = cos t, S_nu = sin t cos a, S_xi = sin t sin a
CHART_TRIPLETS = {"q": ("q", "p", "r"), "r": ("r", "q", "p"), "p": ("p", "r", "q")}


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


def _two_component(psi) -> np.ndarray:
    """psi as a complex (2,) array; DomainError for any other shape."""
    psi = complex_array(psi)
    if psi.shape != (2,):
        raise DomainError("two-component state expected")
    return psi


@dataclass(frozen=True)
class BlochPoint:
    """Point (sQ, sP, sR) on the unit sphere of S-variables."""

    sq: float
    sp: float
    sr: float

    def __post_init__(self):
        for name in ("sq", "sp", "sr"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        check_unit_sums("|S|^2", self.norm2())

    def norm2(self) -> float:
        # products, not powers: a float's ** raises OverflowError, * gives inf
        return self.sq * self.sq + self.sp * self.sp + self.sr * self.sr

    def component(self, name: str) -> float:
        check_name("axis", name, CHART_TRIPLETS)
        return {"q": self.sq, "p": self.sp, "r": self.sr}[name]

    def as_array(self) -> np.ndarray:
        return np.array([self.sq, self.sp, self.sr])

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
        check_name("axis", self.axis, CHART_TRIPLETS)
        object.__setattr__(self, "theta", check_real("theta", self.theta))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", check_real("alpha", self.alpha))
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError("theta outside [0, pi]")
        if self.alpha is not None and not -math.pi < self.alpha <= math.pi + 1e-15:
            raise DomainError("alpha outside (-pi, pi]")


def rebit_conjugate(theta_q: float) -> float:
    """theta_p = pi/2 - theta_q on the rebit circle.

    The value can leave [0, pi]; the rebit chart extends to negative angles,
    and probabilities only see cos^2/sin^2 (even in theta).
    """
    return math.pi / 2.0 - check_real("theta_q", theta_q)


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
    return BlochPoint(values["q"], values["p"], values["r"])


def extended_from_bloch(axis: str, point: BlochPoint) -> ExtendedCoords:
    """Invert bloch_from_extended; at a pole of the chart alpha is None."""
    check_name("axis", axis, CHART_TRIPLETS)
    return ExtendedCoords(axis, *_chart_angles(
        *(point.component(name) for name in CHART_TRIPLETS[axis])))


def psi_from_bloch(point: BlochPoint) -> np.ndarray:
    """State (cos(t/2), sin(t/2) e^{i a}) in the q description, phi_0 = 0
    gauge, from the point's q-chart angles (t, a); a = 0 at a pole."""
    theta, alpha = _chart_angles(point.sq, point.sp, point.sr)
    alpha = 0.0 if alpha is None else alpha
    return np.array([math.cos(theta / 2.0),
                     math.sin(theta / 2.0) * np.exp(1j * alpha)])


def pauli_expectations(psi: np.ndarray) -> BlochPoint:
    """(sQ, sP, sR) of a two-component state."""
    psi = _two_component(psi)
    cross = complex(np.conj(psi[0]) * psi[1])
    return BlochPoint(
        sq=float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2),
        sp=2.0 * cross.real,
        sr=2.0 * cross.imag,
    )


def metric_in_coords(theta: float, dtheta: float, dalpha: float) -> float:
    """Chart form of the extended metric, dtheta^2 + sin^2(theta) dalpha^2."""
    theta, dtheta, dalpha = map(check_real, ("theta", "dtheta", "dalpha"),
                                (theta, dtheta, dalpha))
    return dtheta**2 + math.sin(theta) ** 2 * dalpha**2


def shift_rotation_2(psi: np.ndarray, axis: str) -> np.ndarray:
    """One-step shift of a two-value observable: axis 'q' swaps the
    components, axis 'p' applies diag(1, -1) (swaps the p outcomes while
    leaving the q probabilities untouched)."""
    psi = _two_component(psi)
    check_name("axis", axis, ("q", "p"))
    if axis == "q":
        return psi[::-1].copy()
    return np.array([psi[0], -psi[1]])


def transformed_phase_jacobian(psi: np.ndarray) -> np.ndarray:
    """Jacobian d phi'_k / d phi_j of the Hadamard-transformed phases.

    Row k, column j holds (-1)^(j*k) Im(i conj(psi_0 + (-1)^k psi_1) psi_j)
    / |psi_0 + (-1)^k psi_1|^2: the sign tracks how psi_j enters the image
    component k, so it flips only for the (k=1, j=1) entry.  The weighted
    phase mean rho_0 dphi_0 + rho_1 dphi_1 is invariant under this map.
    """
    psi = _two_component(psi)
    jac = np.empty((2, 2))
    for k in (0, 1):
        image = psi[0] + (-1) ** k * psi[1]
        weight = abs(image) ** 2
        if weight < 1e-24:
            raise SingularityError("degenerate image component under Hadamard")
        for j in (0, 1):
            jac[k, j] = (-1) ** (j * k) * (1j * np.conj(image) * psi[j]).imag / weight
    return jac


def chart_tangent_metric(point, velocity, axis: str) -> np.ndarray:
    """Chart value of the metric for a sphere tangent, by the chain rule in
    closed form.

    The tangent is `velocity` projected onto the tangent plane at `point`.
    On the chart triplet (mu, nu, xi) of `axis`, theta = arccos(S_mu) and
    alpha = atan2(S_xi, S_nu), so dtheta = -dS_mu / sin(theta) and dalpha =
    (S_nu dS_xi - S_xi dS_nu) / (S_nu^2 + S_xi^2); the value is dtheta^2 +
    sin^2(theta) dalpha^2.  Every chart must return the same number for the
    same tangent.

    Takes a (P, 3) stack of points and one of velocities and returns the
    (P,) array; each row's value has the same bits in any stack.
    """
    check_name("axis", axis, CHART_TRIPLETS)
    p, v = real_array(point), real_array(velocity)
    if p.ndim != 2 or p.shape[1] != 3 or v.shape != p.shape:
        raise DomainError("need (P, 3) stacks of points and velocities of one "
                          "shape")
    check_unit_sums("|S|^2", (p * p).sum(axis=1))
    check_finite(velocity=v)
    t = v - (v * p).sum(axis=1, keepdims=True) * p
    reject_rows(np.sqrt((t * t).sum(axis=1)) < 1e-15, DomainError, "zero tangent")
    order = ["qpr".index(name) for name in CHART_TRIPLETS[axis]]
    mu, nu, xi = (p[:, i] for i in order)
    dmu, dnu, dxi = (t[:, i] for i in order)
    sin = np.sin(np.arccos(np.clip(mu, -1.0, 1.0)))
    reject_rows((sin < POLE_TOL) | (np.hypot(nu, xi) < POLE_TOL), SingularityError,
                "point at a chart pole")
    dalpha = (nu * dxi - xi * dnu) / (nu**2 + xi**2)
    return (dmu / sin) ** 2 + sin**2 * dalpha**2
