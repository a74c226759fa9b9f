"""Information metrics on probability trees and on complex state vectors.

The central objects are the Fisher information of the theta parametrization,
its extension to amplitude-and-phase coordinates on normalized complex
vectors, and the Fubini-Study metric/distance.  The extended metric equals
four times the Fubini-Study metric on normalized states with norm-preserving
tangents; both a closed form and a bottom-up even/odd recursion are provided
and must agree.  The metrics take one state and tangent, or a stack of them
evaluated in whole-array passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, SingularityError
from .probmodel import (ConditionalTree, Distribution, ThetaAngle,
                        mass_pyramid, reconstitute)

NORM_TOL = 1e-12         # state-vector normalization tolerance
TANGENT_TOL = 1e-8       # accepted |Re<psi|dpsi>| for norm-preserving tangents
ZERO_MASS = 1e-14        # below this a component counts as zero-mass


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector of length 2**n."""

    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.amps, dtype=complex))
        if arr.ndim != 1 or arr.size & (arr.size - 1):
            raise DomainError("need a flat vector with power-of-2 length")
        norm2 = float(np.vdot(arr, arr).real)
        if abs(norm2 - 1.0) > 1e-9:
            raise DomainError(f"squared norm {norm2} is not 1")
        if abs(norm2 - 1.0) > NORM_TOL:
            arr = arr / math.sqrt(norm2)
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @property
    def nbits(self) -> int:
        return int(self.amps.size).bit_length() - 1

    def probabilities(self) -> Distribution:
        return Distribution(np.abs(self.amps) ** 2)

    def phases(self) -> np.ndarray:
        return np.angle(self.amps)


@dataclass(frozen=True)
class Tangent:
    """Complex perturbation dpsi attached to a state vector."""

    damps: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.damps, dtype=complex))
        arr.setflags(write=False)
        object.__setattr__(self, "damps", arr)

    def is_norm_preserving(self, psi: StateVector | np.ndarray, tol: float = 1e-10) -> bool:
        amps = psi.amps if isinstance(psi, StateVector) else np.asarray(psi)
        return abs(float(np.vdot(amps, self.damps).real)) <= tol

    @classmethod
    def projected(cls, psi: StateVector | np.ndarray, raw: np.ndarray) -> "Tangent":
        """Remove the norm-changing component Re<psi|raw> psi."""
        amps = psi.amps if isinstance(psi, StateVector) else np.asarray(psi)
        return cls(np.asarray(raw, dtype=complex)
                   - float(np.vdot(amps, raw).real) * amps)


def _as_amps(psi) -> np.ndarray:
    return psi.amps if isinstance(psi, StateVector) else np.asarray(psi, dtype=complex)


def _as_damps(d) -> np.ndarray:
    return d.damps if isinstance(d, Tangent) else np.asarray(d, dtype=complex)


def _state_and_tangent(psi, d) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes and perturbations as one state (N,) or a stack (S, N)."""
    amps, damps = _as_amps(psi), _as_damps(d)
    if amps.ndim not in (1, 2) or amps.shape != damps.shape:
        raise DomainError("need a state and a tangent of one shape, (N,) or (S, N)")
    return amps, damps


def _reject_rows(bad: np.ndarray, exc: type[Exception], message: str) -> None:
    """Raise exc(message) if any row of a stack is flagged, naming the first;
    a 0-d flag stands for a single state."""
    if bad.any():
        if bad.ndim:
            message = f"{message} (row {int(np.flatnonzero(bad)[0])})"
        raise exc(message)


def _result(values: np.ndarray):
    """A float for a single state, the (S,) array for a stack."""
    return float(values) if values.ndim == 0 else values


def amplitude_phase_differentials(psi, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose a complex perturbation into (rho, drho, dphi).

    Takes one state (N,) or a stack (S, N) and returns arrays of the same
    shape.  At zero-mass components the phase is undefined: dphi is set to 0
    there, and any non-vanishing perturbation of such a component is
    rejected.
    """
    amps, damps = _state_and_tangent(psi, d)
    rho = np.abs(amps) ** 2
    alive = rho > ZERO_MASS
    _reject_rows(np.any(~alive & (np.abs(damps) > 1e-12), axis=-1),
                 SingularityError, "perturbation of a zero-amplitude component")
    drho = 2.0 * (amps.conj() * damps).real
    dphi = np.zeros_like(rho)
    dphi[alive] = (damps[alive] / amps[alive]).imag
    return rho, drho, dphi


def _norm_preserving_differentials(psi, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rho, drho, dphi = amplitude_phase_differentials(psi, d)
    _reject_rows(np.abs(drho.sum(axis=-1)) > TANGENT_TOL, DomainError,
                 "tangent does not preserve the norm to first order")
    return rho, drho, dphi


def fisher_info_theta(theta: ThetaAngle | float) -> float:
    """Fisher information of the theta parametrization of a binary outcome.

    Analytically the expectation sum collapses to 1 for every theta; the
    endpoints are covered by continuity.
    """
    t = theta.value if isinstance(theta, ThetaAngle) else float(theta)
    if not 0.0 <= t <= math.pi:
        raise DomainError("theta outside [0, pi]")
    return 1.0


def fisher_info_theta_numeric(theta: float, step: float = 1e-4) -> float:
    """Expectation sum sum_i (d log rho_i / d theta)^2 rho_i evaluated with
    Richardson-extrapolated central differences (cross-check of
    fisher_info_theta)."""
    if not step < theta < math.pi - step:
        raise DomainError("theta too close to the boundary for differencing")
    total = 0.0
    for i in (0, 1):
        f = lambda t: (math.cos(t / 2.0) ** 2, math.sin(t / 2.0) ** 2)[i]

        def diff(h):
            return (math.log(f(theta + h)) - math.log(f(theta - h))) / (2 * h)

        score = (4.0 * diff(step / 2.0) - diff(step)) / 3.0
        total += score**2 * f(theta)
    return total


def _tree_thetas(tree: ConditionalTree) -> list[tuple[int, int, float]]:
    """(level, suffix, theta) for every node, root (level n) first."""
    out = []
    for level, suffix, p0 in tree.nodes():
        if not 0.0 < p0 < 1.0:
            raise SingularityError(
                f"boundary node p0={p0} at level {level}, suffix {suffix}")
        out.append((level, suffix, 2.0 * math.acos(math.sqrt(p0))))
    return out


def fisher_matrix_numeric(tree: ConditionalTree, step: float = 1e-6) -> np.ndarray:
    """Fisher information matrix over the tree's theta-node coordinates.

    Entry (a, b) is the expectation over outcomes of the product of the two
    log-likelihood scores, each evaluated by central finite differences of
    the tree-to-distribution map.  Coordinates are ordered root first, then
    by level downward with ascending suffix; the result is diagonal with the
    conditioning-suffix masses on the diagonal.
    """
    n = tree.depth
    nodes = _tree_thetas(tree)
    base = reconstitute(tree).probs
    scores = np.empty((len(nodes), base.size))
    for a, (level, suffix, _) in enumerate(nodes):
        p0 = tree.node(level, suffix)
        up = reconstitute(tree.with_node(level, suffix, _p0_of(_theta_of(p0) + step))).probs
        dn = reconstitute(tree.with_node(level, suffix, _p0_of(_theta_of(p0) - step))).probs
        with np.errstate(divide="ignore"):
            scores[a] = (np.log(up) - np.log(dn)) / (2.0 * step)
    return np.einsum("ax,bx,x->ab", scores, scores, base)


def _theta_of(p0: float) -> float:
    return 2.0 * math.acos(math.sqrt(min(max(p0, 0.0), 1.0)))


def _p0_of(theta: float) -> float:
    return math.cos(theta / 2.0) ** 2


def extended_fisher_metric(psi, d):
    """Closed form sum(drho^2/rho) + 4 sum(rho dphi^2) - 4 (sum rho dphi)^2.

    Requires a norm-preserving tangent (sum drho = 0); zero-mass components
    contribute nothing.  One state gives a float, a stack (S, N) of states
    and tangents an (S,) array.
    """
    rho, drho, dphi = _norm_preserving_differentials(psi, d)
    alive = rho > ZERO_MASS
    quad = np.divide(drho**2, rho, out=np.zeros_like(rho), where=alive).sum(axis=-1)
    mean = np.sum(rho * dphi, axis=-1)
    return _result(quad + 4.0 * np.sum(rho * dphi**2, axis=-1) - 4.0 * mean**2)


def extended_fisher_metric_recursive(psi, d):
    """Even/odd recursion for the extended metric, evaluated bottom-up.

    ds^2 = sum_k q_k ds^2|_k + dtheta^2 + sin^2(theta) dalpha^2, where k
    splits the domain on the least significant bit, (q_0, q_1) =
    (cos^2(theta/2), sin^2(theta/2)) are the conditional masses of the two
    branches, ds^2|_k is the metric of branch k's conditional distribution,
    and dalpha is the difference of the branches' conditional phase means.
    With dq_0 the rate of q_0, dtheta^2 = dq_0^2 / (q_0 q_1) and
    sin^2(theta) = 4 q_0 q_1.

    Each pass combines the two branches of every node of one tree level, for
    every state of a stack at once, from the leaves (ds^2 = 0) to the root.
    A branch with conditional mass at most ZERO_MASS contributes nothing;
    mass flow into it raises.  One state gives a float, a stack (S, N) of
    states and tangents an (S,) array.
    """
    rho, drho, dphi = _norm_preserving_differentials(psi, d)
    size = rho.shape[-1]
    if size & (size - 1):
        raise DomainError("need a power-of-2 length")
    mass, flow, phase = (mass_pyramid(v) for v in (rho, drho, rho * dphi))
    metric = np.zeros_like(rho)
    broken = np.zeros(rho.shape, dtype=bool)
    # empty nodes divide by zero; np.where drops what they produce
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for level in range(1, len(mass)):
            # branch k of node s sits at [..., k, s] of the finer level
            split = mass[level].shape[:-1] + (2, -1)
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
            # only live branches pass a fault up: nothing below an empty
            # branch is evaluated
            broken = ((live & broken.reshape(split)).any(axis=-2)
                      | (~interior & (np.abs(dq0) > ZERO_MASS)))
    _reject_rows(broken[..., 0], SingularityError, "mass flow across an empty branch")
    return _result(metric[..., 0])


def fubini_study_metric(psi, d):
    """<dpsi|dpsi>/<psi|psi> - <dpsi|psi><psi|dpsi>/<psi|psi>^2.

    One state gives a float, a stack (S, N) of states and tangents an (S,)
    array.
    """
    amps, damps = _state_and_tangent(psi, d)
    norm2 = np.einsum("...i,...i->...", amps.conj(), amps).real
    _reject_rows(norm2 <= 0.0, DomainError, "zero state vector")
    overlap = np.einsum("...i,...i->...", amps.conj(), damps)
    length2 = np.einsum("...i,...i->...", damps.conj(), damps).real
    return _result(length2 / norm2 - np.abs(overlap) ** 2 / norm2**2)


def fubini_study_distance(psi1, psi2) -> float:
    """arccos sqrt(|<psi1|psi2>|^2) for normalized states, in [0, pi/2]."""
    a1, a2 = _as_amps(psi1), _as_amps(psi2)
    fid = abs(complex(np.vdot(a1, a2))) ** 2
    return math.acos(math.sqrt(min(max(fid, 0.0), 1.0)))


def random_state(nbits: int, rng: np.random.Generator,
                 min_mass: float | None = None) -> StateVector:
    """Random normalized state; min_mass floors every probability (keeps the
    drho^2/rho terms well conditioned in metric sweeps)."""
    size = 1 << nbits
    if min_mass is None:
        min_mass = 0.1 / size
    rho = rng.dirichlet(np.ones(size)) * (1.0 - size * min_mass) + min_mass
    phases = rng.uniform(-math.pi, math.pi, size)
    return StateVector(np.sqrt(rho) * np.exp(1j * phases))


def random_tangent(psi: StateVector, rng: np.random.Generator,
                   scale: float = 0.1) -> Tangent:
    """Random norm-preserving tangent built from (drho, dphi) increments."""
    rho = np.abs(psi.amps) ** 2
    drho = rng.normal(0.0, scale, rho.size)
    drho -= drho.mean()
    dphi = rng.normal(0.0, scale, rho.size)
    damps = (drho / (2.0 * np.sqrt(rho)) + 1j * np.sqrt(rho) * dphi) \
        * np.exp(1j * np.angle(psi.amps))
    return Tangent(damps)
