"""Information metrics on probability trees and on complex state vectors.

The central objects are the Fisher matrix of a conditional tree's theta
coordinates, its extension to amplitude-and-phase coordinates on normalized
complex vectors, and the Fubini-Study metric/distance.  The Fisher matrix
comes from analytic scores, one array pass per pair of tree levels over
`probmodel.mass_pyramid`'s branch masses.  The extended metric
equals four times the Fubini-Study metric on normalized states with
norm-preserving tangents; both a closed form and a bottom-up even/odd
recursion are provided and must agree.  A state is its amplitude array and
a tangent its perturbation array: the metrics take one state and tangent
(N,), or a stack of them (S, N) evaluated in whole-array passes, as anything
`exceptions.complex_array` converts.  The recursion makes one pass per tree
level over `probmodel.mass_pyramid`, whose levels are sums of half-slices:
a node's two branches are the two halves of the finer level.  It builds
the pyramid leaf-major, on (N, S) copies of a stack, so that each half is a
block of whole rows and each pass a contiguous loop.  Both metrics
are the public wrapper of a private form on checked differentials
(rho, drho, dphi), so `criteria.metric_sample` computes each block's
differentials once for the two; only the wrappers apply the norm rule.

Random states take Dirichlet(1, ..., 1) probabilities (Wootters' invariant
measure), floored at 0.1 / N, and uniform phases; tangents take normal
increments.  `state_amplitudes` and `tangent_amplitudes` build a row (N,) or
a stack (S, N) from numpy's `dirichlet`, `uniform` and `normal` values, drawn
one sample at a time by `random_state` and `random_tangent` and a block at a
time by `criteria.metric_sample`: a sample has the same bits either way.  A
tangent is the state times its log-derivative, psi (drho / (2 rho) + i dphi),
the inverse of `amplitude_phase_differentials`.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import (MAX_WIDTH, DomainError, SingularityError, check_finite,
                         check_integer, check_power_of_two, check_rows,
                         complex_array, real_array, reject_entries, reject_rows)
from .probmodel import (ConditionalTree, _leaf_pyramid, _normalized,
                        mass_pyramid, reconstitute)

TANGENT_TOL = 1e-8       # accepted |sum drho| = 2|Re<psi|dpsi>| of a tangent
ZERO_MASS = 1e-14        # below this a component counts as zero-mass
INCREMENT_SD = 0.1       # standard deviation of a random tangent's increments


def _result(values: np.ndarray):
    """A float for a single state, the (S,) array for a stack."""
    return float(values) if values.ndim == 0 else values


def amplitude_phase_differentials(psi, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose a complex perturbation into (rho, drho, dphi).

    Takes one state (N,) or a stack (S, N) and returns arrays of the same
    shape.  At zero-mass components the phase is undefined: dphi is set to 0
    there, and any non-vanishing perturbation of such a component is
    rejected.  A row whose drho is not finite (a NaN or infinite entry, or
    an overflow) is refused first.
    """
    return _differentials(psi, d)[:3]


def _differentials(psi, d) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """amplitude_phase_differentials and each row's sum of drho, the first-order
    change of its squared norm, 2 Re<psi|dpsi>: the finite test and the
    norm-preserving test read one pass of row sums."""
    amps, damps = complex_array(psi), complex_array(d)
    check_rows(psi=amps, d=damps)
    with np.errstate(invalid="ignore", over="ignore"):  # refused just below
        drho = _drho(amps, damps)
        sums = drho.sum(axis=-1)
    reject_rows(~np.isfinite(sums), DomainError,
                "drho = 2 Re(conj(psi) dpsi) is not finite")
    rho = np.abs(amps) ** 2
    alive = rho > ZERO_MASS
    if alive.all():
        # nothing to reject and no undefined phase to zero
        return rho, drho, (damps / amps).imag, sums
    reject_entries(~alive & (np.abs(damps) > 1e-12), SingularityError,
                   "perturbation of a zero-amplitude component")
    dphi = np.zeros_like(rho)
    dphi[alive] = (damps[alive] / amps[alive]).imag
    return rho, drho, dphi, sums


def _drho(amps: np.ndarray, damps: np.ndarray) -> np.ndarray:
    """First-order change of each probability, 2 Re(conj(psi_k) dpsi_k)."""
    return 2.0 * (amps.conj() * damps).real


def _norm_preserving_differentials(psi, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """amplitude_phase_differentials of a tangent that preserves the norm to
    first order: |sum drho| = 2|Re<psi|dpsi>| at most TANGENT_TOL."""
    rho, drho, dphi, sums = _differentials(psi, d)
    reject_rows(np.abs(sums) > TANGENT_TOL, DomainError,
                "tangent does not preserve the norm to first order")
    return rho, drho, dphi


def _unit_differentials(psi, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_norm_preserving_differentials of psi and d after _normalized."""
    amps, damps = complex_array(psi), complex_array(d)
    check_rows(psi=amps, d=damps)
    return _norm_preserving_differentials(*_normalized(amps, damps))


def fisher_matrix(tree: ConditionalTree) -> np.ndarray:
    """Fisher information matrix S diag(p) S^T over the tree's theta-node
    coordinates, p the tree's distribution and S[a, x] = d log p(x) / d theta_a.

    At node a = (l, s) with (q0, q1) = (p0, 1 - p0), the score is
    -tan(theta/2) = -sqrt(q1/q0) where bit l is 0 and cot(theta/2) =
    sqrt(q0/q1) where it is 1, on the outcomes with lower bits s; 0 elsewhere.
    A level's scores are constant on the branches (suffix and next bit) of
    every deeper level, so each pair of levels is one array pass over
    mass_pyramid(p)'s branch masses: a level's own block is diagonal with its
    suffix masses, its block with a shallower level that level's score times
    the branch-weighted mean score, 0 up to rounding.  Coordinates run root
    first, then level by level with ascending suffix.  A node at p0 = 0 or 1
    is on the chart boundary and is refused, as is a node whose p0 is so
    small (subnormal) that q1/q0 overflows.  The (2**n - 1)-square result is
    dense, so a tree deeper than MAX_WIDTH // 2 is refused before anything is
    allocated.
    """
    n = check_integer("tree depth", tree.depth, 0, MAX_WIDTH // 2)
    masses = mass_pyramid(reconstitute(tree).probs)
    fisher = np.zeros(((1 << n) - 1,) * 2)
    scores = []  # per level i: its score on each branch s + bit * 2**i
    for i, p0 in enumerate(tree.levels):
        q1 = 1.0 - p0
        with np.errstate(divide="ignore", over="ignore"):
            odds = q1 / p0  # inf at p0 = 0 and where a subnormal p0 overflows it
        (edge,) = np.nonzero(np.isinf(odds) | (q1 <= 0.0))
        if edge.size:
            raise SingularityError(f"node p0={p0[edge[0]]} at level {n - i}, "
                                   f"suffix {edge[0]} is on or too near the "
                                   "chart boundary")
        score = np.concatenate([-np.sqrt(odds), np.sqrt(p0 / q1)])
        weighted = masses[n - i - 1] * score  # its 2**(i+1) branch masses
        suffix = np.arange(1 << i)
        nodes = (1 << i) - 1 + suffix
        fisher[nodes, nodes] = np.add(*_halves(weighted * score, 1 << i))
        mean = np.add(*_halves(weighted, 1 << i))
        for k, above in enumerate(scores):
            # level k < i: node suffix mod 2**k, branch suffix mod 2**(k+1)
            rows = (1 << k) - 1 + (suffix & ((1 << k) - 1))
            block = above[suffix & ((2 << k) - 1)] * mean
            fisher[rows, nodes] = fisher[nodes, rows] = block
        scores.append(score)
    return fisher


def extended_fisher_metric(psi, d):
    """Closed form sum(drho^2/rho) + 4 sum(rho dphi^2) - 4 (sum rho dphi)^2.

    Requires a norm-preserving tangent (sum drho = 0) of a normalized
    state; zero-mass components contribute nothing.  One state gives a
    float, a stack (S, N) of states and tangents an (S,) array.
    """
    return _result(_closed_form(*_unit_differentials(psi, d)))


def _closed_form(rho: np.ndarray, drho: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """extended_fisher_metric of checked differentials, one value per row.
    With every component live the drho^2/rho terms skip the mask, which
    writes the same quotients."""
    alive = rho > ZERO_MASS
    if alive.all():
        quad = drho**2 / rho
    else:
        quad = np.divide(drho**2, rho, out=np.zeros_like(rho), where=alive)
    mean = np.sum(rho * dphi, axis=-1)
    return quad.sum(axis=-1) + 4 * np.sum(rho * dphi**2, axis=-1) - 4 * mean**2


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
    mass flow into it raises.  Inputs are as for extended_fisher_metric.
    """
    return _result(_recursion(*_unit_differentials(psi, d)))


def _recursion(rho: np.ndarray, drho: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """extended_fisher_metric_recursive of checked differentials, one value
    per row.  The nodes of a level are the entries of its mass_pyramid
    level; their branches 0 and 1 are the two halves of the finer level
    (mass_pyramid's child order), so each pass reads two half-slices.  The
    passes run leaf-major, on (N, S) copies of a stack: a half-slice is then
    a block of whole rows, which numpy runs as one contiguous loop, where
    the (S, N) half-slices are S strided runs of at most N/2 entries.  The
    phase masses rho dphi are formed before the copy, so dphi (a strided
    view for one state) is never copied itself.  A level whose nodes are
    all interior, with both branches live, skips the masks: np.where(True,
    x, 0) is x, so it keeps the masked pass's bits."""
    check_power_of_two("state length", rho.shape[-1])
    rho, drho, phase = (np.ascontiguousarray(np.moveaxis(v, -1, 0))
                        for v in (rho, drho, rho * dphi))
    mass, flow, phase = (_leaf_pyramid(v) for v in (rho, drho, phase))
    metric = np.zeros_like(rho)
    broken = np.zeros(rho.shape, dtype=bool)
    # empty nodes divide by zero; np.where drops what they produce
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for level in range(1, len(mass)):
            m_s, f_s = mass[level], flow[level]
            half = len(m_s)
            m0, m1 = _halves(mass[level - 1], half)
            p0, p1 = _halves(phase[level - 1], half)
            q0, q1 = m0 / m_s, m1 / m_s
            dq0 = (flow[level - 1][:half] - q0 * f_s) / m_s
            live0, live1 = q0 > ZERO_MASS, q1 > ZERO_MASS
            interior = live0 & (q0 < 1.0 - ZERO_MASS)
            below0, below1 = _halves(metric, half)
            fault0, fault1 = _halves(broken, half)
            if interior.all() and live1.all():
                node = dq0**2 / (q0 * q1) + 4 * q0 * q1 * (p1 / m1 - p0 / m0) ** 2
                metric = q0 * below0 + q1 * below1 + node
                broken = fault0 | fault1
                continue
            mean0 = np.where(live0, p0 / m0, 0)
            mean1 = np.where(live1, p1 / m1, 0)
            node = dq0**2 / (q0 * q1) + 4 * q0 * q1 * (mean1 - mean0) ** 2
            metric = (np.where(live0, q0 * below0, 0)
                      + np.where(live1, q1 * below1, 0)
                      + np.where(interior, node, 0))
            # only live branches pass a fault up: nothing below an empty
            # branch is evaluated
            broken = ((live0 & fault0) | (live1 & fault1)
                      | (~interior & (np.abs(dq0) > ZERO_MASS)))
    reject_rows(broken[0, ...], SingularityError, "mass flow across an empty branch")
    return metric[0, ...]


def _halves(values: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """The branch-0 and branch-1 entries of a leaf-major pyramid level (the
    leaf axis first), as views."""
    return values[:half], values[half:]


def fubini_study_metric(psi, d):
    """<dpsi|dpsi>/<psi|psi> - <dpsi|psi><psi|dpsi>/<psi|psi>^2.

    One state gives a float, a stack (S, N) of states and tangents an (S,)
    array.  A non-finite squared norm or length is refused.
    """
    amps, damps = complex_array(psi), complex_array(d)
    check_rows(psi=amps, d=damps)
    bra = amps.conj()
    norm2 = np.einsum("...i,...i->...", bra, amps).real
    reject_rows(~np.isfinite(norm2), DomainError,
                "squared norm of the state is not finite")
    reject_rows(norm2 <= 0.0, DomainError, "zero state vector")
    overlap = np.einsum("...i,...i->...", bra, damps)
    length2 = np.einsum("...i,...i->...", damps.conj(), damps).real
    reject_rows(~np.isfinite(length2), DomainError,
                "squared length of the tangent is not finite")
    return _result(length2 / norm2 - np.abs(overlap) ** 2 / norm2**2)


def fubini_study_distance(psi1, psi2) -> float:
    """arccos sqrt(|<psi1|psi2>|^2) of two states, in [0, pi/2]; each is
    checked and renormalized by _normalized, so a state off norm beyond
    RENORM_TOL (or a NaN or infinite one) is refused."""
    a1, a2 = complex_array(psi1), complex_array(psi2)
    check_rows(stack=False, psi1=a1, psi2=a2)
    fid = abs(complex(np.vdot(_normalized(a1)[0], _normalized(a2)[0]))) ** 2
    return math.acos(math.sqrt(min(max(fid, 0.0), 1.0)))  # clamp the rounding


def state_amplitudes(weights: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Normalized amplitudes sqrt(rho) e^{i phase} from a state's Dirichlet
    weights, every probability floored at 0.1 / N, and its phases; one row
    (N,) or a stack (S, N), checked and renormalized per row by _normalized,
    which also names a row whose weights do not sum to 1 (an all-zero one)."""
    weights, phases = real_array(weights), real_array(phases)
    check_rows(weights=weights, phases=phases)
    check_finite(weights=weights, phases=phases)
    # a negative weight would take a negative root
    reject_entries(weights < 0.0, DomainError, "weights must be non-negative")
    size = weights.shape[-1]
    min_mass = 0.1 / size
    rho = weights * (1.0 - size * min_mass) + min_mass
    return _normalized(np.sqrt(rho) * np.exp(1j * phases))[0]


def tangent_amplitudes(amps: np.ndarray, drho: np.ndarray,
                       dphi: np.ndarray) -> np.ndarray:
    """Norm-preserving perturbations psi (drho / (2 rho) + i dphi) of amps
    from a tangent's (drho, dphi) increments, each row's drho first shifted
    to mean zero; one row (N,) or a stack (S, N).  The inverse of
    amplitude_phase_differentials; a row with a component of mass at most
    ZERO_MASS has no such tangent and is refused."""
    amps, drho, dphi = complex_array(amps), real_array(drho), real_array(dphi)
    check_rows(amps=amps, drho=drho, dphi=dphi)
    check_finite(amps=amps, drho=drho, dphi=dphi)
    rho = amps.real ** 2 + amps.imag ** 2
    reject_entries(rho <= ZERO_MASS, SingularityError,
                   "amps has a zero-amplitude component")
    # the real and imaginary parts written in place: the bits of
    # `... + 1j * dphi`, with no complex temporary
    damps = np.empty(amps.shape, complex)
    np.divide(drho - drho.mean(axis=-1, keepdims=True), 2.0 * rho, out=damps.real)
    damps.imag = dphi
    # in place: numpy may write `amps * (...)` into a large temporary with the
    # operands swapped, and a complex product need not be bitwise commutative
    damps *= amps
    return damps


def random_state(nbits: int, rng: np.random.Generator) -> np.ndarray:
    """Random normalized state (N,) with every probability floored at 0.1 / N
    (keeps the drho^2/rho terms well conditioned in metric sweeps), from N
    Dirichlet(1, ..., 1) weights, then N phases uniform on [-pi, pi)."""
    size = 1 << check_integer("nbits", nbits, 0, MAX_WIDTH)
    return state_amplitudes(rng.dirichlet(np.ones(size)),
                            rng.uniform(-math.pi, math.pi, size))


def random_tangent(psi, rng: np.random.Generator) -> np.ndarray:
    """Random norm-preserving tangent (N,) of one state psi (N,), from rng's
    normal increments of standard deviation INCREMENT_SD: N for drho, then
    N for dphi."""
    psi = complex_array(psi)
    check_rows(stack=False, psi=psi)
    return tangent_amplitudes(psi, rng.normal(0.0, INCREMENT_SD, psi.size),
                              rng.normal(0.0, INCREMENT_SD, psi.size))
