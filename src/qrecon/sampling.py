"""Measurement simulation and maximum-likelihood estimation.

Randomness comes from counter-based Philox streams keyed by
(master seed, observable, replica), so each replica's draws depend only on
its key and replay bit-identically from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .probmodel import ThetaAngle, prob_from_theta

OBSERVABLE_CODES = {"q": 0, "p": 1, "r": 2}


def measurement_stream(master_seed: int, observable: str, replica: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, observable, replica) cell."""
    code = OBSERVABLE_CODES[observable]
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(code, replica))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class MeasurementSample:
    """Outcome counts of M repeated binary measurements."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise DomainError("negative count")

    @property
    def total(self) -> int:
        return sum(self.counts)


def simulate_bernoulli(theta: ThetaAngle | float, trials: int, seed: int,
                       observable: str = "q", replica: int = 0) -> MeasurementSample:
    """Draw `trials` i.i.d. binary outcomes with P(0) = cos^2(theta/2)."""
    if trials < 1:
        raise DomainError("need at least one trial")
    p0, _ = prob_from_theta(theta)
    rng = measurement_stream(seed, observable, replica)
    zeros = int(rng.binomial(trials, p0))
    return MeasurementSample((zeros, trials - zeros))


def mle_theta(sample: MeasurementSample) -> tuple[float, float]:
    """Maximum-likelihood estimate 2*arccos(sqrt(N0/M)) and its asymptotic
    variance 1/M (boundary counts give 0 or pi)."""
    if len(sample.counts) != 2:
        raise DomainError("binary sample expected")
    m = sample.total
    if m == 0:
        raise DomainError("empty sample")
    p0_hat = sample.counts[0] / m
    return 2.0 * math.acos(math.sqrt(p0_hat)), 1.0 / m


@dataclass(frozen=True)
class ObservableSummary:
    observable: str
    trials: int
    replicas: int
    theta_true: float
    theta_hat_mean: float
    var_hat: float
    precision_per_measurement: float


@dataclass(frozen=True)
class TomographyReport:
    seed: int
    summaries: tuple[ObservableSummary, ...]
    parity_tolerance: float
    max_parity_deviation: float
    parity_ok: bool

    def summary_for(self, observable: str) -> ObservableSummary:
        for s in self.summaries:
            if s.observable == observable:
                return s
        raise KeyError(observable)

    def as_rows(self) -> list[dict]:
        return [
            {
                "observable": s.observable,
                "M": s.trials,
                "thetaHat": s.theta_hat_mean,
                "varHat": s.var_hat,
                "precisionPerMeasurement": s.precision_per_measurement,
            }
            for s in self.summaries
        ]


def _replica_estimates(theta: float, trials: int, seed: int, observable: str,
                       replicas: int) -> np.ndarray:
    p0, _ = prob_from_theta(theta)
    out = np.empty(replicas)
    for r in range(replicas):
        rng = measurement_stream(seed, observable, r)
        zeros = rng.binomial(trials, p0)
        out[r] = 2.0 * math.acos(math.sqrt(zeros / trials))
    return out


def _observable_thetas(state) -> dict[str, float]:
    """Coerce a state description into per-observable theta angles.

    Accepts a ready {observable: theta} dict, a Bloch point (anything with a
    theta_of method), chart coordinates, or a two-component amplitude vector.
    """
    if isinstance(state, dict):
        return {k: float(v) for k, v in state.items()}
    if hasattr(state, "theta_of"):
        return {name: state.theta_of(name) for name in ("q", "p", "r")}
    from .bloch import ExtendedCoords, bloch_from_extended, pauli_expectations
    if isinstance(state, ExtendedCoords):
        return _observable_thetas(bloch_from_extended(state))
    arr = np.asarray(getattr(state, "amps", state))
    if arr.shape == (2,):
        return _observable_thetas(pauli_expectations(arr))
    raise DomainError("cannot interpret the state description")


def tomography_experiment(state, trials: dict[str, int], seed: int,
                          replicas: int = 200,
                          parity_tolerance: float = 0.05) -> TomographyReport:
    """Repeated-measurement estimation experiment over a set of observables.

    Each observable is measured `trials[name]` times per replica; the spread
    of the per-replica estimates gives the empirical estimator variance and
    the per-measurement precision contribution 1 / (M * var).  The report
    checks that those contributions agree across observables within
    `parity_tolerance` (observables pinned at a boundary estimate carry no
    spread and are excluded from the comparison).
    """
    observable_thetas = _observable_thetas(state)
    if not observable_thetas:
        raise DomainError("no observables to measure")
    summaries = []
    for name in sorted(trials):
        theta = observable_thetas[name]
        m = trials[name]
        if m < 1:
            raise DomainError(f"observable {name}: need at least one trial")
        if replicas < 2:
            raise DomainError("need at least two replicas for a variance")
        est = _replica_estimates(theta, m, seed, name, replicas)
        var_hat = float(np.var(est, ddof=1))
        precision = 1.0 / (m * var_hat) if var_hat > 0.0 else math.inf
        summaries.append(ObservableSummary(
            observable=name, trials=m, replicas=replicas, theta_true=theta,
            theta_hat_mean=float(est.mean()), var_hat=var_hat,
            precision_per_measurement=precision))
    finite = [s.precision_per_measurement for s in summaries
              if math.isfinite(s.precision_per_measurement)]
    max_dev = 0.0
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            mean = 0.5 * (finite[i] + finite[j])
            max_dev = max(max_dev, abs(finite[i] - finite[j]) / mean)
    return TomographyReport(
        seed=seed, summaries=tuple(summaries), parity_tolerance=parity_tolerance,
        max_parity_deviation=max_dev, parity_ok=max_dev <= parity_tolerance)


def chi2_band(replicas: int, sigma: float = 5.0) -> tuple[float, float]:
    """Relative band for a sample variance of `replicas` draws: the scaled
    variance is chi^2 with replicas-1 dof, whose relative sd is
    sqrt(2/(replicas-1))."""
    rel = sigma * math.sqrt(2.0 / (replicas - 1))
    return 1.0 - rel, 1.0 + rel


def gaussian_p_value(z: float) -> float:
    """Two-sided normal p-value for a z score (reported on band failures)."""
    return math.erfc(abs(z) / math.sqrt(2.0))
