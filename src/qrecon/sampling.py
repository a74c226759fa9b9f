"""Measurement simulation and maximum-likelihood estimation.

Every binary observable is described by its angle on the theta chart,
P(0) = cos^2(theta/2) (`qrecon.probmodel`): a tomography experiment takes
one {observable: theta} dict, and the maximum-likelihood estimate maps the
observed frequency back through the same chart.  The experiment reports the
spread of its estimates; `qrecon.criteria` judges them.

Randomness comes from counter-based Philox streams (Salmon et al., SC 2011),
one per (master seed, observable): `measurement_stream` keys it with
`SeedSequence(entropy=seed, spawn_key=(observable code,))`.  Replica r of a
tomography experiment is the r-th binomial draw of its observable's stream,
so all replicas come from one array draw, replay bit-identically from the
seed, and the first k replicas of any run are those of a k-replica run.
`simulate_bernoulli` is replica 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, check_integer
from .probmodel import ThetaAngle, prob_from_theta, theta_from_prob

OBSERVABLE_CODES = {"q": 0, "p": 1, "r": 2}


def measurement_stream(master_seed: int, observable: str) -> np.random.Generator:
    """Independent Philox stream for one (seed, observable) pair."""
    seed = check_integer("seed", master_seed, 0)
    if observable not in OBSERVABLE_CODES:
        raise DomainError(f"unknown observable {observable!r}; expected one of "
                          f"{', '.join(OBSERVABLE_CODES)}")
    seq = np.random.SeedSequence(entropy=seed,
                                 spawn_key=(OBSERVABLE_CODES[observable],))
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


def _replica_zeros(theta: ThetaAngle | float, trials: int, seed: int,
                   observable: str, replicas: int) -> np.ndarray:
    """Counts of outcome 0 of the first `replicas` replicas, `trials`
    outcomes each: replica r is the r-th binomial draw of the (seed,
    observable) stream."""
    if not isinstance(theta, ThetaAngle) and not math.isfinite(theta):
        raise DomainError(f"observable {observable}: theta {theta} is not finite")
    # numpy's binomial takes the trial count as an int64
    check_integer(f"observable {observable}: trials", trials, 1,
                  np.iinfo(np.int64).max)
    p0, _ = prob_from_theta(theta)
    return measurement_stream(seed, observable).binomial(trials, p0, size=replicas)


def simulate_bernoulli(theta: ThetaAngle | float, trials: int, seed: int,
                       observable: str = "q") -> MeasurementSample:
    """Draw `trials` i.i.d. binary outcomes with P(0) = cos^2(theta/2):
    replica 0 of a tomography experiment with this seed."""
    zeros = int(_replica_zeros(theta, trials, seed, observable, 1)[0])
    return MeasurementSample((zeros, trials - zeros))


def mle_theta(sample: MeasurementSample) -> tuple[float, float]:
    """Maximum-likelihood estimate 2*arccos(sqrt(N0/M)) and its asymptotic
    variance 1/M (boundary counts give 0 or pi)."""
    if len(sample.counts) != 2:
        raise DomainError("binary sample expected")
    m = sample.total
    if m == 0:
        raise DomainError("empty sample")
    return theta_from_prob(sample.counts[0] / m).value, 1.0 / m


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
    max_parity_deviation: float

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
    """Each replica's maximum-likelihood estimate 2*arccos(sqrt(N0/M)), in
    one array pass."""
    zeros = _replica_zeros(theta, trials, seed, observable, replicas)
    return 2.0 * np.arccos(np.sqrt(zeros / trials))


def tomography_experiment(thetas: dict[str, float], trials: dict[str, int],
                          seed: int, replicas: int) -> TomographyReport:
    """Repeated-measurement estimation experiment over a set of observables.

    `thetas` gives each observable's angle on the theta chart.  Each
    observable is measured `trials[name]` times per replica; the spread of
    the per-replica estimates gives the empirical estimator variance and the
    per-measurement precision contribution 1 / (M * var).  The report
    carries the largest relative difference between those contributions
    (observables pinned at a boundary estimate carry no spread and are
    excluded from the comparison); `qrecon.criteria` judges it.
    """
    thetas = {name: float(theta) for name, theta in thetas.items()}
    if not thetas:
        raise DomainError("no observables to measure")
    if not trials:
        raise DomainError("no trial counts: no observable would be measured")
    unknown = sorted(set(trials) - set(thetas))
    if unknown:
        raise DomainError(f"observable {unknown[0]}: trial count given but no angle")
    if check_integer("replicas", replicas, 0) < 2:
        raise DomainError("need at least two replicas for a variance")
    summaries = []
    for name in sorted(trials):
        theta = thetas[name]
        m = trials[name]
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
    return TomographyReport(seed=seed, summaries=tuple(summaries),
                            max_parity_deviation=max_dev)


def chi2_band(replicas: int, sigma: float) -> tuple[float, float]:
    """Relative band, `sigma` standard deviations either side of 1, for a
    sample variance of `replicas` draws: the scaled variance is chi^2 with
    replicas-1 dof, whose relative sd is sqrt(2/(replicas-1))."""
    rel = sigma * math.sqrt(2.0 / (replicas - 1))
    return 1.0 - rel, 1.0 + rel


def gaussian_p_value(z: float) -> float:
    """Two-sided normal p-value for a z score (reported on band failures)."""
    return math.erfc(abs(z) / math.sqrt(2.0))
