"""Measurement simulation.

Every binary observable is described by its angle on the theta chart,
P(0) = cos^2(theta/2) (`qrecon.probmodel`): a tomography experiment takes
one {observable: theta} dict.  A measurement of M binary outcomes is its
count N0 of outcome 0, and a replica's maximum-likelihood estimate
2*arccos(sqrt(N0/M)) maps the observed frequency back through the same
chart.  The experiment returns one summary of its estimates' spread per
observable; `qrecon.criteria` compares their precisions and judges them.

Randomness comes from counter-based Philox streams (Salmon et al., SC 2011),
one per (master seed, observable): `measurement_stream` keys it with
`SeedSequence(entropy=seed, spawn_key=(observable code,))`.  Replica r of a
tomography experiment is the r-th binomial draw of its observable's stream,
so all replicas come from one array draw, replay bit-identically from the
seed, and the first k replicas of any run are those of a k-replica run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import MAX_WIDTH, DomainError, check_integer, check_name, check_real
from .probmodel import prob_from_theta

OBSERVABLE_CODES = {"q": 0, "p": 1, "r": 2}

# above 2**60 numpy's binomial draws add variance: M * var(theta_hat) of q at
# pi/3 (5,000 replicas, seeds 1..20) reads 1.002 from 2**56 to 2**60, then
# 1.008 at 2**61, 1.051 at 2**62 and 1.132 at 2**63 - 1, where 1 is due
MAX_TRIALS = 2**60


def measurement_stream(master_seed: int, observable: str) -> np.random.Generator:
    """Independent Philox stream for one (seed, observable) pair."""
    seed = check_integer("seed", master_seed, 0)
    check_name("observable", observable, OBSERVABLE_CODES)
    seq = np.random.SeedSequence(entropy=seed,
                                 spawn_key=(OBSERVABLE_CODES[observable],))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class ObservableSummary:
    observable: str
    trials: int
    theta_true: float
    theta_hat_mean: float
    var_hat: float
    precision_per_measurement: float


def _angle(observable: str, theta) -> float:
    """An observable's angle on the theta chart, checked with its name."""
    check_name("observable", observable, OBSERVABLE_CODES)
    return check_real(f"observable {observable}: theta", theta)


def _trial_count(observable: str, trials: int) -> int:
    """An observable's trial count M, checked: 1 to MAX_TRIALS."""
    return check_integer(f"observable {observable}: trials", trials, 1, MAX_TRIALS)


def _replica_estimates(theta: float, trials: int, seed: int, observable: str,
                       replicas: int) -> np.ndarray:
    """Each replica's maximum-likelihood estimate 2*arccos(sqrt(N0/M)), in
    one array pass: replica r's count N0 of outcome 0 in M = `trials`
    outcomes (a count `_trial_count` passes) is the r-th binomial draw of the
    (seed, observable) stream."""
    p0, _ = prob_from_theta(theta)
    zeros = measurement_stream(seed, observable).binomial(trials, p0, size=replicas)
    if trials > 2**53:
        # float64 rounds counts above 2**53; Python's int division gives the
        # correctly rounded N0/M
        freq = np.array([z / trials for z in zeros.tolist()])
    else:
        # float64 holds these counts exactly, so the array division is
        # correctly rounded too
        freq = zeros / trials
    return 2.0 * np.arccos(np.sqrt(freq))


def tomography_experiment(thetas: dict[str, float], trials: dict[str, int],
                          seed: int, replicas: int) -> tuple[ObservableSummary, ...]:
    """Repeated-measurement estimation experiment over a set of observables:
    one summary per measured observable, in name order.

    `thetas` gives each observable's angle on the theta chart.  Each
    observable is measured `trials[name]` times per replica; the spread of
    the per-replica estimates gives the empirical estimator variance and the
    per-measurement precision contribution 1 / (M * var), infinite for an
    estimate pinned at a boundary.
    """
    for arg, given in (("thetas", thetas), ("trials", trials)):
        if not isinstance(given, dict) or not all(isinstance(k, str) for k in given):
            raise DomainError(f"{arg} must be a dict keyed by observable name")
    # every name with its angle, also one no trial count measures
    thetas = {name: _angle(name, theta) for name, theta in thetas.items()}
    if not thetas:
        raise DomainError("no observables to measure")
    if not trials:
        raise DomainError("no trial counts: no observable would be measured")
    unknown = sorted(set(trials) - set(thetas))
    if unknown:
        raise DomainError(f"observable {unknown[0]}: trial count given but no angle")
    # no array above 2**MAX_WIDTH entries: a replica count past it fails
    # here, before any draw, not in numpy
    if check_integer("replicas", replicas, 0, 1 << MAX_WIDTH) < 2:
        raise DomainError("need at least two replicas for a variance")
    # every count, in name order, before any draw (its name came with an angle)
    trials = {name: _trial_count(name, trials[name]) for name in sorted(trials)}
    summaries = []
    for name, m in trials.items():
        theta = thetas[name]
        est = _replica_estimates(theta, m, seed, name, replicas)
        var_hat = float(np.var(est, ddof=1))
        precision = 1.0 / (m * var_hat) if var_hat > 0.0 else math.inf
        summaries.append(ObservableSummary(
            observable=name, trials=m, theta_true=theta,
            theta_hat_mean=float(est.mean()), var_hat=var_hat,
            precision_per_measurement=precision))
    return tuple(summaries)
