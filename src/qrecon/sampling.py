"""Measurement simulation and maximum-likelihood estimation.

Randomness comes from counter-based Philox streams (Salmon et al., SC 2011)
keyed by (master seed, observable, replica), so each replica's draws depend
only on its key and replay bit-identically from the seed.
`measurement_stream` defines a stream: the Philox key is
`SeedSequence(entropy=seed, spawn_key=(observable code, replica))`.
A tomography experiment computes the keys of all its replicas in one uint32
array pass that redoes numpy's SeedSequence mixing (a test pins them to
numpy's keys), and reuses one bit generator, setting each replica's key
with a zero counter, so its draws equal those of `measurement_stream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .probmodel import ThetaAngle, prob_from_theta

OBSERVABLE_CODES = {"q": 0, "p": 1, "r": 2}

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


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


def _replica_keys(master_seed: int, code: int, replicas: int) -> np.ndarray:
    """(replicas, 2) uint64 Philox keys: row r is
    `SeedSequence(entropy=master_seed, spawn_key=(code, r)).generate_state(2,
    np.uint64)`, for code and every r below 2**32 (one spawn-key word each).

    Every entropy word is a uint32 array: shape (1,) for the words all
    replicas share, (replicas,) for the replica index, so one pass of
    numpy's mixing serves every replica.  The hash constants advance the
    same way for all replicas and stay Python ints.
    """
    words = []
    while True:  # the seed's uint32 words, low first; 0 is one word
        words.append(master_seed & _MASK32)
        master_seed >>= 32
        if not master_seed:
            break
    # a spawn key follows, so the run entropy is zero-padded to the pool size
    words += [0] * (_POOL_SIZE - len(words)) + [code]
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(replicas, dtype=np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const  # uint32 arrays wrap mod 2**32, as in C
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(2, np.uint64): four uint32 words, paired little-endian
    hash_const = _INIT_B
    state = np.empty((replicas, _POOL_SIZE), dtype="<u4")
    for i in range(_POOL_SIZE):
        data = pool[i] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        data = data * hash_const
        state[:, i] = data ^ (data >> _XSHIFT)
    return state.view("<u8").astype(np.uint64)


def _replica_estimates(theta: float, trials: int, seed: int, observable: str,
                       replicas: int) -> np.ndarray:
    """The MLE of each replica's `simulate_bernoulli` sample: one Philox is
    reset to each replica's key (zero counter, empty buffer), which draws
    exactly what that replica's `measurement_stream` would."""
    p0, _ = prob_from_theta(theta)
    keys = _replica_keys(seed, OBSERVABLE_CODES[observable], replicas)
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    key_state = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
    state = {"bit_generator": "Philox", "state": key_state,
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty(replicas)
    for r in range(replicas):
        key_state["key"] = keys[r]
        bitgen.state = state
        zeros = rng.binomial(trials, p0)
        # scalar math: np.arccos(np.sqrt(...)) on the array is not
        # bit-identical to it
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
