import math
import tracemalloc

import numpy as np
import pytest

from qrecon.bloch import BlochPoint
from qrecon.exceptions import DomainError
from qrecon.sampling import (KEY_CHUNK, MeasurementSample, _replica_estimates,
                             _replica_keys, chi2_band, measurement_stream,
                             mle_theta, simulate_bernoulli,
                             tomography_experiment)


class TestSimulateBernoulli:
    def test_degenerate_zero(self):
        sample = simulate_bernoulli(0.0, 500, seed=1)
        assert sample.counts == (500, 0)

    def test_degenerate_pi(self):
        sample = simulate_bernoulli(math.pi, 500, seed=1)
        assert sample.counts == (0, 500)

    def test_balanced_within_binomial_band(self):
        trials = 1_000_000
        sample = simulate_bernoulli(math.pi / 2, trials, seed=7)
        sigma = math.sqrt(trials * 0.25)
        assert abs(sample.counts[0] - trials / 2) < 5 * sigma

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            simulate_bernoulli(1.0, 0, seed=0)

    def test_deterministic_per_key(self):
        a = simulate_bernoulli(1.0, 1000, seed=3, observable="q", replica=5)
        b = simulate_bernoulli(1.0, 1000, seed=3, observable="q", replica=5)
        c = simulate_bernoulli(1.0, 1000, seed=3, observable="q", replica=6)
        d = simulate_bernoulli(1.0, 1000, seed=3, observable="p", replica=5)
        assert a == b
        assert a != c or a != d  # distinct streams decorrelate


class TestMeasurementStream:
    def test_streams_are_reproducible(self):
        x = measurement_stream(11, "p", 3).integers(0, 1 << 30, 8)
        y = measurement_stream(11, "p", 3).integers(0, 1 << 30, 8)
        assert np.array_equal(x, y)

    def test_streams_differ_across_cells(self):
        base = measurement_stream(11, "p", 3).integers(0, 1 << 30, 8)
        other = measurement_stream(11, "p", 4).integers(0, 1 << 30, 8)
        third = measurement_stream(12, "p", 3).integers(0, 1 << 30, 8)
        assert not np.array_equal(base, other)
        assert not np.array_equal(base, third)


class TestReplicaKeys:
    # seeds of 1, 2, 3, 4 and 5 uint32 words
    @pytest.mark.parametrize("seed", [7, 2**40 + 3, 2**64 + 5, 2**100 + 7,
                                      2**130 + 1])
    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_keys_equal_numpy_seed_sequence(self, seed, code):
        keys = _replica_keys(seed, code, 3000)
        assert keys.shape == (3000, 2) and keys.dtype == np.uint64
        for r in (0, 1, 2999):
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(code, r))
            assert np.array_equal(keys[r], seq.generate_state(2, np.uint64))


class TestReplicaEstimates:
    # numpy's binomial inverts the cdf for n*min(p, 1-p) <= 30 and uses BTPE
    # above; theta 0 and pi are the p = 1 and p = 0 boundaries
    @pytest.mark.parametrize("trials", [1, 10, 100_000])
    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.5, math.pi])
    def test_equal_to_one_stream_per_replica(self, theta, trials):
        for o in "qpr":
            direct = [mle_theta(simulate_bernoulli(theta, trials, 17, o,
                                                   replica=r))[0]
                      for r in range(40)]
            assert np.array_equal(_replica_estimates(theta, trials, 17, o, 40),
                                  direct)

    # a seed of three words; trials above 2**53, where a float division
    # would round the counts first (at 2**60 + 1 that rounding is to a power
    # of 2 and changes no estimate, at 10**18 + 7 it changes about one in
    # eight); replicas on both sides of a key chunk's edge
    @pytest.mark.parametrize("seed,trials,replicas,checked", [
        (2**64 + 5, 1000, 40, range(40)),
        (17, 2**60 + 1, 40, range(40)),
        (17, 10**18 + 7, 40, range(40)),
        (17, 1000, KEY_CHUNK + 3, (0, KEY_CHUNK - 1, KEY_CHUNK, KEY_CHUNK + 2)),
    ], ids=["seed-3-words", "trials-2^60+1", "trials-10^18+7", "chunk-edge"])
    def test_equal_to_one_stream_per_replica_at_the_edges(self, seed, trials,
                                                          replicas, checked):
        for o in "qpr":
            est = _replica_estimates(1.0, trials, seed, o, replicas)
            assert est.shape == (replicas,)
            for r in checked:
                sample = simulate_bernoulli(1.0, trials, seed, o, replica=r)
                assert est[r] == mle_theta(sample)[0]

    def test_memory_stays_linear_in_the_key_array(self):
        # the uint64 keys and their mixing peak at 56 B per replica; every
        # key as a Python list at once would hold about 200 B per replica.
        # Below some 10**4 replicas the run's fixed allocations dominate.
        replicas = 40_960
        tracemalloc.start()
        try:
            _replica_estimates(1.0, 10, 17, "q", replicas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * replicas


class TestMleTheta:
    def test_boundary_counts(self):
        assert mle_theta(MeasurementSample((100, 0)))[0] == 0.0
        assert mle_theta(MeasurementSample((0, 100)))[0] == pytest.approx(math.pi)

    def test_balanced_counts(self):
        theta, var = mle_theta(MeasurementSample((50, 50)))
        assert theta == pytest.approx(math.pi / 2)
        assert var == pytest.approx(0.01)

    def test_empirical_variance_near_cramer_rao(self):
        trials = 10_000
        estimates = []
        for replica in range(200):
            sample = simulate_bernoulli(math.pi / 3, trials, seed=20240801,
                                        replica=replica)
            estimates.append(mle_theta(sample)[0])
        scaled = np.var(estimates, ddof=1) * trials
        assert abs(scaled - 1.0) < 0.2

    def test_variance_tracks_one_over_m(self):
        # the scaled variance M*var stays pinned near 1 as M grows
        for trials in (100, 10_000):
            estimates = [
                mle_theta(simulate_bernoulli(1.0, trials, seed=31,
                                             replica=r))[0]
                for r in range(300)
            ]
            scaled = np.var(estimates, ddof=1) * trials
            assert abs(scaled - 1.0) < 0.45  # 5-sigma band at 300 replicas

    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            mle_theta(MeasurementSample((1, 2, 3)))


class TestTomography:
    def test_rebit_precision_parity(self):
        theta_q = math.pi / 3
        report = tomography_experiment(
            {"q": theta_q, "p": math.pi / 2 - theta_q},
            {"q": 100_000, "p": 100_000}, seed=20240801, replicas=4000)
        assert report.max_parity_deviation < 0.05
        for s in report.summaries:
            assert s.theta_hat_mean == pytest.approx(s.theta_true, abs=0.01)

    def test_cardinal_point_estimates(self):
        point = BlochPoint(0.0, 0.0, 1.0)  # r fully determined
        # 50 replicas leave ~30% spread on a variance ratio; the parity
        # bound here only needs to absorb that noise (the tight parity
        # claim is exercised with large replica counts in the acceptance run)
        report = tomography_experiment({o: point.theta_of(o) for o in "qpr"},
                                       {"q": 2000, "p": 2000, "r": 2000},
                                       seed=5, replicas=50)
        r = report.summary_for("r")
        assert r.theta_hat_mean == 0.0
        assert r.var_hat == 0.0
        assert report.summary_for("q").theta_hat_mean == pytest.approx(
            math.pi / 2, abs=0.05)
        assert report.summary_for("p").theta_hat_mean == pytest.approx(
            math.pi / 2, abs=0.05)
        # the pinned estimate has no spread and is excluded from parity
        assert report.max_parity_deviation <= 1.5

    def test_angles_are_floats_and_some_are_needed(self):
        report = tomography_experiment({"q": 0}, {"q": 500}, seed=3, replicas=10)
        assert report.summary_for("q").theta_true == 0.0
        assert type(report.summary_for("q").theta_true) is float
        with pytest.raises(DomainError, match="no observables"):
            tomography_experiment({}, {}, seed=3, replicas=10)

    def test_replicas_are_keyed_by_seed_observable_replica(self):
        thetas, trials = {"q": 1.0, "p": 0.3}, {"q": 5000, "p": 5000}
        report = tomography_experiment(thetas, trials, seed=9, replicas=64)
        for o in "qp":
            direct = np.mean([
                mle_theta(simulate_bernoulli(thetas[o], trials[o], 9, o,
                                             replica=r))[0]
                for r in range(64)])
            assert report.summary_for(o).theta_hat_mean == direct
        assert report == tomography_experiment(thetas, trials, seed=9,
                                               replicas=64)

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            tomography_experiment({"q": 1.0}, {"q": 0}, seed=1, replicas=10)

    def test_trials_must_name_measured_observables(self):
        with pytest.raises(DomainError, match="observable p"):
            tomography_experiment({"q": 1.0}, {"p": 10}, seed=1, replicas=10)
        # no trial counts would measure nothing: not a vacuous report
        with pytest.raises(DomainError, match="no trial counts"):
            tomography_experiment({"q": 1.0}, {}, seed=1, replicas=10)
        with pytest.raises(DomainError, match="two replicas"):
            tomography_experiment({"q": 1.0}, {"q": 10}, seed=1, replicas=1)


class TestBands:
    def test_chi2_band_shape(self):
        lo, hi = chi2_band(200, sigma=5.0)
        assert lo == pytest.approx(1 - 5 * math.sqrt(2 / 199))
        assert hi == pytest.approx(1 + 5 * math.sqrt(2 / 199))
