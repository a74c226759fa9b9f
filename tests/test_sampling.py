import math
import tracemalloc

import numpy as np
import pytest

from qrecon import cli, criteria
from qrecon.bloch import BlochPoint
from qrecon.exceptions import DomainError
from qrecon.sampling import (MeasurementSample, _replica_estimates,
                             _replica_zeros, chi2_band, measurement_stream,
                             mle_theta, simulate_bernoulli,
                             tomography_experiment)


def mle_replicas(theta, trials, seed, replicas):
    """mle_theta of each of the first `replicas` replicas of observable q."""
    return [mle_theta(MeasurementSample((z, trials - z)))[0]
            for z in _replica_zeros(theta, trials, seed, "q", replicas).tolist()]


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
        a = simulate_bernoulli(1.0, 1000, seed=3, observable="q")
        b = simulate_bernoulli(1.0, 1000, seed=3, observable="q")
        c = simulate_bernoulli(1.0, 1000, seed=4, observable="q")
        d = simulate_bernoulli(1.0, 1000, seed=3, observable="p")
        assert a == b
        assert a != c or a != d  # distinct streams decorrelate

    # seed -1 once looped without end, growing a list of the seed's words
    @pytest.mark.parametrize("call", [
        lambda: simulate_bernoulli(1.0, 10, seed=-1),
        lambda: tomography_experiment({"q": 1.0}, {"q": 10}, seed=-1, replicas=10),
        lambda: simulate_bernoulli(1.0, 10, seed=1.5),
        lambda: tomography_experiment({"q": 1.0}, {"q": 10}, seed=1.5, replicas=10),
        lambda: simulate_bernoulli(1.0, True, seed=1),
        lambda: tomography_experiment({"q": 1.0}, {"q": True}, seed=1, replicas=10),
        lambda: simulate_bernoulli(1.0, 10.5, seed=1),
        lambda: tomography_experiment({"q": 1.0}, {"q": 10.5}, seed=1, replicas=10),
        lambda: simulate_bernoulli(1.0, 2.5, seed=1),
        lambda: simulate_bernoulli(1.0, 2**63, seed=1),
        lambda: tomography_experiment({"q": 1.0}, {"q": 10}, seed=1, replicas=2.5),
        lambda: simulate_bernoulli(1.0, 10, seed=1, observable="x"),
        lambda: tomography_experiment({"x": 1.0}, {"x": 10}, seed=1, replicas=10),
        lambda: simulate_bernoulli(math.nan, 10, seed=1),
        lambda: tomography_experiment({"q": math.nan}, {"q": 10}, seed=1,
                                      replicas=10),
        lambda: simulate_bernoulli(math.inf, 10, seed=1),
    ], ids=["seed-negative", "tomography-seed-negative", "seed-float",
            "tomography-seed-float", "trials-true", "tomography-trials-true",
            "trials-float", "tomography-trials-float", "trials-2.5",
            "trials-past-int64", "tomography-replicas-float",
            "observable-unknown", "tomography-observable-unknown", "theta-nan",
            "tomography-theta-nan", "theta-inf"])
    def test_bad_arguments_raise_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestMeasurementStream:
    def test_streams_are_reproducible(self):
        x = measurement_stream(11, "p").integers(0, 1 << 30, 8)
        y = measurement_stream(11, "p").integers(0, 1 << 30, 8)
        assert np.array_equal(x, y)

    def test_streams_differ_across_cells(self):
        base = measurement_stream(11, "p").integers(0, 1 << 30, 8)
        other = measurement_stream(11, "q").integers(0, 1 << 30, 8)
        third = measurement_stream(12, "p").integers(0, 1 << 30, 8)
        assert not np.array_equal(base, other)
        assert not np.array_equal(base, third)


class TestReplicaEstimates:
    # numpy's binomial inverts the cdf for n*min(p, 1-p) <= 30 and uses BTPE
    # above; theta 0 and pi are the p = 1 and p = 0 boundaries
    @pytest.mark.parametrize("trials", [1, 10, 100_000])
    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.5, math.pi])
    def test_first_replicas_equal_a_shorter_run(self, theta, trials):
        for o in "qpr":
            run = _replica_estimates(theta, trials, 17, o, 1000)
            assert run.shape == (1000,)
            for k in (1, 37, 999):
                assert np.array_equal(
                    run[:k], _replica_estimates(theta, trials, 17, o, k))

    # up to 2**53 trials the frequency N0/M is the correctly rounded one
    # mle_theta takes; np.arccos may differ from math.acos in the last bit
    @pytest.mark.parametrize("trials", [1, 10, 100_000, 2**53])
    @pytest.mark.parametrize("theta", [0.0, 0.01, 1.0, 2.5, math.pi])
    def test_replica_0_is_simulate_bernoulli(self, theta, trials):
        for seed in (0, 17, 2**64 + 5):
            for o in "qpr":
                sample = simulate_bernoulli(theta, trials, seed, o)
                zeros = _replica_zeros(theta, trials, seed, o, 5)
                assert zeros[0] == sample.counts[0]
                est = _replica_estimates(theta, trials, seed, o, 5)[0]
                mle = mle_theta(sample)[0]
                assert abs(est - mle) <= 2 * math.ulp(mle)

    def test_q_and_p_streams_differ(self):
        q, p, r = (_replica_zeros(1.0, 1000, 17, o, 64) for o in "qpr")
        assert not np.array_equal(q, p)
        assert not np.array_equal(q, r) and not np.array_equal(p, r)

    def test_memory_stays_linear_in_the_key_array(self):
        # the counts and two float temporaries peak at 24 B per replica; the
        # run's fixed allocations add about 18 B per replica here, and
        # dominate below some 10**4 replicas.
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
        estimates = mle_replicas(math.pi / 3, trials, 20240801, 200)
        scaled = np.var(estimates, ddof=1) * trials
        assert abs(scaled - 1.0) < 0.2

    def test_variance_tracks_one_over_m(self):
        # the scaled variance M*var stays pinned near 1 as M grows
        for trials in (100, 10_000):
            estimates = mle_replicas(1.0, trials, 31, 300)
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

    def test_replicas_are_draws_of_one_stream_per_observable(self):
        thetas, trials = {"q": 1.0, "p": 0.3}, {"q": 5000, "p": 5000}
        report = tomography_experiment(thetas, trials, seed=9, replicas=64)
        for o in "qp":
            est = _replica_estimates(thetas[o], trials[o], 9, o, 64)
            assert report.summary_for(o).theta_hat_mean == float(est.mean())
        assert report == tomography_experiment(thetas, trials, seed=9,
                                               replicas=64)

    def test_no_variance_band_fails_at_default_replicas(self):
        # 600 five-sigma bands: a failure has odds of about 3e-4
        for seed in range(200):
            cfg = cli.validate("tomography", {
                "state": {"kind": "qubit", "bloch": [0.36, 0.48, 0.8]},
                "seed": seed})
            checks, _ = criteria.tomography(cfg, None)
            bands = [c for c in checks if c.id.startswith("variance-band-")]
            assert len(bands) == 3
            assert all(c.passed for c in bands), (seed, bands)

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
