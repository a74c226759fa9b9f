import math
import tracemalloc

import numpy as np
import pytest

from qrecon import cli, criteria, sampling
from qrecon.bloch import BlochPoint
from qrecon.exceptions import DomainError
from qrecon.probmodel import prob_from_theta, theta_from_prob
from qrecon.sampling import (_replica_estimates, _trial_count,
                             measurement_stream, tomography_experiment)


class TestArguments:
    # seed -1 once looped without end, growing a list of the seed's words;
    # the malformed containers once raised a bare TypeError or AttributeError
    @pytest.mark.parametrize("call", [
        lambda: tomography_experiment({"q": 1.0}, {"q": 10}, seed=-1, replicas=10),
        lambda: tomography_experiment({"q": 1.0}, {"q": 10}, seed=1.5, replicas=10),
        lambda: tomography_experiment({"q": 1.0}, {"q": True}, seed=1, replicas=10),
        lambda: tomography_experiment({"q": 1.0}, {"q": 10.5}, seed=1, replicas=10),
        lambda: tomography_experiment({"q": 1.0}, {"q": 2.5}, seed=1, replicas=10),
        lambda: tomography_experiment({"q": 1.0}, {"q": 2**63}, seed=1, replicas=10),
        # above 2**60 numpy's binomial draws add variance
        lambda: tomography_experiment({"q": 1.0}, {"q": 2**60 + 1}, seed=1,
                                      replicas=10),
        lambda: tomography_experiment({"q": 1.0}, {"q": 10}, seed=1, replicas=2.5),
        lambda: tomography_experiment({"x": 1.0}, {"x": 10}, seed=1, replicas=10),
        lambda: tomography_experiment({"q": math.nan}, {"q": 10}, seed=1,
                                      replicas=10),
        lambda: tomography_experiment({"q": math.inf}, {"q": 10}, seed=1,
                                      replicas=10),
        lambda: measurement_stream(1, []),
        # a list is no dict key: the empty tuple stands for it
        lambda: tomography_experiment({(): 1.0}, {(): 10}, seed=1, replicas=10),
        lambda: tomography_experiment({"q": 1.0}, 5, seed=1, replicas=10),
        lambda: tomography_experiment({"q": 1.0}, ["q"], seed=1, replicas=10),
        lambda: tomography_experiment({"q": 1.0}, "q", seed=1, replicas=10),
        lambda: tomography_experiment([1.0], {"q": 10}, seed=1, replicas=10),
        lambda: tomography_experiment(None, {"q": 10}, seed=1, replicas=10),
        lambda: tomography_experiment({"q": 1.0, 1: 1.0}, {"q": 10, 1: 10},
                                      seed=1, replicas=10),
    ], ids=["tomography-seed-negative", "tomography-seed-float",
            "tomography-trials-true", "tomography-trials-float",
            "tomography-trials-2.5", "tomography-trials-past-int64",
            "tomography-trials-past-cap",
            "tomography-replicas-float", "tomography-observable-unknown",
            "tomography-theta-nan", "tomography-theta-inf",
            "stream-observable-list", "tomography-observable-tuple",
            "tomography-trials-int", "tomography-trials-list",
            "tomography-trials-str", "tomography-thetas-list",
            "tomography-thetas-none", "tomography-keys-mixed"])
    def test_bad_arguments_raise_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("thetas,trials,name", [
        ({"q": 1.0}, 5, "trials"), ([1.0], {"q": 10}, "thetas"),
        ({"q": 1.0, 1: 1.0}, {"q": 10, 1: 10}, "thetas"),
    ])
    def test_a_malformed_container_is_named(self, thetas, trials, name):
        with pytest.raises(DomainError, match=f"^{name} must be a dict"):
            tomography_experiment(thetas, trials, seed=1, replicas=10)


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

    def test_degenerate_zero(self):
        assert (_replica_estimates(0.0, 500, 1, "q", 10) == 0.0).all()

    def test_degenerate_pi(self):
        assert (_replica_estimates(math.pi, 500, 1, "q", 10) == math.pi).all()

    def test_balanced_within_binomial_band(self):
        # N0 within 5 sd sqrt(M)/2 of M/2: theta_hat within 5 / sqrt(M) of pi/2
        trials = 1_000_000
        (est,) = _replica_estimates(math.pi / 2, trials, 7, "q", 1)
        assert abs(est - math.pi / 2) < 5 / math.sqrt(trials)

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            _trial_count("q", 0)

    def test_deterministic_per_key(self):
        a = _replica_estimates(1.0, 1000, 3, "q", 1)
        b = _replica_estimates(1.0, 1000, 3, "q", 1)
        c = _replica_estimates(1.0, 1000, 4, "q", 1)
        d = _replica_estimates(1.0, 1000, 3, "p", 1)
        assert np.array_equal(a, b)
        assert a != c or a != d  # distinct streams decorrelate

    # at every trial count the frequency N0/M is the correctly rounded one
    # theta_from_prob takes; np.arccos may differ from math.acos in the last bit
    @pytest.mark.parametrize("trials", [1, 10, 100_000, 2**53, 10**18 + 7, 2**60])
    @pytest.mark.parametrize("theta", [0.0, 0.01, 1.0, 2.5, math.pi])
    def test_replica_0_is_the_first_draw_of_the_stream(self, theta, trials):
        p0, _ = prob_from_theta(theta)
        for seed in (0, 17, 2**64 + 5):
            for o in "qpr":
                count = int(measurement_stream(seed, o).binomial(trials, p0))
                mle = theta_from_prob(count / trials)
                est = _replica_estimates(theta, trials, seed, o, 5)[0]
                assert abs(est - mle) <= 2 * math.ulp(mle)

    def test_q_and_p_streams_differ(self):
        q, p, r = (_replica_estimates(1.0, 1000, 17, o, 64) for o in "qpr")
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


class TestCramerRao:
    def test_empirical_variance_near_cramer_rao(self):
        trials = 10_000
        estimates = _replica_estimates(math.pi / 3, trials, 20240801, "q", 200)
        scaled = np.var(estimates, ddof=1) * trials
        assert abs(scaled - 1.0) < 0.2

    def test_variance_tracks_one_over_m(self):
        # the scaled variance M*var stays pinned near 1 as M grows
        for trials in (100, 10_000):
            estimates = _replica_estimates(1.0, trials, 31, "q", 300)
            scaled = np.var(estimates, ddof=1) * trials
            assert abs(scaled - 1.0) < 0.45  # 5-sigma band at 300 replicas


def by_name(summaries):
    return {s.observable: s for s in summaries}


def precision_parity(cfg):
    """The precision-parity value criteria.tomography finds for cfg."""
    checks, _ = criteria.tomography(cfg)
    return next(c.value for c in checks if c.id == "precision-parity")


class TestTomography:
    def test_rebit_precision_parity(self):
        theta_q = math.pi / 3
        summaries = tomography_experiment(
            {"q": theta_q, "p": math.pi / 2 - theta_q},
            {"q": 100_000, "p": 100_000}, seed=20240801, replicas=4000)
        assert precision_parity({
            "state": {"kind": "rebit", "theta_q": theta_q}, "trials": 100_000,
            "seed": 20240801, "replicas": 4000}) < 0.05
        for s in summaries:
            assert s.theta_hat_mean == pytest.approx(s.theta_true, abs=0.01)

    def test_cardinal_point_estimates(self):
        point = BlochPoint(0.0, 0.0, 1.0)  # r fully determined
        # 50 replicas leave ~30% spread on a variance ratio; the parity
        # bound here only needs to absorb that noise (the tight parity
        # claim is exercised with large replica counts in the acceptance run)
        summaries = by_name(tomography_experiment(
            {o: point.theta_of(o) for o in "qpr"},
            {"q": 2000, "p": 2000, "r": 2000}, seed=5, replicas=50))
        r = summaries["r"]
        assert r.theta_hat_mean == 0.0
        assert r.var_hat == 0.0
        assert summaries["q"].theta_hat_mean == pytest.approx(math.pi / 2, abs=0.05)
        assert summaries["p"].theta_hat_mean == pytest.approx(math.pi / 2, abs=0.05)
        # the pinned estimate has no spread and is excluded from parity
        assert precision_parity({
            "state": {"kind": "qubit", "bloch": [0.0, 0.0, 1.0]}, "trials": 2000,
            "seed": 5, "replicas": 50}) <= 1.5

    def test_angles_are_floats_and_some_are_needed(self):
        (q,) = tomography_experiment({"q": 0}, {"q": 500}, seed=3, replicas=10)
        assert q.theta_true == 0.0
        assert type(q.theta_true) is float
        with pytest.raises(DomainError, match="no observables"):
            tomography_experiment({}, {}, seed=3, replicas=10)

    def test_replicas_are_draws_of_one_stream_per_observable(self):
        thetas, trials = {"q": 1.0, "p": 0.3}, {"q": 5000, "p": 5000}
        summaries = tomography_experiment(thetas, trials, seed=9, replicas=64)
        for o in "qp":
            est = _replica_estimates(thetas[o], trials[o], 9, o, 64)
            assert by_name(summaries)[o].theta_hat_mean == float(est.mean())
        assert summaries == tomography_experiment(thetas, trials, seed=9,
                                                  replicas=64)

    def test_no_variance_band_fails_at_default_replicas(self):
        # 600 five-sigma bands: a failure has odds of about 3e-4
        for seed in range(200):
            cfg = cli.validate("tomography", {
                "state": {"kind": "qubit", "bloch": [0.36, 0.48, 0.8]},
                "seed": seed})
            checks, _ = criteria.tomography(cfg)
            bands = [c for c in checks if c.id.startswith("variance-band-")]
            assert len(bands) == 3
            assert all(c.passed for c in bands), (seed, bands)

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            tomography_experiment({"q": 1.0}, {"q": 0}, seed=1, replicas=10)

    # a bad count once failed only after every observable before it in name
    # order had been drawn
    @pytest.mark.parametrize("bad", [2.5, 0, 2**63, True])
    def test_every_trial_count_is_checked_before_any_draw(self, bad, monkeypatch):
        streams = []
        real = sampling.measurement_stream
        monkeypatch.setattr(sampling, "measurement_stream",
                            lambda *args: streams.append(args) or real(*args))
        with pytest.raises(DomainError, match="observable r: trials"):
            tomography_experiment({o: 1.0 for o in "pqr"},
                                  {"p": 1000, "q": 1000, "r": bad}, seed=1,
                                  replicas=10)
        assert streams == []

    # an unknown name once failed only after the observables before it in
    # name order had been drawn
    def test_every_observable_name_is_checked_before_any_draw(self, monkeypatch):
        streams = []
        real = sampling.measurement_stream
        monkeypatch.setattr(sampling, "measurement_stream",
                            lambda *args: streams.append(args) or real(*args))
        with pytest.raises(DomainError, match="unknown observable 'x'"):
            tomography_experiment({o: 1.0 for o in "pqx"},
                                  {o: 1000 for o in "pqx"}, seed=1, replicas=10)
        assert streams == []

    # an angle under a name no trial count measured was once dropped unchecked
    def test_every_angle_name_is_checked_before_any_draw(self, monkeypatch):
        streams = []
        real = sampling.measurement_stream
        monkeypatch.setattr(sampling, "measurement_stream",
                            lambda *args: streams.append(args) or real(*args))
        with pytest.raises(DomainError, match="unknown observable 'x'"):
            tomography_experiment({"q": 1.0, "x": 0.5}, {"q": 10}, seed=1, replicas=10)
        assert streams == []

    def test_trials_must_name_measured_observables(self):
        with pytest.raises(DomainError, match="observable p"):
            tomography_experiment({"q": 1.0}, {"p": 10}, seed=1, replicas=10)
        # no trial counts would measure nothing: not a vacuous report
        with pytest.raises(DomainError, match="no trial counts"):
            tomography_experiment({"q": 1.0}, {}, seed=1, replicas=10)
        with pytest.raises(DomainError, match="two replicas"):
            tomography_experiment({"q": 1.0}, {"q": 10}, seed=1, replicas=1)


    # 2**40 once ended in a bare MemoryError and 10**30 in a bare ValueError
    @pytest.mark.parametrize("replicas", [2**24 + 1, 2**40, 10**30])
    def test_replicas_past_the_array_cap_fail_before_any_draw(self, replicas):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="replicas"):
                tomography_experiment({"q": 1.0}, {"q": 10}, seed=1,
                                      replicas=replicas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

class TestBands:
    # M*var(theta_hat) 20% low and 20% high at 2,000 replicas: both fail with
    # a value above the tolerance, the 5-sigma chi^2 half-width
    @pytest.mark.parametrize("scaled", [0.8, 1.2], ids=["low", "high"])
    def test_a_band_is_judged_as_a_ceiling(self, monkeypatch, scaled):
        summary = sampling.ObservableSummary("q", 1000, 1.0, 1.0, scaled / 1000, 1.0)
        monkeypatch.setattr(criteria, "tomography_experiment",
                            lambda *args, **kwargs: (summary,))
        cfg = cli.validate("tomography", {"replicas": 2000})
        (band,), _ = criteria.tomography(cfg)
        assert band.id == "variance-band-q" and not band.passed
        assert band.value == pytest.approx(0.2)
        assert band.tolerance == pytest.approx(5 * math.sqrt(2 / 1999))
        assert band.value > band.tolerance
