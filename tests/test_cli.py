import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrecon import butterfly, cli, criteria
from qrecon.cli import main
from qrecon.exceptions import ConfigError


def run(args):
    return main(args)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigHandling:
    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "fft-derive",
                                      "levels": 2, "bogus": 1})
        assert run(["fft-derive", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_wrong_version_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 2, "kind": "fft-derive"})
        assert run(["fft-derive", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    def test_version_must_be_the_int_one(self, tmp_path, capsys, version):
        cfg = write_config(tmp_path, {"version": version, "kind": "fft-derive"})
        assert run(["fft-derive", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "version must be 1" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_nesting_past_the_recursion_limit_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"version": 1, "levels": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert run(["fft-derive", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "bench"})
        assert run(["fft-derive", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_degenerate_trials_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "kind": "tomography",
                                      "trials": 0, "replicas": 52})
        assert run(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "trials must" in capsys.readouterr().err

    def test_zero_bench_repeats_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "kind": "bench",
                                      "sizes": [4096], "repeats": 0})
        assert run(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "repeats must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["samples", "levels", "chart_points"])
    def test_zero_metric_check_size_is_a_usage_error(self, tmp_path, capsys,
                                                      field):
        doc = {"version": 1, "kind": "metric-check", "samples": 5,
               "chart_points": 5, field: 0}
        cfg = write_config(tmp_path, doc)
        assert run(["metric-check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"{field} must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_tomography_state_must_be_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "kind": "tomography",
                                      "state": "x"})
        assert run(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "state must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [{"q": "x"}, True, {"q": True},
                                        {"q": 10, "z": 10}, {}, 2.5])
    def test_malformed_trials_is_a_usage_error(self, tmp_path, capsys, trials):
        cfg = write_config(tmp_path, {"version": 1, "kind": "tomography",
                                      "trials": trials, "replicas": 52})
        assert run(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "trials must" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_bench_sizes_without_4096_is_a_usage_error(self, tmp_path, capsys):
        # the speedup floor is judged at 4096 only: without it no check is made
        cfg = write_config(tmp_path, {"version": 1, "kind": "bench",
                                      "sizes": [16, 64], "repeats": 1})
        assert run(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "sizes must include 4096" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


WRONG_VALUES = [True, "x", None, [], -1]


class TestConfigSchema:
    @pytest.mark.parametrize("kind,field", [
        (kind, field) for kind in cli.DEFAULTS for field in cli.DEFAULTS[kind]])
    @pytest.mark.parametrize("value", WRONG_VALUES, ids=repr)
    def test_wrong_type_is_a_usage_error(self, tmp_path, capsys, kind, field,
                                         value):
        cfg = write_config(tmp_path, {"version": 1, "kind": kind, field: value})
        assert run([kind, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("kind,doc,field", [
        ("metric-check", {"levels": 2.5}, "levels"),
        ("metric-check", {"levels": 21}, "levels"),
        ("fft-derive", {"levels": 0}, "levels"),
        ("fft-derive", {"levels": 13}, "levels"),
        ("partition-audit", {"width": 5}, "width"),
        ("tomography", {"replicas": 2.5}, "replicas"),
        ("tomography", {"replicas": 1}, "replicas"),
        # one below the fewest replicas a 5-sigma variance band can fail at
        ("tomography", {"replicas": 51}, "replicas"),
        ("tomography", {"state": {"kind": "rebit", "theta_q": math.nan}}, "theta_q"),
        ("tomography", {"state": {"kind": "rebit"}}, "theta_q"),
        ("tomography", {"state": {"kind": "rebit", "theta_q": True}}, "theta_q"),
        ("tomography", {"state": {"kind": "qubit", "bloch": [1, 2]}}, "bloch"),
        ("tomography", {"state": {"kind": "qubit", "bloch": [1, 1, 0]}}, "bloch"),
        ("tomography", {"state": {"kind": "qubit", "bloch": [math.nan, 0, 1]}},
         "bloch"),
        ("tomography", {"state": {"kind": "qubit", "bloch": [True, 0, 0]}}, "bloch"),
        ("tomography", {"state": {"kind": "qutrit"}}, "state"),
        ("tomography", {"state": {"kind": []}}, "state"),
        ("bench", {"sizes": 4096}, "sizes"),
        ("bench", {"sizes": [100]}, "sizes"),
        ("bench", {"sizes": [1]}, "sizes"),
        ("bench", {"sizes": [8192]}, "sizes"),
        ("bench", {"sizes": [16, True]}, "sizes"),
        # one above each count cap; 2**63 overflows numpy's binomial
        ("tomography", {"trials": 2**63}, "trials"),
        ("tomography", {"trials": {"q": 1000, "p": 2**63}}, "trials"),
        ("tomography", {"replicas": 10**6 + 1}, "replicas"),
        ("tomography", {"replicas": 2**63}, "replicas"),
        # numbers no float can hold
        ("tomography", {"replicas": 10**400}, "replicas"),
        ("tomography", {"state": {"kind": "rebit", "theta_q": -10**400}}, "theta_q"),
        ("tomography", {"state": {"kind": "qubit", "bloch": [1e200, 0, 0]}}, "bloch"),
        # one above the metric-check and bench count caps
        ("metric-check", {"samples": 10**6 + 1}, "samples"),
        ("metric-check", {"samples": 2**63}, "samples"),
        ("metric-check", {"chart_points": 10**6 + 1}, "chart_points"),
        ("metric-check", {"chart_points": 2**63}, "chart_points"),
        ("bench", {"repeats": 10**3 + 1}, "repeats"),
        # above the metric-check amplitude cap, samples x 2**levels <= 2**24
        ("metric-check", {"levels": 20, "samples": 17}, "samples"),
        ("metric-check", {"levels": 20}, "samples"),
        ("metric-check", {"levels": 5, "samples": 10**6}, "samples"),
        ("metric-check", {"levels": 11, "samples": 8193}, "samples"),
        # one above the trials cap: above 2**60 numpy's binomial adds variance
        ("tomography", {"trials": 2**60 + 1}, "trials"),
        ("tomography", {"trials": {"q": 1000, "p": 2**60 + 1}}, "trials"),
        # a repeated size is timed twice and gives two checks one id
        ("bench", {"sizes": [4096, 4096]}, "sizes"),
        ("bench", {"sizes": [16, 4096, 16]}, "sizes"),
    ])
    def test_out_of_range_is_a_usage_error(self, tmp_path, capsys, kind, doc,
                                           field):
        cfg = write_config(tmp_path, {"version": 1, "kind": kind, **doc})
        assert run([kind, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("kind,doc", [
        ("tomography", {"parity_tol": 0.05}),
        ("tomography", {"band_sigma": 5.0}),
        ("metric-check", {"tol_fs": 1e-10}),
        ("metric-check", {"tol_recursive": 1e-9}),
        ("metric-check", {"tol_chart": 1e-9}),
        ("fft-derive", {"tol": 1e-12}),
        # loosened until any value passes
        ("tomography", {"state": {"kind": "qubit", "bloch": [0.36, 0.48, 0.8]},
                        "trials": 1000, "replicas": 3, "parity_tol": 1e300,
                        "band_sigma": 1e300}),
        ("metric-check", {"tol_fs": 1e300, "tol_recursive": 1e300,
                          "tol_chart": 1e300}),
    ], ids=["parity_tol", "band_sigma", "tol_fs", "tol_recursive", "tol_chart",
            "tol", "loose-tomography", "loose-metric-check"])
    def test_no_config_sets_a_tolerance(self, tmp_path, capsys, kind, doc):
        cfg = write_config(tmp_path, {"version": 1, "kind": kind, **doc})
        assert run([kind, "--config", cfg, "--out", str(tmp_path)]) == 2
        removed = [field for field in doc if field not in cli.DEFAULTS[kind]]
        err = capsys.readouterr().err
        assert removed and all(field in err for field in removed)
        assert not (tmp_path / "report.json").exists()

    def test_fewest_replicas_follow_the_band_width(self, tmp_path, capsys):
        # the band's tolerance is below 1 from MIN_REPLICAS on, and 1 or more
        # below, where not even a zero variance could fail it
        def tolerance(replicas):
            return criteria.BAND_SIGMA * math.sqrt(2.0 / (replicas - 1))
        assert tolerance(cli.MIN_REPLICAS) < 1.0 <= tolerance(cli.MIN_REPLICAS - 1)
        assert cli.MIN_REPLICAS == 52
        cfg = write_config(tmp_path, {"version": 1, "kind": "tomography",
                                      "replicas": 51})
        assert run(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "replicas must be at least 52" in capsys.readouterr().err
        assert cli.validate("tomography", {"replicas": 52})["replicas"] == 52

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        assert run(["partition-audit", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_defaults_pass_the_schema(self):
        for kind in cli.DEFAULTS:
            assert cli.validate(kind, {}) == cli.DEFAULTS[kind]

    def test_count_caps_pass_the_schema(self):
        fields = {"trials": {"q": cli.MAX_TRIALS, "p": 1}, "replicas": 10**6}
        assert cli.validate("tomography", fields)["replicas"] == 10**6
        assert cli.validate("tomography", {"trials": cli.MAX_TRIALS})
        fields = {"samples": 10**6, "chart_points": 10**6}
        assert cli.validate("metric-check", fields)["chart_points"] == 10**6
        assert cli.validate("bench", {"repeats": 10**3})["repeats"] == 10**3

    def test_default_tomography_passes_at_the_trials_cap(self, tmp_path):
        # up to the cap numpy's binomial draws keep M * var(theta_hat) near 1
        cfg = write_config(tmp_path, {"version": 1, "trials": cli.MAX_TRIALS})
        assert run(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("levels", [1, 4, 11, 20])
    def test_amplitude_cap_passes_the_schema(self, levels):
        samples = min(cli.MAX_SAMPLES, cli.MAX_AMPLITUDES >> levels)
        fields = {"levels": levels, "samples": samples}
        assert cli.validate("metric-check", fields)["samples"] == samples


# ints around every bound the schema checks (2**60 caps the trials, 2**63
# overflows numpy's binomial, 2**1024 a float), floats whose square
# overflows, nan and +-inf
BOUNDS = [0, 1, 2, 4, 12, 20, 10**3, 4096, 10**6, 2**24, 2**60, 2**63, 2**64,
          2**1024]
NAMES = ["kind", "rebit", "qubit", "theta_q", "bloch", "q", "p", "r"]
NUMBERS = (st.builds(int.__add__, st.sampled_from(BOUNDS), st.integers(-1, 1))
           | st.sampled_from([-2**1024, 1e154, 1e200, 1.7976931348623157e308])
           | st.integers() | st.floats())
SCALARS = (NUMBERS | st.booleans() | st.none() | st.sampled_from(NAMES)
           | st.text(max_size=4))
JSON_VALUES = st.one_of(
    NUMBERS, SCALARS, st.lists(NUMBERS, max_size=4), st.lists(SCALARS, max_size=4),
    st.dictionaries(st.sampled_from(NAMES), SCALARS | st.lists(SCALARS, max_size=3),
                    max_size=4),
    st.builds(dict, kind=st.sampled_from(["rebit", "qubit"]), theta_q=NUMBERS,
              bloch=st.lists(NUMBERS, min_size=3, max_size=3)))
# one field of one kind per example; the other fields keep their defaults
CONFIGS = st.one_of(*[st.tuples(st.just(kind), st.just(field), JSON_VALUES)
                      for kind, fields in cli.FIELDS.items() for field in fields])


class TestSchemaProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(CONFIGS)
    def test_validate_returns_a_config_or_raises_config_error(self, config):
        kind, field, value = config
        try:
            cfg = cli.validate(kind, {field: value})
        except ConfigError:
            return
        assert cfg[field] is value


def _tomography_configs(kind, state):
    count = st.integers(1, cli.MAX_TRIALS)
    names = st.sampled_from(criteria.OBSERVABLES[kind])
    return st.fixed_dictionaries({
        "state": state,
        "trials": count | st.dictionaries(names, count, min_size=1),
        # seeds of 1 to 5 uint32 words
        "seed": st.integers(1, 5).flatmap(
            lambda words: st.integers(1 << 32 * (words - 1), (1 << 32 * words) - 1)),
        "replicas": st.integers(cli.MIN_REPLICAS, 300)})


def _on_sphere(a, b):
    return {"kind": "qubit", "bloch": [math.sin(a) * math.cos(b),
                                       math.sin(a) * math.sin(b), math.cos(a)]}


# valid tomography configs only, trial counts up to the schema's cap
TOMOGRAPHY_CONFIGS = (
    _tomography_configs("rebit", st.builds(
        lambda theta: {"kind": "rebit", "theta_q": theta},
        st.floats(allow_nan=False, allow_infinity=False)))
    | _tomography_configs("qubit", st.builds(
        _on_sphere, st.floats(0.0, math.pi), st.floats(-math.pi, math.pi))))


class TestTomographyProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(TOMOGRAPHY_CONFIGS)
    def test_valid_configs_end_in_a_verdict(self, tmp_path_factory, doc):
        out = tmp_path_factory.mktemp("tomography")
        cfg = write_config(out, {"version": 1, "kind": "tomography", **doc})
        assert run(["tomography", "--config", cfg, "--out", str(out)]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        assert all(math.isfinite(c["value"]) for c in report["checks"])
        for row in report["rows"]:
            assert math.isfinite(row["thetaHat"]) and math.isfinite(row["varHat"])
            # an estimate with no spread has no finite precision
            assert (math.isinf(row["precisionPerMeasurement"])
                    == (row["varHat"] == 0.0))


SEEDS = st.integers(min_value=0)
# bench sizes: up to two distinct ones below 512, where dft_matrix is quick,
# and the 4096 every config must time, in any order
BENCH_SIZES = st.lists(st.sampled_from([1 << k for k in range(1, 10)]),
                       max_size=2, unique=True).flatmap(
    lambda small: st.permutations(small + [criteria.SPEEDUP_SIZE]))
# valid configs of the other kinds
OTHER_CONFIGS = {
    "fft-derive": st.fixed_dictionaries({"levels": st.integers(1, 8), "seed": SEEDS}),
    "partition-audit": st.fixed_dictionaries({"width": st.integers(1, 4),
                                              "seed": SEEDS}),
    "bench": st.fixed_dictionaries({"sizes": BENCH_SIZES,
                                    "repeats": st.integers(1, 3), "seed": SEEDS}),
}


class TestOtherKindsProperty:
    @pytest.mark.parametrize("kind", sorted(OTHER_CONFIGS))
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_valid_configs_end_in_a_verdict(self, tmp_path_factory, kind, data):
        doc = data.draw(OTHER_CONFIGS[kind])
        out = tmp_path_factory.mktemp(kind)
        cfg = write_config(out, {"version": 1, "kind": kind, **doc})
        assert run([kind, "--config", cfg, "--out", str(out)]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]
        assert all(math.isfinite(c["value"]) for c in report["checks"])


class TestExitCodes:
    def test_out_naming_a_file_exits_two_before_any_criterion(self, tmp_path, capsys,
                                                              monkeypatch):
        def unreachable(kind, cfg):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(criteria, "run", unreachable)
        taken = tmp_path / "taken"
        taken.write_text("")
        for out in (taken, taken / "sub"):
            assert run(["partition-audit", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "--out" in err and "Traceback" not in err

    def test_internal_error_exits_three_with_a_traceback(self, tmp_path, capsys,
                                                         monkeypatch):
        def fault(kind, cfg):
            raise ValueError("not a config problem")

        monkeypatch.setattr(criteria, "run", fault)
        assert run(["partition-audit", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "not a config problem" in err
        assert "config error" not in err

    def test_run_without_checks_does_not_pass(self, tmp_path, monkeypatch):
        monkeypatch.setattr(criteria, "run", lambda kind, cfg: ([], [], {}))
        assert run(["partition-audit", "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"] == [] and report["passed"] is False

    def test_python_dash_m_runs_the_cli_and_passes_its_exit_code(self, tmp_path):
        # PYTHONPATH names the directory that holds the package, as
        # `PYTHONPATH=src` does in a source checkout
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

        def python_m(*args):
            return subprocess.run([sys.executable, "-m", "qrecon", *args], env=env,
                                  cwd=tmp_path, capture_output=True, timeout=120)

        out = tmp_path / "out"
        assert python_m("partition-audit", "--out", str(out)).returncode == 0
        assert json.loads((out / "report.json").read_text())["passed"] is True
        missing = python_m("partition-audit", "--config", str(tmp_path / "none.json"),
                           "--out", str(out))
        assert missing.returncode == 2 and b"config error" in missing.stderr


class TestCriteriaTable:
    SMALL = {
        "tomography": {"state": {"kind": "qubit", "bloch": [0.6, 0.0, 0.8]},
                       "trials": 1000, "replicas": 52},
        "metric-check": {"samples": 20, "chart_points": 5},
        "fft-derive": {"levels": 3},
        "partition-audit": {"width": 2},
        "bench": {"sizes": [4096], "repeats": 1},
    }

    def test_check_ids_are_unique(self):
        ids = [i for kind in criteria.CRITERIA for key in criteria.CRITERIA[kind]
               for i in key]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("kind", sorted(criteria.CRITERIA))
    def test_each_criterion_emits_its_ids(self, kind):
        cfg = cli.validate(kind, self.SMALL[kind])
        rng = np.random.default_rng(cfg["seed"])
        for ids, measure in criteria.CRITERIA[kind].items():
            checks, _ = measure(cfg, rng)
            # "{...}" in a table id stands for a per-item suffix
            patterns = [re.sub(r"\{\w+\}", ".+", i) for i in ids]
            assert all(any(re.fullmatch(p, c.id) for p in patterns) for c in checks)
            assert {c.id for c in checks} >= {i for i in ids if "{" not in i}
            assert checks

    def test_every_kind_has_criteria(self):
        assert set(criteria.CRITERIA) == set(cli.DEFAULTS)

    def test_only_kinds_that_draw_import_numpy_random(self, tmp_path):
        # numpy imports numpy.random on first use, so the probe needs a fresh
        # interpreter; metric-check draws and shows that the probe sees it
        probe = ("import sys\n"
                 "from qrecon.cli import main\n"
                 "def loaded(*args):\n"
                 "    assert main([*args, '--out', sys.argv[1]]) == 0\n"
                 "    return 'numpy.random' in sys.modules\n"
                 "print(loaded('fft-derive'), loaded('partition-audit'),\n"
                 "      loaded('metric-check', '--config', sys.argv[2]))\n")
        config = write_config(tmp_path, {"version": 1, "kind": "metric-check",
                                         "samples": 20, "chart_points": 5})
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out"),
                               config], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False False True"


class TestSubcommands:
    def test_fft_derive_passes_and_writes_reports(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "fft-derive",
                                      "levels": 3})
        assert run(["fft-derive", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"]
        assert all("tolerance" in c and "description" in c for c in report["checks"])
        assert (tmp_path / "report.csv").exists()

    def test_fft_derive_single_level_reduces_to_hadamard(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "fft-derive",
                                      "levels": 1})
        assert run(["fft-derive", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"]

    def test_partition_audit_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "partition-audit",
                                      "width": 3})
        assert run(["partition-audit", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_metric_check_small_sample(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "metric-check",
                                      "samples": 100, "chart_points": 50})
        assert run(["metric-check", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_metric_check_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(criteria, "FS_TOL", 1e-30)
        cfg = write_config(tmp_path, {"version": 1, "kind": "metric-check",
                                      "samples": 20, "chart_points": 10})
        assert run(["metric-check", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "seed=" in err  # failure message names the seed for replay

    def test_tomography_report_columns(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "tomography",
                                      "trials": 5000})
        assert run(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "rows.csv").read_text().splitlines()
        assert lines[0] == "observable,M,thetaHat,varHat,precisionPerMeasurement"
        assert sorted(line.split(",")[0] for line in lines[1:]) == ["p", "q"]

    @pytest.mark.parametrize("kind", sorted(criteria.CRITERIA))
    def test_one_report_layout_for_every_kind(self, tmp_path, kind):
        # an earlier run's rows must not outlive a run that made none
        (tmp_path / "rows.csv").write_text("stale\n")
        cfg = write_config(tmp_path, {"version": 1, "kind": kind,
                                      **TestCriteriaTable.SMALL[kind]})
        assert run([kind, "--config", cfg, "--out", str(tmp_path)]) in (0, 1)
        report = json.loads((tmp_path / "report.json").read_text())
        checks = (tmp_path / "report.csv").read_text().splitlines()
        assert checks == ["id,value,tolerance,passed"] + [
            f"{c['id']},{c['value']!r},{c['tolerance']!r},{c['passed']}"
            for c in report["checks"]]
        rows = tmp_path / "rows.csv"
        assert rows.exists() == bool(report["rows"])
        if report["rows"]:
            lines = rows.read_text().splitlines()
            assert lines[0] == ",".join(report["rows"][0])
            assert len(lines) == 1 + len(report["rows"])

    @pytest.mark.parametrize("theta_q,ids", [
        (math.pi / 3, ["variance-band-q"]),
        (0.0, []),  # a boundary estimate: no finite precision at all
    ], ids=["interior", "boundary"])
    def test_one_observable_makes_no_parity_check(self, tmp_path, theta_q, ids):
        cfg = write_config(tmp_path, {"version": 1, "kind": "tomography",
                                      "state": {"kind": "rebit", "theta_q": theta_q},
                                      "trials": {"q": 1000}, "replicas": 200})
        # a run left with no check shows nothing and does not pass
        code = 0 if ids else 1
        assert run(["tomography", "--config", cfg, "--out", str(tmp_path)]) == code
        report = json.loads((tmp_path / "report.json").read_text())
        assert [c["id"] for c in report["checks"]] == ids

    def test_bench_writes_csv(self, tmp_path):
        # small sizes need not beat the dense product: only N=4096 is judged
        cfg = write_config(tmp_path, {"version": 1, "kind": "bench",
                                      "sizes": [16, 4096], "repeats": 2})
        assert run(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "rows.csv").read_text().splitlines()
        assert lines[0] == "N,dense_ns,butterfly_ns,speedup"
        assert len(lines) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert [(c["id"], c["tolerance"]) for c in report["checks"]] == [
            ("speedup-N4096", criteria.MIN_SPEEDUP)]


class TestDeterminism:
    @pytest.mark.parametrize("kind,extra", [
        ("tomography", {"trials": 2000, "replicas": 200}),
        ("metric-check", {"samples": 50, "chart_points": 20}),
    ])
    def test_fixed_seed_reruns_are_identical(self, tmp_path, monkeypatch,
                                             kind, extra):
        # 200 replicas are too few for the 0.05 parity gate; the variance
        # bands scale with the replica count and must still pass at seed 77
        monkeypatch.setattr(criteria, "PARITY_TOL", 0.9)
        cfg = write_config(tmp_path, {"version": 1, "kind": kind, **extra})
        reports = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            assert run([kind, "--config", cfg, "--seed", "77",
                        "--out", str(out)]) == 0
            doc = json.loads((out / "report.json").read_text())
            # wall-clock times and the process's usage are the only
            # varying fields
            doc.pop("elapsed_s")
            doc.pop("criterion_elapsed_s")
            doc.pop("process")
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_report_times_each_criterion(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "metric-check",
                                      "samples": 20, "chart_points": 5})
        assert run(["metric-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        times = doc["criterion_elapsed_s"]
        assert list(times) == [measure.__name__ for measure
                               in criteria.CRITERIA["metric-check"].values()]
        assert all(t >= 0.0 for t in times.values())
        assert sum(times.values()) <= doc["elapsed_s"]

    def test_report_names_what_replay_rests_on(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert run(["partition-audit", "--seed", "11", "--out", str(tmp_path)]) == 0
        env = json.loads((tmp_path / "report.json").read_text())["env"]
        assert env["python"] == "{}.{}.{}".format(*sys.version_info[:3])
        assert env["numpy"] == np.__version__
        assert env["machine"] == platform.machine()
        assert list(env["blas_threads"]) == list(cli.BLAS_THREAD_VARS)
        assert env["blas_threads"]["OMP_NUM_THREADS"] == "3"
        assert env["blas_threads"]["MKL_NUM_THREADS"] is None
        assert env["sweep_workers"] == butterfly.SWEEP_WORKERS in (1, 2)
        assert env["seed"] == 11

    def test_report_records_the_process_usage(self, tmp_path):
        pytest.importorskip("resource")
        assert run(["partition-audit", "--out", str(tmp_path)]) == 0
        process = json.loads((tmp_path / "report.json").read_text())["process"]
        assert list(process) == ["peak_rss_mb", "minor_faults", "heap_threshold"]
        assert process["peak_rss_mb"] > 0.0
        assert type(process["minor_faults"]) is int and process["minor_faults"] >= 0
        assert process["heap_threshold"] == (cli.HEAP_THRESHOLD if cli._hold_heap()
                                             else None)

    @pytest.mark.parametrize("kind,extra,pinned", [
        ("tomography", {}, {
            "precision-parity": 0.024602268388916416,
            # |M*var(theta_hat) - 1|: M*var was 0.9960339946990404 for q
            # and 1.0208438800906623 for p, which these keep to the bit
            "variance-band-q": 0.003966005300959585,
            "variance-band-p": 0.020843880090662292}),
        ("fft-derive", {}, {
            "ladder-vs-dft": 0.0,
            "unitarity": 2.220446049250313e-16,
            "shift-diagonal": 2.8305244335018383e-16,
            "danielson-lanczos": 7.850462293418876e-17,
            "shift-recursion": 8.881784197001252e-16,
            "shift-depth-2": 0.0}),
        ("fft-derive", {"levels": 10}, {
            "ladder-vs-dft": 1.3985787785349405e-17,
            "unitarity": 1.2977290470663804e-16,
            "shift-diagonal": 1.1102230246251565e-15,
            "danielson-lanczos": 4.1777673608052095e-17,
            "shift-recursion": 8.881784197001252e-16,
            "shift-depth-2": 0.0}),
        # at the default seed 7 the sample and the chart draw from streams
        # spawned from the run's generator: sample i is row i of each draw
        # kind's stream, so no block size may move a bit; gauge-zero's state
        # is the generator's first draw; chart-invariance is the spread of
        # the closed-form chain rule over the chart streams' points;
        # one-bit-form draws nothing
        ("metric-check", {}, {
            "fs-factor": 1.0340921725061334e-15,
            "recursion": 9.955056966134344e-16,
            "gauge-zero": 4.440892098500626e-16,
            "one-bit-form": 2.7755575615628914e-17,
            "chart-invariance": 8.97733750215163e-14}),
    ])
    def test_check_values_are_pinned(self, tmp_path, kind, extra, pinned):
        # exact check values: a change that claims to leave report.json
        # bit-identical keeps every one of them
        cfg = write_config(tmp_path, {"version": 1, "kind": kind, **extra})
        assert run([kind, "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert {c["id"]: c["value"] for c in doc["checks"]} == pinned

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "metric-check",
                                      "samples": 10, "chart_points": 5,
                                      "seed": 1})
        out = tmp_path / "x"
        assert run(["metric-check", "--config", cfg, "--seed", "99",
                    "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["seed"] == 99


# the most minor page faults one more metric-check block may add to a fresh
# process; where glibc trims the heap after each block, each took about 720
FAULTS_PER_BLOCK = 50


def test_metric_blocks_do_not_fault_the_heap_in_again(tmp_path):
    resource = pytest.importorskip("resource")
    if not cli._hold_heap():
        pytest.skip("the C library is not glibc")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    block = criteria.METRIC_BLOCK_CELLS >> 4
    faults, blocks = [], []
    for samples in (1_000, 20_000):
        cfg = write_config(tmp_path, {"version": 1, "kind": "metric-check",
                                      "samples": samples, "chart_points": 10})
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        done = subprocess.run([sys.executable, "-m", "qrecon", "metric-check",
                               "--config", cfg, "--out", str(tmp_path)],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
        blocks.append(-(-samples // block))
    assert faults[1] - faults[0] < FAULTS_PER_BLOCK * (blocks[1] - blocks[0])


OUTPUTS = ("report.json", "report.csv", "rows.csv")


def read_outputs(out):
    """report.json without its wall-clock and process-usage fields, and the
    bytes of each CSV."""
    doc = json.loads((out / "report.json").read_text())
    doc.pop("elapsed_s")
    doc.pop("criterion_elapsed_s")
    doc.pop("process")
    return doc, (out / "report.csv").read_bytes(), (out / "rows.csv").read_bytes()


class TestOutputFiles:
    def test_old_outputs_are_replaced_not_written_through(self, tmp_path):
        out, keep = tmp_path / "out", tmp_path / "keep"
        out.mkdir()
        keep.mkdir()
        for i, name in enumerate(OUTPUTS):
            (out / name).write_bytes(f"old {name} {i}\n".encode())
            (keep / name).hardlink_to(out / name)
        assert run(["tomography", "--seed", "3", "--out", str(out)]) == 0
        for i, name in enumerate(OUTPUTS):
            assert (keep / name).read_bytes() == f"old {name} {i}\n".encode()
        fresh = tmp_path / "fresh"
        assert run(["tomography", "--seed", "3", "--out", str(fresh)]) == 0
        assert read_outputs(out) == read_outputs(fresh)

    def test_a_symlinked_output_becomes_a_regular_file(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"target\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.csv").symlink_to(target)
        assert run(["partition-audit", "--out", str(out)]) == 0
        assert not (out / "report.csv").is_symlink()
        assert (out / "report.csv").read_text().startswith("id,value,tolerance,passed")
        assert target.read_bytes() == b"target\n"


class TestParser:
    def test_the_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_no_argument_carries_over_between_calls(self, tmp_path):
        def seed_of(args, out):
            assert run(["partition-audit", *args, "--out", str(out)]) == 0
            return json.loads((out / "report.json").read_text())["config"]["seed"]

        cfg = write_config(tmp_path, {"version": 1, "kind": "partition-audit",
                                      "seed": 3})
        assert seed_of(["--seed", "5"], tmp_path / "a") == 5
        assert seed_of([], tmp_path / "b") == cli.DEFAULTS["partition-audit"]["seed"]
        assert seed_of(["--seed", "5", "--config", cfg], tmp_path / "c") == 5
        assert seed_of(["--config", cfg], tmp_path / "d") == 3
