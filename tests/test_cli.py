import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrecon import cli, criteria
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

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "bench"})
        assert run(["fft-derive", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_degenerate_trials_is_a_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "tomography",
                                      "trials": 0, "replicas": 10})
        assert run(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_zero_bench_repeats_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "kind": "bench",
                                      "sizes": [16], "repeats": 0})
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
                                      "trials": trials, "replicas": 10})
        assert run(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "trials must" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_bench_assert_at_above_every_size_is_a_usage_error(self, tmp_path,
                                                               capsys):
        cfg = write_config(tmp_path, {"version": 1, "kind": "bench",
                                      "sizes": [16, 64], "repeats": 1,
                                      "assert_at": 128})
        assert run(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "above every size" in capsys.readouterr().err
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
        ("tomography", {"band_sigma": 0}, "band_sigma"),
        ("tomography", {"parity_tol": math.nan}, "parity_tol"),
        ("tomography", {"state": {"kind": "rebit"}}, "theta_q"),
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
        ("tomography", {"parity_tol": 10**400}, "parity_tol"),
        ("tomography", {"state": {"kind": "rebit", "theta_q": -10**400}}, "theta_q"),
        ("tomography", {"state": {"kind": "qubit", "bloch": [1e200, 0, 0]}}, "bloch"),
        # one above the metric-check and bench count caps
        ("metric-check", {"samples": 10**6 + 1}, "samples"),
        ("metric-check", {"samples": 2**63}, "samples"),
        ("metric-check", {"chart_points": 10**6 + 1}, "chart_points"),
        ("metric-check", {"chart_points": 2**63}, "chart_points"),
        ("bench", {"repeats": 10**3 + 1}, "repeats"),
    ])
    def test_out_of_range_is_a_usage_error(self, tmp_path, capsys, kind, doc,
                                           field):
        cfg = write_config(tmp_path, {"version": 1, "kind": kind, **doc})
        assert run([kind, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        assert run(["partition-audit", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_defaults_pass_the_schema(self):
        for kind in cli.DEFAULTS:
            assert cli.validate(kind, {}) == cli.DEFAULTS[kind]

    def test_count_caps_pass_the_schema(self):
        fields = {"trials": {"q": 2**63 - 1, "p": 1}, "replicas": 10**6}
        assert cli.validate("tomography", fields)["replicas"] == 10**6
        assert cli.validate("tomography", {"trials": 2**63 - 1})
        fields = {"samples": 10**6, "chart_points": 10**6}
        assert cli.validate("metric-check", fields)["chart_points"] == 10**6
        assert cli.validate("bench", {"repeats": 10**3})["repeats"] == 10**3


# ints around every bound the schema checks (2**63 overflows numpy's
# binomial, 2**1024 a float), floats whose square overflows, nan and +-inf
BOUNDS = [0, 1, 2, 4, 12, 20, 10**3, 4096, 10**6, 2**63, 2**64, 2**1024]
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


class TestExitCodes:
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
        monkeypatch.setattr(criteria, "run", lambda kind, cfg: ([], []))
        assert run(["partition-audit", "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"] == [] and report["passed"] is False


class TestCriteriaTable:
    SMALL = {
        "tomography": {"state": {"kind": "qubit", "bloch": [0.6, 0.0, 0.8]},
                       "trials": 1000, "replicas": 50, "parity_tol": 1.0,
                       "band_sigma": 100.0},
        "metric-check": {"samples": 20, "chart_points": 5},
        "fft-derive": {"levels": 3},
        "partition-audit": {"width": 2},
        "bench": {"sizes": [16], "repeats": 1, "assert_at": 16,
                  "min_speedup": 1e-9},
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

    def test_metric_check_failure_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"version": 1, "kind": "metric-check",
                                      "samples": 20, "chart_points": 10,
                                      "tol_fs": 1e-30})
        assert run(["metric-check", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "seed=" in err  # failure message names the seed for replay

    def test_tomography_report_columns(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "tomography",
                                      "trials": 5000, "replicas": 400,
                                      "parity_tol": 0.6})
        assert run(["tomography", "--config", cfg, "--out", str(tmp_path)]) == 0
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "observable,M,thetaHat,varHat,precisionPerMeasurement"

    def test_bench_writes_csv(self, tmp_path):
        # small sizes need not beat the dense product: the check at N=64
        # asks for a speedup any positive timing meets
        cfg = write_config(tmp_path, {"version": 1, "kind": "bench",
                                      "sizes": [16, 64], "repeats": 2,
                                      "assert_at": 64, "min_speedup": 1e-9})
        assert run(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == "N,dense_ns,butterfly_ns,speedup"
        assert len(lines) == 3


class TestDeterminism:
    @pytest.mark.parametrize("kind,extra", [
        ("tomography", {"trials": 2000, "replicas": 200, "parity_tol": 0.9}),
        ("metric-check", {"samples": 50, "chart_points": 20}),
    ])
    def test_fixed_seed_reruns_are_identical(self, tmp_path, kind, extra):
        cfg = write_config(tmp_path, {"version": 1, "kind": kind, **extra})
        reports = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            assert run([kind, "--config", cfg, "--seed", "77",
                        "--out", str(out)]) == 0
            doc = json.loads((out / "report.json").read_text())
            doc.pop("elapsed_s")  # wall-clock time is the only varying field
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_default_metric_check_replays_the_seed_7_sample(self, tmp_path):
        # values of a one-state-at-a-time evaluation: stacking the samples
        # leaves the generator's draws alone, so the checks that draw after
        # the sample keep them bit for bit
        assert run(["metric-check", "--seed", "7", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        values = {c["id"]: c["value"] for c in doc["checks"]}
        assert values["chart-invariance"] == 1.265060090501211e-11
        assert values["gauge-zero"] == -8.881784197001252e-16
        assert values["one-bit-form"] == 2.7755575615628914e-17

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "metric-check",
                                      "samples": 10, "chart_points": 5,
                                      "seed": 1})
        out = tmp_path / "x"
        assert run(["metric-check", "--config", cfg, "--seed", "99",
                    "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["seed"] == 99
