import json

import pytest

from qrecon.cli import main


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
        cfg = write_config(tmp_path, {"version": 1, "kind": "bench",
                                      "sizes": [16, 64], "repeats": 2,
                                      "assert_at": 1 << 30})
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

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "kind": "metric-check",
                                      "samples": 10, "chart_points": 5,
                                      "seed": 1})
        out = tmp_path / "x"
        assert run(["metric-check", "--config", cfg, "--seed", "99",
                    "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["seed"] == 99
