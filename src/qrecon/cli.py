"""Command-line harness: seeded verification suites and the benchmark.

Subcommands map to experiment kinds; each run emits report.json and
report.csv (bench additionally bench.csv) under --out.  Exit codes: 0 all
checks pass, 1 a check failed (the seed is printed for exact replay),
2 malformed configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import kernels
from .bloch import BlochPoint, chart_tangent_metric, metric_in_coords
from .butterfly import (assemble_transform, derive_shift_phases, dft_matrix,
                        shift_operator_check, transform_columns,
                        verify_danielson_lanczos)
from .exceptions import ConfigError, RangeError
from .metrics import (Tangent, extended_fisher_metric,
                      extended_fisher_metric_recursive, fubini_study_metric,
                      random_state, random_tangent)
from .partitions import (DigitSubsetSet, PhaseSpaceSet, make_lsb_partition,
                         scale_transform_set,
                         shift_invariant_equal_partitions)
from .sampling import chi2_band, gaussian_p_value, tomography_experiment

CONFIG_VERSION = 1

DEFAULTS: dict[str, dict] = {
    "tomography": {
        "seed": 20240801,
        "state": {"kind": "rebit", "theta_q": math.pi / 3},
        "trials": 100_000,
        "replicas": 12_000,
        "parity_tol": 0.05,
        "band_sigma": 5.0,
    },
    "metric-check": {
        "seed": 7,
        "levels": 4,
        "samples": 10_000,
        "tol_fs": 1e-10,
        "tol_recursive": 1e-9,
        "chart_points": 1_000,
        "tol_chart": 1e-9,
    },
    "fft-derive": {
        "seed": 0,
        "levels": 3,
        "tol": 1e-11,
    },
    "partition-audit": {
        "seed": 0,
        "width": 3,
    },
    "bench": {
        "seed": 0,
        "sizes": [256, 1024, 4096],
        "repeats": 7,
        "min_speedup": 10.0,
        "assert_at": 4096,
    },
}


@dataclass
class Check:
    id: str
    description: str
    value: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        # numpy scalars stringify fine but np.bool_ is not JSON serializable
        self.value = float(self.value)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.passed)


def load_config(kind: str, path: str | None, seed_override: int | None) -> dict:
    cfg = dict(DEFAULTS[kind])
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if doc.get("version") != CONFIG_VERSION:
            raise ConfigError(f"config version must be {CONFIG_VERSION}")
        if doc.get("kind", kind) != kind:
            raise ConfigError(f"config kind {doc.get('kind')!r} does not match "
                              f"subcommand {kind!r}")
        allowed = set(cfg) | {"version", "kind"}
        unknown = set(doc) - allowed
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg.update({k: v for k, v in doc.items() if k not in ("version", "kind")})
    if seed_override is not None:
        cfg["seed"] = seed_override
    for key in ("parity_tol", "tol_fs", "tol_recursive", "tol_chart", "tol",
                "min_speedup"):
        if key in cfg and not cfg[key] > 0:
            raise ConfigError(f"{key} must be positive")
    return cfg


# ------------------------------------------------------------- subcommands

def run_tomography(cfg: dict) -> tuple[list[Check], list[dict]]:
    state = cfg["state"]
    if state.get("kind") == "rebit":
        theta_q = float(state["theta_q"])
        thetas = {"q": theta_q, "p": math.pi / 2.0 - theta_q}
    elif state.get("kind") == "qubit":
        point = BlochPoint(*state["bloch"])
        thetas = {name: point.theta_of(name) for name in ("q", "p", "r")}
    else:
        raise ConfigError("state.kind must be 'rebit' or 'qubit'")
    trials = cfg["trials"]
    if isinstance(trials, int):
        trials = {name: trials for name in thetas}
    if any(m < 1 for m in trials.values()):
        raise ConfigError("trials must be at least 1 for every observable")
    if cfg["replicas"] < 2:
        raise ConfigError("need at least two replicas")
    report = tomography_experiment(thetas, trials, seed=cfg["seed"],
                                   replicas=cfg["replicas"],
                                   parity_tolerance=cfg["parity_tol"])
    checks = [Check("precision-parity",
                    "per-measurement precision contributions agree across observables",
                    report.max_parity_deviation, cfg["parity_tol"],
                    report.parity_ok)]
    lo, hi = chi2_band(cfg["replicas"], cfg["band_sigma"])
    for s in report.summaries:
        if not math.isfinite(s.precision_per_measurement):
            continue  # boundary estimate, no spread to compare
        scaled = s.var_hat * s.trials
        z = (scaled - 1.0) / math.sqrt(2.0 / (cfg["replicas"] - 1))
        checks.append(Check(
            f"variance-band-{s.observable}",
            f"M*var(theta_hat) of {s.observable} inside the {cfg['band_sigma']}-sigma "
            f"chi^2 band around 1 (z={z:.2f}, p={gaussian_p_value(z):.3g})",
            scaled, hi, lo <= scaled <= hi))
    return checks, report.as_rows()


def run_metric_check(cfg: dict) -> tuple[list[Check], list[dict]]:
    # zero samples or chart points would pass their checks vacuously
    for key in ("levels", "samples", "chart_points"):
        if int(cfg[key]) < 1:
            raise ConfigError(f"{key} must be at least 1")
    rng = np.random.default_rng(cfg["seed"])
    nbits = int(cfg["levels"])
    worst_fs = worst_rec = 0.0
    for _ in range(int(cfg["samples"])):
        psi = random_state(nbits, rng)
        tan = random_tangent(psi, rng)
        efm = extended_fisher_metric(psi, tan)
        scale = max(abs(efm), 1e-6)
        worst_fs = max(worst_fs, abs(efm - 4.0 * fubini_study_metric(psi, tan)) / scale)
        worst_rec = max(worst_rec,
                        abs(efm - extended_fisher_metric_recursive(psi, tan)) / scale)
    # gauge direction: pure global phase must cost nothing
    psi = random_state(nbits, rng)
    gauge = extended_fisher_metric(psi, Tangent(1j * psi.amps))
    # chart agreement on the sphere
    worst_chart = 0.0
    points = 0
    while points < int(cfg["chart_points"]):
        vec = rng.normal(size=3)
        vec /= np.linalg.norm(vec)
        if np.max(np.abs(vec)) > 0.99:
            continue  # too close to a chart pole
        points += 1
        point = BlochPoint(*vec)
        tangent = rng.normal(size=3)
        values = [chart_tangent_metric(point, tangent, axis) for axis in "qpr"]
        spread = (max(values) - min(values)) / max(values)
        worst_chart = max(worst_chart, spread)
    # one-bit reduction of the closed form
    theta, alpha = 1.1, 0.4
    dtheta, dalpha = 0.21, -0.34
    amps = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * alpha)])
    damps = np.array([
        -math.sin(theta / 2) * dtheta / 2,
        (math.cos(theta / 2) * dtheta / 2 + 1j * math.sin(theta / 2) * dalpha)
        * np.exp(1j * alpha),
    ])
    one_bit = abs(extended_fisher_metric(amps, damps)
                  - metric_in_coords(theta, dtheta, dalpha))
    checks = [
        Check("fs-factor", "extended metric equals 4x Fubini-Study (max rel dev)",
              worst_fs, cfg["tol_fs"], worst_fs < cfg["tol_fs"]),
        Check("recursion", "even/odd recursion equals the closed form (max rel dev)",
              worst_rec, cfg["tol_recursive"], worst_rec < cfg["tol_recursive"]),
        Check("chart-invariance", "tangent metric agrees across the q/p/r charts",
              worst_chart, cfg["tol_chart"], worst_chart < cfg["tol_chart"]),
        Check("gauge-zero", "global-phase direction has zero length",
              gauge, 1e-12, abs(gauge) < 1e-12),
        Check("one-bit-form", "one-bit metric reduces to dtheta^2 + sin^2 dalpha^2",
              one_bit, 1e-12, one_bit < 1e-12),
    ]
    return checks, []


def run_fft_derive(cfg: dict) -> tuple[list[Check], list[dict]]:
    n = int(cfg["levels"])
    if n > 12:
        raise ConfigError("dense comparison capped at 12 levels")
    tol = cfg["tol"]
    size = 1 << n
    fwd = assemble_transform(n, "natural", +1)
    ladder_dev = float(np.abs(fwd - dft_matrix(size, +1)).max())
    # F^dagger F via a second batched ladder pass (the ladder's matrix is
    # symmetric to rounding, so F^dagger X = conj(F conj(X)))
    gram = np.conj(transform_columns(np.conj(fwd), n, +1, "natural"))
    unitary_dev = float(np.abs(gram - np.eye(size)).max())
    recursion_dev = 0.0
    for depth in range(1, 13):
        vals = derive_shift_phases(depth).values
        closed = -2.0 * math.pi * np.arange(1 << depth) / (1 << depth)
        recursion_dev = max(recursion_dev, float(np.abs(vals - closed).max()))
    s2_dev = float(np.abs(derive_shift_phases(2).values
                          - np.array([0.0, -math.pi / 2, -math.pi,
                                      -3 * math.pi / 2])).max())
    shift = shift_operator_check(n)
    checks = [
        Check("ladder-vs-dft", "assembled ladder equals the unitary Fourier matrix",
              ladder_dev, tol, ladder_dev < tol),
        Check("unitarity", "assembled ladder is unitary",
              unitary_dev, 1e-12, unitary_dev < 1e-12),
        Check("shift-recursion", "shift-phase recursion equals -2*pi*k/2^l, depths 1..12",
              recursion_dev, 1e-14, recursion_dev < 1e-14),
        Check("shift-depth-2", "depth-2 shift phases are (0, -pi/2, -pi, -3pi/2)",
              s2_dev, 1e-15, s2_dev <= 1e-15),
        Check("shift-diagonal", "conjugated cyclic shift is diagonal with the "
              "closed-form phases",
              max(shift["off_diagonal_max"], shift["diagonal_deviation"]),
              1e-12,
              max(shift["off_diagonal_max"], shift["diagonal_deviation"]) < 1e-12),
    ]
    if n >= 2:
        dl = verify_danielson_lanczos(n)
        dl_dev = max(dl["cell_deviation"], dl["recursion_deviation"],
                     dl["ladder_deviation"], dl["half_period_deviation"])
        checks.append(Check(
            "danielson-lanczos", "final ladder cell and half-size recursion "
            "reproduce the Fourier matrix", dl_dev, tol, dl_dev < tol))
    return checks, []


def run_partition_audit(cfg: dict) -> tuple[list[Check], list[dict]]:
    n = int(cfg["width"])
    if not 1 <= n <= 4:
        raise ConfigError("width must be between 1 and 4")
    counterexamples = 0
    families = 0
    for cardinality_exp in range(1, n + 1):
        cardinality = 1 << cardinality_exp
        found = shift_invariant_equal_partitions(n, cardinality)
        expected = make_lsb_partition(n, n - cardinality_exp + 1)
        families += 1
        for p in found:
            if p != expected:
                counterexamples += 1
        if expected not in found:
            counterexamples += 1
    # scale transform conserves the level sum wherever defined
    level_sum_violations = 0
    for q_lo in range(1, n + 1):
        for p_lo in range(1, n + 1):
            s = PhaseSpaceSet(DigitSubsetSet(n, q_lo, n, 0),
                              DigitSubsetSet(n, p_lo, n, 0))
            try:
                image = scale_transform_set(s)
            except RangeError:
                continue
            if image.level_sum != s.level_sum:
                level_sum_violations += 1
    checks = [
        Check("lsb-uniqueness",
              f"exhaustive search over width {n}: shift-invariant equal-size "
              "partitions are exactly the lsb families",
              counterexamples, 0.5, counterexamples == 0),
        Check("scale-level-sum", "dyadic rescaling conserves the level sum",
              level_sum_violations, 0.5, level_sum_violations == 0),
    ]
    rows = [{"families_checked": families, "counterexamples": counterexamples}]
    return checks, rows


def run_bench(cfg: dict) -> tuple[list[Check], list[dict]]:
    sizes = [int(s) for s in cfg["sizes"]]
    repeats = int(cfg["repeats"])
    if repeats < 1:
        raise ConfigError("repeats must be at least 1")
    rows = bench_mod.run_bench(sizes, repeats=repeats, seed=cfg["seed"])
    checks = []
    assert_at = int(cfg["assert_at"])
    for row in rows:
        if row.size >= assert_at:
            checks.append(Check(
                f"speedup-N{row.size}",
                f"butterfly beats the dense product at N={row.size} "
                f"(backend {kernels.BACKEND})",
                row.speedup, cfg["min_speedup"],
                row.speedup >= cfg["min_speedup"]))
    data = [{"N": r.size, "dense_ns": r.dense_ns, "butterfly_ns": r.butterfly_ns,
             "speedup": r.speedup} for r in rows]
    return checks, data


RUNNERS = {
    "tomography": run_tomography,
    "metric-check": run_metric_check,
    "fft-derive": run_fft_derive,
    "partition-audit": run_partition_audit,
    "bench": run_bench,
}


# ------------------------------------------------------------------ output

def write_report(out_dir: Path, kind: str, cfg: dict, checks: list[Check],
                 rows: list[dict], elapsed: float) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "kind": kind,
        "config": cfg,
        "checks": [asdict(c) for c in checks],
        "rows": rows,
        "passed": all(c.passed for c in checks),
        "elapsed_s": elapsed,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2))
    with open(out_dir / "report.csv", "w", newline="") as fh:
        if kind == "tomography" and rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        else:
            writer = csv.writer(fh)
            writer.writerow(["id", "value", "tolerance", "passed"])
            for c in checks:
                writer.writerow([c.id, c.value, c.tolerance, c.passed])
    if kind == "bench":
        from .bench import BenchRow, write_csv
        bench_rows = [BenchRow(r["N"], r["dense_ns"], r["butterfly_ns"])
                      for r in rows if "dense_ns" in r]
        write_csv(bench_rows, str(out_dir / "bench.csv"))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qrecon",
        description="verification suites and benchmarks for the reconstructed "
                    "quantum kinematics")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in RUNNERS:
        p = sub.add_parser(kind)
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--json", action="store_true",
                       help="print the report JSON to stdout")
        p.add_argument("--csv", action="store_true",
                       help="print the check CSV to stdout")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.kind, args.config, args.seed)
        t0 = time.perf_counter()
        checks, rows = RUNNERS[args.kind](cfg)
        elapsed = time.perf_counter() - t0
    except ValueError as exc:  # ConfigError and domain errors from bad values
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = write_report(Path(args.out), args.kind, cfg, checks, rows, elapsed)
    if args.json:
        print(json.dumps(report, indent=2))
    if args.csv:
        for c in checks:
            print(f"{c.id},{c.value},{c.tolerance},{c.passed}")
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.id}: value={c.value:.6g} tolerance={c.tolerance:.6g}")
    if not report["passed"]:
        print(f"FAILED (seed={cfg.get('seed')} replays this run)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
