"""Request lists, the tail-percentile rule and BENCHMARK.json's metric names.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import (LADDER_SIZES, MIN_REQUESTS, WORKLOADS,  # noqa: E402
                       make_requests, per_layer_metrics)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_request_list_is_a_function_of_the_seed(workload):
    first = make_requests(workload, 7, 10)
    assert first == make_requests(workload, 7, 10)
    assert first != make_requests(workload, 8, 10)
    assert len(first) >= MIN_REQUESTS


def test_ladder_balances_sizes_and_alternates_signs():
    reqs = make_requests("ladder", 3, 10)
    assert [r["sign"] for r in reqs] == [+1, -1] * (len(reqs) // 2)
    for sign in (+1, -1):
        sizes = [r["n"] for r in reqs if r["sign"] == sign]
        assert all(sizes.count(n) == len(sizes) // len(LADDER_SIZES)
                   for n in LADDER_SIZES)


def test_tomography_directions_stay_off_the_poles():
    for req in make_requests("tomography", 5, 10):
        assert sum(c * c for c in req["bloch"]) == pytest.approx(1.0)
        assert max(abs(c) for c in req["bloch"]) <= 0.9


def test_tail_is_the_highest_percentile_with_ten_above():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    pct, value = run.tail_percentile(list(range(100, 0, -1)))
    assert pct == 90.0 and value == 90
    values = list(range(102))
    pct, value = run.tail_percentile(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 92 / 102)


def test_benchmark_json_names_the_metrics_the_run_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
