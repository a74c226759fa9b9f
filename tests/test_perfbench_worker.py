"""Every perfbench workload serves its warm-up request without a failure,
untraced and traced.

perfbench/worker.py writes the configs its workloads run and judges their
reports; a schema or report change that breaks one would otherwise show
only when the benchmark runs.  The worker imports its sibling modules
`tracing` and `workloads` by plain name, so perfbench/ goes on sys.path for
the test and the three modules leave sys.modules after it.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("worker", "tracing", "workloads")


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("worker")
    for name in MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["metric-check", "tomography", "ladder",
                                      "derive"])
def test_warmup_request_is_served(worker, tmp_path, workload):
    assert set(worker.HANDLERS) == set(worker.WORKLOADS)
    handler = worker.HANDLERS[workload](tmp_path)
    _, failure = worker.serve_once(handler, worker.warmup_request(workload), None)
    assert failure is None


# the layer through which each workload's request enters qrecon
ENTRY_LAYER = {"metric-check": "cli.main", "tomography": "cli.main",
               "ladder": "butterfly.apply_butterfly", "derive": "cli.main"}


@pytest.mark.parametrize("workload", list(ENTRY_LAYER))
def test_warmup_request_is_served_traced(worker, tmp_path, workload):
    # the --trace 1 wrappers replace qrecon's functions for the traced serving
    handler = worker.HANDLERS[workload](tmp_path)
    tracer = worker.Tracer()
    result = worker.serve_all(handler, [worker.warmup_request(workload)], tracer,
                              worker.CALIBRATIONS[workload])
    assert result["failures"] == []
    assert worker.layer_summary(tracer, 1)[f"{ENTRY_LAYER[workload]}.calls"] >= 1
