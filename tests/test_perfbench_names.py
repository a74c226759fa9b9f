"""The names perfbench looks up in qrecon must keep resolving.

perfbench/worker.py wraps every `workloads.LAYERS` function by name for its
traced run, records `qrecon.BACKEND` and `qrecon.AVAILABLE_BACKENDS` in its
env block and reads tomography check ids from report.json; a rename would
break the benchmark without failing any other test.  `workloads.py` imports
neither numpy nor qrecon, so it is loaded here straight from its file.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import qrecon
from qrecon import cli, kernels

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("name", [layer.name for layer in load_layers()])
def test_traced_layer_resolves(name):
    modname, attr = name.rsplit(".", 1)
    module = importlib.import_module(f"qrecon.{modname}")
    assert callable(getattr(module, attr))


def test_env_block_constants():
    assert qrecon.BACKEND in qrecon.AVAILABLE_BACKENDS


def test_cell_counter_arguments():
    # the traced run counts the cells of a kernels.apply_stages_inplace call
    # as args[2] * args[0].shape[0] / 2, i.e. n * len(psi) / 2
    params = list(inspect.signature(kernels.apply_stages_inplace).parameters)
    assert params[0] == "psi" and params[2] == "n"


def test_tomography_report_has_the_ids_the_worker_reads(tmp_path):
    # worker.Tomography.check looks up "precision-parity" and one
    # "variance-band-<observable>" check per observable of a qubit
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "version": 1, "kind": "tomography", "trials": 1000, "replicas": 52,
        "state": {"kind": "qubit", "bloch": [0.6, 0.0, 0.8]}}))
    cli.main(["tomography", "--config", str(config), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert {c["id"] for c in report["checks"]} == {
        "precision-parity", "variance-band-q", "variance-band-p", "variance-band-r"}
