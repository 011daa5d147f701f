"""The benchmark reads each run's headline results and tolerances by key.

``perfbench/workload.py``'s ``evaluate`` takes them from every step's
manifest, and a missing key fails the benchmark's operation.  A change that
cut such a key from a run's results would pass every other test, so this
calls ``evaluate`` on a fresh manifest of each run kind that the benchmark
drives: a sym and an asym double, a connect run and a counterexample.
"""

import importlib.util
import json
from pathlib import Path

import pytest

# the small runs of the CLI tests, made again for this module
from test_cli import small_runs  # noqa: F401

WORKLOAD = Path(__file__).resolve().parent.parent / "perfbench" / "workload.py"

# each small run and the command it was made by
RUNS = {"sin": "double", "planar_asym": "double", "connect": "connect",
        "counterexample": "counterexample"}


def _evaluate():
    spec = importlib.util.spec_from_file_location("_bench_workload", WORKLOAD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.evaluate


@pytest.mark.parametrize("name", sorted(RUNS))
def test_the_benchmark_evaluates_a_fresh_manifest(small_runs, name):  # noqa: F811
    command = RUNS[name]
    manifest = json.loads((small_runs[name] / "manifest.json").read_text())
    assert manifest["kind"] == command
    evaluation = _evaluate()(command, manifest)
    counted = [check for check in evaluation["checks"] if check["counted"]]
    # a run that verifies passes every check that the benchmark counts
    assert all(check["ok"] for check in counted)
    if command == "double":
        assert [check["name"] for check in counted] == [
            "defect_tol", "residual_tol", "energy_two_ways_rel"]
        assert evaluation["status"] == "converged"
    elif command == "connect":
        assert [check["name"] for check in counted] == ["defect_tol"]
