"""Fast checks of the benchmark harness on the 0.05 s double_well config.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

STEPS = [("connect", "configs/double_well.json")]


def _benchmark() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _printed(lines: list[str]) -> dict[str, str]:
    """metric name -> unit, from the ``metric <name> = <value> <unit> (...)`` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if parts[0] == "metric":
            out[parts[1]] = parts[4]
    return out


def test_every_metric_is_printed_with_its_unit():
    bench = _benchmark()
    extra = {"failed_frac", "tol_violations"}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run.run(STEPS, 0.5, trace, seed=3, setup_repeats=1)
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = _printed(lines)
        for name, unit in declared.items():
            assert printed[name] == unit, name
        if trace == 0:
            assert extra <= set(printed)
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_counts_repeat_between_traced_runs():
    counts = []
    for _ in range(2):
        _, result = run.run(STEPS, 0.5, 1, seed=5)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["geodesic.minimize_k_length.calls"] == 1
    assert counts[0]["metric.weight_at.calls"] > 0
    assert counts[0]["function_space.energy_1d.calls"] == 0


def test_broken_config_is_a_failed_operation():
    os.makedirs(run.RUNS_DIR, exist_ok=True)
    broken = os.path.join(run.RUNS_DIR, "broken_config.json")
    with open(broken, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "potential": {"name": "no_such_well"},
                   "wells": [[-1.0], [1.0]]}, fh)
    try:
        lines, result = run.run([("connect", broken)], 0.5, 0, seed=1, setup_repeats=1)
    finally:
        os.remove(broken)
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert any("FAILED" in line and "exited 3" in line for line in lines)
