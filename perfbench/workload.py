"""One workload process of the benchmark.

Started by ``run.py`` with the OpenMP/OpenBLAS thread counts already pinned
in its environment, so they hold before numpy is first imported.  It drives
the program only through ``hetconn.cli.main`` with shipped configs: each
operation runs every step of the workload (a config's run command, then
``hetconn verify`` on its run directory), and operations repeat until the
next one would overrun the time budget.  Outputs are checked after each
operation, outside its timed span.  Results go to a JSON file.

    python3 perfbench/workload.py --steps '[["connect", "configs/double_well.json"]]' \
        --seconds 5 --trace 0 --runs-dir .bench_runs/x --out .bench_runs/x.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check(name, measured, tol, counted=True) -> dict:
    ok = None if tol is None else bool(measured <= tol)
    return {"name": name, "measured": measured, "tolerance": tol, "ok": ok,
            "counted": counted and tol is not None}


def evaluate(command: str, manifest: dict) -> dict:
    """Headline values and tolerance checks of one step's manifest.

    Raises ValueError on a non-finite headline value, which fails the
    operation.
    """
    res, tol = manifest["results"], manifest["tolerances"]
    checks, quality = [], {}
    status = res.get("solver_status")
    if command == "double":
        energy, e_direct, e_path = res["energy"], res["energy_direct"], res["energy_path"]
        headline = (energy, e_direct, e_path, res["residual_max"], res["equip_defect"])
        if not _finite(*headline):
            raise ValueError(f"non-finite headline result {headline}")
        two_ways = abs(e_direct - e_path) / max(abs(e_path), 1e-300)
        checks += [
            _check("defect_tol", res["equip_defect"], tol.get("defect_tol")),
            _check("residual_tol", res["residual_max"], tol.get("residual_tol")),
            _check("energy_two_ways_rel", two_ways, tol.get("energy_two_ways_rel")),
        ]
        quality = {"energy": energy, "residual_max": res["residual_max"],
                   "equip_defect": res["equip_defect"]}
    elif command == "connect":
        headline = (res["action"], res["action_gap"], res["equipartition_defect"])
        if not _finite(*headline):
            raise ValueError(f"non-finite headline result {headline}")
        checks.append(_check("defect_tol", res["equipartition_defect"], tol.get("defect_tol")))
        # No manifest tolerance exists for the action gap; it is reported.
        checks.append(_check("action_gap", res["action_gap"], None))
        quality = {"equip_defect": res["equipartition_defect"],
                   "action_gap": abs(res["action_gap"])}
    elif command == "counterexample":
        gap = res["final_candidate"] - res["infimum"]
        if not _finite(gap):
            raise ValueError(f"non-finite candidate gap {gap}")
        checks.append(_check("candidate_tail_tol", gap, tol.get("candidate_tail_tol"),
                             counted=False))
        quality = {"candidate_gap": gap}
        status = ",".join(res.get("statuses", []))
    else:
        raise ValueError(f"unknown command {command!r}")
    return {"checks": checks, "quality": quality, "status": status}


def run_step(cli, span, command: str, config: str, out_dir: str) -> tuple[float, float]:
    """Run one config and verify its run directory; returns (run_s, verify_s).

    Raises RuntimeError on a nonzero exit of either call.
    """
    t0 = time.perf_counter()
    with span("cli.run"):
        code = cli.main([command, "--config", config, "--out", out_dir])
    t1 = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"{command} {config} exited {code}")
    with span("cli.verify"):
        code = cli.main(["verify", out_dir])
    t2 = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"verify of {command} {config} exited {code}")
    return t1 - t0, t2 - t1


def run_operation(cli, span, steps, op_dir: str) -> dict:
    """One operation: every step in order.  Failures are recorded, not raised."""
    record = {"ok": True, "error": None, "steps": [], "t0": time.monotonic()}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        for k, (command, config) in enumerate(steps):
            out_dir = os.path.join(op_dir, f"{k}_{os.path.splitext(os.path.basename(config))[0]}")
            run_s, verify_s = run_step(cli, span, command, config, out_dir)
            record["steps"].append({"command": command, "config": config, "out": out_dir,
                                    "run_s": run_s, "verify_s": verify_s})
    except Exception:  # noqa: BLE001 - the benchmark must survive any program failure
        record["ok"] = False
        record["error"] = traceback.format_exc(limit=3)
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = time.process_time() - c0
    record["t1"] = time.monotonic()
    if record["ok"]:
        try:
            for step in record["steps"]:
                with open(os.path.join(step.pop("out"), "manifest.json"), encoding="utf-8") as fh:
                    step.update(evaluate(step["command"], json.load(fh)))
        except (OSError, KeyError, TypeError, ValueError):
            record["ok"] = False
            record["error"] = traceback.format_exc(limit=3)
    for step in record["steps"]:
        step.pop("out", None)
    return record


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{openblas.get('name', 'blas')} {openblas.get('version', 'unknown')}"
    except (KeyError, TypeError, ValueError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", required=True, help="JSON list of [command, config]")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="gzip TSV path for the spans (traced runs)")
    args = parser.parse_args(argv)
    steps = [tuple(s) for s in json.loads(args.steps)]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hetconn.cli as cli

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.span

    # Start another operation unless it would end more than half an
    # operation past the budget: long operations then get two samples in a
    # budget of three, and a run overruns by half an operation at most.
    ops = []
    t_start = time.perf_counter()
    while True:
        op_dir = os.path.join(args.runs_dir, f"op{len(ops)}")
        if tracer is not None:
            tracer.op = len(ops)
        ops.append(run_operation(cli, span, steps, op_dir))
        if len(ops) == 1:
            # A CLI user runs one operation per process; later operations
            # raise the high-water mark with the first one's leftovers.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        shutil.rmtree(op_dir, ignore_errors=True)
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * ops[-1]["wall_s"] > args.seconds:
            break

    out = {
        "ops": ops,
        "peak_rss_mib": peak_rss_mib,
        "machine": machine_info(),
    }
    if tracer is not None:
        out["layers"] = {str(op): s for op, s in tracer.summaries().items()}
        out["absent"] = tracer.absent
        out["hook_errors"] = tracer.hook_errors
        if args.spans:
            out["spans_file"] = args.spans
            out["span_count"] = tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
