"""hetconn benchmark: time to a verified solution, and where it goes.

    python3 perfbench/run.py --workload sin_polish --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics from a separate traced
workload process.  Every metric is printed by name with its unit, and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

# Each operation runs these (command, config) steps in order, each followed
# by ``hetconn verify``.  Why each workload exists: perfbench/README.md.
WORKLOADS = {
    "sin_polish": [("double", "configs/sin_example.json")],
    "planar_quotient": [("double", "configs/planar_asym.json")],
    "scalar_suite": [
        ("connect", "configs/double_well.json"),
        ("connect", "configs/triple_well.json"),
        ("counterexample", "configs/counterexample.json"),
    ],
}

SETUP_REPEATS = 3
# End-to-end metrics carried in the final JSON line; the others printed with
# them (failed_frac, tol_violations, and quality metrics that only some
# workloads have, or that can read 0) appear in the report lines only.
END_TO_END = ("solve_s", "setup_s", "peak_rss_mib", "tol_pass_frac", "equip_defect")
# Per span name, the fields reported as per-layer metrics.
LAYER_FIELDS = {
    "function_space.energy_1d": ("calls", "s"),
    "function_space.energy_1d_grad": ("calls", "s"),
    "function_space.optimal_translation": ("calls", "s"),
    "function_space.gauge_fix_translations": ("calls", "s"),
    "function_space.funnel_project": ("calls", "s"),
    "function_space.relax_profile": ("calls", "s"),
    "double_connection.fixture": ("calls", "s"),
    "double_connection.solve": ("s", "self_s"),
    "double_connection.assemble_and_verify": ("s",),
    "double_connection.audit_translation_speed": ("s",),
    "geodesic.minimize_k_length": ("calls", "iters", "s", "self_s"),
    "metric.weight_at": ("calls", "points", "s", "self_s"),
    "potentials.values_at": ("calls", "points", "s"),
    "potentials.gradients_at": ("calls", "points", "s"),
    "heteroclinic.reparam_equipartition": ("s",),
    "heteroclinic.verify_connection": ("s",),
    "counterexample.dense_polyline_length": ("s",),
    "counterexample.candidate_length": ("s",),
    "regularity.second_difference_bound": ("s",),
    "regularity.uniform_bounds_audit": ("s",),
    "cli.run": ("self_s",),
    "cli.verify": ("s",),
}
UNITS = {"calls": "count", "points": "count", "iters": "count", "s": "s", "self_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(repeats: int, timeout: float) -> list[dict]:
    """Fresh interpreters importing hetconn.cli, each as {wall_s, cpu_s, t0,
    t1}.  Run after a workload process has filled the bytecode and file
    caches.  Returns an empty list if the import fails."""
    cmd = [sys.executable, "-c", "import hetconn.cli"]
    times = []
    for _ in range(repeats):
        t0, w0, c0 = time.monotonic(), time.perf_counter(), _children_cpu_s()
        try:
            subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=timeout)
        except subprocess.SubprocessError:
            return []
        times.append({"wall_s": time.perf_counter() - w0, "cpu_s": _children_cpu_s() - c0,
                      "t0": t0, "t1": time.monotonic()})
    return times


def run_workload_process(steps, seconds: float, trace: int, work_dir: str,
                         timeout: float, spans: str | None = None) -> dict:
    """Run one workload process; returns its JSON record, or a record of one
    failed operation when the process itself fails."""
    out = os.path.join(work_dir, f"result_trace{trace}.json")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--steps", json.dumps(steps), "--seconds", repr(seconds),
           "--trace", str(trace), "--runs-dir", os.path.join(work_dir, f"runs{trace}"),
           "--out", out]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode == 0:
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)
        error = f"workload process exited {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = f"workload process exceeded {timeout:.0f} s"
    return {"ops": [failed_op(error)],
            "peak_rss_mib": 0.0, "machine": {}}


def failed_op(error: str) -> dict:
    now = time.monotonic()
    return {"ok": False, "error": error, "wall_s": 0.0, "cpu_s": 0.0, "t0": now, "t1": now,
            "steps": []}


def timing(values: list[float], what: str) -> tuple[float, str, str]:
    """(median, "s", note): the note gives the sample count and the highest
    of a few percentiles that has at least ten samples beyond it."""
    n = len(values)
    note = f"{what}, median of {n}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
            note += f", p{p:g} {cut:.6g}"
            break
    return statistics.median(values), "s", note


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def end_to_end(steps, seconds: float, setup_repeats: int, work_dir: str,
               lines: list[str]) -> tuple[dict, list]:
    with SpeedProbe(os.path.join(work_dir, "speed.log"), 170, child_env()) as probe:
        rec = run_workload_process(steps, seconds, 0, work_dir, timeout=120)
        setup = measure_setup(setup_repeats, timeout=15)
    ops = rec["ops"]
    if not setup:
        ops.append(failed_op("import hetconn.cli failed"))
        setup = [failed_op("")]
    good = [op for op in ops if op["ok"]]
    lines.append(describe_machine(rec))
    lines.append(probe.describe())
    lines += describe_ops(ops)
    last = good[-1]["steps"] if good else []
    checks = [(step["config"], c) for step in last for c in step["checks"]]
    lines += [
        f"check {os.path.basename(cfg)} {c['name']}: measured {c['measured']:.9g} "
        f"tolerance {'none in manifest' if c['tolerance'] is None else format(c['tolerance'], 'g')} "
        f"verdict {verdict(c)}"
        for cfg, c in checks
    ]
    lines += [
        f"check {os.path.basename(s['config'])} solver_status: measured {s['status']} "
        f"tolerance converged verdict "
        f"{'ok' if set(s['status'].split(',')) == {'converged'} else 'NOT CONVERGED'}"
        for s in last
    ]
    counted = [c for _, c in checks if c["counted"]]
    violations = sum(1 for c in counted if not c["ok"])
    timed = good or ops
    metrics = {
        "solve_s": timing(probe.scale(timed), "run and verify every step, nominal speed"),
        "solve_cpu_s": timing([op["cpu_s"] for op in timed], "CPU time as measured"),
        "solve_wall_s": timing([op["wall_s"] for op in timed], "wall time, probe sharing the core"),
        "setup_s": timing(probe.scale(setup), "fresh interpreter imports hetconn.cli, nominal speed"),
        "setup_cpu_s": timing([x["cpu_s"] for x in setup], "CPU time as measured"),
        "peak_rss_mib": (rec["peak_rss_mib"], "MiB", "workload process"),
        "failed_frac": ((len(ops) - len(good)) / len(ops), "1",
                        f"{len(ops) - len(good)} of {len(ops)} operations"),
        "tol_violations": (violations, "count", f"of {len(counted)} counted tolerances"),
        "tol_pass_frac": ((len(counted) - violations) / len(counted) if counted else 0.0, "1",
                          f"{len(counted) - violations} of {len(counted)} counted tolerances"),
        "equip_defect": (0.0, "1", "no successful operation"),
    }
    metrics.update(quality_metrics(last))
    return metrics, ops


def verdict(check: dict) -> str:
    if check["ok"] is None:
        return "reported, not gated"
    word = "ok" if check["ok"] else "VIOLATED"
    return word if check["counted"] else word + " (not counted)"


def quality_metrics(steps: list[dict]) -> dict:
    """Lower is better.  ``equip_defect`` is the worst over the steps."""
    out = {}
    defects = [s["quality"]["equip_defect"] for s in steps if "equip_defect" in s["quality"]]
    for s in steps:
        stem = os.path.splitext(os.path.basename(s["config"]))[0]
        q = s["quality"]
        if "energy" in q:
            out["energy"] = (q["energy"], "1", stem)
            out["residual_max"] = (q["residual_max"], "1", stem)
        if "action_gap" in q:
            out[f"action_gap.{stem}"] = (q["action_gap"], "1", "absolute value")
        if "candidate_gap" in q:
            out["candidate_gap"] = (q["candidate_gap"], "1", "final candidate minus infimum")
    if defects:
        out["equip_defect"] = (max(defects), "1", "worst over the steps")
    return out


def describe_machine(rec: dict) -> str:
    m = rec.get("machine", {})
    return ("machine: " + " ".join(f"{k}={v}" for k, v in m.items() if k != "threads")
            + f" commit={git_commit()} threads={m.get('threads')}")


def describe_ops(ops: list[dict]) -> list[str]:
    lines = []
    for k, op in enumerate(ops):
        parts = [f"{os.path.basename(s['config'])} run {s['run_s']:.3f} s verify {s['verify_s']:.3f} s"
                 for s in op["steps"]]
        state = "ok" if op["ok"] else "FAILED: " + (op["error"] or "").strip().splitlines()[-1]
        lines.append(f"op {k}: {op['wall_s']:.3f} s {state}; " + "; ".join(parts))
    return lines


def per_layer(steps, seconds: float, work_dir: str, spans: str, lines: list[str]) -> tuple[dict, list]:
    """Untraced and traced workload processes, half the budget each."""
    with SpeedProbe(os.path.join(work_dir, "speed.log"), 170, child_env()) as probe:
        plain = run_workload_process(steps, seconds / 2, 0, work_dir, timeout=80)
        traced = run_workload_process(steps, seconds / 2, 1, work_dir, timeout=85, spans=spans)
    ops = plain["ops"] + traced["ops"]
    lines.append(describe_machine(traced))
    lines.append(probe.describe())
    lines += describe_ops(ops)
    layers = []  # per successful traced operation, times at nominal speed
    for k, op in enumerate(traced["ops"]):
        if op["ok"] and "layers" in traced:
            factor = probe.factor(op["t0"], op["t1"])
            layers.append({name: {f: v * factor if UNITS.get(f) == "s" else v
                                  for f, v in row.items()}
                           for name, row in traced["layers"][str(k)].items()})
    for name in traced.get("absent", []):
        lines.append(f"absent: {name} (its metrics read 0)")
    for err in traced.get("hook_errors", [])[:5]:
        lines.append(f"hook error: {err}")
    if "span_count" in traced:
        lines.append(f"spans: {traced['span_count']} written to {os.path.relpath(spans, ROOT)}")

    metrics = {}
    for name, fields in LAYER_FIELDS.items():
        for field in fields:
            values = [lay.get(name, {}).get(field, 0) for lay in layers] or [0]
            if UNITS[field] == "count" and len(set(values)) > 1:
                lines.append(f"warning: {name}.{field} differs between operations: {values}")
            metrics[f"{name}.{field}"] = (statistics.median(values), UNITS[field],
                                          f"per operation, median of {len(layers)}")
    calls = metrics["geodesic.minimize_k_length.calls"][0]
    conv = statistics.median([lay.get("geodesic.minimize_k_length", {}).get("converged", 0)
                              for lay in layers] or [0])
    metrics["geodesic.converged_frac"] = (conv / calls if calls else 0.0, "1",
                                          f"{conv:g} of {calls:g} calls")
    plain_wall = probe.scale([op for op in plain["ops"] if op["ok"]])
    traced_wall = probe.scale([op for op in traced["ops"] if op["ok"]])
    if plain_wall and traced_wall:
        overhead = statistics.median(traced_wall) - statistics.median(plain_wall)
        note = (f"traced {statistics.median(traced_wall):.6g} s minus untraced "
                f"{statistics.median(plain_wall):.6g} s, nominal speed")
    else:
        overhead, note = 0.0, "no successful traced and untraced pair"
    metrics["trace.overhead_s"] = (overhead, "s", note)
    return metrics, ops


def run(steps, seconds: float, trace: int, seed: int, setup_repeats: int = SETUP_REPEATS,
        spans: str | None = None) -> tuple[list[str], dict]:
    """Measure one workload; returns (report lines, final result object)."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR)
    lines = [f"seed: {seed} (recorded only; the program draws no random numbers)",
             f"steps: {json.dumps(steps)}"]
    try:
        if trace:
            spans = spans or os.path.join(work_dir, "spans.tsv.gz")
            metrics, ops = per_layer(steps, seconds, work_dir, spans, lines)
        else:
            metrics, ops = end_to_end(steps, seconds, setup_repeats, work_dir, lines)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, (value, unit, note) in metrics.items():
        lines.append(f"metric {name} = {value!r} {unit} ({note})")
    failed = sum(1 for op in ops if not op["ok"])
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
                    if trace or name in END_TO_END},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hetconn benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    steps = WORKLOADS[args.workload]
    missing = [p for p in ["src/hetconn/cli.py"] + [cfg for _, cfg in steps]
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"not a hetconn source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # One core for the benchmark and every process it starts: the cores of a
    # shared host run at different speeds, and a process that lands on
    # either would add that difference to the run-to-run spread.
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        pinned = f"pinned to cpu {cpu}"
    except OSError as exc:
        pinned = f"not pinned: {exc}"
    spans = os.path.join(RUNS_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    lines, result = run(steps, args.seconds, args.trace, args.seed, spans=spans)
    print(f"workload: {args.workload} ({pinned})")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
