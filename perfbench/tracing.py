"""Outside-in layer tracing for the benchmark.

The program is not edited: public callables of each ``hetconn`` module are
replaced, by name, with wrappers that record one span per call.  A span is
(name, parent span, start, end, operation); spans are kept in flat arrays in
memory and written out once, when the workload ends.  Span times are the
CPU time of the workload thread (``time.thread_time``), so the speed probe
that shares the core does not count.  A layer's self time is its span minus
the time of the wrapped spans directly inside it.

A target that cannot be resolved (a module, class or function that a later
version of the program renamed or removed) is recorded as absent; its
metrics read zero and the report names it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute path).  Several targets may share a span
# name; a name nested inside itself counts its outermost span only.
TARGETS = (
    ("function_space.energy_1d", "hetconn.function_space", "EffectivePotentialSpace.energy_1d"),
    ("function_space.energy_1d_grad", "hetconn.function_space", "EffectivePotentialSpace.energy_1d_grad"),
    ("function_space.relax_profile", "hetconn.function_space", "EffectivePotentialSpace.relax_profile"),
    ("function_space.optimal_translation", "hetconn.function_space", "optimal_translation"),
    ("function_space.gauge_fix_translations", "hetconn.function_space", "gauge_fix_translations"),
    ("function_space.funnel_project", "hetconn.function_space", "funnel_project"),
    ("double_connection.fixture", "hetconn.double_connection", "planar_effective_space"),
    ("double_connection.fixture", "hetconn.double_connection", "sin_example_space"),
    ("double_connection.solve", "hetconn.double_connection", "solve_symmetric"),
    ("double_connection.solve", "hetconn.double_connection", "solve_asymmetric"),
    ("double_connection.assemble_and_verify", "hetconn.double_connection", "assemble_and_verify"),
    ("double_connection.audit_translation_speed", "hetconn.double_connection", "audit_translation_speed"),
    ("geodesic.minimize_k_length", "hetconn.geodesic", "minimize_k_length"),
    ("metric.weight_at", "hetconn.metric", "WeightedSpace.weight_at"),
    ("potentials.values_at", "hetconn.potentials", "Potential.values_at"),
    ("potentials.gradients_at", "hetconn.potentials", "Potential.gradients_at"),
    ("heteroclinic.reparam_equipartition", "hetconn.heteroclinic", "reparam_equipartition"),
    ("heteroclinic.verify_connection", "hetconn.heteroclinic", "verify_connection"),
    ("counterexample.dense_polyline_length", "hetconn.counterexample", "dense_polyline_length"),
    ("counterexample.candidate_length", "hetconn.counterexample", "candidate_length"),
    ("regularity.second_difference_bound", "hetconn.regularity", "second_difference_bound"),
    ("regularity.uniform_bounds_audit", "hetconn.regularity", "uniform_bounds_audit"),
)

# Span name -> index of the positional argument holding a (k, dim) batch;
# ``<name>.points`` counts its rows.  Index 1 skips ``self``.
POINTS_ARG = {
    "metric.weight_at": 1,
    "potentials.values_at": 1,
    "potentials.gradients_at": 1,
}


def _descent_outcome(tracer, name, result):
    """minimize_k_length returns (curve, value, trace); count iterations and
    calls that end with status ``converged``."""
    solve_trace = result[2]
    tracer.add(name + ".iters", solve_trace.n_iters)
    tracer.add(name + ".converged", solve_trace.status == "converged")


RESULT_HOOKS = {"geodesic.minimize_k_length": _descent_outcome}


def _rows(batch) -> int:
    shape = getattr(batch, "shape", ())
    return shape[0] if len(shape) >= 2 else 1


class Tracer:
    """Span recorder; one per traced workload process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_of = array("i")
        self.op = 0
        self._stack: list[int] = []
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.absent: list[str] = []
        self.hook_errors: list[str] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.thread_time())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.thread_time()
        self._stack.pop()

    def add(self, key: str, amount) -> None:
        self.counters[(self.op, key)] += amount

    def span(self, name: str):
        return _Span(self, self._id(name))

    def wrap(self, name: str, fn):
        nid = self._id(name)
        points_arg = POINTS_ARG.get(name)
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if points_arg is not None and len(args) > points_arg:
                self.counters[(self.op, name + ".points")] += _rows(args[points_arg])
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                try:
                    hook(self, name, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that resolves; record the others as absent.

        A module-level function is replaced in every loaded ``hetconn``
        module that holds it, so calls through re-imported names (for
        example ``cli.reparam_equipartition``) are covered too.  A method
        is replaced on its class.
        """
        for name, module_name, attr_path in targets:
            label = f"{name} ({module_name}:{attr_path})"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(label)
                continue
            owner = module
            parts = attr_path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, parts[-1], None) if owner is not None else None
            if not callable(fn):
                self.absent.append(label)
                continue
            wrapped = self.wrap(name, fn)
            if isinstance(owner, type):
                setattr(owner, parts[-1], wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hetconn" or mod_name.startswith("hetconn.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)

    # -- aggregation and output -------------------------------------------

    def summaries(self) -> dict[int, dict[str, dict]]:
        """Per operation and span name: calls, s (outermost spans of the name
        only), self_s (span minus its direct wrapped children), and the hook
        counters (points, iters, converged)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        anc_mask = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                anc_mask[i] = anc_mask[p] | (1 << self.name_id[p])
        ops = sorted(set(self.op_of) | {op for op, _ in self.counters})
        out = {op: {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
               for op in ops}
        for i in range(n):
            nid = self.name_id[i]
            row = out[self.op_of[i]][self.names[nid]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if not (anc_mask[i] >> nid) & 1:
                row["s"] += dur[i]
        for (op, key), value in self.counters.items():
            name, field = key.rsplit(".", 1)
            out[op][name][field] = value
        return out

    def write(self, path: str) -> int:
        """Write every span as TSV (gzip); returns the span count."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op_of[i]}\t{i}\t{self.parent[i]}\t"
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
        return len(self.start)


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
