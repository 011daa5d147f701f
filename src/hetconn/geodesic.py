"""Weighted-length minimization over polylines with pinned endpoints.

The discrete objective is the midpoint-rule weighted length
sum K((x_i + x_{i+1})/2) * d(x_i, x_{i+1}); its exact coordinate gradient
drives a backtracking descent.  Each trial polyline is evaluated once: the
accepted one's weights, lengths and midpoints also assemble its gradient.
The first trial of each step after the first keeps the first-order decrease
of the last accepted step (Nocedal and Wright, Numerical Optimization,
eq. 3.60): t_prev * slope_prev / slope, held between half and twice the
last accepted step, so one trial per step is the usual case and only
rejected trials cut the step by more than half.
Segments whose midpoint weight sits below a floor are treated as already on
the zero set and contribute no gradient.  Loop removal excises everything
between the first and last pass near a zero-set point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import math

import numpy as np

from .metric import SampledCurve, WeightedSpace, interp_columns, k_length


# Backtracking line search: the first step's first trial, Armijo
# sufficient-decrease constant, step shrink factor and the most shrinks
# before a stall.  Later steps first try
# min(t_prev * clip(slope_prev / slope, BACKTRACK, 2), 1e3 STEP0), t_prev
# the last accepted step and slope the squared preconditioned gradient norm.
STEP0 = 1.0
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
# Segments whose midpoint weight is below this contribute no gradient.
WEIGHT_FLOOR = 1e-8


@dataclass
class SolverOptions:
    n_nodes: int = 101
    max_iters: int = 500
    grad_tol: float = 1e-8
    via_points: tuple = ()
    init_nodes: np.ndarray | None = None


@dataclass
class SolveTrace:
    energies: list
    status: str
    n_iters: int  # accepted steps; 0 for a descent that starts converged
    grad_norm: float
    n_evals: int  # line-search trial evaluations

    @property
    def monotone(self) -> bool:
        e = np.asarray(self.energies)
        return bool(np.all(np.diff(e) <= 1e-12 * np.maximum(1.0, np.abs(e[:-1]))))


class _Evaluation(NamedTuple):
    """One polyline's energy and the per-segment terms its gradient reuses."""

    energy: float
    kvals: np.ndarray
    wdiffs: np.ndarray
    lens: np.ndarray
    mids: np.ndarray


def _evaluate(nodes: np.ndarray, wspace: WeightedSpace, w: np.ndarray) -> _Evaluation:
    diffs = nodes[1:] - nodes[:-1]
    wdiffs = w * diffs
    lens = np.sqrt(np.sum(wdiffs * diffs, axis=1))
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    # frozen, so a weight may keep K for the gradient call on this batch
    mids.flags.writeable = False
    kvals = wspace.weight_at(mids)
    energy = math.inf if np.any(np.isinf(kvals)) else float(np.sum(kvals * lens))
    return _Evaluation(energy, kvals, wdiffs, lens, mids)


def _gradient(ev: _Evaluation, wspace: WeightedSpace) -> np.ndarray:
    _, gk = wspace.weight_and_grad_at(ev.mids)
    kvals, lens = ev.kvals, ev.lens
    # computed on every segment; inactive ones contribute zero
    active = (kvals >= WEIGHT_FLOOR) & (lens > 0.0)
    if active.all():
        half = 0.5 * gk * lens[:, None]
        pull = (kvals / lens)[:, None] * ev.wdiffs
    else:
        ratio = np.divide(kvals, lens, out=np.zeros_like(kvals), where=active)
        half = np.where(active[:, None], 0.5 * gk * lens[:, None], 0.0)
        pull = np.where(active[:, None], ratio[:, None] * ev.wdiffs, 0.0)
    grad = np.zeros((lens.size + 1, gk.shape[1]))
    grad[:-1] += half - pull
    grad[1:] += half + pull
    grad[0] = 0.0
    grad[-1] = 0.0
    return grad


def _energy_grad(nodes: np.ndarray, wspace: WeightedSpace, want_grad: bool):
    ev = _evaluate(nodes, wspace, wspace.space.coord_weights)
    if not want_grad or ev.energy == math.inf:
        return ev.energy, None
    return ev.energy, _gradient(ev, wspace)


def _seed_nodes(x_minus, x_plus, opts: SolverOptions) -> np.ndarray:
    if opts.init_nodes is not None:
        nodes = np.atleast_2d(np.asarray(opts.init_nodes, dtype=float)).copy()
        nodes[0] = x_minus
        nodes[-1] = x_plus
        return nodes
    way = [np.asarray(x_minus, dtype=float)]
    way += [np.asarray(v, dtype=float) for v in opts.via_points]
    way.append(np.asarray(x_plus, dtype=float))
    way = np.stack(way)
    chord = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(way, axis=0), axis=1))]
    )
    if chord[-1] == 0.0:
        chord = np.arange(way.shape[0], dtype=float)
    tau = np.linspace(0.0, chord[-1], opts.n_nodes)
    return interp_columns(tau, chord, way)


def minimize_k_length(
    wspace: WeightedSpace,
    x_minus: np.ndarray,
    x_plus: np.ndarray,
    opts: SolverOptions | None = None,
):
    """Descend the midpoint-rule weighted length from a seeded polyline.

    Returns (curve, value, trace).  Endpoints stay pinned; accepted steps are
    monotone in energy.  The descent direction is the coordinate gradient
    preconditioned by the ambient quadrature weights, so grid-L2 spaces move
    at the same rate as Euclidean ones.  The returned curve holds the
    descent's nodes on the uniform times ``np.linspace(0, 1, n)``: what
    follows (loop removal, the equipartition reparametrization, the
    weighted length) reads node positions only.  Identical endpoints yield
    a two-node constant curve of value zero.
    """
    opts = opts or SolverOptions()
    x_minus = np.asarray(x_minus, dtype=float)
    x_plus = np.asarray(x_plus, dtype=float)
    if np.array_equal(x_minus, x_plus):
        curve = SampledCurve(times=np.array([0.0, 1.0]), nodes=np.stack([x_minus, x_plus]))
        return curve, 0.0, SolveTrace([0.0], "degenerate", 0, 0.0, 0)
    nodes = _seed_nodes(x_minus, x_plus, opts)
    energy, grad = _energy_grad(nodes, wspace, True)
    if not np.isfinite(energy):
        raise ValueError("weighted length is not finite at the initial polyline")
    energies = [energy]
    w = wspace.space.coord_weights
    inv_w = 1.0 / w
    status = "max_iters"
    step = STEP0
    prev_slope = 0.0  # slope of the last accepted step; 0 before the first
    n_evals = 0
    # one pass more than max_iters: the last one only tests the tolerance
    # at the returned nodes
    for it in range(opts.max_iters + 1):
        direction = grad * inv_w
        slope = float(np.sum(grad * direction))
        gnorm = math.sqrt(max(slope, 0.0))
        if gnorm < opts.grad_tol:
            status = "converged"
            break
        if it == opts.max_iters:
            break
        accepted = False
        t = step
        # slope is 0 here only when grad_tol is 0
        if prev_slope > 0.0 and slope > 0.0:
            t = min(step * min(2.0, max(BACKTRACK, prev_slope / slope)), STEP0 * 1e3)
        for _ in range(MAX_BACKTRACKS):
            trial = nodes - t * direction
            ev = _evaluate(trial, wspace, w)
            n_evals += 1
            if ev.energy <= energy - ARMIJO * t * slope:
                accepted = True
                break
            # records are dropped once used, so that two are never alive at
            # once (peak memory)
            ev = None
            t *= BACKTRACK
        if not accepted:
            status = "stall"
            break
        nodes = trial
        energy = ev.energy
        energies.append(energy)
        step, prev_slope = t, slope
        grad = _gradient(ev, wspace)
        ev = None
    trace = SolveTrace(energies=energies, status=status, n_iters=len(energies) - 1,
                       grad_norm=gnorm, n_evals=n_evals)
    curve = SampledCurve(times=np.linspace(0.0, 1.0, nodes.shape[0]), nodes=nodes)
    value = k_length(curve, wspace, rule="midpoint")
    return curve, value, trace


def remove_sigma_loops(
    curve: SampledCurve, wspace: WeightedSpace, hit_tol: float = 1e-2
) -> SampledCurve:
    """Excise the arc between the first and last pass near each zero-set point.

    Zero-set points are processed in their declared order.  A candidate
    excision is kept only if it does not increase the midpoint-rule weighted
    length, so the reported length is monotone by construction.  A curve
    that never leaves one zero-set point collapses to its two end nodes.
    """
    out = curve
    for sigma in wspace.zero_set:
        d = wspace.space.distances(out.nodes, sigma)
        hits = np.flatnonzero(d <= hit_tol)
        if hits.size < 2:
            continue
        i1, i2 = int(hits[0]), int(hits[-1])
        if i2 <= i1 + 1:
            continue
        keep = np.concatenate([np.arange(i1 + 1), np.arange(i2, out.n_nodes)])
        nodes = out.nodes[keep]
        t0, t_end = out.times[0], out.times[-1]
        span = out.times[i2] - out.times[i1]
        times = np.concatenate([out.times[: i1 + 1], out.times[i2:] - span])
        if t_end - span > t0:
            times = t0 + (times - t0) * (t_end - t0) / (t_end - t0 - span)
        else:
            times = np.linspace(t0, t_end, nodes.shape[0])
        if np.any(np.diff(times) <= 0):
            times = np.linspace(t0, t_end, nodes.shape[0])
        candidate = SampledCurve(times=times, nodes=nodes)
        if k_length(candidate, wspace) <= k_length(out, wspace):
            out = candidate
    return out

