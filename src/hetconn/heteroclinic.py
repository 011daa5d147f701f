"""From weighted geodesics to heteroclinic connections.

A geodesic for the weight K = sqrt(2 W) becomes a minimal-action connection
once its time parametrization equidistributes kinetic and potential energy:
along the arc-length form of the geodesic one integrates 1/K to build the
inverse time map, and the curve read through that map satisfies
|dgamma/dt| = K(gamma), i.e. the action integrand splits evenly.  The weight
vanishes at the two wells, so the time map diverges at the ends; the
implementation clamps at the last interior node and reports the resulting
finite window.

On the line no geodesic needs to be found: between two adjacent wells the
K-geodesic is the segment, d_K is the integral of K, and the equipartition
profile solves u' = K(u).  ``line_connection`` builds that profile by
quadrature alone, and ``line_legs`` splits a pair of ends at every well
between them, since every path on the line passes through those wells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .metric import (
    AmbientSpace,
    EuclideanSpace,
    SampledCurve,
    WeightedSpace,
    drop_tied_nodes,
    interp_columns,
    midpoints,
    qk21,
    segment_k_lengths,
    segment_lengths,
    sorted_unique,
)
from .potentials import Potential


class InteriorZeroError(RuntimeError):
    """The weight vanishes strictly between the endpoints of a geodesic."""


def equipartition(curve: SampledCurve, space: AmbientSpace, w_mid: np.ndarray):
    """Midpoint-rule action and per-segment equipartition defect.

    ``w_mid`` holds the potential at the segment midpoints.  Returns
    (sum (|speed|^2 / 2 + W) dt, | |speed|^2 / 2 - W | per segment), the
    speed being the metric segment length over the time step.
    """
    dts = np.diff(curve.times)
    kinetic = 0.5 * (segment_lengths(curve, space) / dts) ** 2
    return float(np.sum((kinetic + w_mid) * dts)), np.abs(kinetic - w_mid)


def action_ew(curve: SampledCurve, potential: Potential, space: AmbientSpace | None = None) -> float:
    """Midpoint-rule action: sum (|segment speed|^2 / 2 + W(midpoint)) * dt."""
    space = space or EuclideanSpace(curve.nodes.shape[1])
    return equipartition(curve, space, potential.values_at(midpoints(curve)))[0]


@dataclass(frozen=True)
class ConnectionResult:
    """A connection sampled on a symmetric window [-T, T]."""

    curve: SampledCurve
    x_minus: np.ndarray
    x_plus: np.ndarray
    action: float
    dk_value: float
    equipartition_defect: float
    window: float
    diagnostics: dict


def _arc_length_form(geodesic: SampledCurve, space: AmbientSpace):
    s = np.concatenate([[0.0], np.cumsum(segment_lengths(geodesic, space))])
    return drop_tied_nodes(s, geodesic.nodes)


def _graded_resample(s: np.ndarray, nodes: np.ndarray, n_base: int, eps_rel: float):
    """Arc-length grid: uniform base plus geometric tails toward both ends.

    The time map integrates 1/K, which blows up logarithmically (or worse)
    at the wells, so uniform grids cap the reachable window; geometric
    clustering pushes the clamp exponentially closer to the ends.
    """
    total = s[-1]
    base = np.linspace(0.0, total, n_base)
    levels = int(np.ceil(np.log2(1.0 / eps_rel))) if eps_rel < 1.0 else 0
    tail = total * 0.25 * 0.5 ** np.arange(1, levels + 1)
    s_new = sorted_unique(np.concatenate([base, tail, total - tail, [0.0, total]]))
    return s_new, interp_columns(s_new, s, nodes)


def reparam_equipartition(
    geodesic: SampledCurve,
    wspace: WeightedSpace,
    n_samples: int = 2001,
    t_max: float = 10.0,
    resample: int | None = None,
    resample_eps: float = 1e-9,
) -> ConnectionResult:
    """Reparametrize a geodesic so kinetic and potential energy balance.

    The geodesic is put in arc-length form; F = K(nodes) must be positive at
    every interior node (run loop removal first if the curve grazes the zero
    set).  G = cumulative trapezoid of 1/F, centered where the accumulated
    weighted length reaches half its total, is inverted monotonically to get
    the time map.  The output is sampled on a uniform grid over [-T, T] with
    T = min(clamped G-range half-width, t_max).  ``resample`` inserts a
    graded arc grid (geometric toward the ends, relative depth
    ``resample_eps``) before integration, extending the reachable window.
    """
    s, nodes = _arc_length_form(geodesic, wspace.space)
    if s.size < 3:
        raise ValueError("geodesic needs at least one interior node")
    if resample is not None:
        s, nodes = _graded_resample(s, nodes, resample, resample_eps)
    F = wspace.weight_at(nodes)
    if np.any(~np.isfinite(F)):
        raise ValueError("weight is not finite along the geodesic")
    interior = F[1:-1]
    if np.any(interior <= 0.0):
        i = 1 + int(np.argmin(interior))
        raise InteriorZeroError(
            f"weight vanishes at interior arc position s={s[i]:.6g}; "
            "the endpoints are not adjacent wells for this curve"
        )
    # Center where the accumulated weighted length reaches half its total.
    seg_k = 0.5 * (F[:-1] + F[1:]) * np.diff(s)
    cum_k = np.concatenate([[0.0], np.cumsum(seg_k)])
    j_mid = int(np.argmin(np.abs(cum_k - 0.5 * cum_k[-1])))
    j_mid = min(max(j_mid, 1), s.size - 2)
    inv = 1.0 / F[1:-1]
    G = np.concatenate([[0.0], np.cumsum(0.5 * (inv[:-1] + inv[1:]) * np.diff(s[1:-1]))])
    G -= G[j_mid - 1]
    t_lo, t_hi = float(G[0]), float(G[-1])
    T = min(-t_lo, t_hi, t_max)
    if T <= 0.0:
        raise ValueError("clamped time window is empty")
    times = np.linspace(-T, T, n_samples)
    phi = np.interp(times, G, s[1:-1])
    curve = SampledCurve(times=times, nodes=interp_columns(phi, s, nodes))

    k_mid = wspace.weight_at(midpoints(curve))
    action, defects = equipartition(curve, wspace.space, 0.5 * k_mid * k_mid)
    defect = float(np.max(defects))
    dk = float(np.sum(seg_k))
    h_t = float(times[1] - times[0])
    diagnostics = {
        "clamp_f_lo": float(F[1]),
        "clamp_f_hi": float(F[-2]),
        "g_range": (t_lo, t_hi),
        "action_minus_dk_per_h": (action - dk) / h_t,
        "arc_nodes": int(s.size),
    }
    return ConnectionResult(
        curve=curve,
        x_minus=nodes[0].copy(),
        x_plus=nodes[-1].copy(),
        action=action,
        dk_value=dk,
        equipartition_defect=defect,
        window=T,
        diagnostics=diagnostics,
    )


# The line's time map is integrated on a graded grid of the leg parameter s
# in [0, 1]: LINE_PANELS uniform panels plus geometric tails that reach
# 2^-(LINE_TAIL_LEVELS + 2) of the leg from either end.  A tail panel is as
# wide as its distance from the end, where 1/K has its pole.
LINE_PANELS = 16
LINE_TAIL_LEVELS = 40
# Newton steps of the centre and of the time map's inversion, at most; a
# step that moves s by at most LINE_STEP_TOL ends them
LINE_NEWTON_STEPS = 50
LINE_STEP_TOL = 4.0 * np.finfo(float).eps


def line_legs(x_minus, x_plus, wells) -> list:
    """(start, end) of each leg from x_minus to x_plus on the line, as floats.

    The ends are split at every one of ``wells`` more than 1e-9 inside them
    (a well nearer an end is that end, as in ``check_sti``), in the order of
    travel, so consecutive legs share a well.
    """
    a, b = (np.asarray(x, dtype=float).item() for x in (x_minus, x_plus))
    lo, hi = min(a, b), max(a, b)
    inner = sorted({w for w in (np.asarray(w, dtype=float).item() for w in wells)
                    if lo + 1e-9 < w < hi - 1e-9}, reverse=b < a)
    stops = [a, *inner, b]
    return list(zip(stops[:-1], stops[1:]))


def _newton(residual, s, slope, lo=None, hi=None):
    """Newton steps s - residual(s) / slope(s) until none moves s by more
    than LINE_STEP_TOL; RuntimeError after LINE_NEWTON_STEPS of them.

    With a bracket [lo, hi] (scalar s), a step leaving it bisects it instead,
    and the sign of the residual narrows it.
    """
    for _ in range(LINE_NEWTON_STEPS):
        r = residual(s)
        step = r / slope(s)
        if np.max(np.abs(step)) <= LINE_STEP_TOL:
            return s
        if lo is None:
            s = s - step
            continue
        lo, hi = (lo, s) if r > 0.0 else (s, hi)
        s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
    raise RuntimeError(f"Newton's method did not settle in {LINE_NEWTON_STEPS} steps")


def line_connection(wspace: WeightedSpace, a: float, b: float, n_samples: int = 2001,
                    t_max: float = 10.0) -> ConnectionResult:
    """The equipartitioned connection along the segment from a to b of the line.

    K must be positive strictly between a and b.  d_K is the integral of K
    over the segment (``segment_k_lengths``).  The time map t(u), the
    integral of du / K, is zero where the K-length from a reaches half of
    d_K.  It is summed from one ``qk21`` rule per panel of a graded grid of
    the segment, and T = min(t at either end of that grid, t_max).  The
    profile on the uniform grid of ``n_samples`` times over [-T, T] inverts
    t: a cubic Hermite interpolant of the inverse (slope K) starts Newton
    steps whose t is integrated afresh from the grid node below by the same
    rule, and they stop once a step moves no sample by more than a few ulps.
    Near a well the rule sees K through the rounding of u, which limits t's
    accuracy there to what that rounding moves u by.
    """
    span = abs(b - a)
    ends = np.array([[a], [b]])

    def k_at(s):
        return wspace.weight_at((a + s.ravel() * (b - a))[:, None]).reshape(s.shape)

    def time_between(s0, s1):
        return qk21(lambda s: span / k_at(s), s0, s1)

    dk = float(segment_k_lengths(wspace.weight_at, ends[:1], ends[1:], [[]])[0])
    centre = float(_newton(
        lambda s: segment_k_lengths(
            wspace.weight_at, ends[:1], np.array([[a + s * (b - a)]]), [[]])[0] - 0.5 * dk,
        0.5, lambda s: span * k_at(np.array([s]))[0], 0.0, 1.0))
    tails = 0.25 * 0.5 ** np.arange(1, LINE_TAIL_LEVELS + 1)
    # levels that keep a grid node apart from an end in floating point
    tails = tails[tails * span > 64.0 * np.spacing(max(abs(a), abs(b)))]
    grid = sorted_unique(np.concatenate(
        [np.linspace(0.0, 1.0, LINE_PANELS + 1)[1:-1], tails, 1.0 - tails, [centre]]))
    steps = time_between(grid[:-1], grid[1:])
    c = int(np.searchsorted(grid, centre))
    t_grid = np.concatenate([-np.cumsum(steps[:c][::-1])[::-1], [0.0], np.cumsum(steps[c:])])
    if not np.all(np.isfinite(t_grid)):
        raise InteriorZeroError(f"the weight vanishes inside [{a}, {b}]")
    T = min(-t_grid[0], t_grid[-1], t_max)
    times = np.linspace(-T, T, n_samples)
    i = np.clip(np.searchsorted(t_grid, times, side="right") - 1, 0, grid.size - 2)
    h = t_grid[i + 1] - t_grid[i]
    x = (times - t_grid[i]) / h
    ds_dt = k_at(grid) / span
    s = ((1.0 + 2.0 * x) * (1.0 - x) ** 2 * grid[i] + x * (1.0 - x) ** 2 * h * ds_dt[i]
         + x * x * (3.0 - 2.0 * x) * grid[i + 1] + x * x * (x - 1.0) * h * ds_dt[i + 1])
    s = _newton(lambda s: t_grid[i] + time_between(grid[i], s) - times,
                s, lambda s: span / k_at(s))
    curve = SampledCurve(times=times, nodes=(a + s * (b - a))[:, None])
    k_mid = wspace.weight_at(midpoints(curve))
    action, defects = equipartition(curve, wspace.space, 0.5 * k_mid * k_mid)
    return ConnectionResult(
        curve=curve,
        x_minus=ends[0].copy(),
        x_plus=ends[1].copy(),
        action=action,
        dk_value=dk,
        equipartition_defect=float(np.max(defects)),
        window=T,
        diagnostics={"g_range": (float(t_grid[0]), float(t_grid[-1]))},
    )


class ConnectionReport(NamedTuple):
    action_gap: float
    equipartition_defect: float
    endpoint_gap_minus: float
    endpoint_gap_plus: float
    el_residual: float | None


def verify_connection(
    result: ConnectionResult,
    potential: Potential | None = None,
    wspace: WeightedSpace | None = None,
) -> ConnectionReport:
    """Independent checks on a connection: action gap, defect, ends, residual.

    W comes from the potential when one is given, else from the weight as
    K^2 / 2.  The Euler-Lagrange residual max |gamma'' - grad W(gamma)| is
    evaluated by second differences on the uniform time grid when a
    potential is given; otherwise it is None.
    """
    curve = result.curve
    space = wspace.space if wspace is not None else EuclideanSpace(curve.nodes.shape[1])
    mids = midpoints(curve)
    if potential is not None:
        wv = potential.values_at(mids)
    elif wspace is not None:
        kv = wspace.weight_at(mids)
        wv = 0.5 * kv * kv
    else:
        raise ValueError("need a potential or a weighted space")
    action, defects = equipartition(curve, space, wv)
    defect = float(np.max(defects))
    gap_minus = space.distance(curve.nodes[0], result.x_minus)
    gap_plus = space.distance(curve.nodes[-1], result.x_plus)
    residual = None
    if potential is not None:
        dts = np.diff(curve.times)
        h = float(dts[0])
        if np.allclose(dts, h, rtol=1e-9) and curve.n_nodes >= 3:
            second = (
                curve.nodes[2:] - 2.0 * curve.nodes[1:-1] + curve.nodes[:-2]
            ) / h**2
            gradw = potential.gradients_at(curve.nodes[1:-1])
            residual = float(np.max(np.linalg.norm(second - gradw, axis=1)))
    return ConnectionReport(
        action_gap=action - result.dk_value,
        equipartition_defect=defect,
        endpoint_gap_minus=float(gap_minus),
        endpoint_gap_plus=float(gap_plus),
        el_residual=residual,
    )
