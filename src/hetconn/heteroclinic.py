"""From weighted geodesics to heteroclinic connections.

A geodesic for the weight K = sqrt(2 W) becomes a minimal-action connection
once its time parametrization equidistributes kinetic and potential energy:
read through the inverse of the time map, the integral of |dgamma| / K, it
satisfies |dgamma/dt| = K(gamma), so the action integrand splits evenly.
The map diverges at the wells, where K vanishes; one exact quadrature on
panels graded toward them integrates it for a segment of the line
(``line_connection``) and for a polyline in flat R^n (``reparam_equipartition``).

On the line no geodesic needs to be found: between two adjacent wells the
K-geodesic is the segment, d_K is the integral of K, and the equipartition
profile solves u' = K(u).  ``line_connection`` builds that profile by
quadrature alone, and ``line_legs`` splits a pair of ends at every well
between them, since every path on the line passes through those wells.  In
dimension two and up ``geodesic.minimize_k_length`` relaxes the action of a
time-sampled curve directly, which is already equipartitioned, so no run
calls ``reparam_equipartition``.
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
    midpoints,
    qk21,
    segment_k_lengths,
    segment_lengths,
    sorted_unique,
)
from .potentials import Potential


class InteriorZeroError(RuntimeError):
    """The weight vanishes strictly between the ends of a polyline."""


def equipartition(curve: SampledCurve, space: AmbientSpace, w_mid: np.ndarray):
    """Midpoint-rule action and per-segment equipartition defect.

    ``w_mid`` holds the potential at the segment midpoints.  Returns
    (sum (|speed|^2 / 2 + W) dt, | |speed|^2 / 2 - W | per segment), the
    speed being the metric segment length over the time step.
    """
    dts = np.diff(curve.times)
    kinetic = 0.5 * (segment_lengths(curve, space) / dts) ** 2
    return float(np.sum((kinetic + w_mid) * dts)), np.abs(kinetic - w_mid)


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


# The time map is integrated on a graded grid of the polyline parameter s in
# [0, 1]: LINE_PANELS uniform panels per segment plus geometric tails that
# reach 2^-(LINE_TAIL_LEVELS + 2) of the parameter range from either end.  A
# tail panel is as wide as its distance from the end, where 1/K has its pole.
LINE_PANELS = 16
LINE_TAIL_LEVELS = 40
# Newton steps of the centre and of the time map's inversion, at most; a
# step that moves s by at most LINE_STEP_TOL ends them
LINE_NEWTON_STEPS = 50
LINE_STEP_TOL = 4.0 * np.finfo(float).eps


def line_legs(x_minus, x_plus, wells) -> list:
    """(start, end) of each leg from x_minus to x_plus on the line, as floats.

    The ends are split at every one of ``wells`` more than 1e-9 inside them
    (a well nearer an end is that end), in the order of
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


def _equipartition_along(nodes, wspace: WeightedSpace, n_samples: int,
                         t_max: float) -> ConnectionResult:
    """The equipartitioned connection along the polyline through ``nodes`` in flat R^n.

    Tied nodes are dropped first (``drop_tied_nodes``).  The J segments left
    are parametrized by s in [0, 1], segment j = floor(s J) at speed J |d_j|;
    K must be positive at the interior nodes (InteriorZeroError otherwise)
    and inside each segment.  d_K is the sum of one ``segment_k_lengths``
    call over the segments.  The time map t(s), the integral of the speed
    over K, is zero where the K-length reaches half of d_K; it is summed from
    one ``qk21`` rule per panel of a graded grid of s, each panel on the
    segment of its midpoint, and T = min(t at either end of that grid,
    t_max).  The profile on the uniform grid of ``n_samples`` times over
    [-T, T] inverts t: a cubic Hermite interpolant (slope K over the speed)
    starts Newton steps whose t is integrated afresh from the grid node below
    by the same rule, until no step moves a sample by more than a few ulps.
    Near a well the rule sees K through the rounding of the points, which
    limits t's accuracy there to what that rounding moves them by.
    """
    space = wspace.space
    if not isinstance(space, EuclideanSpace):
        raise ValueError("the equipartition time map needs a Euclidean space")
    nodes = np.asarray(nodes, dtype=float)
    pos = np.concatenate([[0.0], np.cumsum(space.distances(nodes[1:], nodes[:-1]))])
    nodes = drop_tied_nodes(pos, nodes)[1]
    n_seg, dim = nodes.shape[0] - 1, nodes.shape[1]
    if n_seg < 1:
        raise ValueError("the polyline has zero length")
    if n_seg > 1 and np.any(wspace.weight_at(nodes[1:-1]) <= 0.0):
        raise InteriorZeroError("the weight vanishes at an interior node of the polyline")
    d = np.diff(nodes, axis=0)
    speed = n_seg * space.distances(nodes[1:], nodes[:-1])
    # segment j is the affine map s -> origin[j] + s velocity[j]
    velocity = n_seg * d
    origin = nodes[:-1] - np.arange(n_seg)[:, None] * d

    def point(s, seg):
        """Points at s, shape (p,) or (p, q), on the segments seg, shape (p,): (p, q, dim)."""
        x = s.reshape(seg.size, -1)[:, :, None] * velocity[seg][:, None, :]
        x += origin[seg][:, None, :]
        return x

    def k_at(s, seg):
        return wspace.weight_at(point(s, seg).reshape(-1, dim)).reshape(s.shape)

    def time_between(s0, s1, seg):
        return qk21(lambda s: speed[seg, None] / k_at(s, seg), s0, s1)

    seg_k = segment_k_lengths(wspace.weight_at, nodes[:-1], nodes[1:], [[]] * n_seg)
    dk = float(np.sum(seg_k))
    # the centre lies on the segment where the K-length from the first node reaches half
    j = min(int(np.searchsorted(np.cumsum(seg_k), 0.5 * dk)), n_seg - 1)
    before = float(np.sum(seg_k[:j]))
    sigma = float(_newton(
        lambda r: before + segment_k_lengths(
            wspace.weight_at, nodes[j:j + 1], (nodes[j] + r * d[j])[None], [[]])[0] - 0.5 * dk,
        0.5, lambda r: speed[j] / n_seg * wspace.weight_at(nodes[j] + r * d[j])[0], 0.0, 1.0))
    centre = (j + sigma) / n_seg
    tails = 0.25 * 0.5 ** np.arange(1, LINE_TAIL_LEVELS + 1)
    # the levels that keep a grid node apart from either end in floating point
    first, last = (tails[tails * speed[k] > 64.0 * np.spacing(np.max(np.abs(nodes[k:k + 2])))]
                   for k in (0, n_seg - 1))
    grid = sorted_unique(np.concatenate([np.linspace(0.0, 1.0, LINE_PANELS * n_seg + 1)[1:-1],
                                         first, 1.0 - last, [centre]]))
    seg = np.minimum((0.5 * (grid[:-1] + grid[1:]) * n_seg).astype(int), n_seg - 1)
    steps = time_between(grid[:-1], grid[1:], seg)
    c = int(np.searchsorted(grid, centre))
    t_grid = np.concatenate([-np.cumsum(steps[:c][::-1])[::-1], [0.0], np.cumsum(steps[c:])])
    if not np.all(np.isfinite(t_grid)):
        raise InteriorZeroError("the weight vanishes inside a segment of the polyline")
    T = min(-t_grid[0], t_grid[-1], t_max)
    times = np.linspace(-T, T, n_samples)
    i = np.clip(np.searchsorted(t_grid, times, side="right") - 1, 0, grid.size - 2)
    h = t_grid[i + 1] - t_grid[i]
    x = (times - t_grid[i]) / h
    # ds/dt at both ends of each panel, on the panel's segment
    ds_dt = k_at(np.column_stack([grid[:-1], grid[1:]]), seg) / speed[seg, None]
    s = ((1.0 + 2.0 * x) * (1.0 - x) ** 2 * grid[i] + x * (1.0 - x) ** 2 * h * ds_dt[i, 0]
         + x * x * (3.0 - 2.0 * x) * grid[i + 1] + x * x * (x - 1.0) * h * ds_dt[i, 1])
    s = _newton(lambda s: t_grid[i] + time_between(grid[i], s, seg[i]) - times,
                s, lambda s: speed[seg[i]] / k_at(s, seg[i]))
    curve = SampledCurve(times=times, nodes=point(s, seg[i])[:, 0, :])
    k_mid = wspace.weight_at(midpoints(curve))
    action, defects = equipartition(curve, space, 0.5 * k_mid * k_mid)
    return ConnectionResult(
        curve=curve,
        x_minus=nodes[0].copy(),
        x_plus=nodes[-1].copy(),
        action=action,
        dk_value=dk,
        equipartition_defect=float(np.max(defects)),
        window=T,
    )


def line_connection(wspace: WeightedSpace, a: float, b: float, n_samples: int = 2001,
                    t_max: float = 10.0) -> ConnectionResult:
    """The equipartitioned connection along the segment from a to b of the line,
    K positive strictly between them (``_equipartition_along``)."""
    return _equipartition_along(np.array([[a], [b]], dtype=float), wspace, n_samples, t_max)


def reparam_equipartition(geodesic: SampledCurve, wspace: WeightedSpace, n_samples: int = 2001,
                          t_max: float = 10.0) -> ConnectionResult:
    """The equipartitioned connection along the polyline of ``geodesic``'s
    nodes in flat R^n, its times ignored (``_equipartition_along``)."""
    return _equipartition_along(geodesic.nodes, wspace, n_samples, t_max)


class ConnectionReport(NamedTuple):
    action_gap: float
    equipartition_defect: float
    endpoint_gap_minus: float
    endpoint_gap_plus: float
    el_residual: float | None


def verify_connection(
    result: ConnectionResult,
    potential: Potential,
    wspace: WeightedSpace,
) -> ConnectionReport:
    """Independent checks on a connection: action gap, defect, ends, residual.

    W comes from the potential, distances from the weighted space's ambient
    space.  The Euler-Lagrange residual max |gamma'' - grad W(gamma)| is
    evaluated by second differences on a uniform time grid of at least three
    nodes; otherwise it is None.
    """
    curve = result.curve
    space = wspace.space
    action, defects = equipartition(curve, space, potential.values_at(midpoints(curve)))
    defect = float(np.max(defects))
    gap_minus = space.distance(curve.nodes[0], result.x_minus)
    gap_plus = space.distance(curve.nodes[-1], result.x_plus)
    residual = None
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
