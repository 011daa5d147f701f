"""From weighted geodesics to heteroclinic connections.

A geodesic for the weight K = sqrt(2 W) becomes a minimal-action connection
once its time parametrization equidistributes kinetic and potential energy:
along the arc-length form of the geodesic one integrates 1/K to build the
inverse time map, and the curve read through that map satisfies
|dgamma/dt| = K(gamma), i.e. the action integrand splits evenly.  The weight
vanishes at the two wells, so the time map diverges at the ends; the
implementation clamps at the last interior node and reports the resulting
finite window.
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
