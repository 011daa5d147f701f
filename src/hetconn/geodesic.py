"""Minimal-action connections in dimension two and up.

The reduction makes the minimal action of a curve from x_minus to x_plus,
the integral of |u'|^2 / 2 + W(u), equal to its minimal K-length with
K = sqrt(2 W), so either one may be minimized.  ``minimize_k_length``
minimizes the discrete action of a curve sampled on a uniform time grid with
its end rows pinned at the wells: a profile of
``EffectivePotentialSpace.relax_profile``, the pinned Newton-CG that also
relaxes the well profiles of the double solve.  The relaxed curve is already
equipartitioned, so it needs no reparametrization; its midpoint K-length is
the d_K estimate the run records.
"""

from __future__ import annotations

import numpy as np

from .function_space import EffectivePotentialSpace
from .heteroclinic import ConnectionResult, connection_on
from .metric import SampledCurve, interp_columns, k_length
from .potentials import Potential, make_weight


def _seed_nodes(x_minus, x_plus, via_points, times) -> np.ndarray:
    """The polyline x_minus -> via_points -> x_plus at chord fraction
    (1 + tanh t) / 2 for each of ``times``, its end rows exactly the wells."""
    way = np.stack([x_minus, *(np.asarray(v, dtype=float) for v in via_points), x_plus])
    chord = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(way, axis=0), axis=1))])
    nodes = interp_columns(0.5 * (1.0 + np.tanh(times)) * chord[-1], chord, way)
    nodes[0], nodes[-1] = x_minus, x_plus
    return nodes


def minimize_k_length(p: Potential, x_minus, x_plus, n_samples: int, t_max: float,
                      via_points=()) -> ConnectionResult:
    """The connection from x_minus to x_plus on ``linspace(-t_max, t_max, n_samples)``.

    Seeds the polyline through ``via_points`` (``_seed_nodes``) and relaxes
    its discrete action with the end rows pinned; RuntimeError unless the
    relaxation converges.  As in ``line_connection``, ``connection_on``
    makes the record; ``dk_value`` is the curve's midpoint K-length.
    """
    x_minus, x_plus = (np.asarray(x, dtype=float).reshape(-1) for x in (x_minus, x_plus))
    times = np.linspace(-t_max, t_max, n_samples)
    space = EffectivePotentialSpace(times, x_minus.size, "tails", potential=p,
                                    tail_left=x_minus, tail_right=x_plus)
    nodes, _ = space.relax_profile(_seed_nodes(x_minus, x_plus, via_points, times))
    curve = SampledCurve(times=times, nodes=nodes)
    wspace = make_weight(p)
    return connection_on(curve, wspace, x_minus, x_plus,
                         k_length(curve, wspace, rule="midpoint"), float(t_max))
