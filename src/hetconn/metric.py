"""Sampled curves and weighted length functionals.

Curves are polylines: a strictly increasing time grid together with one
ambient point per time.  The ambient space is either Euclidean or a uniform
grid of vector values compared in a trapezoid-rule L2 norm; both expose the
same interface (a flat coordinate vector per point plus per-coordinate
quadrature weights), so every functional below is written once.

A weight is evaluated in batches only: ``weight(pts)`` maps points of shape
(k, dim) to values of shape (k,); a single point is a batch of one.
``trapezoid_weights`` and ``interp_columns`` are the package's one trapezoid
rule and one per-column linear interpolation.  Its quadrature is QUADPACK's 21-point
Gauss-Kronrod rule: ``qk21`` applies it once on each of a batch of panels,
and ``adaptive_qk21`` is the adaptive quadrature built on it, with its error
estimate and default tolerances, batched over integrands, each refinement
round evaluating them once on every active panel.  ``segment_k_lengths``
applies that to the K-lengths of straight segments.

The weighted length of a polyline against a weight K >= 0 is evaluated
either by the midpoint rule, sum K(midpoint) * d(endpoints) per segment, or
by the min-endpoint rule, sum min(K at endpoints) * d(endpoints).  The
subdivision functional evaluates inf-K-times-gap sums over coarser index
subdivisions; at the finest subdivision it coincides with the min-endpoint
rule exactly.  A weight value of +inf anywhere on a curve poisons the whole
sum (even across zero-length segments).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import math

import numpy as np


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights on n uniform nodes of spacing h."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1D array (-0.0 and 0.0 merge) without loading ``numpy.ma``."""
    v = np.sort(values)
    return v[np.concatenate([[True], np.diff(v) != 0.0])]


def interp_columns(x, xp, fp, left=None, right=None) -> np.ndarray:
    """np.interp of every column of fp (shape (len(xp), c)) at 1D x, shape (len(x), c).

    ``left``/``right`` hold one out-of-range fill value per column; None
    extends the end values as np.interp does.
    """
    cols = fp.shape[1]
    lo = (None,) * cols if left is None else left
    hi = (None,) * cols if right is None else right
    out = np.empty((x.size, cols))
    for j in range(cols):
        out[:, j] = np.interp(x, xp, fp[:, j], left=lo[j], right=hi[j])
    return out


def drop_tied_nodes(pos: np.ndarray, nodes: np.ndarray):
    """Keep a node only where the nondecreasing position strictly increases.

    Segments too short to move the cumulative position (zero length, or
    below its rounding) would tie consecutive times; their end nodes are
    dropped.  The last node stays the curve's endpoint: a tied tail
    collapses onto it.  Returns (positions, nodes) of the kept nodes.
    """
    keep = np.concatenate([[True], pos[1:] > pos[:-1]])
    out = nodes[keep]
    out[-1] = nodes[-1]
    return pos[keep], out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _WeightedNorm:
    """Norm sqrt(sum coord_weights * v^2) and the distance it induces."""

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        # same reduction as segment_lengths so chordal gaps agree bitwise
        return self.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    def norm(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(np.sum(self.coord_weights * v * v)))

    def distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row by row d(xs[i], ys[i]) of (k, dim) stacks, either one broadcast; shape (k,)."""
        d = np.asarray(xs, dtype=float) - np.asarray(ys, dtype=float)
        return np.sqrt(np.sum(self.coord_weights * d * d, axis=1))


@dataclass(frozen=True)
class EuclideanSpace(_WeightedNorm):
    """Flat R^n with the standard norm."""

    dim: int

    @cached_property
    def coord_weights(self) -> np.ndarray:
        return _frozen(np.ones(self.dim))


@dataclass(frozen=True)
class GridL2Space(_WeightedNorm):
    """Vector-valued functions on a uniform grid, compared in trapezoid L2.

    Points are flat vectors of length ``n_points * n_components`` (grid-major
    layout: all components at grid node 0, then node 1, ...).  The squared
    norm is the trapezoid rule applied to the pointwise squared Euclidean
    norm, so the first and last grid nodes carry half weight.
    """

    n_points: int
    n_components: int
    spacing: float

    @cached_property
    def coord_weights(self) -> np.ndarray:
        return _frozen(
            np.repeat(trapezoid_weights(self.n_points, self.spacing), self.n_components)
        )


AmbientSpace = EuclideanSpace | GridL2Space


@dataclass(frozen=True)
class SampledCurve:
    """Polyline through ambient points at strictly increasing times."""

    times: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two sample times")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if nodes.shape[0] != times.size:
            raise ValueError(
                f"node count {nodes.shape[0]} does not match time count {times.size}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_nodes(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class WeightedSpace:
    """An ambient space with a nonnegative weight.

    ``weight(pts)`` maps (k, dim) points to (k,) values K.
    """

    space: AmbientSpace
    weight: Callable[[np.ndarray], np.ndarray]

    def weight_at(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.weight(np.atleast_2d(pts)), dtype=float)


def midpoints(curve: SampledCurve) -> np.ndarray:
    """Segment midpoints of a polyline, shape (N-1, dim)."""
    return 0.5 * (curve.nodes[:-1] + curve.nodes[1:])


def metric_derivative(curve: SampledCurve, space: AmbientSpace) -> np.ndarray:
    """Per-segment metric speed d(x_{i+1}, x_i) / dt_i, length N-1."""
    return segment_lengths(curve, space) / np.diff(curve.times)


def segment_lengths(curve: SampledCurve, space: AmbientSpace) -> np.ndarray:
    return space.distances(curve.nodes[1:], curve.nodes[:-1])


def k_length(curve: SampledCurve, wspace: WeightedSpace, rule: str = "midpoint") -> float:
    """Weighted polyline length sum K * segment gap.

    rule = "midpoint" evaluates K at segment midpoints; "min-endpoint" takes
    the smaller node value per segment.  If the weight is +inf at any
    evaluation point the result is +inf regardless of segment lengths
    (the convention inf * 0 = inf applies).
    """
    lens = segment_lengths(curve, wspace.space)
    if rule == "midpoint":
        kvals = wspace.weight_at(midpoints(curve))
    elif rule == "min-endpoint":
        knode = wspace.weight_at(curve.nodes)
        kvals = np.minimum(knode[:-1], knode[1:])
    else:
        raise ValueError(f"unknown rule {rule!r}")
    if np.any(np.isinf(kvals)):
        return math.inf
    return float(np.sum(kvals * lens))


def a_k_functional(
    curve: SampledCurve, wspace: WeightedSpace, subdivision: Sequence[int]
) -> float:
    """Subdivision sum: (inf of K over sampled nodes per block) * block gap.

    ``subdivision`` is an increasing list of node indices, at least two of
    them.  The infimum per block runs over the curve nodes it contains, so at
    the finest subdivision the value equals the min-endpoint weighted length
    exactly.  Refining a subdivision never decreases the value.
    """
    idx = list(subdivision)
    if len(idx) < 2:
        raise ValueError("subdivision needs at least two indices")
    arr = np.asarray(idx, dtype=int)
    if np.any(np.diff(arr) <= 0):
        raise ValueError("subdivision indices must be strictly increasing")
    if arr[0] < 0 or arr[-1] >= curve.n_nodes:
        raise ValueError("subdivision indices out of range")
    knode = wspace.weight_at(curve.nodes)
    if np.any(np.isinf(knode[arr[0] : arr[-1] + 1])):
        return math.inf
    terms = np.empty(arr.size - 1)
    for b in range(arr.size - 1):
        i, j = arr[b], arr[b + 1]
        kmin = np.min(knode[i : j + 1])
        gap = wspace.space.distance(curve.nodes[i], curve.nodes[j])
        terms[b] = kmin * gap
    return float(np.sum(terms))


# QUADPACK qk21: the 21-point Kronrod abscissae on [0, 1] (descending, the
# centre last) with their weights, and the weights of the embedded 10-point
# Gauss rule, whose nodes are the odd-indexed abscissae
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208850201301, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173952828133546,
])
# the rule on [-1, 1] in ascending node order
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:20:2] = np.concatenate([_WG, _WG[::-1]])
# QUADPACK's default epsabs = epsrel (those of scipy's quad), and a subinterval limit
_QUAD_TOL = 1.49e-8
_QUAD_LIMIT = 400
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _qk21(f, half):
    """QUADPACK qk21 on a batch of panels: (value, error estimate).

    ``f`` holds the integrand at ``_GK_NODES`` of each panel, shape (p, 21),
    and ``half`` the panel half-widths.  The error is the Gauss-Kronrod
    difference scaled by resasc as in QUADPACK, with its roundoff floor.
    """
    # einsum, not f @ w: the BLAS matrix-vector kernel rounds a row
    # differently depending on how many rows the batch holds, and a panel
    # must get the same bits alone and in any batch
    resk = np.einsum("pk,k->p", f, _GK_KRONROD)
    resg = np.einsum("pk,k->p", f, _GK_GAUSS)
    resabs = np.einsum("pk,k->p", np.abs(f), _GK_KRONROD) * half
    resasc = np.einsum("pk,k->p", np.abs(f - 0.5 * resk[:, None]), _GK_KRONROD) * half
    err = np.abs((resk - resg) * half)
    # QUADPACK scales a nonzero error only; a zero one scales to zero anyway
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=resasc != 0.0)
    err = np.where(resasc != 0.0, resasc * np.minimum(1.0, ratio ** 1.5), err)
    err = np.where(resabs > _TINY / (50.0 * _EPS),
                   np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err


def qk21(fun: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """QUADPACK's 21-point Gauss-Kronrod rule once on each panel [lo[i], hi[i]], shape (p,).

    ``fun`` maps points of shape (p, 21) to integrand values of that shape.
    Each panel gets the same bits alone and in any batch, as in ``_qk21``.
    """
    half = 0.5 * (hi - lo)
    f = fun(0.5 * (lo + hi)[:, None] + half[:, None] * _GK_NODES)
    return np.einsum("pk,k->p", f, _GK_KRONROD) * half


def adaptive_qk21(fun: Callable, edges: list, label: Callable) -> np.ndarray:
    """Integrals over t in [0, 1] of a batch of integrands, shape (len(edges),).

    ``fun(item, t)`` evaluates integrand ``item[j]`` at the points ``t[j]``,
    shapes (p,) and (p, 21) to (p, 21).  Integrand i starts on the panels
    between its ``edges[i]`` (0, its break points, 1), and the panels are
    refined together: every round evaluates the 21-point Gauss-Kronrod rule
    on all active panels with one ``fun`` call, accepts a panel whose error
    is at most tol times its t-width, with tol = max(1.49e-8, 1.49e-8
    |integral estimate|) (quad's default epsabs and epsrel), and bisects the
    rest.  An integrand needing more than 400 subintervals raises
    RuntimeError, naming it by ``label(i)``.
    """
    item, lo, hi = [], [], []
    for i, item_edges in enumerate(edges):
        item += [i] * (len(item_edges) - 1)
        lo += item_edges[:-1]
        hi += item_edges[1:]
    item, lo, hi = np.array(item, dtype=int), np.array(lo), np.array(hi)
    n_items = len(edges)
    total = np.zeros(n_items)
    count = np.bincount(item, minlength=n_items)
    while item.size:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        f = fun(item, mid[:, None] + half[:, None] * _GK_NODES)
        value, err = _qk21(f, half)
        estimate = total + np.bincount(item, weights=value, minlength=n_items)
        tol = np.maximum(_QUAD_TOL, _QUAD_TOL * np.abs(estimate))
        done = err <= tol[item] * (hi - lo)
        total += np.bincount(item[done], weights=value[done], minlength=n_items)
        split = np.flatnonzero(~done)
        item, lo, hi, mid = item[split], lo[split], hi[split], mid[split]
        count += np.bincount(item, minlength=n_items)
        if count.max() > _QUAD_LIMIT:
            raise RuntimeError(
                f"{label(int(np.argmax(count)))} needs more than {_QUAD_LIMIT} subintervals"
            )
        # each split panel becomes its two halves, in place
        item = np.repeat(item, 2)
        lo, hi = np.repeat(lo, 2), np.repeat(hi, 2)
        lo[1::2] = hi[0::2] = mid
    return total


def segment_k_lengths(k: Callable, a: np.ndarray, b: np.ndarray, breaks: list) -> np.ndarray:
    """K-lengths of the straight segments from a[i] to b[i] in flat R^dim, shape (s,).

    a and b are (s, dim) arrays of segment ends and ``k`` a batched weight,
    (n, dim) points to (n,) values.  Segment i is parametrized by t in
    [0, 1], split at the increasing t values ``breaks[i]`` (the kinks of K
    on it), and integrated by ``adaptive_qk21`` together with all the
    others.
    """
    d = b - a
    span = np.sqrt(np.einsum("ij,ij->i", d, d))

    def k_along(seg, t):
        pts = a[seg, None, :] + t[:, :, None] * d[seg, None, :]
        return k(pts.reshape(-1, a.shape[1])).reshape(t.shape) * span[seg, None]

    return adaptive_qk21(
        k_along,
        [[0.0, *seg_breaks, 1.0] for seg_breaks in breaks],
        lambda i: f"K-length of the segment {a[i]} -> {b[i]}",
    )

