"""Potentials with zero-level wells, derived weights, and hypothesis checks.

A potential is a nonnegative C^2 function vanishing exactly on a finite well
set.  The induced weight is K = sqrt(2 W); geodesics of K realize
minimal-action connections between wells.  Three built-in families cover the
test surface: a scalar double well, a scalar triple well whose middle well
breaks the strict triangle inequality, and a planar two-well family whose
minimizing connections come in symmetric pairs.

Evaluation is batched only: a Potential carries values, gradients and
Hessians of points stacked as (k, dim), and every built-in declares all
three in closed form.  make_weight turns one into the weighted space
K = sqrt(2 W), batched the same way.

The check_* helpers audit the structural hypotheses the method relies on
and report margins: on sampled grids, a radial lower envelope with divergent
integral and the radial growth exponent at a well (estimates, not proofs);
and on the line the strict triangle inequality between well distances,
whose distances are the exact integrals of K, computed by the package's
adaptive Gauss-Kronrod rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .metric import EuclideanSpace, WeightedSpace, segment_k_lengths


class WellRefinementError(RuntimeError):
    pass


@dataclass(frozen=True)
class Potential:
    """Pointwise potential data: batched evaluation, wells, convexity bound.

    ``values``, ``gradients`` and ``hessians`` map points of shape (k, dim)
    to arrays of shape (k,), (k, dim) and (k, dim, dim); the ``*_at`` entry
    points take a single point as a batch of one.  ``hessian_lower_bound``
    is a number lam with Hess W >= lam * Id on the region of interest
    (user-declared; the built-ins compute or state it).
    """

    dim: int
    values: Callable[[np.ndarray], np.ndarray]
    gradients: Callable[[np.ndarray], np.ndarray]
    hessians: Callable[[np.ndarray], np.ndarray]
    wells: tuple
    hessian_lower_bound: float
    name: str = "potential"

    def values_at(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.values(np.atleast_2d(np.asarray(pts, dtype=float))), dtype=float)

    def gradients_at(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.gradients(np.atleast_2d(np.asarray(pts, dtype=float))), dtype=float)

    def hessians_at(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.hessians(np.atleast_2d(np.asarray(pts, dtype=float))), dtype=float)


def double_well() -> Potential:
    """W(u) = (1 - u^2)^2 / 2 with wells at -1 and 1."""

    def values(pts):
        q = 1.0 - pts[:, 0] ** 2
        return 0.5 * q * q

    def gradients(pts):
        u = pts[:, 0]
        return (2.0 * u * (u * u - 1.0))[:, None]

    def hessians(pts):
        u = pts[:, 0]
        return (6.0 * u * u - 2.0)[:, None, None]

    return Potential(
        dim=1,
        values=values,
        gradients=gradients,
        hessians=hessians,
        wells=(np.array([-1.0]), np.array([1.0])),
        hessian_lower_bound=-2.0,
        name="double_well",
    )


def triple_well() -> Potential:
    """W(u) = u^2 (1 - u^2)^2 / 2; the middle well sits on every geodesic.

    The two outer distances add up exactly to the end-to-end distance, so
    this family is the stock fixture for a failing strict triangle
    inequality.
    """

    def values(pts):
        x = pts[:, 0]
        q = 1.0 - x * x
        return 0.5 * x * x * q * q

    def gradients(pts):
        x = pts[:, 0]
        return (x * (1.0 - x * x) * (1.0 - 3.0 * x * x))[:, None]

    def hessians(pts):
        x2 = pts[:, 0] * pts[:, 0]
        return (1.0 - 12.0 * x2 + 15.0 * x2 * x2)[:, None, None]

    return Potential(
        dim=1,
        values=values,
        gradients=gradients,
        hessians=hessians,
        wells=(np.array([-1.0]), np.array([0.0]), np.array([1.0])),
        hessian_lower_bound=-1.4,
        name="triple_well",
    )


def planar_two_well(beta: float = 1.0, kappa: float = 1.0) -> Potential:
    """W(u1,u2) = (u1^2-1)^2 + beta (u2^2 - kappa (1-u1^2))^2.

    Wells at (-1, 0) and (1, 0); W is even in u1 and in u2.  For beta and
    kappa of order one the minimizing connections leave the u1-axis and come
    as a reflected pair through positive and negative u2 (the straight axis
    path costs sqrt(2 (1+beta kappa^2)) * 4/3, the curved channel less).
    The wells are quartically flat in the u2 direction.
    """

    def values(pts):
        q = pts[:, 0] ** 2 - 1.0
        a = pts[:, 1] ** 2 - kappa * (1.0 - pts[:, 0] ** 2)
        return q * q + beta * a * a

    def gradients(pts):
        u1, u2 = pts[:, 0], pts[:, 1]
        a = u2 * u2 - kappa * (1.0 - u1 * u1)
        g = np.empty_like(pts)
        g[:, 0] = 4.0 * u1 * (u1 * u1 - 1.0) + 4.0 * beta * kappa * u1 * a
        g[:, 1] = 4.0 * beta * u2 * a
        return g

    def hessians(pts):
        u1, u2 = pts[:, 0], pts[:, 1]
        a = u2 * u2 - kappa * (1.0 - u1 * u1)
        h = np.empty((pts.shape[0], 2, 2))
        h[:, 0, 0] = 12.0 * u1 * u1 - 4.0 + 4.0 * beta * kappa * a + 8.0 * beta * kappa**2 * u1 * u1
        h[:, 0, 1] = h[:, 1, 0] = 8.0 * beta * kappa * u1 * u2
        h[:, 1, 1] = 4.0 * beta * a + 8.0 * beta * u2 * u2
        return h

    # Sampled convexity bound over the working box; the Hessian is polynomial
    # so a moderate grid is adequate for a declared bound.
    xs = np.linspace(-1.6, 1.6, 33)
    box = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    lam = np.min(np.linalg.eigvalsh(hessians(box))[:, 0])

    return Potential(
        dim=2,
        values=values,
        gradients=gradients,
        hessians=hessians,
        wells=(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
        hessian_lower_bound=float(lam),
        name="planar_two_well",
    )


def make_weight(p: Potential) -> WeightedSpace:
    """Weighted space with weight K = sqrt(2 W) over flat R^dim.

    Raises if the potential evaluates negative (beyond roundoff) anywhere it
    is sampled.
    """

    def weight(pts):
        v = p.values_at(pts)
        if np.any(v < -1e-12):
            i = int(np.argmin(v))
            raise ValueError(
                f"potential {p.name} is negative ({v[i]:.3e}) at {pts[i]}"
            )
        return np.sqrt(2.0 * np.maximum(v, 0.0))

    return WeightedSpace(space=EuclideanSpace(p.dim), weight=weight)


def refine_wells(
    p: Potential,
    guesses: Sequence[np.ndarray],
    tol: float = 1e-10,
    max_iters: int = 100,
    dedup_tol: float = 1e-6,
) -> list[np.ndarray]:
    """Polish well guesses by damped Newton on the gradient, then dedupe.

    Convergence means |grad W| < tol and W < tol^2 at the iterate; failing
    that after ``max_iters`` steps raises WellRefinementError.
    """
    out: list[np.ndarray] = []
    for guess in guesses:
        x = np.asarray(guess, dtype=float).copy()
        ok = False
        for _ in range(max_iters):
            g = p.gradients_at(x)[0]
            if np.linalg.norm(g) < tol and p.values_at(x)[0] < tol * tol:
                ok = True
                break
            h = p.hessians_at(x)[0]
            try:
                step = np.linalg.solve(h, -g)
            except np.linalg.LinAlgError:
                step = -g
            t = 1.0
            gn = np.linalg.norm(g)
            for _ in range(30):
                if np.linalg.norm(p.gradients_at(x + t * step)[0]) < gn:
                    break
                t *= 0.5
            x = x + t * step
        else:
            g = p.gradients_at(x)[0]
            if np.linalg.norm(g) < tol and p.values_at(x)[0] < tol * tol:
                ok = True
        if not ok:
            raise WellRefinementError(
                f"well guess {np.asarray(guess)} did not converge in {max_iters} iterations"
            )
        if not any(np.linalg.norm(x - w) < dedup_tol for w in out):
            out.append(x)
    return out


@dataclass(frozen=True)
class LowerEnvelope:
    """Radial envelope k(t) with W(x) >= k(dist(x, wells))^2 expected.

    ``radius_schedule`` drives the divergence heuristic on the partial
    integrals of k; ``increment_floor`` is the smallest acceptable growth of
    the partial integral over the last schedule step.
    """

    k: Callable[[np.ndarray], np.ndarray]
    radius_schedule: tuple = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    increment_floor: float = 1e-3


class H3aReport(NamedTuple):
    ok: bool
    worst_margin: float
    worst_point: np.ndarray
    partial_integrals: np.ndarray
    divergent: bool


def _unit_directions(dim: int, count: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(0)
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def check_h3a(
    p: Potential,
    env: LowerEnvelope,
    radii: np.ndarray | None = None,
    n_directions: int = 16,
) -> H3aReport:
    """Sampled audit of the radial envelope bound and its divergent integral.

    Margins W(x) - k(d(x, wells))^2 are evaluated on rays from each well;
    the worst one is reported.  Partial integrals of k over the radius
    schedule must keep growing by at least the declared floor for the
    divergence flag to pass.
    """
    if radii is None:
        radii = np.concatenate([np.linspace(0.02, 1.0, 50), np.linspace(1.1, 3.0, 20)])
    dirs = _unit_directions(p.dim, n_directions)
    wells = np.stack(p.wells)
    worst = np.inf
    worst_pt = wells[0]
    for w in p.wells:
        for d in dirs:
            pts = w[None, :] + radii[:, None] * d[None, :]
            dist = np.min(
                np.linalg.norm(pts[:, None, :] - wells[None, :, :], axis=2), axis=1
            )
            margins = p.values_at(pts) - np.asarray(env.k(dist)) ** 2
            i = int(np.argmin(margins))
            if margins[i] < worst:
                worst = float(margins[i])
                worst_pt = pts[i]
    partials = []
    for rmax in env.radius_schedule:
        grid = np.linspace(0.0, rmax, 2001)
        partials.append(float(np.trapezoid(np.asarray(env.k(grid)), grid)))
    partials = np.asarray(partials)
    increments = np.diff(partials)
    divergent = bool(increments.size > 0 and increments[-1] >= env.increment_floor)
    return H3aReport(
        ok=bool(worst >= 0.0),
        worst_margin=worst,
        worst_point=worst_pt,
        partial_integrals=partials,
        divergent=divergent,
    )


class A4Fit(NamedTuple):
    ok: bool
    p0: float
    c0: float
    slope: float
    worst_violation: float


def check_a4(
    p: Potential,
    well: np.ndarray,
    radii: np.ndarray | None = None,
    n_directions: int = 64,
) -> A4Fit:
    """Fit grad W . (x - a) >= c0 |x - a|^p0 on a sampled ball around a well.

    The exponent comes from a log-log regression of the directional minimum
    of the radial derivative term against the radius, snapped to a nearby
    integer when within 0.1, then clipped to [2, 6).  c0 is the largest
    constant compatible with every sample at that exponent.  A nonpositive
    sample anywhere reports ok=False with the worst value.
    """
    well = np.asarray(well, dtype=float)
    if radii is None:
        radii = np.geomspace(1e-3, 0.1, 25)
    dirs = _unit_directions(p.dim, n_directions)
    gmin = np.empty(radii.size)
    worst = np.inf
    for i, r in enumerate(radii):
        pts = well[None, :] + r * dirs
        g = np.einsum("ij,ij->i", p.gradients_at(pts), pts - well[None, :])
        worst = min(worst, float(np.min(g)))
        gmin[i] = np.min(g)
    if worst <= 0.0:
        return A4Fit(ok=False, p0=np.nan, c0=0.0, slope=np.nan, worst_violation=worst)
    slope, _ = np.polyfit(np.log(radii), np.log(gmin), 1)
    p0 = float(slope)
    nearest = round(p0)
    if abs(p0 - nearest) < 0.1:
        p0 = float(nearest)
    p0 = min(max(p0, 2.0), 6.0 - 1e-9)
    if slope >= 6.0:
        return A4Fit(ok=False, p0=p0, c0=0.0, slope=float(slope), worst_violation=worst)
    c0 = float(np.min(gmin / radii**p0))
    return A4Fit(ok=True, p0=p0, c0=c0, slope=float(slope), worst_violation=worst)


class StiReport(NamedTuple):
    ok: bool
    margins: tuple
    min_margin: float
    direct: float


def check_sti(
    p: Potential,
    minus: np.ndarray,
    plus: np.ndarray,
    tol: float = 1e-3,
) -> StiReport:
    """Strict-triangle-inequality margins through each intermediate well.

    For every well a besides the endpoints, compares d(minus, a) + d(a, plus)
    against d(minus, plus).  Margins within ``tol`` of zero (or negative)
    mark the well as breaking strictness.  On the line d_K(a, b) is the
    integral of K = sqrt(2 W) between a and b, so every distance is computed
    exactly, up to the quadrature tolerance: all of them in one
    ``segment_k_lengths`` call (the adaptive Gauss-Kronrod rule), each
    interval split at the declared wells strictly inside it, where K has its
    only kinks.  Raises ValueError for a potential of dimension 2 or more,
    where the distances need a geodesic.
    """
    if p.dim != 1:
        raise ValueError(
            f"check_sti integrates K on the line; {p.name} has dimension {p.dim}")
    minus, plus = (np.asarray(x, dtype=float).item() for x in (minus, plus))
    wells = [np.asarray(w, dtype=float).item() for w in p.wells]
    vias = [w for w in wells if abs(w - minus) >= 1e-9 and abs(w - plus) >= 1e-9]
    pairs = [(minus, plus)]
    for w in vias:
        pairs += [(minus, w), (w, plus)]
    # each pair as (left, right): the direct one, then each via well's two legs
    ends = np.sort(np.array(pairs), axis=1)
    lengths = segment_k_lengths(
        make_weight(p).weight_at, ends[:, :1], ends[:, 1:],
        [sorted((w - a) / (b - a) for w in wells if a < w < b) for a, b in ends.tolist()],
    )
    direct = float(lengths[0])
    margins = tuple((np.array([w]), float(via - direct))
                    for w, via in zip(vias, lengths[1::2] + lengths[2::2]))
    if not margins:
        return StiReport(ok=True, margins=(), min_margin=np.inf, direct=direct)
    min_margin = min(m for _, m in margins)
    return StiReport(
        ok=bool(min_margin > tol),
        margins=margins,
        min_margin=min_margin,
        direct=direct,
    )
