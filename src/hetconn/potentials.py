"""Potentials with zero-level wells, derived weights, and a well-growth fit.

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

``check_a4`` fits the radial growth exponent of W at a well on a sampled
ball and reports its margins: an estimate, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .metric import EuclideanSpace, WeightedSpace


@dataclass(frozen=True)
class Potential:
    """Pointwise potential data: batched evaluation, wells, convexity bound.

    ``values``, ``gradients`` and ``hessians`` map points of shape (k, dim)
    to arrays of shape (k,), (k, dim) and (k, dim, dim); the ``*_at`` entry
    points take a single point as a batch of one.  ``wells`` are the zeros
    of W, each a (dim,) array, declared exactly: a connect run's ends must
    be two of them.  ``hessian_lower_bound`` is a number lam with
    Hess W >= lam * Id on the region of interest (user-declared; the
    built-ins compute or state it).  ``lower_bound`` is that number, or a
    function computing it, called on the first read.
    """

    dim: int
    values: Callable[[np.ndarray], np.ndarray]
    gradients: Callable[[np.ndarray], np.ndarray]
    hessians: Callable[[np.ndarray], np.ndarray]
    wells: tuple
    lower_bound: float | Callable[[], float]
    name: str = "potential"

    @cached_property
    def hessian_lower_bound(self) -> float:
        bound = self.lower_bound
        return float(bound() if callable(bound) else bound)

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
        lower_bound=-2.0,
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
        lower_bound=-1.4,
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

    def lower_bound():
        # sampled over the working box; the Hessian is polynomial, so a
        # moderate grid is adequate for a declared bound
        xs = np.linspace(-1.6, 1.6, 33)
        box = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        return np.min(np.linalg.eigvalsh(hessians(box))[:, 0])

    return Potential(
        dim=2,
        values=values,
        gradients=gradients,
        hessians=hessians,
        wells=(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
        lower_bound=lower_bound,
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


def _unit_directions(dim: int, count: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(0)
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


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
