"""Discrete audits of the regularity estimates behind the construction.

Nothing here is a proof: each audit evaluates both sides of an inequality
the minimizers are known to satisfy and reports the margin, so corrupted
or non-minimizing inputs are flagged rather than rejected.
"""

from __future__ import annotations

from typing import NamedTuple

import math

import numpy as np

from .function_space import EffectivePotentialSpace, GridFunction
from .heteroclinic import equipartition
from .metric import SampledCurve, WeightedSpace, metric_derivative, midpoints
from .potentials import Potential


class SecondDifferenceReport(NamedTuple):
    lhs: float
    rhs: float
    passed: bool
    c_constant: float
    c_fitted: float


def second_difference_bound(curve: SampledCurve, lam: float) -> SecondDifferenceReport:
    """Audit sum h |second difference / h^2|^2 <= C(lam) sum h |speed|^2.

    C(lam) = max(1, 4|lam|) stands in for the unoptimized constant of the
    semiconvexity argument; the fitted ratio lhs / (sum h |speed|^2) is
    reported alongside so the audit stays informative when the bound is
    slack or violated.  The times must be uniform (to a relative 1e-9);
    ValueError otherwise, as for fewer than three nodes.
    """
    if curve.n_nodes < 3:
        raise ValueError("need at least three nodes for second differences")
    dts = np.diff(curve.times)
    h = float(dts[0])
    if not np.allclose(dts, h, rtol=1e-9, atol=0.0):
        raise ValueError("second differences need uniform sample times")
    nodes = curve.nodes
    sd = (nodes[2:] - 2.0 * nodes[1:-1] + nodes[:-2]) / h**2
    lhs = float(h * np.sum(sd * sd))
    speed = np.diff(nodes, axis=0) / h
    kinetic = float(h * np.sum(speed * speed))
    c_constant = max(1.0, 4.0 * abs(lam))
    rhs = c_constant * kinetic
    c_fitted = lhs / kinetic if kinetic > 0.0 else 0.0
    return SecondDifferenceReport(
        lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs),
        c_constant=c_constant, c_fitted=float(c_fitted),
    )


class UniformBoundsReport(NamedTuple):
    max_speed: float
    max_w: float
    equip_profile: np.ndarray
    edge_flag_lo: bool
    edge_flag_hi: bool


def uniform_bounds_audit(curve: SampledCurve, wspace: WeightedSpace) -> UniformBoundsReport:
    """Max discrete speed and potential along a path, with edge-growth flags.

    The equipartition-style profile |half speed^2 - W| is returned per
    segment.  An edge flag fires when the speed or potential maximum over
    the first (respectively last) decile of segments exceeds 1.5 times the
    interior maximum, which catches window-truncation artifacts and
    injected spikes.
    """
    speeds = metric_derivative(curve, wspace.space)
    kv = wspace.weight_at(midpoints(curve))
    wv = 0.5 * kv * kv
    _, profile = equipartition(curve, wspace.space, wv)
    n = speeds.size
    decile = max(1, n // 10)
    flag_lo = flag_hi = False
    if n > 2 * decile:
        interior = slice(decile, n - decile)
        scale = max(float(np.max(speeds[interior])), float(np.max(wv[interior])), 1e-300)
        flag_lo = bool(
            max(float(np.max(speeds[:decile])), float(np.max(wv[:decile]))) > 1.5 * scale
        )
        flag_hi = bool(
            max(float(np.max(speeds[n - decile:])), float(np.max(wv[n - decile:]))) > 1.5 * scale
        )
    return UniformBoundsReport(
        max_speed=float(np.max(speeds)),
        max_w=float(np.max(wv)),
        equip_profile=profile,
        edge_flag_lo=flag_lo,
        edge_flag_hi=flag_hi,
    )


def parallelogram_defect(space, a: np.ndarray, b: np.ndarray) -> float:
    """|a|^2 + |b|^2 - |a+b|^2/2 - |a-b|^2/2, zero in any inner-product norm."""
    na = space.norm(a) ** 2
    nb = space.norm(b) ** 2
    ns = space.norm(a + b) ** 2
    nd = space.norm(a - b) ** 2
    return float(abs(na + nb - 0.5 * ns - 0.5 * nd))


class SpectralReport(NamedTuple):
    c0_est: float
    kernel_residual: float


def spectral_audit(z: GridFunction, p: Potential) -> SpectralReport:
    """Kernel residual ||A(z) z'|| and the spectral gap of A(z) on z'-perp.

    A(z) is the second variation of the 1D action along z, -d^2/ds^2 plus
    the Hessian of W, Dirichlet on the interior nodes: the interior rows of
    ``EffectivePotentialSpace.energy_1d_hessp`` divided by h.  Its kernel
    direction is z' (translations); the residual measures how well the
    discrete operator annihilates it.  c0_est is the smallest eigenvalue of
    A restricted to the orthogonal complement of z' (all of A when z'
    vanishes), exact up to rounding: a Householder reflector maps z' onto
    the first axis, and the remaining block goes to ``np.linalg.eigvalsh``.
    """
    hessp = EffectivePotentialSpace(
        grid=z.s, n_components=z.n_components, bc=z.bc, potential=p,
    ).energy_1d_hessp(z.values)
    h = z.h
    shape = z.values.shape
    # A on every interior unit direction; A is symmetric, so these rows are A
    units = np.eye(z.values.size)[z.n_components:-z.n_components]
    a_mat = np.stack([hessp(e.reshape(shape))[1:-1].ravel() for e in units]) / h
    zp = np.zeros(shape)
    zp[1:-1] = z.derivative()[1:-1]
    zp_norm = float(np.linalg.norm(zp))
    if zp_norm == 0.0:
        return SpectralReport(c0_est=float(np.linalg.eigvalsh(a_mat)[0]), kernel_residual=0.0)
    kernel_residual = float(math.sqrt(h * np.sum((hessp(zp)[1:-1] / h) ** 2)))
    # H = I - 2 u u^T sends z' to a multiple of the first axis, so the block
    # of H A H off the first row and column is A on z'-perp in the basis H e_j
    u = zp[1:-1].ravel() / zp_norm
    u[0] += math.copysign(1.0, u[0])
    u /= np.linalg.norm(u)
    au = a_mat @ u
    ur, aur = u[1:], au[1:]
    block = (a_mat[1:, 1:] - 2.0 * np.outer(ur, aur) - 2.0 * np.outer(aur, ur)
             + 4.0 * float(u @ au) * np.outer(ur, ur))
    return SpectralReport(c0_est=float(np.linalg.eigvalsh(block)[0]),
                          kernel_residual=kernel_residual)
