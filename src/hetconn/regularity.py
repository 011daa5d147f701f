"""Discrete audits of the regularity estimates behind the construction.

Nothing here is a proof: each audit evaluates both sides of an inequality
the minimizers are known to satisfy and reports the margin, so corrupted
or non-minimizing inputs are flagged rather than rejected.
"""

from __future__ import annotations

from typing import NamedTuple

import math

import numpy as np

from .function_space import GridFunction
from .heteroclinic import equipartition
from .metric import SampledCurve, WeightedSpace, metric_derivative, midpoints
from .potentials import Potential


class SecondDifferenceReport(NamedTuple):
    lhs: float
    rhs: float
    passed: bool
    c_constant: float
    c_fitted: float


def _uniform_resample(curve: SampledCurve, n: int | None = None) -> SampledCurve:
    times = curve.times
    dts = np.diff(times)
    if np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        return curve
    n = n or curve.n_nodes
    t_new = np.linspace(times[0], times[-1], n)
    return SampledCurve(times=t_new, nodes=curve.eval(t_new))


def second_difference_bound(curve: SampledCurve, lam: float) -> SecondDifferenceReport:
    """Audit sum h |second difference / h^2|^2 <= C(lam) sum h |speed|^2.

    C(lam) = max(1, 4|lam|) stands in for the unoptimized constant of the
    semiconvexity argument; the fitted ratio lhs / (sum h |speed|^2) is
    reported alongside so the audit stays informative when the bound is
    slack or violated.
    """
    if curve.n_nodes < 3:
        raise ValueError("need at least three nodes for second differences")
    curve = _uniform_resample(curve)
    h = float(curve.times[1] - curve.times[0])
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


def _second_variation_matrix(z: GridFunction, p: Potential):
    """-d^2/ds^2 + Hessian of W along z, Dirichlet, on interior nodes (CSR)."""
    # imported here: scipy.sparse is most of the package's import time, and
    # no CLI command reaches this audit
    from scipy import sparse

    h = z.h
    vals = z.values
    mi = z.m - 2
    n = z.n_components
    main = np.full(mi, 2.0 / h**2)
    off = np.full(mi - 1, -1.0 / h**2)
    d2 = sparse.diags([off, main, off], offsets=(-1, 0, 1), format="csr")
    kinetic = sparse.kron(d2, sparse.eye(n, format="csr"), format="csr")
    blocks = sparse.block_diag(list(p.hessians_at(vals[1:-1])), format="csr")
    return (kinetic + blocks).tocsr()


def spectral_audit(
    z: GridFunction,
    p: Potential,
    trials: int = 64,
    seed: int = 0,
    refine: bool = True,
) -> SpectralReport:
    """Kernel residual ||A(z) z'|| and a Rayleigh floor on the complement.

    A(z) is the second variation of the 1D action along z.  Its kernel
    direction is z' (translations); the residual measures how well the
    discrete operator annihilates it.  c0 is estimated as the smallest
    Rayleigh quotient over low-frequency deterministic modes plus random
    trials, all orthogonalized against z'; a few deflated inverse
    iterations sharpen the floor when requested.  Estimates from finitely
    many directions only; not a certified spectral gap.
    """
    a_mat = _second_variation_matrix(z, p)
    h = z.h
    n = z.n_components
    s_int = z.s[1:-1]
    zp = z.derivative()[1:-1].ravel()
    zp_norm2 = float(np.dot(zp, zp))
    if zp_norm2 > 0.0:
        kernel_residual = float(math.sqrt(h * np.sum((a_mat @ zp) ** 2)))
    else:
        kernel_residual = 0.0

    def deflate(v):
        if zp_norm2 > 0.0:
            v = v - (np.dot(v, zp) / zp_norm2) * zp
        return v

    def rayleigh(v):
        denom = float(np.dot(v, v))
        if denom == 0.0:
            return math.inf
        return float(np.dot(v, a_mat @ v) / denom)

    span = float(s_int[-1] - s_int[0])
    modes = []
    for k in range(1, 9):
        base = np.sin(k * np.pi * (s_int - s_int[0]) / span)
        for c in range(n):
            m = np.zeros((s_int.size, n))
            m[:, c] = base
            modes.append(m.ravel())
    rng = np.random.default_rng(seed)
    while len(modes) < trials:
        modes.append(rng.standard_normal(s_int.size * n))
    quotients = []
    best = None
    for v in modes:
        v = deflate(np.asarray(v, dtype=float))
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        q = rayleigh(v / norm)
        quotients.append(q)
        if best is None or q < best[0]:
            best = (q, v / norm)
    c0 = float(min(quotients))
    if refine and best is not None:
        from scipy.sparse.linalg import splu

        try:
            lu = splu(a_mat.tocsc())
        except RuntimeError:
            lu = None
        if lu is not None:
            v = best[1]
            for _ in range(5):
                v = deflate(lu.solve(v))
                norm = np.linalg.norm(v)
                if not np.isfinite(norm) or norm == 0.0:
                    break
                v /= norm
            else:
                c0 = min(c0, rayleigh(v))
    return SpectralReport(c0_est=float(c0), kernel_residual=kernel_residual)
