"""Connections between connections: 2D fields from paths of 1D profiles.

A pair of minimal 1D connections z-, z+ are the wells of the effective
potential on profile space, and x2 plays the role of time: a minimal
heteroclinic in profile space from z- to z+ assembles into a 2D field
u(x1, x2) = path(x2)(x1) that solves the Euler-Lagrange system of the summed
energy.  The solve seeds the field with the closed-form blend
(1 - lam) z- + lam z+, lam = (1 + tanh x2) / 2, on the x2 window
[-t_max, t_max], and minimizes the discrete 2D energy of the field by a
pinned Newton-CG.  The symmetric solver (``mode`` "sym") keeps
the first component odd in x1 by projection where the fixture has that
symmetry; the asymmetric one ("asym") works in the quotient by
x1-translations of whole-line profiles and tracks the per-column shift.

The module also carries the two stock fixtures: the planar two-well family
(whole line, tails, twin channel connections, W even in u1) and the scalar
sine problem on a strip (pinned boundary, explicit position-dependent density).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import math

import numpy as np

from .function_space import (
    EffectivePotentialSpace,
    optimal_translation,
    pinned_newton_cg,
    poisson_preconditioner,
)
from .metric import SampledCurve, k_length, trapezoid_weights
from .potentials import planar_two_well


# Newton steps of the field polish before it reports max_iters, and the
# largest free gradient entry it accepts as converged.
POLISH_STEPS = 50
POLISH_GTOL = 1e-7
# Cells on each side of the field that the interior residual leaves out.
RESIDUAL_MARGIN = 5


@dataclass
class DoubleOptions:
    n_out: int = 257
    t_max: float = 6.0


@dataclass
class DoubleConnectionResult:
    space: EffectivePotentialSpace
    mode: str
    u: np.ndarray            # (M, P, n)
    x1: np.ndarray           # (M,)
    x2: np.ndarray           # (P,)
    energy: float
    c_minus: float
    c_plus: float
    m_track: np.ndarray | None
    diagnostics: dict


def _columns(u: np.ndarray) -> np.ndarray:
    """The x2 columns of a field (M, P, n) as a C-ordered profile stack (P, M, n)."""
    return np.ascontiguousarray(u.transpose(1, 0, 2))


def _symmetrize_columns(space: EffectivePotentialSpace, u: np.ndarray) -> np.ndarray:
    """Reflection projection of every x2 column of a field (M, P, n), C-ordered."""
    return np.ascontiguousarray(space.symmetrize(u.transpose(1, 0, 2)).transpose(1, 0, 2))


def _field_pins(shape) -> np.ndarray:
    """Pinned entries of a field (M, P, n): the end columns and the x1 edge rows."""
    pinned = np.zeros(shape, dtype=bool)
    pinned[:, [0, -1]] = True
    pinned[[0, -1]] = True
    return pinned


def _projects(space: EffectivePotentialSpace, mode: str) -> bool:
    """Whether a solve in ``mode`` keeps its field's first component odd in x1."""
    return mode == "sym" and space.symmetry == "odd_first"


def _polish_field(space, u0, dt, symmetrize, gtol):
    """Truncated Newton-CG on the discrete 2D energy; end columns and x1 edges stay pinned.

    The CG is preconditioned by the shifted fast Poisson solve of
    ``poisson_preconditioner`` on x1 and x2, with each Newton step's shift
    from its Hessian block.  Returns (field, NewtonResult).
    """
    poisson = poisson_preconditioner(u0.shape, space.h, dt)
    return pinned_newton_cg(
        lambda u: _path_energy(space, u, dt, grad=True),
        lambda u: _PathEnergyHessian(space, u, dt), u0, _field_pins(u0.shape),
        project=(lambda u: _symmetrize_columns(space, u)) if symmetrize else None,
        gtol=gtol, max_steps=POLISH_STEPS,
        precond=lambda hess: poisson(hess.shift),
    )


def free_gradient_max(space, u: np.ndarray, dt: float, mode: str) -> float:
    """Max-norm of the free gradient of the discrete 2D energy at a field (M, P, n).

    The gradient is odd-projected where a solve in ``mode`` projects (see
    ``_projects``) and zeroed on the pins, as in the field polish; ``hetconn
    verify`` gates this value against ``polish_gtol``.
    """
    g = _path_energy(space, u, dt, grad=True)[1]
    if _projects(space, mode):
        g = _symmetrize_columns(space, g)
    g[_field_pins(g.shape)] = 0.0
    return float(np.max(np.abs(g)))


def _path_energy(space, u, dt, grad=False):
    """Sum of x2-kinetic and effective-potential terms (trapezoid in x2).

    With grad=True also returns the coordinate gradient, shape of u.
    """
    m, p, n = u.shape
    w1 = trapezoid_weights(m, space.h)
    wt = trapezoid_weights(p, dt)
    d2 = np.diff(u, axis=1) / dt
    kin = 0.5 * dt * np.sum(w1[:, None, None] * d2 * d2)
    cols = _columns(u)
    # a left-to-right sum over x2, not a pairwise one: the polish iterates
    # depend on its rounding
    pot = np.cumsum(wt * (space.energy_1d(cols) - space.ref_value))[-1]
    if not grad:
        return float(kin + pot)
    g = (wt[:, None, None] * space.energy_1d_grad(cols)).transpose(1, 0, 2).copy()
    flux = w1[:, None, None] * d2
    g[:, :-1, :] -= flux
    g[:, 1:, :] += flux
    return float(kin + pot), g


class _PathEnergyHessian:
    """Hessian of ``_path_energy`` at a field u (M, P, n); call it on a direction.

    The pointwise block w1 * wt * D^2(density) is built once here; each
    product is then stencil arithmetic on the (M, P, n) direction.  Like the
    gradient, the profile part of a product vanishes on the x1 edge rows.
    On the free nodes the Hessian is h * dt * (B + L), with B = D^2(density)
    and L the Dirichlet Laplacian of the two stencils; ``shift`` holds, per
    component c, max(0, mean of B_cc over the free nodes), the shift of the
    preconditioner.
    """

    def __init__(self, space, u, dt):
        m, p, _ = u.shape
        h = space.h
        w1 = trapezoid_weights(m, h)
        wt = trapezoid_weights(p, dt)
        block = np.ascontiguousarray(space._density_hessians(_columns(u)).transpose(1, 0, 2, 3))
        diag = np.einsum("mpcc->c", block[1:-1, 1:-1]) / ((m - 2) * (p - 2))
        self.shift = np.maximum(diag, 0.0)
        block *= (w1[:, None] * wt[None, :])[:, :, None, None]
        self.block = block
        self.wt1 = wt[None, :, None] / h
        self.w2 = w1[:, None, None] / dt

    def __call__(self, d):
        out = np.einsum("mpij,mpj->mpi", self.block, d)
        flux = np.diff(d, axis=0)
        flux *= self.wt1
        out[:-1] -= flux
        out[1:] += flux
        out[[0, -1]] = 0.0
        # free the x1 flux before the x2 one
        del flux
        flux = np.diff(d, axis=1)
        flux *= self.w2
        out[:, :-1] -= flux
        out[:, 1:] += flux
        return out


def x2_defect(space, u: np.ndarray, dt: float) -> float:
    """Max over x2 segments of |x2 kinetic term - effective potential|.

    u has shape (M, P, n).  The kinetic term is half the squared trapezoid
    L2 norm (in x1) of the x2 difference quotient; the effective potential
    is taken at the segment midpoint.  Run and verify both use this.
    """
    w1 = trapezoid_weights(u.shape[0], space.h)
    cols = _columns(u)
    mids = 0.5 * (cols[:-1] + cols[1:])
    kinetic = 0.5 * np.sum(w1[:, None] * ((cols[1:] - cols[:-1]) / dt) ** 2, axis=(1, 2))
    return float(np.max(np.abs(kinetic - space.effective_potential(mids))))


def _seed_field(space: EffectivePotentialSpace, opts: DoubleOptions, symmetrize: bool):
    """The blend (1 - lam) z- + lam z+, lam = (1 + tanh x2) / 2, as a field (M, P, n).

    x2 is the uniform grid of ``opts.n_out`` nodes on [-t_max, t_max]; the
    end columns are the wells.  Returns (field, x2).
    """
    x2 = np.linspace(-opts.t_max, opts.t_max, opts.n_out)
    lam = (0.5 * (1.0 + np.tanh(x2)))[None, :, None]
    u = (1.0 - lam) * space.z_minus.values[:, None, :] + lam * space.z_plus.values[:, None, :]
    u[:, 0, :] = space.z_minus.values
    u[:, -1, :] = space.z_plus.values
    if symmetrize:
        u = _symmetrize_columns(space, u)
    return u, x2


def _solve_common(space: EffectivePotentialSpace, opts: DoubleOptions, mode: str):
    if space.z_minus is None or space.z_plus is None:
        raise ValueError("the effective space carries no well profiles")
    gap = space.z_minus.distance_l2(space.z_plus)
    if gap < 1e-8:
        raise ValueError("well profiles coincide; nothing to connect")
    symmetrize = _projects(space, mode)
    u, x2 = _seed_field(space, opts, symmetrize)
    p_out = x2.size
    dt = float(np.diff(x2)[0])
    u, polish = _polish_field(space, u, dt, symmetrize, POLISH_GTOL)
    energy = _path_energy(space, u, dt)
    # the weighted length of the field's columns as a path in profile space:
    # at equipartition it equals the energy
    columns = SampledCurve(times=x2, nodes=_columns(u).reshape(p_out, -1))
    diagnostics = {
        "window": opts.t_max,
        "polish_steps": polish.steps,
        "polish_gmax": polish.gmax,
        "polish_cg_products": polish.products,
        "polish_status": polish.status,
        "k_length": k_length(columns, space.weighted_space(), rule="midpoint"),
    }
    m_track = None
    c_minus = c_plus = 0.0
    if mode == "asym":
        span = float(space.grid[-1] - space.grid[0])
        fits = optimal_translation(
            _columns(u), space.z_minus, space.z_plus, m_max=0.25 * span, n_scan=129
        )
        m_track = fits.shift
        tail = max(1, p_out // 10)
        c_minus = float(np.mean(m_track[:tail]))
        c_plus = float(np.mean(m_track[-tail:]))
        diagnostics["m_total_variation"] = float(np.sum(np.abs(np.diff(m_track))))
    return DoubleConnectionResult(
        space=space,
        mode=mode,
        u=u,
        x1=space.grid.copy(),
        x2=x2,
        energy=energy,
        c_minus=c_minus,
        c_plus=c_plus,
        m_track=m_track,
        diagnostics=diagnostics,
    )


def solve_symmetric(space: EffectivePotentialSpace, opts: DoubleOptions | None = None):
    """Minimal profile path between the twin connections, symmetry enforced.

    Pipeline: the tanh blend of the wells on the x2 window [-t_max, t_max]
    (``_seed_field``), projected to odd first components, and a pinned
    Newton-CG minimization of the discrete 2D energy with the end columns
    and x1 edges fixed and the projection applied to every step.
    """
    return _solve_common(space, opts or DoubleOptions(), "sym")


def solve_asymmetric(space: EffectivePotentialSpace, opts: DoubleOptions | None = None):
    """Profile path solver in the quotient by x1-translations (no projection).

    Translations act only on whole-line profiles, so the space must have
    ``bc`` "tails".  The pipeline is the symmetric one without the
    projection; the per-column optimal shift m(x2) is tracked on the final
    field, and its end averages estimate the limit shifts c-, c+.
    """
    if space.bc != "tails":
        raise ValueError(f"asymmetric solve needs a whole-line space, not bc {space.bc!r}")
    return _solve_common(space, opts or DoubleOptions(), "asym")


class TranslationSpeedAudit(NamedTuple):
    c_fit: float
    max_ratio: float
    n_used: int


def audit_translation_speed(
    result: DoubleConnectionResult, floor_frac: float = 1e-6
) -> TranslationSpeedAudit:
    """Fit |dm per step| <= C * kappa(column) * L2 step on the tracked shifts.

    C comes from a least-squares fit through the origin over steps whose
    budget kappa * step clears a floor (a fraction of the largest budget);
    the max ratio over those steps is reported alongside.
    """
    if result.m_track is None:
        raise ValueError("no shift track; run the asymmetric solver")
    space = result.space
    cols = _columns(result.u)
    dm = np.abs(np.diff(result.m_track))
    dist = space.l2_norms(cols[1:] - cols[:-1])
    budget = space.kappa(0.5 * (cols[:-1] + cols[1:])) * dist
    floor = floor_frac * max(float(np.max(budget)), 1e-300)
    used = budget > floor
    if not np.any(used):
        return TranslationSpeedAudit(0.0, 0.0, 0)
    c_fit = float(np.sum(dm[used] * budget[used]) / np.sum(budget[used] ** 2))
    max_ratio = float(np.max(dm[used] / budget[used]))
    return TranslationSpeedAudit(c_fit, max_ratio, int(np.sum(used)))


class DoubleReport(NamedTuple):
    residual_max: float
    residual_l2: float
    equip_defect: float
    energy_direct: float
    energy_path: float
    x2_gap_minus_l2: float
    x2_gap_plus_l2: float
    interior_margin: int


class FieldResiduals(NamedTuple):
    residual_max: float
    residual_l2: float
    energy_direct: float
    energy_path: float


def field_residuals(space, u: np.ndarray, dt: float, margin: int) -> FieldResiduals:
    """Interior PDE residual of a field (M, P, n) and its energy two ways.

    The residual is the 5-point Laplacian minus the density gradient,
    evaluated away from a boundary margin of ``margin`` cells.  The energy
    is computed once by direct 2D quadrature and once as the profile-path
    action; the two must agree to rounding.  Run and verify both use this.
    """
    m, p, _ = u.shape
    h = space.h
    cols = _columns(u)
    # 5-point Laplacian minus the density gradient, built in place so the
    # residual keeps the field's memory order
    res = np.zeros_like(u)
    res[1:-1, :, :] += (u[2:, :, :] - 2 * u[1:-1, :, :] + u[:-2, :, :]) / h**2
    res[:, 1:-1, :] += (u[:, 2:, :] - 2 * u[:, 1:-1, :] + u[:, :-2, :]) / dt**2
    res -= space._density_grads(cols).transpose(1, 0, 2)
    inner = res[margin:-margin, margin:-margin, :]
    residual_max = float(np.max(np.linalg.norm(inner, axis=2)))
    residual_l2 = float(np.sqrt(np.sum(inner**2) * h * dt))
    energy_path = _path_energy(space, u, dt)
    w1 = trapezoid_weights(m, h)
    wt = trapezoid_weights(p, dt)
    d1 = np.diff(u, axis=0) / h
    d2 = np.diff(u, axis=1) / dt
    kin1 = 0.5 * h * np.sum(wt[None, :, None] * d1 * d1)
    kin2 = 0.5 * dt * np.sum(w1[:, None, None] * d2 * d2)
    dens = np.ascontiguousarray(space._density_values(cols).T)
    pot = np.sum(w1[:, None] * wt[None, :] * dens) - space.ref_value * np.sum(wt)
    energy_direct = float(kin1 + kin2 + pot)
    return FieldResiduals(residual_max, residual_l2, energy_direct, energy_path)


def assemble_and_verify(result: DoubleConnectionResult,
                        margin: int = RESIDUAL_MARGIN) -> DoubleReport:
    """Residual and limit checks on the assembled field.

    The residual and the energy two ways come from ``field_residuals``.
    Limit gaps compare the end columns against the stored well profiles,
    shifted by the tracked limits in the asymmetric mode.
    """
    space = result.space
    u = result.u
    dt = float(np.diff(result.x2)[0])
    fr = field_residuals(space, u, dt, margin)
    defect = x2_defect(space, u, dt)
    zm, zp = space.z_minus, space.z_plus
    if result.mode == "asym":
        zm = zm.translate(result.c_minus)
        zp = zp.translate(result.c_plus)
    return DoubleReport(
        residual_max=fr.residual_max,
        residual_l2=fr.residual_l2,
        equip_defect=defect,
        energy_direct=fr.energy_direct,
        energy_path=fr.energy_path,
        x2_gap_minus_l2=float(space.grid_function(u[:, 0, :]).distance_l2(zm)),
        x2_gap_plus_l2=float(space.grid_function(u[:, -1, :]).distance_l2(zp)),
        interior_margin=margin,
    )


# ---------------------------------------------------------------------------
# Fixtures


def planar_effective_space(
    beta: float = 1.0,
    kappa: float = 1.0,
    s_max: float = 8.0,
    m: int = 401,
) -> EffectivePotentialSpace:
    """Effective space for the planar two-well family on the window [-s_max, s_max].

    The upper twin 1D connection is relaxed to a discrete minimizer from the
    closed-form channel profile (tanh s, sqrt(kappa) sech s), which lies on
    the channel u2^2 = kappa (1 - u1^2) and passes through (0, sqrt(kappa)),
    with its first component odd; the lower one is its mirror in the second
    component.  The reference value is their common discrete action.
    """
    grid = np.linspace(-s_max, s_max, m)
    space = planar_shell(grid, beta=beta, kappa=kappa)
    vals = np.column_stack([np.tanh(grid), math.sqrt(kappa) / np.cosh(grid)])
    vals[0], vals[-1] = space.tail_left, space.tail_right
    z_plus_vals, e_plus = space.relax_profile(vals)
    z_minus_vals = z_plus_vals.copy()
    z_minus_vals[:, 1] *= -1.0
    space.ref_value = e_plus
    space.z_plus = space.grid_function(z_plus_vals)
    space.z_minus = space.grid_function(z_minus_vals)
    return space


def planar_shell(grid: np.ndarray, beta: float = 1.0,
                 kappa: float = 1.0) -> EffectivePotentialSpace:
    """The planar two-well effective space on ``grid``, without well profiles.

    W is even in u1, so the space has symmetry "odd_first" and ``grid`` must
    be symmetric about zero.  Its reference is zero until the wells are
    known; ``planar_effective_space`` completes it, and ``hetconn verify``
    rebuilds it from a run's grid.
    """
    p = planar_two_well(beta=beta, kappa=kappa)
    return EffectivePotentialSpace(
        grid=grid,
        n_components=2,
        bc="tails",
        potential=p,
        tail_left=p.wells[0],
        tail_right=p.wells[1],
        symmetry="odd_first",
        lam=p.hessian_lower_bound,
    )


def sin_example_space(m: int = 257) -> EffectivePotentialSpace:
    """Scalar strip fixture: density -u^2/2 + (u^2 - sin^2 y)^2 on [0, pi].

    The profile wells are +-sin with pinned zero boundary values; the
    density minimum over profiles is zero, attained there, so the reference
    is just the discrete well energy.
    """
    grid = np.linspace(0.0, math.pi, m)
    space = sin_shell(grid)
    z_plus_vals, e_plus = space.relax_profile(np.sin(grid)[:, None])
    space.ref_value = e_plus
    space.z_plus = space.grid_function(z_plus_vals)
    space.z_minus = space.grid_function(-z_plus_vals)
    return space


def sin_shell(grid: np.ndarray) -> EffectivePotentialSpace:
    """The sine strip's effective space on ``grid``, without well profiles.

    ``sin_example_space`` completes it; ``hetconn verify`` rebuilds it from
    a run's grid.
    """
    sin2 = np.sin(grid) ** 2

    # both act on (k, m, 1) stacks on this grid; s is the grid itself
    def density(s, vals):
        u = vals[..., 0]
        return -0.5 * u * u + (u * u - sin2) ** 2

    def density_grad(s, vals):
        u = vals[..., 0]
        return (-u + 4.0 * u * (u * u - sin2))[..., None]

    def density_hess(s, vals):
        u = vals[..., 0]
        return (-1.0 + 12.0 * u * u - 4.0 * sin2)[..., None, None]

    return EffectivePotentialSpace(
        grid=grid,
        n_components=1,
        bc="fixed",
        density=density,
        density_grad=density_grad,
        density_hess=density_hess,
        symmetry="none",
        lam=-5.0,
    )
