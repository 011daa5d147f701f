"""Connections between connections: 2D fields from paths of 1D profiles.

A pair of minimal 1D connections z-, z+ are the wells of the effective
potential on profile space, and x2 plays the role of time: a minimal
heteroclinic in profile space from z- to z+ assembles into a 2D field
u(x1, x2) = path(x2)(x1) that solves the Euler-Lagrange system of the summed
energy.  The solve seeds the field with the closed-form blend
(1 - lam) z- + lam z+, lam = (1 + tanh x2) / 2, on the x2 window
[-t_max, t_max], and minimizes the discrete 2D energy of the field by a
pinned Newton-CG.  Where the wells are signed mirrors of each other,
z- = sigma z+ bit for bit with one sign per component (sigma = -1 for the
sine fixture, (+1, -1) for the planar one), and the x2 grid has a centre
column, the Newton-CG solves only x2 >= 0 and the field is its signed
mirror, u(x1, -x2) = sigma u(x1, x2).  The symmetric solver (``mode``
"sym") does the same in x1 with the fixture's ``x1_parity`` rho ((+1) about
pi/2 for the sine strip, (-1, +1) about 0 for the planar family) where the
x1 grid has a centre row, so it polishes a quarter of the field; the
asymmetric one ("asym") keeps every x1 row, works in the quotient by
x1-translations of whole-line profiles and tracks the per-column shift.
Both axes fold by one rule, ``function_space.fold``: the Newton-CG takes
(sigma, rho), each None where its axis is whole, and the kernels know
nothing of halves.
After the polish one ``field_audit`` evaluates the field, for the run and
for ``hetconn verify`` alike: its residual is the free gradient over its
trapezoid weights, on interior nodes the 5-point Laplacian minus grad W.

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
    component_sum,
    component_weights,
    cut_half,
    fold,
    mirror_half,
    optimal_translation,
    pinned_newton_cg,
    poisson_preconditioner,
)
from .metric import trapezoid_weights
from .potentials import planar_two_well


# Newton steps of the field polish before it reports max_iters, and the
# largest free gradient entry it accepts as converged.
POLISH_STEPS = 50
POLISH_GTOL = 1e-7
# Cells on each side of the field that the interior residual leaves out.
RESIDUAL_MARGIN = 5
# The translation-speed fit leaves out steps whose budget is below this
# fraction of the largest one.
SPEED_FLOOR_FRAC = 1e-6


@dataclass
class DoubleOptions:
    n_out: int = 257
    t_max: float = 6.0

    def x2_grid(self) -> np.ndarray:
        """The x2 grid of the field's columns: ``n_out`` nodes on [-t_max,
        t_max] (``mirror_grid``), for the seed and for ``hetconn verify``."""
        return mirror_grid(-self.t_max, self.t_max, self.n_out)


@dataclass
class DoubleConnectionResult:
    space: EffectivePotentialSpace
    mode: str
    u: np.ndarray            # (P, M, n): the x2 columns, a C-ordered profile stack
    x2: np.ndarray           # (P,)
    m_track: np.ndarray | None
    diagnostics: dict


def x2_step(x2: np.ndarray) -> float:
    """The step of a uniform x2 grid (P,) at its centre: x2[c + 1] - x2[c],
    c = (P - 1) // 2, the centre node where P is odd."""
    c = (x2.size - 1) // 2
    return float(x2[c + 1] - x2[c])


def x2_reflection(z_minus: np.ndarray, z_plus: np.ndarray) -> np.ndarray | None:
    """The signs sigma (n,) of ±1.0 with z- = sigma z+ (equal values, component
    by component, where -1 negates as 0.0 - z+), or None if there are none.

    For the end columns (M, n) of a field, sigma is the x2 reflection of a
    field solved on half its x2 window: u(x1, -x2) = sigma u(x1, x2).
    """
    sigma = []
    for a, b in zip(z_minus.T, z_plus.T):
        if np.array_equal(a, b):
            sigma.append(1.0)
        elif np.array_equal(a, 0.0 - b):
            sigma.append(-1.0)
        else:
            return None
    return np.array(sigma)


def mirror_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """The uniform grid of ``n`` nodes on [lo, hi] whose lower half is
    (lo + hi) - its upper one, about a centre node (lo + hi) / 2 where ``n``
    is odd: (lo + hi) - grid is grid reversed bit for bit on [-a, a] and
    [0, pi]."""
    half = np.linspace(lo, hi, n)[n // 2:]
    if n % 2:
        half[0] = 0.5 * (lo + hi)
    return np.concatenate([(lo + hi) - half[::-1][:n // 2], half])


def _polish_field(space, u0, dt, gtol, parities=(None, None)):
    """Truncated Newton-CG on the discrete 2D energy of a field u0 (P, M, n).

    ``parities`` (x2's, x1's) folds the field (``fold``): the end columns
    and x1 edge rows stay pinned but on a folded axis's centre line, and the
    stop test and the CG read the whole field's gradient; a field folded in
    x1 lives on a ``half`` space.  The CG is preconditioned by the line
    solve of ``poisson_preconditioner`` (a DST along x2, a tridiagonal solve
    along x1), with each Newton step's per-row shift from its Hessian
    block.  Returns (field, NewtonResult).
    """
    poisson = poisson_preconditioner(u0.shape, dt, space.h, parities=parities)
    return pinned_newton_cg(
        lambda u: _path_energy(space, u, dt, grad=True),
        lambda u: _PathEnergyHessian(space, u, dt), u0, parities,
        gtol=gtol, max_steps=POLISH_STEPS, precond=lambda hess: poisson(hess.shift),
    )


def _path_energy(space, u, dt, grad=False):
    """Sum of x2-kinetic and effective-potential terms (trapezoid in x2).

    u is a field (P, M, n); with grad=True also returns the coordinate
    gradient, shape of u.
    """
    p, m, n = u.shape
    w1 = component_weights(trapezoid_weights(m, space.h), n)
    wt = trapezoid_weights(p, dt)
    d2 = np.diff(u, axis=0) / dt
    kin = 0.5 * dt * np.sum(w1 * d2 * d2)
    # a left-to-right sum over x2, not a pairwise one: the polish iterates
    # depend on its rounding
    pot = np.cumsum(wt * (space.energy_1d(u) - space.ref_value))[-1]
    if not grad:
        return float(kin + pot)
    g = space.energy_1d_grad(u)
    g *= wt[:, None, None]
    flux = w1 * d2
    g[:-1] -= flux
    g[1:] += flux
    return float(kin + pot), g


class _PathEnergyHessian:
    """Hessian of ``_path_energy`` at a field u (P, M, n); call it on a direction.

    The pointwise block wt * w1 * D^2(density) is built once here and held
    as its n^2 contiguous (P, M) planes, ``planes[i][j]``, each weighted as
    it is cut from the block, which is then dropped; each product is then
    arithmetic on the planes and the stencils of the (P, M, n) direction,
    on every node, to the bits of np.einsum("pmij,pmj->pmi", block, d) plus
    the stencils.  On the interior nodes the Hessian is h * dt * (B + L),
    with B = D^2(density) and L the Dirichlet Laplacian of the two stencils.
    B varies most along x1, so ``shift``, the per-row shift of the
    preconditioner's line solve, holds for each x1 row and component c
    max(0, mean of B_cc over the interior x2 nodes of that row): shape
    (M, n).
    """

    def __init__(self, space, u, dt):
        p, m, n = u.shape
        h = space.h
        w1 = trapezoid_weights(m, h)
        wt = trapezoid_weights(p, dt)
        block = space._density_hessians(u)
        self.shift = np.maximum(np.einsum("pmcc->mc", block[1:-1]) / (p - 2), 0.0)
        weight = wt[:, None] * w1[None, :]
        self.planes = [[block[..., i, j] * weight for j in range(n)] for i in range(n)]
        self.wt1 = wt[:, None, None] / h
        self.w2 = component_weights(w1, n) / dt

    def __call__(self, d):
        out = np.empty(d.shape)
        term = np.empty(d.shape[:2])
        for i, row in enumerate(self.planes):
            # the einsum's sum: from +0.0, the components left to right
            o = np.multiply(row[0], d[..., 0], out=out[..., i])
            o += 0.0
            for j in range(1, len(row)):
                o += np.multiply(row[j], d[..., j], out=term)
        del term
        flux = np.diff(d, axis=1)
        flux *= self.wt1
        out[:, :-1] -= flux
        out[:, 1:] += flux
        # free the x1 flux before the x2 one
        del flux
        flux = np.diff(d, axis=0)
        flux *= self.w2
        out[:-1] -= flux
        out[1:] += flux
        return out


def _seed_field(space: EffectivePotentialSpace, opts: DoubleOptions):
    """The blend (1 - lam) z- + lam z+, lam = (1 + tanh x2) / 2, as a field (P, M, n).

    x2 is the uniform grid of ``opts.n_out`` nodes on [-t_max, t_max], the
    mirror of its nonnegative half (``mirror_grid``): x2 = -x2[::-1] bit for
    bit, with a centre node 0.0 where ``n_out`` is odd.  The end columns are
    the wells.  Returns (field, x2).
    """
    x2 = opts.x2_grid()
    lam = (0.5 * (1.0 + np.tanh(x2)))[:, None, None]
    u = (1.0 - lam) * space.z_minus.values + lam * space.z_plus.values
    u[0] = space.z_minus.values
    u[-1] = space.z_plus.values
    return u, x2


def shift_track_summary(m_track: np.ndarray) -> tuple[float, float, float]:
    """(c-, c+, total variation) of a per-column shift track: the means of
    its first and last max(1, P // 10) entries, and the sum of its |steps|."""
    tail = max(1, m_track.size // 10)
    return (float(np.mean(m_track[:tail])), float(np.mean(m_track[-tail:])),
            float(np.sum(np.abs(np.diff(m_track)))))


class PolishedPart(NamedTuple):
    columns: int                 # x2 columns polished, from the centre on where < P
    rows: int                    # x1 rows polished, from the centre on where < M
    sigma: np.ndarray | None     # the wells' x2 reflection (``x2_reflection``)
    rho: np.ndarray | None       # the fixture's x1 parity


def polished_part(space: EffectivePotentialSpace, mode: str, p: int, m: int) -> PolishedPart:
    """The part of a field (P, M, n) on ``space`` that a double solve polishes.

    The one rule, read from mode, sigma, rho, P and M: where the wells are
    signed mirrors, z- = sigma z+ bit for bit, and P is odd, the x2 columns
    from the centre on, (P + 1) / 2; in mode "sym" where the space has an
    ``x1_parity`` rho and M is odd, likewise the x1 rows from the centre on.
    Every other axis is polished whole.
    """
    sigma = x2_reflection(space.z_minus.values, space.z_plus.values)
    rho = space.x1_parity
    columns = p // 2 + 1 if sigma is not None and p % 2 else p
    rows = m // 2 + 1 if mode == "sym" and rho is not None and m % 2 else m
    return PolishedPart(columns, rows, sigma, rho)


def _solve_common(space: EffectivePotentialSpace, opts: DoubleOptions, mode: str):
    """Seed, polish and, in mode "asym", shift-track the field of a double solve.

    The Newton-CG polishes the part of the field that ``polished_part``
    names, cut by ``cut_half`` and folded by (sigma, rho) (``fold``): on a
    centre line the odd components are zero and pinned and the even ones
    free, whose natural boundary condition at half the trapezoid weight is
    the mirror's Neumann one.  The field is that part and its mirrors,
    u(x1, -x2) = sigma u(x1, x2) and u(x1*, x2) = rho u(x1, x2) bit for bit:
    the whole field's minimizer where the density is invariant under both,
    as the fixtures' are (the field audit's free gradient would show it if
    not).  An x1 half lives on ``EffectivePotentialSpace.half``.  In mode
    "asym" the shift scan reads the x2 half and mirrors its track: each
    misfit is invariant under sigma with the wells swapped.
    """
    if space.z_minus is None or space.z_plus is None:
        raise ValueError("the effective space carries no well profiles")
    gap = space.z_minus.distance_l2(space.z_plus)
    if gap < 1e-8:
        raise ValueError("well profiles coincide; nothing to connect")
    u, x2 = _seed_field(space, opts)
    dt = x2_step(x2)
    p, m = u.shape[:2]
    part = polished_part(space, mode, p, m)
    sigma = part.sigma if part.columns < p else None
    rho = part.rho if part.rows < m else None
    for axis, signs in enumerate((sigma, rho)):
        if signs is not None:
            u = cut_half(u, signs, axis)
    field, polish = _polish_field(space if rho is None else space.half(), u, dt,
                                  POLISH_GTOL, (sigma, rho))
    half = field if rho is None else mirror_half(field, rho, axis=1)
    u = half if sigma is None else mirror_half(half, sigma)
    diagnostics = {
        "polish_steps": polish.steps,
        "polish_gmax": polish.gmax,
        "polish_cg_products": polish.products,
        "polish_status": polish.status,
    }
    m_track = None
    if mode == "asym":
        span = float(space.grid[-1] - space.grid[0])
        m_track = optimal_translation(half, space.z_minus, space.z_plus,
                                      m_max=0.25 * span, n_scan=129)
        if sigma is not None:
            m_track = np.concatenate([m_track[:0:-1], m_track])
    return DoubleConnectionResult(
        space=space,
        mode=mode,
        u=u,
        x2=x2,
        m_track=m_track,
        diagnostics=diagnostics,
    )


def solve_symmetric(space: EffectivePotentialSpace, opts: DoubleOptions | None = None):
    """Minimal profile path between the twin connections, symmetry enforced.

    Pipeline: the tanh blend of the wells on the x2 window [-t_max, t_max]
    (``_seed_field``) and a pinned Newton-CG minimization of the discrete
    2D energy with the end columns and x1 edges fixed, on the quarter that
    the field's x2 and x1 reflections leave (see ``_solve_common``).
    """
    return _solve_common(space, opts or DoubleOptions(), "sym")


def solve_asymmetric(space: EffectivePotentialSpace, opts: DoubleOptions | None = None):
    """Profile path solver in the quotient by x1-translations, on every x1 row.

    Translations act only on whole-line profiles, so the space must have
    ``bc`` "tails".  The pipeline is the symmetric one without the x1
    reflection; the per-column optimal shift m(x2) is tracked on the final
    field (``shift_track_summary`` reads its limit shifts c-, c+).
    """
    if space.bc != "tails":
        raise ValueError(f"asymmetric solve needs a whole-line space, not bc {space.bc!r}")
    return _solve_common(space, opts or DoubleOptions(), "asym")


class TranslationSpeedAudit(NamedTuple):
    c_fit: float
    max_ratio: float
    n_used: int


def audit_translation_speed(m_track: np.ndarray | None,
                            audit: FieldAudit) -> TranslationSpeedAudit:
    """Fit |dm per step| <= C * kappa * L2 step along a tracked shift track.

    kappa, the root of the nonnegative part of the x2 midpoint effective
    potential, and the step lengths come from the field's ``field_audit``.
    C comes from a least-squares fit through the origin over steps whose
    budget kappa * step clears a floor (``SPEED_FLOOR_FRAC`` of the largest
    budget); the max ratio over those steps is reported alongside.
    """
    if m_track is None:
        raise ValueError("no shift track; run the asymmetric solver")
    dm = np.abs(np.diff(m_track))
    budget = np.sqrt(np.maximum(audit.mid_potential, 0.0)) * np.sqrt(audit.step2)
    floor = SPEED_FLOOR_FRAC * max(float(np.max(budget)), 1e-300)
    used = budget > floor
    if not np.any(used):
        return TranslationSpeedAudit(0.0, 0.0, 0)
    c_fit = float(np.sum(dm[used] * budget[used]) / np.sum(budget[used] ** 2))
    max_ratio = float(np.max(dm[used] / budget[used]))
    return TranslationSpeedAudit(c_fit, max_ratio, int(np.sum(used)))


@dataclass(frozen=True)
class FieldAudit:
    energy_path: float
    energy_direct: float
    residual_max: float
    residual_l2: float
    gmax: float
    equip_defect: float
    k_length: float
    reduction_gap: float
    mid_potential: np.ndarray   # (P-1,): effective potential at the x2 midpoints
    step2: np.ndarray           # (P-1,): squared L2 lengths of the x2 steps


def field_audit(space, u: np.ndarray, dt: float, margin: int) -> FieldAudit:
    """Every check of a field (P, M, n) in one pass; run and verify both use this.

    One ``_path_energy`` with its coordinate gradient g gives three things:
    the path energy; the free gradient max of the whole field, g zeroed on
    its pins (a field solved on a half or a quarter reads its centre lines
    here, as its polish's stop test does through ``fold``'s gscale); and
    the interior residual -g / (h * dt), taken
    away from a boundary margin of ``margin`` cells.  On interior nodes g is
    h * dt * (grad W - L u), with L the 5-point Laplacian, so the residual
    is L u - grad W there.  The energy is also summed by direct 2D trapezoid
    quadrature; the two must agree to rounding.  One ``energy_1d`` on the x2
    segment midpoints gives, with the squared L2 segment lengths, the
    equipartition defect (the max over segments of |x2 kinetic term -
    effective potential|) and the midpoint K-length of the columns as a
    path of profiles, which equals the energy at equipartition.  The audit
    keeps that midpoint potential and the squared lengths for
    ``audit_translation_speed``.
    """
    p, m, n = u.shape
    h = space.h
    energy_path, g = _path_energy(space, u, dt, grad=True)
    inner = g[margin:-margin, margin:-margin] / (-h * dt)
    inner *= inner
    residual_max = math.sqrt(float(np.max(component_sum(inner))))
    residual_l2 = math.sqrt(float(np.sum(inner)) * h * dt)
    # free each field-sized array before the next is made
    del inner
    g[fold(g.shape, (None, None)).pinned] = 0.0
    gmax = float(np.max(np.abs(g)))
    del g
    w1 = trapezoid_weights(m, h)
    wt = trapezoid_weights(p, dt)
    d1 = np.diff(u, axis=1) / h
    kin1 = 0.5 * h * np.sum(wt[:, None, None] * d1 * d1)
    del d1
    d2 = np.diff(u, axis=0)
    # squared L2 segment lengths, reduced as ``GridL2Space.distances`` does
    flat = d2.reshape(p - 1, -1)
    step2 = np.sum(space.ambient().coord_weights * flat * flat, axis=1)
    del flat
    d2 /= dt
    kin2 = 0.5 * dt * np.sum(component_weights(w1, n) * d2 * d2)
    del d2
    dens = space._density_values(u)
    pot = np.sum(wt[:, None] * w1[None, :] * dens) - space.ref_value * np.sum(wt)
    del dens
    energy_direct = float(kin1 + kin2 + pot)
    mids = u[:-1] + u[1:]
    mids *= 0.5
    potential = space.effective_potential(mids)
    del mids
    equip_defect = float(np.max(np.abs(0.5 * step2 / dt**2 - potential)))
    weight = np.sqrt(2.0 * np.maximum(potential, 0.0))
    k_len = math.inf if np.any(np.isinf(weight)) else float(np.sum(weight * np.sqrt(step2)))
    return FieldAudit(energy_path, energy_direct, residual_max, residual_l2, gmax,
                      equip_defect, k_len, abs(energy_path - k_len), potential, step2)


def assemble_and_verify(result: DoubleConnectionResult,
                        margin: int = RESIDUAL_MARGIN) -> FieldAudit:
    """The ``field_audit`` of a solve's field on its x2 grid, under the one
    name that the benchmark's layer trace times (``perfbench/tracing.py``)."""
    return field_audit(result.space, result.u, x2_step(result.x2), margin)


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
    component.  The reference value is their common discrete action.  The
    grid is the exact mirror of its half (``mirror_grid``), so where m is
    odd both wells are their x1 mirrors bit for bit.
    """
    grid = planar_grid(s_max, m)
    space = planar_shell(grid, beta=beta, kappa=kappa)
    vals = np.column_stack([np.tanh(grid), math.sqrt(kappa) / np.cosh(grid)])
    vals[0], vals[-1] = space.tail_left, space.tail_right
    z_plus_vals, e_plus = space.relax_profile(vals)
    z_minus_vals = z_plus_vals.copy()
    # 0.0 - x, not -x: a zero edge stays +0.0, which the polish's steps keep
    z_minus_vals[:, 1] = 0.0 - z_plus_vals[:, 1]
    space.ref_value = e_plus
    space.z_plus = space.grid_function(z_plus_vals)
    space.z_minus = space.grid_function(z_minus_vals)
    return space


def planar_grid(s_max: float, m: int) -> np.ndarray:
    """The planar family's x1 grid: ``m`` nodes on [-s_max, s_max]
    (``mirror_grid``), for its fixture and for ``hetconn verify``."""
    return mirror_grid(-s_max, s_max, m)


def planar_shell(grid: np.ndarray, beta: float = 1.0,
                 kappa: float = 1.0) -> EffectivePotentialSpace:
    """The planar two-well effective space on ``grid``, without well profiles.

    W is even in u1 and in u2, and the channel connections have u1 odd and
    u2 even, so the space's x1 parity is (-1, +1) about the centre of
    ``grid``.  Its reference is zero until the wells are known;
    ``planar_effective_space`` completes it, and ``hetconn verify``
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
        x1_parity=(-1.0, 1.0),
    )


def sin_example_space(m: int = 257) -> EffectivePotentialSpace:
    """Scalar strip fixture: density -u^2/2 + (u^2 - sin^2 y)^2 on [0, pi].

    The profile wells are +-sin with pinned zero boundary values; the
    density minimum over profiles is zero, attained there, so the reference
    is just the discrete well energy.  The grid is the exact mirror of its
    half about pi/2 (``mirror_grid``), so where m is odd both wells are
    their x1 mirrors bit for bit.
    """
    grid = sin_grid(m)
    space = sin_shell(grid)
    seed = np.sin(grid)[:, None]
    seed[[0, -1]] = 0.0
    z_plus_vals, e_plus = space.relax_profile(seed)
    space.ref_value = e_plus
    space.z_plus = space.grid_function(z_plus_vals)
    # 0.0 - x, not -x: the zero edges stay +0.0, which the polish's steps keep
    space.z_minus = space.grid_function(0.0 - z_plus_vals)
    return space


def sin_grid(m: int) -> np.ndarray:
    """The sine strip's x1 grid: ``m`` nodes on [0, pi] (``mirror_grid``),
    for its fixture and for ``hetconn verify``."""
    return mirror_grid(0.0, math.pi, m)


def sin_shell(grid: np.ndarray) -> EffectivePotentialSpace:
    """The sine strip's effective space on ``grid``, without well profiles.

    The density is even about pi/2, and so is u on the strip [0, pi]: the
    space's x1 parity is +1 about the centre of ``grid``.
    ``sin_example_space`` completes it; ``hetconn verify`` rebuilds it from
    a run's grid.
    """

    # all act on (k, m, 1) stacks on the grid s, this one or its half
    def density(s, vals):
        u = vals[..., 0]
        return -0.5 * u * u + (u * u - np.sin(s) ** 2) ** 2

    def density_grad(s, vals):
        u = vals[..., 0]
        return (-u + 4.0 * u * (u * u - np.sin(s) ** 2))[..., None]

    def density_hess(s, vals):
        u = vals[..., 0]
        return (-1.0 + 12.0 * u * u - 4.0 * np.sin(s) ** 2)[..., None, None]

    return EffectivePotentialSpace(
        grid=grid,
        n_components=1,
        bc="fixed",
        density=density,
        density_grad=density_grad,
        density_hess=density_hess,
        x1_parity=(1.0,),
    )
