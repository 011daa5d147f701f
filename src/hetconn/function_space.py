"""Profiles on a 1D grid and the effective potential they induce.

A grid function samples a vector-valued profile on a uniform window; beyond
the window it is extended by declared tail constants (whole-line problems)
or pinned boundary data (bounded windows).  The effective potential of a
profile is its 1D action minus the well-to-well distance of the underlying
potential: it vanishes exactly on minimal connections, and its square root
weights the geodesic problem one level up, where curves of profiles encode
2D fields.

Funnel envelopes describe decay toward a well: explicit solutions of
E'' = c E^(p0-1) with E(s0) = eps0, exponential for p0 = 2 and algebraic
otherwise.  In the paper they supply the compactness of the existence
proof; here they are a library audit, not a solver stage: projecting a
profile radially onto the funnel tube never raises its action (within
quadrature slack), and the tests check that directly.  Mollification and
optimal-translation fitting round out the toolbox for the double solve in
the quotient by x1-translations (``mode`` "asym").

One pinned truncated Newton-CG (``pinned_newton_cg``) relaxes the well
profiles and the connect curves of dimension two and up
(``EffectivePotentialSpace.relax_profile``) and polishes the 2D field
assembled from a path of well profiles.  Where a profile or field is its
signed mirror about an axis's centre, it is solved on the half from the
centre on (``cut_half``, ``mirror_half``), and one rule, ``fold``, gives
what that changes: pins, stop-test scale and norm.  The kernels return the
whole gradient and Hessian product on every row and know nothing of halves.

A stack of profiles or a field holds its components on the last, contiguous
axis, and that axis is short: one or two entries.  Numpy loops over it
several times slower than over a contiguous plane, so the field-sized
kernels never make it loop there: they work one component plane at a time
(``component_sum``, ``signed_flip``) or with a contiguous (m, n) weight
(``component_weights``), each to the bits of its one-line numpy form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import math

import numpy as np

from .metric import GridL2Space, interp_columns, trapezoid_weights
from .potentials import Potential


class FunnelEntryError(ValueError):
    """The profile misses the funnel mouth, so projection is not defined."""


@dataclass(frozen=True)
class GridFunction:
    """Vector profile on a uniform grid with declared behavior off-window.

    bc "tails": constant extension by ``tail_left``/``tail_right`` (the
    ambient wells for connection profiles).  bc "fixed": the window is the
    whole domain and the edge values are boundary data.
    """

    s: np.ndarray
    values: np.ndarray
    bc: str = "tails"
    tail_left: np.ndarray | None = None
    tail_right: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if s.ndim != 1 or s.size < 3:
            raise ValueError("grid needs at least three points")
        steps = np.diff(s)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform and increasing")
        if values.shape[0] != s.size:
            raise ValueError("values do not match the grid")
        if self.bc not in ("tails", "fixed"):
            raise ValueError(f"unknown boundary mode {self.bc!r}")
        tl, tr = self.tail_left, self.tail_right
        if self.bc == "tails":
            if tl is None or tr is None:
                raise ValueError("tails mode needs tail_left and tail_right")
            tl = np.asarray(tl, dtype=float).reshape(-1)
            tr = np.asarray(tr, dtype=float).reshape(-1)
        else:
            tl = values[0].copy()
            tr = values[-1].copy()
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail_left", tl)
        object.__setattr__(self, "tail_right", tr)

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def m(self) -> int:
        return self.s.size

    @property
    def n_components(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "GridFunction":
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(self.m, self.n_components)
        return replace(self, values=values)

    def quad_weights(self) -> np.ndarray:
        return trapezoid_weights(self.m, self.h)

    def _values_of(self, other: "GridFunction | np.ndarray") -> np.ndarray:
        ov = other.values if isinstance(other, GridFunction) else np.asarray(other)
        return ov.reshape(self.m, self.n_components) if ov.ndim == 1 else ov

    def distance_l2(self, other: "GridFunction | np.ndarray") -> float:
        d = self.values - self._values_of(other)
        return float(np.sqrt(_weighted_dot(self.quad_weights(), d, d)))

    def derivative(self) -> np.ndarray:
        """Centered differences with ghost values from the extension."""
        v = np.vstack([self.tail_left, self.values, self.tail_right])
        return (v[2:] - v[:-2]) / (2.0 * self.h)

    def second_difference(self) -> np.ndarray:
        v = np.vstack([self.tail_left, self.values, self.tail_right])
        return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / self.h**2

    def translate(self, shift: float) -> "GridFunction":
        """Values of v(. - shift) on the same grid, tail-extended."""
        return replace(self, values=_translate_values(self, np.array([shift]))[0])


# ---------------------------------------------------------------------------
# Funnel envelopes


@dataclass(frozen=True)
class FunnelProfile:
    """Explicit decay envelope from the mouth (s0, eps0) outward.

    side +1 constrains s >= s0, side -1 constrains s <= s0.  The envelope
    solves E'' = c E^(p0-1) exactly with E(s0) = eps0: exponential decay for
    p0 = 2, otherwise E = B (xi + offset)^(-alpha) with alpha = 2/(p0-2),
    B = (alpha (alpha+1) / c)^(alpha/2) and the offset fixed by the mouth
    condition.  |E'(s0)| = sqrt(2 c / p0) * eps0^(p0/2) in both branches,
    and E is square integrable for p0 < 6.
    """

    side: int
    p0: float
    c: float
    eps0: float
    s0: float

    def __post_init__(self):
        if self.side not in (1, -1):
            raise ValueError("side must be +1 or -1")
        if not (2.0 <= self.p0 < 6.0):
            raise ValueError("exponent must lie in [2, 6)")
        if self.c <= 0 or self.eps0 <= 0:
            raise ValueError("need positive c and eps0")

    @property
    def alpha(self) -> float:
        return math.inf if self.p0 == 2.0 else 2.0 / (self.p0 - 2.0)

    @property
    def amplitude(self) -> float:
        if self.p0 == 2.0:
            return self.eps0
        a = self.alpha
        return (a * (a + 1.0) / self.c) ** (a / 2.0)

    @property
    def offset(self) -> float:
        if self.p0 == 2.0:
            return 0.0
        return (self.amplitude / self.eps0) ** (1.0 / self.alpha)

    def _xi(self, s):
        return self.side * (np.asarray(s, dtype=float) - self.s0)

    def envelope(self, s) -> np.ndarray:
        """E(s) on the constrained side; eps0 before the mouth."""
        xi = self._xi(s)
        xi_c = np.maximum(xi, 0.0)
        if self.p0 == 2.0:
            out = self.eps0 * np.exp(-math.sqrt(self.c) * xi_c)
        else:
            out = self.amplitude * (xi_c + self.offset) ** (-self.alpha)
        return np.where(xi < 0.0, self.eps0, out)

    def envelope_deriv(self, s) -> np.ndarray:
        """dE/ds on the constrained side (0 before the mouth)."""
        xi = self._xi(s)
        xi_c = np.maximum(xi, 0.0)
        if self.p0 == 2.0:
            mag = math.sqrt(self.c) * self.eps0 * np.exp(-math.sqrt(self.c) * xi_c)
        else:
            mag = (
                self.alpha
                * self.amplitude
                * (xi_c + self.offset) ** (-self.alpha - 1.0)
            )
        return np.where(xi < 0.0, 0.0, -self.side * mag)

    def mouth_slope(self) -> float:
        """|E'(s0)| = sqrt(2 c / p0) * eps0^(p0/2)."""
        return math.sqrt(2.0 * self.c / self.p0) * self.eps0 ** (self.p0 / 2.0)

    def tail_l2(self) -> float:
        """Integral of E^2 over the constrained side."""
        if self.p0 == 2.0:
            return self.eps0**2 / (2.0 * math.sqrt(self.c))
        a = self.alpha
        if 2.0 * a <= 1.0:
            return math.inf
        return self.amplitude**2 * self.offset ** (1.0 - 2.0 * a) / (2.0 * a - 1.0)


def funnel_profile(side: int, p0: float, c: float, eps0: float, s0: float) -> FunnelProfile:
    """Build the explicit envelope; see FunnelProfile for the formulas."""
    return FunnelProfile(side=side, p0=float(p0), c=float(c), eps0=float(eps0), s0=float(s0))


def funnel_project(v: GridFunction, profile: FunnelProfile, well: np.ndarray) -> GridFunction:
    """Clamp a profile radially into the funnel tube around a well.

    Precondition: |v(s0) - well| < eps0 at the grid point nearest the mouth.
    Beyond the mouth (on the profile side) any excess radius is scaled back
    onto the envelope; the direction of v - well is preserved.
    """
    well = np.asarray(well, dtype=float).reshape(-1)
    j0 = int(np.argmin(np.abs(v.s - profile.s0)))
    r0 = float(np.linalg.norm(v.values[j0] - well))
    if r0 >= profile.eps0:
        raise FunnelEntryError(
            f"profile is {r0:.4g} away from the well at the funnel mouth "
            f"(s={v.s[j0]:.4g}), entry needs < {profile.eps0:.4g}"
        )
    xi = profile.side * (v.s - profile.s0)
    mask = xi >= 0.0
    env = profile.envelope(v.s)
    dev = v.values - well[None, :]
    r = np.linalg.norm(dev, axis=1)
    scale = np.ones_like(r)
    exceed = mask & (r > env)
    scale[exceed] = env[exceed] / r[exceed]
    new_values = well[None, :] + dev * scale[:, None]
    return v.with_values(new_values)


# ---------------------------------------------------------------------------
# Mollification


def mollify(v: GridFunction, delta: float) -> GridFunction:
    """Convolve with a raised-cosine kernel of support [-delta, delta].

    The discrete kernel weights are normalized to unit mass, so constants
    are exact fixed points.  The profile is extended by its tails (or edge
    values) before convolving; delta below one grid step is an error.
    """
    h = v.h
    if delta < h:
        raise ValueError(f"kernel width {delta:.4g} is below the grid step {h:.4g}")
    k = int(math.floor(delta / h + 1e-12))
    offsets = np.arange(-k, k + 1) * h
    weights = 1.0 + np.cos(np.pi * offsets / delta)
    weights /= np.sum(weights)
    left = np.tile(v.tail_left, (k, 1))
    right = np.tile(v.tail_right, (k, 1))
    padded = np.vstack([left, v.values, right])
    out = np.empty_like(v.values)
    for c in range(v.n_components):
        out[:, c] = np.convolve(padded[:, c], weights[::-1], mode="valid")
    return v.with_values(out)


# ---------------------------------------------------------------------------
# Translation fitting


def _translate_values(z: GridFunction, shifts: np.ndarray) -> np.ndarray:
    """Values of z(. - m) on z's grid for every shift m, shape (len(shifts), m, n).

    One interpolation per component over all shifted abscissae, filled off
    the window with z's tails.
    """
    x = (z.s[None, :] - shifts[:, None]).ravel()
    out = interp_columns(x, z.s, z.values, left=z.tail_left, right=z.tail_right)
    return out.reshape(shifts.size, z.m, z.n_components)


def _profile_stack(values, z: GridFunction) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(-1, z.m, z.n_components)


def component_weights(w: np.ndarray, n: int) -> np.ndarray:
    """A per-node weight ``w`` (m,) repeated for each of ``n`` components,
    as a contiguous (m, n) factor: w[:, None] to the bit, and several times
    faster to broadcast over a (..., m, n) stack."""
    return np.repeat(w, n).reshape(w.size, n)


def component_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.sum(a, axis=-1) to the bit, for a last (component) axis of fewer
    than eight entries: np.sum adds those left to right from +0.0, and so
    does this, one component plane at a time, several times faster than
    numpy's loop over so short an axis.  ``out`` (a's shape without the
    last axis) is an optional buffer."""
    out = np.add(a[..., 0], 0.0, out=out)
    for c in range(1, a.shape[-1]):
        np.add(out, a[..., c], out=out)
    return out


def signed_flip(a: np.ndarray, signs, axis: int) -> np.ndarray:
    """signs * np.flip(a, axis) to the bit, ``signs`` (n,) along a's last
    axis, as a new array made one component plane at a time."""
    flipped = np.flip(a, axis)
    out = np.empty(a.shape)
    for c, s in enumerate(np.asarray(signs, dtype=float)):
        np.multiply(s, flipped[..., c], out=out[..., c])
    return out


def _weighted_dot(w: np.ndarray, a: np.ndarray, b: np.ndarray,
                  prod: np.ndarray | None = None,
                  total: np.ndarray | None = None) -> np.ndarray:
    """sum_j w_j sum_c a[..., j, c] b[..., j, c] over the last two axes.

    The components are added by ``component_sum``, so a misfit keeps the
    bits of GridFunction.distance_l2 squared.  ``prod`` (a's shape, and it
    may be a) and ``total`` (a's shape without the last axis) are optional
    buffers for the products and their sum.
    """
    prod = np.multiply(a, b, out=prod)
    total = component_sum(prod, out=total)
    np.multiply(w, total, out=total)
    return np.sum(total, axis=-1)


# translates per block of translation_misfits' difference buffer
MISFIT_BLOCK = 129


def translation_misfits(values, z: GridFunction, shifts) -> np.ndarray:
    """Squared L2 misfits |v - z(. - m)|^2, shape (k, len(shifts)).

    ``values`` is a stack of profiles on z's grid, reshapeable to (k, m, n);
    row i holds the misfits of profile i against every shift m.  The
    translates are interpolated once for the whole stack.
    """
    shifted = _translate_values(z, np.asarray(shifts, dtype=float).reshape(-1))
    w = z.quad_weights()
    stack = _profile_stack(values, z)
    k = stack.shape[0]
    # a block of profiles at a time, through one difference and one row
    # buffer of at most MISFIT_BLOCK translates (one profile's, if it has
    # more shifts): the (k, shifts, m, n) difference is too large.  np.sum
    # reduces each row alone, so the blocking leaves every misfit's bits.
    rows = max(1, MISFIT_BLOCK // max(1, shifted.shape[0]))
    diff = np.empty((min(rows, k),) + shifted.shape)
    total = np.empty(diff.shape[:-1])
    misfits = np.empty((k, shifted.shape[0]))
    for lo in range(0, k, rows):
        block = stack[lo:lo + rows, None]
        d = np.subtract(block, shifted, out=diff[:block.shape[0]])
        misfits[lo:lo + rows] = _weighted_dot(w, d, d, prod=d, total=total[:block.shape[0]])
    return misfits


def translation_objective(values, z: GridFunction, shifts):
    """Squared L2 misfit against a translate and its two m-derivatives.

    F(m) = |v - z(. - m)|^2, F'(m) = 2 (z'(. - m), v - z(. - m)),
    F''(m) = 2 |z'(. - m)|^2 - 2 (z''(. - m), v - z(. - m)).
    Profile i of the stack ``values`` (reshapeable to (k, m, n), on z's
    grid) is taken at shift ``shifts[i]``; returns (F, F', F''), each of
    shape (k,).
    """
    v = _profile_stack(values, z)
    shifts = np.asarray(shifts, dtype=float).reshape(-1)
    w = z.quad_weights()
    x = (z.s[None, :] - shifts[:, None]).ravel()
    zero = np.zeros(z.n_components)
    diff = v - _translate_values(z, shifts)
    dzm = interp_columns(x, z.s, z.derivative(), left=zero, right=zero).reshape(v.shape)
    ddzm = interp_columns(x, z.s, z.second_difference(), left=zero, right=zero).reshape(v.shape)
    F = _weighted_dot(w, diff, diff)
    dF = 2.0 * _weighted_dot(w, dzm, diff)
    d2F = 2.0 * _weighted_dot(w, dzm, dzm) - 2.0 * _weighted_dot(w, ddzm, diff)
    return F, dF, d2F


# The Gram screen's rounding bound E = SCREEN_BOUND (N + 8) eps (sqrt a +
# sqrt c)^2 between G = a - 2 x + c and the exact kernel's computed misfit V^,
# where a = |v|^2, c = |z_m|^2 and x = (v, z_m), weighted, are dot products of
# N = m n terms.  With u = eps / 2 and gamma_j = j u / (1 - j u), any order of
# summation (a BLAS one too, whatever its thread count) gives a and c to
# gamma_(N+1) relative and x to gamma_(N+1) sqrt(a c) (Cauchy-Schwarz), and
# the two roundings of G add gamma_2 (a + 2 |x| + c): |G - V| <= gamma_(N+4)
# (sqrt a + sqrt c)^2.  The exact kernel sums nonnegative terms after at most
# N + 3 roundings each, and V <= (sqrt a + sqrt c)^2, so |V^ - V| <=
# gamma_(N+3) (sqrt a + sqrt c)^2.  Together that is below (N + 8) eps (sqrt a
# + sqrt c)^2; the factor 2 covers the rounding of a, c, E and G -/+ E
# themselves, all relative errors near N u.  The subnormal term covers the
# absolute error of products that underflow, at most 2^-1075 for each of
# fewer than 8 (N + 8) products.
SCREEN_BOUND = 2.0


def _screened_scan(stack: np.ndarray, z: GridFunction, m_grid: np.ndarray):
    """Row argmins of translation_misfits(stack, z, m_grid), from few exact
    misfits.

    The Gram form G = a - 2 x + c of every misfit takes one matmul for the
    whole scan; it is within E (SCREEN_BOUND) of the exact kernel's bits.  A
    shift whose G - E exceeds its row's least G + E is strictly worse than
    that row's best, so the exact kernel runs only on the other shifts,
    grouped by shift, and np.argmin over those finds the first minimum of
    the whole exact row.  Rows whose screen or candidate misfits are not all
    finite are scanned exactly in full.
    """
    k, n_shifts, n_terms = stack.shape[0], m_grid.size, z.m * z.n_components
    shifted = _translate_values(z, m_grid)
    w = z.quad_weights()
    # w folded into the profiles: one weighted copy, freed before the exact pass
    weighted = (stack * component_weights(w, z.n_components)).reshape(k, n_terms)
    gram = weighted @ shifted.reshape(n_shifts, n_terms).T
    a = np.einsum("ij,ij->i", weighted, stack.reshape(k, n_terms))
    del weighted
    c = np.einsum("smc,m,smc->s", shifted, w, shifted)
    del shifted
    gram *= -2.0
    gram += a[:, None]
    gram += c
    root = np.sqrt(a)[:, None] + np.sqrt(c)
    tiny = 4.0 * np.finfo(float).smallest_subnormal
    bound = SCREEN_BOUND * (n_terms + 8) * (np.finfo(float).eps * root * root + tiny)
    lower = gram - bound
    upper = np.add(gram, bound, out=gram)
    settled = np.all(np.isfinite(lower) & np.isfinite(upper), axis=1)
    cand = (lower <= np.min(upper, axis=1, keepdims=True)) & settled[:, None]
    exact = np.full((k, n_shifts), np.inf)
    for j in np.flatnonzero(np.any(cand, axis=0)):
        rows = np.flatnonzero(cand[:, j])
        exact[rows, j] = translation_misfits(stack[rows], z, m_grid[j:j + 1])[:, 0]
    settled &= np.all(np.isfinite(exact) | ~cand, axis=1)
    doubt = np.flatnonzero(~settled)
    if doubt.size:
        exact[doubt] = translation_misfits(stack[doubt], z, m_grid)
    return np.argmin(exact, axis=1)


def _scan_and_polish(values: np.ndarray, z: GridFunction, m_grid: np.ndarray,
                     newton_iters: int = 12):
    """Best shift of template z for every profile of a (k, m, n) stack.

    Scan the shift grid (``_screened_scan``), then clipped Newton steps on
    every profile whose curvature is positive and whose step is still above
    1e-14, all such profiles together; a profile's misfit is its last
    Newton evaluation unless its last step moved it.  Returns (shifts,
    misfits), each (k,).
    """
    m = m_grid[_screened_scan(values, z, m_grid)]
    halfstep = float(m_grid[1] - m_grid[0])
    F = np.empty(m.size)
    live = np.ones(m.size, dtype=bool)
    for _ in range(newton_iters):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        F[idx], dF, d2F = translation_objective(values[idx], z, m[idx])
        go = ~(d2F <= 0.0)
        step = np.divide(-dF, d2F, out=np.zeros_like(dF), where=go)
        step = np.clip(step, -2.0 * halfstep, 2.0 * halfstep)
        go &= ~(np.abs(step) < 1e-14)
        m[idx[go]] += step[go]
        live[idx[~go]] = False
    idx = np.flatnonzero(live)
    if idx.size:
        F[idx] = translation_objective(values[idx], z, m[idx])[0]
    return m, F


def optimal_translation(
    values,
    z_minus: GridFunction,
    z_plus: GridFunction,
    m_max: float,
    n_scan: int,
) -> np.ndarray:
    """Best shift of either template in L2 for every profile of a stack, (k,).

    ``values`` is reshapeable to (k, m, n) on the templates' grid; a single
    profile is a stack of one.  Coarse scan of ``n_scan`` shifts over
    [-m_max, m_max] plus Newton, each template's scan translates
    interpolated once for the whole stack; each profile takes the shift of
    the template it fits better, the first on a tie.  The shifts have the
    bits of the exhaustive scan: the Gram screen only decides where exact
    misfits are needed.
    """
    v = _profile_stack(values, z_minus)
    m_grid = np.linspace(-m_max, m_max, n_scan)
    m_m, f_m = _scan_and_polish(v, z_minus, m_grid)
    m_p, f_p = _scan_and_polish(v, z_plus, m_grid)
    return np.where(f_m <= f_p, m_m, m_p)


def gauge_fix_translations(nodes: list[GridFunction],
                           keff: Callable[[np.ndarray], np.ndarray] | None = None):
    """Remove translation drift along a path of profiles, pair by pair.

    Each node is shifted to minimize the L2 gap to its already-fixed
    predecessor (scan around the previous shift plus Newton).  A shift is
    kept only if it does not increase the local weighted-length
    contribution, so the path's weighted length never increases.  ``keff``
    maps flattened profiles, shape (k, m*n), to their weights, shape (k,);
    each node's midpoints go to it in one call.  Without it the plain L2
    gap to the predecessor decides.  Returns (new nodes, cumulative shifts).
    """
    fixed = [nodes[0]]
    shifts = [0.0]
    h = nodes[0].h
    for i in range(1, len(nodes)):
        z = nodes[i]
        prev = fixed[-1]
        local = np.linspace(-10 * h, 10 * h, 41) + shifts[-1]
        m = float(_scan_and_polish(prev.values[None], z, local)[0][0])
        candidate = z.translate(m)
        if keff is not None:
            # segments to the neighbours, before and after the shift
            nbrs = [prev] + nodes[i + 1:i + 2]
            pairs = [(z, b) for b in nbrs] + [(candidate, b) for b in nbrs]
            mids = np.stack([0.5 * (a.values + b.values) for a, b in pairs])
            gaps = np.array([a.distance_l2(b) for a, b in pairs])
            old, new = (keff(mids.reshape(len(pairs), -1)) * gaps).reshape(2, -1).sum(axis=1)
            if new > old + 1e-12:
                candidate, m = z, 0.0
        else:
            if prev.distance_l2(candidate) > prev.distance_l2(z) + 1e-12:
                candidate, m = z, 0.0
        fixed.append(candidate)
        shifts.append(m)
    return fixed, np.asarray(shifts)


# ---------------------------------------------------------------------------
# Effective potential spaces


@dataclass
class EffectivePotentialSpace:
    """1D action as a potential on profile space.

    Wells mode: the density is a pointwise potential W and the reference is
    the well-to-well weighted distance, so minimal connections sit at
    effective potential zero.  Density mode: an explicit position-dependent
    density (already normalized to minimum zero) with reference adjustments
    from the discrete well solves.  The induced geodesic weight is
    sqrt(2 max(effective potential, 0)); reparametrizing optimal profile
    paths to its equipartition makes the assembled 2D field satisfy the
    Euler-Lagrange system of the summed energy.

    Profiles are evaluated in stacks: ``energy_1d`` and its gradient take
    values reshapeable to (k, m, n) and return shapes (k,) and (k, m, n).
    An explicit ``density(grid, stack)`` must return (k, m),
    ``density_grad(grid, stack)`` (k, m, n) and ``density_hess(grid, stack)``
    (k, m, n, n) for a (k, m, n) stack; in potential mode the same three come
    from one ``values_at``, ``gradients_at`` or ``hessians_at`` call on all
    k*m nodes.  ``density_hess`` is read only by ``energy_1d_hessp``.

    ``h`` is the grid step, grid[1] - grid[0] (a half's is its whole's).
    ``x1_parity`` (n,), a fact of the fixture, gives each component's
    reflection about the grid's centre (-1 odd, +1 even); ``half`` is then
    the space of the rows from the centre on.
    """

    grid: np.ndarray
    n_components: int
    bc: str
    potential: Potential | None = None
    density: Callable | None = None
    density_grad: Callable | None = None
    density_hess: Callable | None = None
    tail_left: np.ndarray | None = None
    tail_right: np.ndarray | None = None
    ref_value: float = 0.0
    x1_parity: np.ndarray | None = None
    z_minus: GridFunction | None = None
    z_plus: GridFunction | None = None
    h: float = field(init=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.h = float(self.grid[1] - self.grid[0])
        if self.potential is None and self.density is None:
            raise ValueError("need a pointwise potential or an explicit density")
        if self.x1_parity is not None:
            self.x1_parity = np.asarray(self.x1_parity, dtype=float)
            if self.x1_parity.shape != (self.n_components,) or not np.all(
                np.abs(self.x1_parity) == 1.0
            ):
                raise ValueError("x1_parity needs one sign +-1 per component")
            if not np.allclose(
                self.grid + self.grid[::-1], self.grid[0] + self.grid[-1],
                atol=1e-9 * max(1.0, float(np.max(np.abs(self.grid)))),
            ):
                raise ValueError("x1 parity needs a grid mirrored about its centre")

    @property
    def m(self) -> int:
        return self.grid.size

    def half(self) -> "EffectivePotentialSpace":
        """The rows from the centre on of an odd grid with an ``x1_parity``,
        as a space of its own with no parity: actions there are half the
        mirrored profile's (the centre row has half its trapezoid weight),
        and so is the reference; ``h`` is kept, so a row's arithmetic is the
        whole's."""
        if self.x1_parity is None or self.m % 2 == 0:
            raise ValueError("only an odd grid with an x1 parity has a centre row")
        half = replace(self, grid=self.grid[self.m // 2:], ref_value=0.5 * self.ref_value,
                       x1_parity=None, z_minus=None, z_plus=None)
        half.h = self.h
        return half

    def grid_function(self, values: np.ndarray) -> GridFunction:
        return GridFunction(
            s=self.grid,
            values=np.asarray(values, dtype=float).reshape(self.m, self.n_components),
            bc=self.bc,
            tail_left=self.tail_left,
            tail_right=self.tail_right,
        )

    def ambient(self) -> GridL2Space:
        return GridL2Space(self.m, self.n_components, self.h)

    def _stack(self, values: np.ndarray) -> np.ndarray:
        # C order fixes the summation order, so a profile gives the same bits
        # alone as inside any stack
        return np.ascontiguousarray(values, dtype=float).reshape(-1, self.m, self.n_components)

    def _density_values(self, stack: np.ndarray) -> np.ndarray:
        """Density at every node of a (k, m, n) stack, shape (k, m)."""
        if self.potential is not None:
            flat = stack.reshape(-1, self.n_components)
            return self.potential.values_at(flat).reshape(stack.shape[:2])
        return np.asarray(self.density(self.grid, stack), dtype=float)

    def _density_grads(self, stack: np.ndarray) -> np.ndarray:
        """Density gradient at every node of a (k, m, n) stack, same shape."""
        if self.potential is not None:
            flat = stack.reshape(-1, self.n_components)
            return self.potential.gradients_at(flat).reshape(stack.shape)
        return np.asarray(self.density_grad(self.grid, stack), dtype=float)

    def _density_hessians(self, stack: np.ndarray) -> np.ndarray:
        """Density Hessian at every node of a (k, m, n) stack, shape (k, m, n, n)."""
        if self.potential is not None:
            flat = stack.reshape(-1, self.n_components)
            return self.potential.hessians_at(flat).reshape(stack.shape + (self.n_components,))
        if self.density_hess is None:
            raise ValueError("the explicit density carries no density_hess")
        return np.asarray(self.density_hess(self.grid, stack), dtype=float)

    def energy_1d(self, values: np.ndarray) -> np.ndarray:
        """Discrete 1D action: exact polyline kinetic term plus trapezoid density.

        ``values`` is a stack of profiles reshapeable to (k, m, n); returns
        one action per profile, shape (k,).  A single profile is a stack of
        one.
        """
        v = self._stack(values)
        h = self.h
        dv = v[:, 1:] - v[:, :-1]
        kinetic = 0.5 * np.sum(dv * dv, axis=(1, 2)) / h
        potential = np.sum(trapezoid_weights(self.m, h) * self._density_values(v), axis=1)
        return kinetic + potential

    def energy_1d_grad(self, values: np.ndarray) -> np.ndarray:
        """Coordinate gradient of energy_1d on every row, shape (k, m, n)."""
        v = self._stack(values)
        h = self.h
        dv = v[:, 1:] - v[:, :-1]
        dv /= h
        w = component_weights(trapezoid_weights(self.m, h), self.n_components)
        grad = w * self._density_grads(v)
        # rows dv_(i-1) - dv_i + w_i grad W_i, with dv_(-1) = dv_(m-1) = 0; the
        # + 0.0 turns a -0 difference into +0, as accumulating both terms
        # into zeros does
        inner = dv[:, :-1] - dv[:, 1:]
        inner += 0.0
        inner += grad[:, 1:-1]
        grad[:, 1:-1] = inner
        grad[:, 0] += 0.0 - dv[:, 0]
        grad[:, -1] += dv[:, -1] + 0.0
        return grad

    def l2_norms(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid L2 norm of every profile of a stack (k, m, n), shape (k,).

        The reduction of ``GridFunction.distance_l2`` (``_weighted_dot``:
        the components added left to right, one plane at a time), so a
        profile gives the same bits here as there.
        """
        v = self._stack(values)
        return np.sqrt(_weighted_dot(trapezoid_weights(self.m, self.h), v, v))

    def effective_potential(self, values: np.ndarray) -> np.ndarray:
        """1D action minus the reference distance (zero on minimal connections), shape (k,)."""
        return self.energy_1d(values) - self.ref_value

    def energy_1d_hessp(self, values: np.ndarray, scale: np.ndarray | None = None):
        """Hessian of ``energy_1d`` at a profile (m, n), or of the sum of
        scale_k * energy_1d(v_k) at a stack (k, m, n) (``scale`` (k,): the
        x2 trapezoid weights), as a function of a direction shaped alike.

        D^2(density) times w1 (scale ⊗ w1 on a stack) is held as n^2
        contiguous planes; a product is arithmetic on them, to the bits of
        np.einsum("...mij,...mj->...mi", weighted block, d), plus the x1 flux
        stencil times scale / h.  ``diag``, shaped like ``values``, holds
        B_cc = D^2(density)_cc for the callers' preconditioner shifts; a
        view, it keeps the block alive until it is dropped.
        """
        n = self.n_components
        hess = self._density_hessians(self._stack(values)).reshape(np.shape(values) + (n,))
        weight, flux_scale = trapezoid_weights(self.m, self.h), 1.0 / self.h
        if scale is not None:
            weight, flux_scale = scale[:, None] * weight, scale[:, None, None] / self.h
        planes = [[hess[..., i, j] * weight for j in range(n)] for i in range(n)]

        def hessp(d):
            out = np.empty(d.shape)
            term = np.empty(d.shape[:-1])
            for i, row in enumerate(planes):
                # the einsum's sum: from +0.0, the components left to right
                o = np.multiply(row[0], d[..., 0], out=out[..., i])
                o += 0.0
                for j in range(1, n):
                    o += np.multiply(row[j], d[..., j], out=term)
            del term
            flux = np.diff(d, axis=-2)
            flux *= flux_scale
            out[..., :-1, :] -= flux
            out[..., 1:, :] += flux
            return out

        hessp.diag = np.einsum("...cc->...c", hess)
        return hessp

    def relax_profile(self, values: np.ndarray, gtol: float = 1e-10):
        """Minimize the 1D action from a seed profile (edges stay pinned).

        Used to turn sampled connection guesses into discrete minimizers;
        returns (values, energy).  The pinned Newton-CG on ``energy_1d``,
        preconditioned by the shifted fast Poisson solve of
        ``poisson_preconditioner`` along x1, each Newton step's shift
        max(0, mean of B_cc (``energy_1d_hessp``'s ``diag``) over the whole
        profile's free rows); RuntimeError unless it converges to ``gtol``.
        An odd grid with an ``x1_parity`` is relaxed on its ``half``, folded
        (``fold``), and mirrored bit for bit.
        """
        values = np.asarray(values, dtype=float).reshape(self.m, self.n_components)
        space, parity = self, None
        if self.x1_parity is not None and self.m % 2:
            space, parity = self.half(), self.x1_parity
            values = cut_half(values, parity)
        poisson = poisson_preconditioner(values.shape, self.h, parities=(parity,))

        def precond(hessp):
            # the whole profile's free rows: a half's centre once, its others twice
            diag, m = hessp.diag, space.m
            mean = (np.einsum("mc->c", diag[1:-1]) / (m - 2) if parity is None
                    else (diag[0] + 2.0 * np.sum(diag[1:-1], axis=0)) / (2 * m - 3))
            return poisson(np.maximum(mean, 0.0))

        out, info = pinned_newton_cg(
            lambda v: (space.energy_1d(v)[0], space.energy_1d_grad(v)[0]),
            space.energy_1d_hessp, values, (parity,), gtol=gtol, max_steps=RELAX_STEPS,
            precond=precond,
        )
        if info.status != "converged":
            raise RuntimeError(
                f"profile relaxation {info.status} after {info.steps} Newton steps: "
                f"max free gradient {info.gmax:.3g} (tolerance {gtol:g})"
            )
        if parity is None:
            return out, info.value
        out = mirror_half(out, parity)
        return out, float(self.energy_1d(out)[0])


def mirror_half(half: np.ndarray, signs: np.ndarray, axis: int = 0) -> np.ndarray:
    """``half``, from the centre on along ``axis``, after its mirror:
    whole[c - j] = signs * whole[c + j] bit for bit (``signs`` (n,))."""
    reflected = signed_flip(half[(slice(None),) * axis + (slice(1, None),)], signs, axis)
    # a negated +0.0 is -0.0; + 0.0 makes it +0.0, as 0.0 - x gives it
    reflected += 0.0
    return np.concatenate([reflected, half], axis=axis)


def cut_half(whole: np.ndarray, signs: np.ndarray, axis: int = 0) -> np.ndarray:
    """The inverse of ``mirror_half``: a copy of ``whole`` from the centre
    node on along ``axis``, an odd axis, with the odd (-1) components of
    ``signs`` (n,) zero on the centre line."""
    centre = whole.shape[axis] // 2
    half = whole[(slice(None),) * axis + (slice(centre, None),)].copy()
    half[(slice(None),) * axis + (0, ..., np.asarray(signs) < 0)] = 0.0
    return half


class Fold(NamedTuple):
    pinned: np.ndarray    # bool, the array's shape: the entries held fixed
    gscale: np.ndarray    # broadcasts to it: 2 on each centre line
    weights: np.ndarray   # broadcasts to it: the whole problem's norm weight


def fold(shape, parities) -> Fold:
    """The one fold rule: what a Newton-CG on an array (*grid, n) pins and
    how it measures.  ``parities`` holds one entry per grid axis: None, or
    the signs (n,) of each component's reflection (-1 odd, +1 even) about
    the axis's first node, for an axis folded to the nodes from its centre on.

    Both ends of every axis are pinned, except a folded axis's first node,
    its centre, where only the odd components are.  The whole problem's
    energy is twice the folded one's (whose centre line has half its
    trapezoid weight), so its gradient is the folded one times ``gscale``,
    2 on each centre line; a node off that line stands for two of the
    whole's, so the whole's Euclidean norm is sqrt(sum weights g^2),
    ``weights`` the product of 2 ``gscale`` over the folded axes.
    """
    pinned = np.zeros(shape, dtype=bool)
    gscale = weights = np.ones((1,) * len(shape))
    for axis, signs in enumerate(parities):
        line = (slice(None),) * axis
        pinned[line + (-1,)] = True
        pinned[line + (0,)] |= True if signs is None else np.asarray(signs) < 0
        if signs is not None:
            scale = np.ones((shape[axis],) + (1,) * (len(shape) - axis - 1))
            scale[0] = 2.0
            gscale, weights = gscale * scale, weights * (2.0 * scale)
    return Fold(pinned, gscale, weights)


# Newton steps of a profile relaxation before it reports max_iters, and the
# most CG products per Newton step
RELAX_STEPS = 50
CG_MAXITER = 2000
# Armijo backtracking of a Newton step: the sufficient-decrease constant, the
# step shrink factor and the most shrinks before the Newton-CG stalls
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
# the relative rise of the value within which a step is judged by its slope
FLAT = 1e-12


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean inner product of two arrays of one shape.

    Not np.vdot: BLAS splits long dot products across its threads, so their
    bits, and with them every Newton-CG iterate, would depend on the thread
    count.
    """
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def poisson_preconditioner(shape, *steps, parities=None):
    """The shifted Dirichlet Poisson solves that precondition the Newton-CGs.

    For a profile of ``shape`` (M, n) on step h, returns a function of the
    per-component shifts sigma (n,) that gives the solve r -> P^-1 r with
    P_c = h (L + sigma_c); for a field (P, M, n), a stack of x2 columns, on
    steps dt (x2) and h (x1), a function of the Hessian's per-row shifts
    sigma (M, n), read on the sweep's rows, with
    P_c = h * dt * (L + sigma_c(x1)).  L is the Dirichlet Laplacian on the
    free interior grid, the stencil part of the Hessian there.  A DST-I
    along the first grid axis diagonalises its part of L, with eigenvalues
    (4/dt^2) sin^2(pi k / 2(P-1)) (Buzbee, Golub and Nielson's fast Poisson
    solver).  A profile's solve is then a division; a field's is, for each
    x2 mode k and component c, the tridiagonal system of L along x1 plus
    sigma_c(x1) plus that eigenvalue, solved exactly by Thomas' algorithm,
    vectorised over the (k, c) columns, on a factor built once per shift.

    ``parities`` folds the axes as ``fold`` reads it.  On a folded DST axis
    (a field's x2, a profile's x1) an odd component is pinned at the centre
    (Dirichlet) and an even one free (Neumann), solved as
    2 D^-1 E^T P_w^-1 E D^-1 with E the even extension to the whole axis'
    2P - 1 nodes, P_w its solve and D = E^T E; only the P - 1 odd modes of
    P_w meet E.  On a folded x1 the sweep starts at the centre row: there
    an even component's band is the mirror's, diagonal
    (2/h^2 + sigma_c + lam_k) / 2 and off-diagonal -1/h^2, and an odd one's
    diagonal is infinite, which leaves the other rows' sweeps bit for bit.
    One Thomas sweep runs over the mode columns of all components.

    P commutes with the pins, and with the reflections where sigma is even
    in them.  A solve reads r on the free nodes only and returns a new
    array, zero on the pins.  The solves at one shift share their transform
    buffers, so they must not run concurrently.
    """
    *grid, n = shape
    # the DST axis' parity and a field's x1 parity
    parity, sweep_parity = (tuple(parities or ()) + (None, None))[:2]
    nodes = grid[0]
    lam = (2.0 / steps[0] * np.sin(0.5 * math.pi * np.arange(1, nodes - 1) / (nodes - 1))) ** 2
    # DST-I squares to (nodes - 1) / 2
    scale = 2.0 / ((nodes - 1) * math.prod(steps))
    # the first x1 row of a field's sweep, and its row count
    lo = 1 if sweep_parity is None else 0
    rows = grid[1] - 1 - lo if len(grid) == 2 else 1
    even = [parity is not None and parity[c] > 0 for c in range(n)]
    if any(even):
        # the whole axis' 2P - 1 nodes; P - 1 is their centre
        whole = 2 * nodes - 1
        lam_whole = (2.0 / steps[0] * np.sin(
            0.5 * math.pi * np.arange(1, whole - 1, 2) / (whole - 1))) ** 2

    def transform(length):
        """(dst, pad): dst(x), the DST-I on ``length`` nodes of the rows of
        x, negated, is the imaginary part of the rfft of the real buffer
        ``pad`` (x in its columns 1..length-2, zero elsewhere), a view of a
        complex buffer; dst() transforms what ``pad`` holds.  The signs of a
        pair of transforms cancel."""
        pad = np.zeros((rows, 2 * (length - 1)))
        spec = np.empty((rows, length), dtype=complex)

        def dst(x=None):
            if x is not None:
                pad[:, 1:length - 1] = x
            return np.fft.rfft(pad, out=spec)[:, 1:-1].imag

        return dst, pad

    def at(shift):
        dst, _ = transform(nodes)
        if any(even):
            dst_whole, pad_whole = transform(whole)

            def even_modes(x):
                # the odd whole-axis modes of E D^-1 x, x each row's values
                # from the centre on: the centre, then the rest halved and
                # mirrored about it
                pad_whole[:, nodes - 1:whole - 1] = x
                pad_whole[:, nodes:whole - 1] *= 0.5
                pad_whole[:, 1:nodes - 1] = pad_whole[:, whole - 2:nodes - 1:-1]
                return dst_whole()[:, ::2]

            def even_values(modes):
                # the odd modes alone, back on the nodes from the centre on
                pad_whole[:, 1:whole - 1] = 0.0
                pad_whole[:, 1:whole - 1:2] = modes
                return dst_whole()[:, nodes - 2:]

        if len(grid) == 1:
            inv = [np.divide(scale, (lam_whole if even[c] else lam) + shift[c])
                   for c in range(n)]

            def psolve(r):
                out = np.zeros(shape)
                for c in range(n):
                    if even[c]:
                        x = even_modes(r[:-1, c])
                        x *= inv[c]
                        out[:-1, c] = even_values(x)[0]
                    else:
                        x = dst(r[1:-1, c])
                        np.multiply(x, inv[c], out=x)
                        out[1:-1, c] = dst(x)[0]
                return out

            return psolve

        # each component's (first mode column, mode count) in the sweep
        blocks, width = [], 0
        for c in range(n):
            modes = nodes - 1 if even[c] else nodes - 2
            blocks.append((width, modes))
            width += modes

        # Thomas' algorithm on L + sigma + lam_k along x1, with diagonal
        # a_i = 2 / h^2 + sigma_c(x1_i) + lam_k and off-diagonal -1 / h^2:
        # the reciprocal pivots 1 / (a_i - 1 / (h^4 (pivot i-1))), then the
        # multipliers cp = -(reciprocal pivot) / h^2 in their place
        off = steps[1] ** -2
        shift = np.asarray(shift)[lo:-1]
        cp = np.empty((rows, width))
        for c, (first, modes) in enumerate(blocks):
            band = cp[:, first:first + modes]
            np.add(shift[:, c:c + 1], (lam_whole if even[c] else lam) + 2.0 * off, out=band)
            if sweep_parity is not None:
                band[0] = 0.5 * band[0] if sweep_parity[c] > 0 else math.inf
        # row views made once: indexing cp in the loops costs as much as
        # the arithmetic on a row
        cps = list(cp)
        row = np.empty(width)
        np.reciprocal(cps[0], out=cps[0])
        for prev, cur in zip(cps, cps[1:]):
            cur -= np.multiply(prev, off * off, out=row)
            np.reciprocal(cur, out=cur)
        cp *= -off
        # the sweeps divide by the pivots as a product with cp; this
        # restores the factor -1 / h^2 and the DST's square (for an even
        # component, 2 (whole - 1) = 4 (nodes - 1) halves that square
        # and the factor 2 of its map back doubles it again)
        gain = -scale / off

        def psolve(r):
            # x1-major (x1 row, mode column) for the sweeps; made per solve,
            # so that it is gone during the Hessian products
            free = np.empty(cp.shape)
            for c, (first, modes) in enumerate(blocks):
                cols = free[:, first:first + modes]
                if even[c]:
                    cols[...] = even_modes(r[:-1, lo:-1, c].T)
                else:
                    cols[...] = dst(r[1:-1, lo:-1, c].T)
            free *= cp
            # elimination down x1, then back substitution up it, in place,
            # one row of mode columns at a time (a list of free's row views
            # raised sin's peak RSS by half a MiB)
            prev = free[0]
            for i in range(1, rows):
                cur = free[i]
                cur -= np.multiply(cps[i], prev, out=row)
                prev = cur
            for i in range(rows - 2, -1, -1):
                cur = free[i]
                cur -= np.multiply(cps[i], prev, out=row)
                prev = cur
            out = np.zeros(shape)
            for c, (first, modes) in enumerate(blocks):
                cols = free[:, first:first + modes]
                if even[c]:
                    x = even_values(cols)
                    x *= gain
                    out[:-1, lo:-1, c] = x.T
                else:
                    # scaled in place, then copied: a product written
                    # straight into the transposed columns took five times
                    # longer
                    x = dst(cols)
                    x *= gain
                    out[1:-1, lo:-1, c] = x.T
            return out

        return psolve

    return at


class NewtonResult(NamedTuple):
    steps: int
    gmax: float           # max-norm of the (scaled) free gradient at the returned point
    status: str           # "converged", "max_iters" or "stalled"
    products: int         # CG Hessian-vector products, summed over the steps
    value: float          # fun at the returned point


def truncated_cg(hessp, g, tol, psolve=None, weights=None):
    """Inexact Newton direction: CG on H p = -g from p = 0 (Nocedal-Wright Alg. 7.1).

    ``psolve``, if given, applies M^-1 for a symmetric positive definite
    preconditioner M, and the recursion is then Alg. 5.3's preconditioned
    CG; without it M is the identity.  Stops once the residual norm
    |H p + g|, weighted as sqrt(sum weights r^2) if ``weights`` is given,
    is at most ``tol`` or after ``CG_MAXITER`` products.  On a
    direction of nonpositive curvature it stops at once and returns the
    iterate so far, or the first direction -M^-1 g if there is none yet.
    Every returned step is a descent direction.  Returns (step, negative
    curvature met, products).
    """
    if psolve is None:
        def psolve(r):
            return r

    z = np.zeros_like(g)
    r = g.copy()
    d = -psolve(r)
    ry = -_dot(r, d)
    for j in range(CG_MAXITER):
        bd = hessp(d)
        curv = _dot(d, bd)
        if curv <= 0.0:
            return (d if j == 0 else z), True, j + 1
        alpha = ry / curv
        z += alpha * d
        r += alpha * bd
        # H d is spent; free it before the solve and the next product
        del bd
        if math.sqrt(_dot(r, r if weights is None else weights * r)) <= tol:
            return z, False, j + 1
        y = psolve(r)
        ry_next = _dot(r, y)
        d *= ry_next / ry
        d -= y
        # M^-1 r is spent; free it before the next product
        del y
        ry = ry_next
    return z, False, CG_MAXITER


def pinned_newton_cg(fun, hessp_at, x0, parities, *, gtol, max_steps, precond=None):
    """Truncated Newton-CG on ``fun`` with the pinned entries of ``x0`` held fixed.

    ``fun`` maps an array shaped like ``x0`` to (value, gradient of that
    shape), and ``hessp_at(x)`` returns the Hessian-vector product at x as a
    function of a direction; it is called once per Newton step.  ``fold``
    of ``parities``, one entry per grid axis of ``x0`` (*grid, n), gives
    the pins, on which gradients, Hessian products and steps are zeroed, so
    iterates keep the pinned values.  ``precond``, if given, maps the
    step's product (what ``hessp_at`` returned) to the solve r -> M^-1 r of
    a symmetric positive definite M that commutes with the pins; the CG is
    then preconditioned by it (see ``truncated_cg``).  The CG forcing term
    is min(0.5, sqrt |g|), and Armijo backtracking guards each step (within
    ``FLAT`` |value|, where rounding hides a decrease, Hager and Zhang's
    approximate Wolfe test on the slope); |g| and the CG's stop read the
    whole problem's norm (``fold``'s weights).  Stops when the max-norm of
    the whole problem's free gradient (times ``fold``'s gscale) is at most
    ``gtol``, after ``max_steps`` steps, or when backtracking finds no
    decrease.  Returns (minimizer, NewtonResult).
    """
    pinned, gscale, weights = fold(np.shape(x0), parities)

    def reduce(v):
        # zeroed in place on the pins
        v[pinned] = 0.0
        return v

    x = np.asarray(x0, dtype=float).copy()
    e, g = fun(x)
    g = reduce(g)
    steps = products = 0
    while True:
        gmax = float(np.max(np.abs(gscale * g)))
        if gmax <= gtol:
            status = "converged"
            break
        if steps == max_steps:
            status = "max_iters"
            break
        gnorm = math.sqrt(_dot(g, weights * g))
        hessp = hessp_at(x)
        p, _, used = truncated_cg(
            lambda d: reduce(hessp(d)), g, min(0.5, math.sqrt(gnorm)) * gnorm, weights=weights,
            psolve=None if precond is None else precond(hessp),
        )
        products += used
        p = reduce(p)
        slope = _dot(g, p)
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            x_try = x + t * p
            e_try, g_try = fun(x_try)
            if e_try <= e + ARMIJO * t * slope:
                break
            # within rounding of e the slope still ranks the points
            g_try = reduce(g_try)
            if e_try <= e + FLAT * abs(e) and _dot(g_try, p) <= (2.0 * ARMIJO - 1.0) * slope:
                break
            t *= BACKTRACK
        else:
            status = "stalled"
            break
        x, e, g = x_try, e_try, reduce(g_try)
        steps += 1
        # the step and the product's data can be as large as the iterate;
        # free them before the next step's
        del p, hessp
    return x, NewtonResult(steps, gmax, status, products, float(e))
