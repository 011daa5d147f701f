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
assembled from a path of well profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import math

import numpy as np

from .metric import GridL2Space, WeightedSpace, interp_columns, trapezoid_weights
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

    def flatten(self) -> np.ndarray:
        return self.values.ravel().copy()

    def with_values(self, values: np.ndarray) -> "GridFunction":
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(self.m, self.n_components)
        return replace(self, values=values)

    def quad_weights(self) -> np.ndarray:
        return trapezoid_weights(self.m, self.h)

    def norm_l2(self) -> float:
        w = self.quad_weights()
        return float(np.sqrt(np.sum(w * np.sum(self.values**2, axis=1))))

    def _values_of(self, other: "GridFunction | np.ndarray") -> np.ndarray:
        ov = other.values if isinstance(other, GridFunction) else np.asarray(other)
        return ov.reshape(self.m, self.n_components) if ov.ndim == 1 else ov

    def inner(self, other: "GridFunction | np.ndarray") -> float:
        w = self.quad_weights()
        return float(np.sum(w * np.sum(self.values * self._values_of(other), axis=1)))

    def distance_l2(self, other: "GridFunction | np.ndarray") -> float:
        w = self.quad_weights()
        d = self.values - self._values_of(other)
        return float(np.sqrt(np.sum(w * np.sum(d * d, axis=1))))

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


def _weighted_dot(w: np.ndarray, a: np.ndarray, b: np.ndarray,
                  prod: np.ndarray | None = None,
                  total: np.ndarray | None = None) -> np.ndarray:
    """sum_j w_j sum_c a[..., j, c] b[..., j, c] over the last two axes.

    The components are added left to right, as np.sum adds fewer than eight
    terms, so a misfit keeps the bits of GridFunction.distance_l2 squared;
    np.sum over so short an axis is several times slower than this loop.
    ``prod`` (a's shape, and it may be a) and ``total`` (a's shape without
    the last axis) are optional buffers for the products and their sum.
    """
    prod = np.multiply(a, b, out=prod)
    if total is None:
        total = prod[..., 0].copy()
    else:
        np.copyto(total, prod[..., 0])
    for c in range(1, prod.shape[-1]):
        np.add(total, prod[..., c], out=total)
    np.multiply(w, total, out=total)
    return np.sum(total, axis=-1)


def translation_misfits(values, z: GridFunction, shifts) -> np.ndarray:
    """Squared L2 misfits |v - z(. - m)|^2, shape (k, len(shifts)).

    ``values`` is a stack of profiles on z's grid, reshapeable to (k, m, n);
    row i holds the misfits of profile i against every shift m.  The
    translates are interpolated once for the whole stack.
    """
    shifted = _translate_values(z, np.asarray(shifts, dtype=float).reshape(-1))
    w = z.quad_weights()
    stack = _profile_stack(values, z)
    # one profile at a time, through one difference and one row buffer: the
    # (k, shifts, m, n) difference is too large
    diff = np.empty_like(shifted)
    total = np.empty(shifted.shape[:-1])
    misfits = np.empty((stack.shape[0], shifted.shape[0]))
    for i, v in enumerate(stack):
        np.subtract(v, shifted, out=diff)
        misfits[i] = _weighted_dot(w, diff, diff, prod=diff, total=total)
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


class TranslationFit(NamedTuple):
    """Per-profile fits of a stack; every field has shape (k,)."""

    shift: np.ndarray
    which: np.ndarray     # -1 for the first template, +1 for the second
    misfit: np.ndarray    # squared L2 distance at the optimum
    unique: np.ndarray


def _scan_and_polish(values: np.ndarray, z: GridFunction, m_grid: np.ndarray,
                     newton_iters: int = 12):
    """Best shift of template z for every profile of a (k, m, n) stack.

    Scan the shift grid, then clipped Newton steps on every profile whose
    curvature is positive and whose step is still above 1e-14, all such
    profiles together.  Returns (shifts, misfits, second-best interior scan
    minimum at least two grid steps away), each of shape (k,).
    """
    vals = translation_misfits(values, z, m_grid)
    i = np.argmin(vals, axis=1)
    m = m_grid[i]
    halfstep = float(m_grid[1] - m_grid[0])
    live = np.ones(m.size, dtype=bool)
    for _ in range(newton_iters):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        _, dF, d2F = translation_objective(values[idx], z, m[idx])
        go = ~(d2F <= 0.0)
        step = np.divide(-dF, d2F, out=np.zeros_like(dF), where=go)
        step = np.clip(step, -2.0 * halfstep, 2.0 * halfstep)
        go &= ~(np.abs(step) < 1e-14)
        m[idx[go]] += step[go]
        live[idx[~go]] = False
    F = translation_objective(values, z, m)[0]
    # interior local minima of the scan, for the uniqueness verdict
    inner = vals[:, 1:-1]
    loc = (inner <= vals[:, :-2]) & (inner <= vals[:, 2:])
    far = loc & (np.abs(m_grid[None, 1:-1] - m_grid[i][:, None]) > 2 * halfstep)
    second = np.min(np.where(far, inner, np.inf), axis=1, initial=np.inf)
    return m, F, second


def optimal_translation(
    values,
    z_minus: GridFunction,
    z_plus: GridFunction,
    m_max: float | None = None,
    n_scan: int = 0,
    unique_margin: float = 1e-6,
) -> TranslationFit:
    """Best translate of either template in L2 for every profile of a stack.

    ``values`` is reshapeable to (k, m, n) on the templates' grid; a single
    profile is a stack of one.  Coarse scan plus Newton, each template's
    scan translates interpolated once for the whole stack.  The scan
    bracket defaults to the grid span (the misfit is coercive in the shift,
    growing like the well gap times sqrt |m|, so optima beyond the span are
    not competitive for profiles supported in the window).  ``unique`` is
    False when a second scan minimum comes within ``unique_margin`` of the
    best, or when the two templates tie.
    """
    v = _profile_stack(values, z_minus)
    span = float(z_minus.s[-1] - z_minus.s[0])
    if m_max is None:
        m_max = span
    if n_scan <= 0:
        n_scan = max(2 * z_minus.m + 1, 129)
    m_grid = np.linspace(-m_max, m_max, n_scan)
    m_m, f_m, second_m = _scan_and_polish(v, z_minus, m_grid)
    m_p, f_p, second_p = _scan_and_polish(v, z_plus, m_grid)
    first = f_m <= f_p
    f = np.where(first, f_m, f_p)
    second = np.where(first, np.minimum(second_m, f_p), np.minimum(second_p, f_m))
    return TranslationFit(
        shift=np.where(first, m_m, m_p),
        which=np.where(first, -1, 1),
        misfit=f,
        unique=second - f > unique_margin * np.maximum(1.0, f),
    )


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
    k*m nodes.  ``density_hess`` is needed only by the Newton-CG
    (``relax_profile`` and the field polish).
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
    symmetry: str = "none"
    z_minus: GridFunction | None = None
    z_plus: GridFunction | None = None
    lam: float = 0.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.potential is None and self.density is None:
            raise ValueError("need a pointwise potential or an explicit density")
        if self.symmetry not in ("none", "odd_first"):
            raise ValueError(f"unknown symmetry mode {self.symmetry!r}")
        if self.symmetry == "odd_first" and not np.allclose(
            self.grid, -self.grid[::-1], atol=1e-9 * max(1.0, abs(self.grid[-1]))
        ):
            raise ValueError("odd symmetry needs a grid symmetric about zero")

    @property
    def m(self) -> int:
        return self.grid.size

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])

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
        """Coordinate gradient of energy_1d, shape (k, m, n); edge rows are pinned to zero."""
        v = self._stack(values)
        h = self.h
        dv = v[:, 1:] - v[:, :-1]
        dv /= h
        # trapezoid weight per (node, component): a contiguous (m, n) factor
        # broadcasts over the stack much faster than an (m, 1) column
        row_w = np.repeat(trapezoid_weights(self.m, h), self.n_components)
        grad = row_w.reshape(self.m, self.n_components) * self._density_grads(v)
        # interior rows dv_(i-1) - dv_i + w_i grad W_i; the + 0.0 turns a -0
        # difference into +0, as accumulating both terms into zeros does
        inner = dv[:, :-1] - dv[:, 1:]
        inner += 0.0
        inner += grad[:, 1:-1]
        grad[:, 1:-1] = inner
        grad[:, 0] = 0.0
        grad[:, -1] = 0.0
        return grad

    def l2_norms(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid L2 norm of every profile of a stack (k, m, n), shape (k,).

        The reduction of ``GridFunction.distance_l2``, so a profile gives
        the same bits here as there.
        """
        v = self._stack(values)
        w = trapezoid_weights(self.m, self.h)
        return np.sqrt(np.sum(w * np.sum(v * v, axis=2), axis=1))

    def effective_potential(self, values: np.ndarray) -> np.ndarray:
        """1D action minus the reference distance (zero on minimal connections), shape (k,)."""
        return self.energy_1d(values) - self.ref_value

    def kappa(self, values: np.ndarray) -> np.ndarray:
        """sqrt of the nonnegative part of the effective potential, shape (k,)."""
        return np.sqrt(np.maximum(self.effective_potential(values), 0.0))

    def symmetrize(self, values: np.ndarray) -> np.ndarray:
        """Project onto the odd-first-component subspace (exact reflection).

        Acts on every profile of an array reshapeable to (..., m, n) and
        returns the input's shape.
        """
        values = np.asarray(values, dtype=float)
        v = values.reshape(-1, self.m, self.n_components)
        flipped = v[:, ::-1]
        out = np.empty_like(v)
        out[..., 0] = 0.5 * (v[..., 0] - flipped[..., 0])
        out[..., 1:] = 0.5 * (v[..., 1:] + flipped[..., 1:])
        return out.reshape(values.shape)

    def weighted_space(self) -> WeightedSpace:
        """The geodesic problem on profiles: weight sqrt(2 max(E - ref, 0)).

        The weight vanishes exactly on the stored minimal connections.
        """

        def weight(pts):
            return np.sqrt(2.0 * np.maximum(self.effective_potential(pts), 0.0))

        return WeightedSpace(space=self.ambient(), weight=weight)

    def profile_hessp(self, values: np.ndarray):
        """Hessian of ``energy_1d`` at one profile, as a function of a direction (m, n).

        The trapezoid-weighted density Hessian block plus the second-difference
        stencil of the kinetic term; like the gradient, a product is zero on
        the edge rows.  On the free rows the Hessian is h * (B + L), with
        B = D^2(density) and L the Dirichlet Laplacian of the stencil; the
        product's ``shift`` holds, per component c, max(0, mean of B_cc over
        the free rows), the shift of ``relax_profile``'s preconditioner.
        """
        hess = self._density_hessians(self._stack(values))[0]
        block = trapezoid_weights(self.m, self.h)[:, None, None] * hess
        h = self.h

        def hessp(d):
            out = np.einsum("mij,mj->mi", block, d)
            out[1:-1] += (2.0 * d[1:-1] - d[:-2] - d[2:]) / h
            out[[0, -1]] = 0.0
            return out

        hessp.shift = np.maximum(np.einsum("mcc->c", hess[1:-1]) / (self.m - 2), 0.0)
        return hessp

    def relax_profile(self, values: np.ndarray, gtol: float = 1e-10):
        """Minimize the 1D action from a seed profile (edges stay pinned).

        Used to turn sampled connection guesses into discrete minimizers;
        returns (values, energy).  The pinned Newton-CG on ``energy_1d``,
        odd-projected in symmetry mode "odd_first" and preconditioned by the
        shifted fast Poisson solve of ``poisson_preconditioner`` along x1,
        with each Newton step's shift from ``profile_hessp``; raises
        RuntimeError unless it converges to ``gtol``.
        """
        values = np.asarray(values, dtype=float).reshape(self.m, self.n_components)
        project = self.symmetrize if self.symmetry == "odd_first" else None
        pinned = np.zeros(values.shape, dtype=bool)
        pinned[[0, -1]] = True
        poisson = poisson_preconditioner(values.shape, self.h)
        out, info = pinned_newton_cg(
            lambda v: (self.energy_1d(v)[0], self.energy_1d_grad(v)[0]),
            self.profile_hessp, values if project is None else project(values), pinned,
            project=project, gtol=gtol, max_steps=RELAX_STEPS,
            precond=lambda hessp: poisson(hessp.shift),
        )
        if info.status != "converged":
            raise RuntimeError(
                f"profile relaxation {info.status} after {info.steps} Newton steps: "
                f"max free gradient {info.gmax:.3g} (tolerance {gtol:g})"
            )
        return out, float(self.energy_1d(out)[0])


# Newton steps of a profile relaxation before it reports max_iters, and the
# most CG products per Newton step
RELAX_STEPS = 50
CG_MAXITER = 2000
# Armijo backtracking of a Newton step: the sufficient-decrease constant, the
# step shrink factor and the most shrinks before the Newton-CG stalls
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean inner product of two arrays of one shape.

    Not np.vdot: BLAS splits long dot products across its threads, so their
    bits, and with them every Newton-CG iterate, would depend on the thread
    count.
    """
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def poisson_preconditioner(shape, *steps):
    """The shifted Dirichlet fast Poisson solves that precondition the Newton-CGs.

    For a profile of ``shape`` (M, n) on step h, or a field (M, P, n) on
    steps h (x1) and dt (x2), returns a function of the per-component shifts
    sigma (n,) that gives the solve r -> P^-1 r with P_c = h (L + sigma_c),
    or h * dt * (L + sigma_c): L is the Dirichlet Laplacian on the free
    interior grid, the stencil part of the Hessian there.  A DST-I along
    each grid axis diagonalises P exactly (the fast Poisson solver of
    Buzbee, Golub and Nielson), with eigenvalues the sum over the axes of
    (4/h^2) sin^2(pi j / 2(M-1)) plus sigma_c.  Its sine modes are even or
    odd under the x1 reflection, so P commutes with the pins and with the
    odd-first projection.  A solve reads r on the free nodes only and
    returns a new array, zero on the pins.  The solves at one shift share
    its transform buffers, so they must not run concurrently.
    """
    *grid, n = shape
    modes = [(2.0 / step * np.sin(0.5 * math.pi * np.arange(1, k - 1) / (k - 1))) ** 2
             for k, step in zip(grid, steps)]
    # DST-I squares to (N + 1) / 2 on each axis
    scale = 2.0 ** len(grid) / math.prod([k - 1 for k in grid] + list(steps))
    free = tuple(slice(1, k - 1) for k in grid)
    # per axis, the free block zero-padded to 2(N + 1) along that axis
    padded = [tuple(2 * (k - 1) if b == a else k - 2 for b, k in enumerate(grid))
              for a in range(len(grid))]

    def at(shift):
        lam = 0.0
        for axis, mode in enumerate(modes):
            lam = lam + mode.reshape((-1,) + (1,) * (len(grid) - 1 - axis))
        inv = lam + np.reshape(shift, (n,) + (1,) * len(grid))
        np.divide(scale, inv, out=inv)
        # one real and one complex buffer for every transform of these solves
        real = np.empty(max(map(math.prod, padded)))
        spec = np.empty(math.prod(grid), dtype=complex)

        def dst(axis, x):
            """DST-I of x along ``axis``, negated, as a view of ``spec``: the
            imaginary part of the rfft of x zero-padded to 2(N + 1) along that
            axis.  The signs of a pair of transforms cancel."""
            dims = padded[axis]
            pad = real[:math.prod(dims)].reshape(dims)
            lead = (slice(None),) * axis
            pad[lead + (0,)] = 0.0
            pad[lead + (slice(1, grid[axis] - 1),)] = x
            pad[lead + (slice(grid[axis] - 1, None),)] = 0.0
            spec_dims = dims[:axis] + (grid[axis],) + dims[axis + 1:]
            full = np.fft.rfft(pad, axis=axis,
                               out=spec[:math.prod(spec_dims)].reshape(spec_dims))
            return full[lead + (slice(1, -1),)].imag

        def psolve(r):
            out = np.zeros(shape)
            for c in range(n):
                x = r[free + (c,)]
                for axis in range(len(grid)):
                    x = dst(axis, x)
                np.multiply(x, inv[c], out=x)
                for axis in range(len(grid)):
                    x = dst(axis, x)
                out[free + (c,)] = x
            return out

        return psolve

    return at


class NewtonResult(NamedTuple):
    steps: int
    gmax: float           # max-norm of the free gradient at the returned point
    status: str           # "converged", "max_iters" or "stalled"
    products: int         # CG Hessian-vector products, summed over the steps


def truncated_cg(hessp, g, tol, maxiter=CG_MAXITER, psolve=None):
    """Inexact Newton direction: CG on H p = -g from p = 0 (Nocedal-Wright Alg. 7.1).

    ``psolve``, if given, applies M^-1 for a symmetric positive definite
    preconditioner M, and the recursion is then Alg. 5.3's preconditioned
    CG; without it M is the identity.  Stops once the residual norm
    |H p + g| is at most ``tol`` or after ``maxiter`` products.  On a
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
    for j in range(maxiter):
        bd = hessp(d)
        curv = _dot(d, bd)
        if curv <= 0.0:
            return (d if j == 0 else z), True, j + 1
        alpha = ry / curv
        z += alpha * d
        r += alpha * bd
        # H d is spent; free it before the solve and the next product
        del bd
        if math.sqrt(_dot(r, r)) <= tol:
            return z, False, j + 1
        y = psolve(r)
        ry_next = _dot(r, y)
        d *= ry_next / ry
        d -= y
        # M^-1 r is spent; free it before the next product
        del y
        ry = ry_next
    return z, False, maxiter


def pinned_newton_cg(fun, hessp_at, x0, pinned, project=None, *, gtol, max_steps,
                     precond=None):
    """Truncated Newton-CG on ``fun`` with the ``pinned`` entries of ``x0`` held fixed.

    ``fun`` maps an array shaped like ``x0`` to (value, gradient of that
    shape), and ``hessp_at(x)`` returns the Hessian-vector product at x as a
    function of a direction; it is called once per Newton step.  The optional
    ``project`` is linear: gradients and Hessian products are projected and
    then zeroed on the pins, and so is every step, so iterates keep the
    pinned values and stay in the projected subspace that ``x0`` must lie
    in.  ``precond``, if given, maps the step's product (what ``hessp_at``
    returned) to the solve r -> M^-1 r of a symmetric positive definite M
    that commutes with the pins and with ``project``; the CG is then
    preconditioned by it (see ``truncated_cg``).  The CG forcing term is
    min(0.5, sqrt |g|), and Armijo backtracking guards each step.  Stops
    when the max-norm of the free gradient is at most ``gtol``, after
    ``max_steps`` steps, or when backtracking finds no decrease.  Returns
    (minimizer, NewtonResult).
    """
    pinned = np.asarray(pinned, dtype=bool)

    def reduce(v):
        # projected, then zeroed in place on the pins
        v = v if project is None else project(v)
        v[pinned] = 0.0
        return v

    x = np.asarray(x0, dtype=float).copy()
    e, g = fun(x)
    g = reduce(g)
    steps = products = 0
    while True:
        gmax = float(np.max(np.abs(g)))
        if gmax <= gtol:
            status = "converged"
            break
        if steps == max_steps:
            status = "max_iters"
            break
        gnorm = math.sqrt(_dot(g, g))
        hessp = hessp_at(x)
        p, _, used = truncated_cg(
            lambda d: reduce(hessp(d)), g, min(0.5, math.sqrt(gnorm)) * gnorm,
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
            t *= BACKTRACK
        else:
            status = "stalled"
            break
        x, e, g = x_try, e_try, reduce(g_try)
        steps += 1
        # the step and the product's data can be as large as the iterate;
        # free them before the next step's
        del p, hessp
    return x, NewtonResult(steps, gmax, status, products)
