"""A planar weight whose minimal connection escapes to infinity.

The weight is K = |grad f| for f(x, y) = h(y)(2G(inf) - G(|x|))
+ (1 - h(y)) G(|x|), where G is the cumulative integral of a positive g
with a convergent tail and h is a raised-cosine bump on [-1, 1].  K
vanishes exactly at (0, -1), (0, 0), (0, 1); the endpoints of interest are
P-+ = (0, -+1).  Any admissible curve crosses {y = 0} somewhere, and
splitting it there gives the length bound 2(2G(inf) - G(|x0|)), which is
strictly above the infimum 2G(inf) for every finite crossing abscissa.
Three-leg candidates that detour to x = x_n before crossing approach the
infimum as x_n grows, so no minimizer exists.

g(s) = s^(-power) beyond 1 (extended linearly below) keeps every
reference value in closed form; the default power 2 gives G(t) = t^2/2
then 3/2 - 1/t, G(inf) = 3/2, infimum 3.

The package's batched, adaptive 21-point Gauss-Kronrod rule
(``metric.adaptive_qk21``) gives the weighted lengths of straight segments
(the candidate legs, any polyline, split at the kinks of K).

Each box |x| <= R is bracketed without a descent: the crossing bound at R
below, the candidate through x = R above.  The report integrates the legs
of every candidate and every box wall in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import segment_k_lengths, sorted_unique

P_MINUS = np.array([0.0, -1.0])
P_PLUS = np.array([0.0, 1.0])


class DivergentTailError(ValueError):
    """g(s) = s^(-power) with power <= 1 has a divergent tail; G(inf) does not exist."""


class CounterexampleWeight:
    """Weight K = |grad f| on the plane, zero exactly at three axis points.

    power selects the closed-form family g(s) = s^(-power) on [1, inf),
    g(s) = s below 1 (power must exceed 1 for a convergent tail).
    """

    def __init__(self, power: float = 2.0):
        self.power = float(power)
        if self.power <= 1.0:
            raise DivergentTailError(
                f"g(s) = s^(-{self.power:g}) has a divergent tail integral"
            )
        self._g_inf = 0.5 + 1.0 / (self.power - 1.0)

    # -- scalar building blocks -------------------------------------------

    def g(self, s):
        s = np.abs(np.asarray(s, dtype=float))
        out = np.atleast_1d(s).copy()
        far = out > 1.0
        out[far] = out[far] ** (-self.power)
        return out.reshape(s.shape) if s.shape else float(out[0])

    def big_g(self, t):
        """Cumulative integral G(t) = int_0^t g."""
        t = np.abs(np.asarray(t, dtype=float))
        p = self.power
        out = np.atleast_1d(t).astype(float)
        far = out > 1.0
        out[far] = 0.5 + (1.0 - out[far] ** (1.0 - p)) / (p - 1.0)
        out[~far] = 0.5 * out[~far] ** 2
        return out.reshape(t.shape) if t.shape else float(out[0])

    @property
    def g_infinity(self) -> float:
        return self._g_inf

    @property
    def infimum(self) -> float:
        """The unattained connection cost 2 G(inf)."""
        return 2.0 * self._g_inf

    @staticmethod
    def bump(y):
        y = np.asarray(y, dtype=float)
        out = np.where(np.abs(y) <= 1.0, 0.5 * (1.0 + np.cos(np.pi * y)), 0.0)
        return out if y.shape else float(out)

    @staticmethod
    def bump_deriv(y):
        # strict mask: sin(pi) is not exactly zero in floats, and the weight
        # must vanish exactly at (0, +-1)
        y = np.asarray(y, dtype=float)
        out = np.where(np.abs(y) < 1.0, -0.5 * np.pi * np.sin(np.pi * y), 0.0)
        return out if y.shape else float(out)

    # -- the construction --------------------------------------------------

    def f(self, x, y):
        x = np.asarray(x, dtype=float)
        h = self.bump(y)
        gg = self.big_g(x)
        out = h * (2.0 * self._g_inf - gg) + (1.0 - h) * gg
        return out if getattr(out, "shape", ()) else float(out)

    def grad_f(self, x, y):
        """Closed-form (df/dx, df/dy)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = self.bump(y)
        fx = self.g(x) * np.sign(x) * (1.0 - 2.0 * h)
        fy = 2.0 * self.bump_deriv(y) * (self._g_inf - self.big_g(x))
        return fx, fy

    def k(self, pts):
        """K on a (k, 2) batch of points, shape (k,)."""
        pts = np.asarray(pts, dtype=float)
        fx, fy = self.grad_f(pts[:, 0], pts[:, 1])
        return np.hypot(fx, fy)


def crossing_lower_bound(x0: float, w: CounterexampleWeight) -> float:
    """Length bound 2(2G(inf) - G(|x0|)) for curves crossing {y=0} at x0.

    Strictly above the infimum 2G(inf) for every finite x0: splitting a
    P- to P+ curve at the crossing and using length >= |f variation| on
    each piece gives 2 f(x0, 0) - f(P+) - f(P-).
    """
    return 2.0 * (2.0 * w.g_infinity - w.big_g(abs(x0)))


def _segment_lengths(w: CounterexampleWeight, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K-lengths of the straight segments from a[i] to b[i], shape (s,).

    a and b are (s, 2) arrays of segment ends.  Each segment is split at its
    ``_quad_breaks`` and integrated by ``metric.segment_k_lengths`` together
    with all the others.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return segment_k_lengths(w.k, a, b, [_quad_breaks(a[i], b[i]) for i in range(len(a))])


def _quad_breaks(a, b):
    """Interior break locations where K has kinks (|x| = 1, y in {-1, 0, 1}).

    The half-levels are included as well: the gradient component parallel
    to the axis changes sign there, which slows the adaptive rule down even
    though K itself stays smooth.
    """
    breaks = []
    for coord, targets in ((0, (-1.0, 1.0)), (1, (-1.0, -0.5, 0.0, 0.5, 1.0))):
        d = b[coord] - a[coord]
        if d == 0.0:
            continue
        for target in targets:
            t = (target - a[coord]) / d
            if 1e-12 < t < 1.0 - 1e-12:
                breaks.append(t)
    return sorted(breaks)


def candidate_length(n_index: int | np.ndarray | None, w: CounterexampleWeight,
                     x_n: float | np.ndarray | None = None, legs: bool = False):
    """Weighted length of the three-leg candidate through x = 2**n_index, or x_n.

    Top horizontal P+ to (x_n, 1), vertical drop to (x_n, -1), bottom
    horizontal back to P-.  ``n_index`` (or ``x_n``) may be an array: the
    legs of every abscissa, three each, are integrated in one batch of
    ``_segment_lengths``, and each total is top + vertical + bottom, so an
    abscissa gets the same bits alone and in any batch.  A scalar argument
    returns a float, an array one total per abscissa.  With legs=True the
    per-leg breakdown is returned alongside the total.
    """
    if x_n is None:
        x_n = np.ldexp(1.0, n_index)
    scalar = np.ndim(x_n) == 0
    x = np.atleast_1d(np.asarray(x_n, dtype=float))
    corners = np.array([P_PLUS, [0.0, 1.0], [0.0, -1.0], P_MINUS])[None].repeat(x.size, axis=0)
    corners[:, 1:3, 0] = x[:, None]
    top, vertical, bottom = _segment_lengths(
        w, corners[:, :-1].reshape(-1, 2), corners[:, 1:].reshape(-1, 2)).reshape(-1, 3).T
    total = top + vertical + bottom
    parts = {"top": top, "vertical": vertical, "bottom": bottom, "x_n": x}
    if scalar:
        total = float(total[0])
        parts = {key: float(value[0]) for key, value in parts.items()}
    return (total, parts) if legs else total


def dense_polyline_length(nodes: np.ndarray, w: CounterexampleWeight) -> float:
    """Adaptive-quadrature weighted length of a polyline.

    Every straight segment of nonzero length is integrated with the
    kink-aware Gauss-Kronrod rule of ``_segment_lengths``, all of them in
    one batch, so the value is the continuous K-length of the polyline
    itself (no node-rule bias); lower bounds derived from the variation of
    f apply to it.
    """
    nodes = np.asarray(nodes, dtype=float)
    a, b = nodes[:-1], nodes[1:]
    moves = np.linalg.norm(b - a, axis=1) != 0.0
    return float(np.sum(_segment_lengths(w, a[moves], b[moves])))


@dataclass
class NonexistenceReport:
    radii: np.ndarray
    box_candidates: np.ndarray
    bounds: np.ndarray
    candidate_ns: np.ndarray
    candidate_lengths: np.ndarray
    infimum: float
    conclusion: str

    @property
    def bracket_rel_widths(self) -> np.ndarray:
        """Widths of the brackets [bound, box candidate] of the box infima,
        relative to each bound's excess over the infimum."""
        return (self.box_candidates - self.bounds) / (self.bounds - self.infimum)


def nonexistence_report(
    w: CounterexampleWeight | None = None,
    radii: tuple = (4.0, 8.0, 16.0, 32.0, 64.0),
    n_candidates: int = 12,
) -> NonexistenceReport:
    """Bracket the infimum of every box |x| <= R, and the candidate series.

    Every curve confined to the box crosses {y = 0} inside it, hence costs
    at least crossing_lower_bound(R) > 2G(inf); the three-leg candidate
    through x = R is an admissible boxed curve, so its length is an upper
    end.  The bracket width falls with R and the box infimum is approached
    at the wall, while the candidates through x = 2^n decrease strictly
    toward the unattained 2G(inf): the numerical nonexistence signature.
    The conclusion line says demonstrated, not proven.
    """
    w = w or CounterexampleWeight()
    radii = np.asarray(radii, dtype=float)
    ns = np.arange(1, n_candidates + 1)
    powers = np.ldexp(1.0, ns)
    # a box wall at R = 2^n is a candidate abscissa: each abscissa is
    # integrated once, all of them in one batch
    abscissae = sorted_unique(np.concatenate([radii, powers]))
    lengths = candidate_length(None, w, x_n=abscissae)
    return NonexistenceReport(
        radii=radii,
        box_candidates=lengths[np.searchsorted(abscissae, radii)],
        bounds=np.array([crossing_lower_bound(r, w) for r in radii]),
        candidate_ns=ns,
        candidate_lengths=lengths[np.searchsorted(abscissae, powers)],
        infimum=w.infimum,
        conclusion=(
            "each box infimum lies between the crossing bound and the "
            "candidate through the wall x = R, a bracket whose width falls "
            "with R, so it is approached at the wall and stays strictly "
            "above 2G(inf); nonexistence of a minimizing geodesic is "
            "demonstrated numerically, not proven (h is only C^1 at "
            "|y| = 1, which the construction tolerates)"
        ),
    )
