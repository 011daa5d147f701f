import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hetconn import (
    CounterexampleWeight,
    DivergentTailError,
    candidate_length,
    crossing_lower_bound,
    dense_polyline_length,
    nonexistence_report,
)
from hetconn.counterexample import _quad_breaks, _segment_lengths
from hetconn.metric import _GK_NODES, _qk21

W = CounterexampleWeight()


def test_cumulative_g_oracles():
    assert W.big_g(0.0) == 0.0
    assert W.big_g(0.5) == 0.125
    assert W.big_g(1.0) == 0.5
    assert W.big_g(2.0) == 1.0
    assert W.g_infinity == 1.5
    assert W.infimum == 3.0


def test_cumulative_g_other_powers():
    w3 = CounterexampleWeight(power=3.0)
    assert w3.g_infinity == 0.5 + 0.5
    assert w3.big_g(2.0) == pytest.approx(0.5 + 0.5 * (1 - 0.25), rel=1e-14)


def test_weight_on_the_axis_is_g():
    xs = np.array([0.0, 0.3, 1.0, 2.5, 17.0])
    pts = np.stack([xs, np.zeros_like(xs)], axis=1)
    assert np.allclose(W.k(pts), W.g(xs), atol=1e-14)


def test_weight_zero_set():
    # K vanishes exactly at (0, -1), (0, 0) and (0, 1)
    for z in np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]]):
        assert W.k(z[None])[0] == 0.0
    assert W.k(np.array([[0.5, 0.5]]))[0] > 0.0


def test_bump_is_c1_at_the_edges():
    assert W.bump(0.0) == 1.0
    assert W.bump(1.0) == 0.0
    assert W.bump(-1.0) == 0.0
    assert W.bump_deriv(1.0) == pytest.approx(0.0, abs=1e-15)
    assert W.bump_deriv(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert W.bump(1.2) == 0.0 and W.bump_deriv(1.2) == 0.0


@settings(max_examples=150, deadline=None)
@given(
    x=st.floats(-40.0, 40.0),
    y=st.floats(-1.8, 1.8),
)
def test_gradient_matches_finite_differences(x, y):
    # keep clear of the g kinks at |x| in {0, 1} and the axis lines where
    # centered differences of f lose an order
    for bad in (0.0, 1.0, -1.0):
        if abs(x - bad) < 1e-2:
            x += 3e-2
    for bad in (0.0, 1.0, -1.0):
        if abs(y - bad) < 1e-2:
            y += 3e-2
    e = 1e-6
    fx, fy = W.grad_f(x, y)
    fdx = (W.f(x + e, y) - W.f(x - e, y)) / (2 * e)
    fdy = (W.f(x, y + e) - W.f(x, y - e)) / (2 * e)
    assert fx == pytest.approx(fdx, rel=1e-4, abs=1e-8)
    assert fy == pytest.approx(fdy, rel=1e-4, abs=1e-8)


def test_crossing_bound_decreases_from_six_to_three():
    assert crossing_lower_bound(0.0, W) == 6.0
    values = [crossing_lower_bound(x, W) for x in (0.0, 1.0, 4.0, 64.0, 4096.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(3.0, abs=1e-3)
    assert all(v > 3.0 for v in values)
    # closed form at the family default: 6 - 2 G(x) = 3 + 2/x beyond the kink
    assert crossing_lower_bound(8.0, W) == pytest.approx(3.0 + 2.0 / 8.0, rel=1e-14)


def test_dense_length_of_an_axis_parallel_segment():
    # along y = 1 the weight is g(|x|), so the length is G(2) exactly
    nodes = np.array([[0.0, 1.0], [2.0, 1.0]])
    assert dense_polyline_length(nodes, W) == pytest.approx(1.0, rel=1e-10)
    # repeated nodes contribute nothing
    nodes = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 1.0]])
    assert dense_polyline_length(nodes, W) == pytest.approx(1.0, rel=1e-10)


def test_candidate_asymptotics():
    ns = np.arange(1, 13)
    lengths = np.array([candidate_length(int(n), W) for n in ns])
    assert np.all(np.diff(lengths) < 0.0)
    assert np.all(lengths > 3.0)
    for n in (8, 10, 12):
        gap = candidate_length(n, W) - 3.0
        assert gap == pytest.approx(2.0 / 2.0**n, rel=1e-2)


def test_candidate_leg_breakdown():
    total, legs = candidate_length(10, W, legs=True)
    x_n = legs["x_n"]
    assert x_n == 1024.0
    assert legs["top"] == pytest.approx(W.big_g(x_n), rel=1e-8)
    assert legs["bottom"] == pytest.approx(W.big_g(x_n), rel=1e-8)
    assert legs["vertical"] == pytest.approx(4.0 / x_n, rel=1e-2)
    assert total == pytest.approx(legs["top"] + legs["vertical"] + legs["bottom"], rel=1e-14)


def test_divergent_tails_are_rejected():
    with pytest.raises(DivergentTailError):
        CounterexampleWeight(power=1.0)
    with pytest.raises(DivergentTailError):
        CounterexampleWeight(power=0.5)


def test_small_boxed_report():
    report = nonexistence_report(radii=(4.0, 8.0, 12.0), n_candidates=6)
    assert report.infimum == 3.0
    assert np.all(report.box_candidates > report.bounds - 1e-6)
    assert np.all(report.bounds > 3.0)
    assert np.all(np.diff(report.candidate_lengths) < 0.0)
    # the upper end at R = 2^n is the candidate through x = 2^n, bit for bit:
    # the report integrates that abscissa once for both
    assert report.box_candidates[:2].tolist() == report.candidate_lengths[1:3].tolist()
    assert report.box_candidates[2] == candidate_length(None, W, x_n=12.0)
    widths = report.box_candidates - report.bounds
    assert np.all(widths > 0.0) and np.all(np.diff(widths) < 0.0)
    assert np.array_equal(report.bracket_rel_widths, widths / (report.bounds - 3.0))
    assert np.all(np.diff(report.bracket_rel_widths) < 0.0)
    assert "demonstrated" in report.conclusion


# -- the batched Gauss-Kronrod leg rule against scipy's quad -----------------


def _quad_leg(w, a, b, tol=1.49e-8, limit=400):
    # the per-segment scipy quad rule that the batched rule replaced, kept as
    # the reference; a smaller tol and a larger limit give a tighter one
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    span = float(np.linalg.norm(b - a))

    def integrand(t):
        return w.k((a + t * (b - a))[None])[0] * span

    val, _ = integrate.quad(integrand, 0.0, 1.0, limit=limit,
                            points=_quad_breaks(a, b) or None, epsabs=tol, epsrel=tol)
    return val


def _quad_polyline(w, nodes):
    return sum(_quad_leg(w, a, b) for a, b in zip(nodes[:-1], nodes[1:])
               if np.linalg.norm(b - a) != 0.0)


class CountingWeight(CounterexampleWeight):
    calls = 0

    def k(self, pts):
        self.calls += 1
        return super().k(pts)


@pytest.mark.parametrize("f", [np.exp, lambda x: 1.0 / (x + 0.3), lambda x: np.sqrt(x + 0.1)])
def test_one_panel_equals_quadpack_qk21(f):
    # quad accepts these integrands after its first 21-point evaluation, so
    # its value and error estimate are qk21's on the whole interval: for exp
    # the roundoff floor, for the other two the resasc-scaled difference
    value, err = _qk21(f(0.5 + 0.5 * _GK_NODES)[None], np.array([0.5]))
    ref_value, ref_err, info = integrate.quad(f, 0.0, 1.0, full_output=1)
    assert info["last"] == 1
    assert value[0] == pytest.approx(ref_value, rel=1e-15, abs=0.0)
    assert err[0] == pytest.approx(ref_err, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("radius", [4.0, 8.0, 16.0, 32.0, 64.0])
def test_boxed_seed_lengths_match_quad(radius, boxed_seed):
    seed = boxed_seed(radius, 48)
    assert abs(dense_polyline_length(seed, W) - _quad_polyline(W, seed)) <= 1e-10


def test_candidate_lengths_match_quad():
    for n in range(1, 13):
        x = 2.0**n
        corners = ([0.0, 1.0], [x, 1.0], [x, -1.0], [0.0, -1.0])
        ref = sum(_quad_leg(W, a, b) for a, b in zip(corners[:-1], corners[1:]))
        assert abs(candidate_length(n, W) - ref) <= 1e-10


def test_segments_across_the_kinks_match_quad():
    rng = np.random.default_rng(20261018)
    # each segment crosses x = -1 and x = 1 and every level y in
    # {-1, -1/2, 0, 1/2, 1}, in either direction
    a = np.stack([rng.uniform(-3.0, -1.05, 40), rng.uniform(-1.8, -1.05, 40)], axis=1)
    b = np.stack([rng.uniform(1.05, 3.0, 40), rng.uniform(1.05, 1.8, 40)], axis=1)
    flip = rng.random(40) < 0.5
    a[flip], b[flip] = b[flip].copy(), a[flip].copy()
    # and segments with one end on a kink line or at a zero of K
    a = np.concatenate([a, [[1.0, 0.3], [0.0, 1.0], [-2.0, 0.5], [0.0, 0.0]]])
    b = np.concatenate([b, [[3.0, -0.7], [2.0, -1.0], [-2.0, -0.5], [1.5, 1.0]]])
    lengths = _segment_lengths(W, a, b)
    ref = np.array([_quad_leg(W, p, q) for p, q in zip(a, b)])
    tight = np.array([_quad_leg(W, p, q, tol=1e-13, limit=4000) for p, q in zip(a, b)])
    assert np.max(np.abs(lengths - tight)) <= 1e-10
    # quad's global error estimate accepts a few segments early (the 10th
    # here by 3.5e-9); everywhere else it agrees with the batched rule
    quad_off = np.abs(ref - tight) > 1e-10
    assert np.count_nonzero(quad_off) <= 2
    assert np.max(np.abs(lengths - ref)[~quad_off]) <= 1e-10


def test_polyline_with_a_repeated_node_matches_quad():
    nodes = np.array([[0.0, -1.0], [1.5, -0.8], [1.5, -0.8], [2.5, 0.4],
                      [0.7, 1.2], [0.0, 1.0]])
    value = dense_polyline_length(nodes, W)
    assert abs(value - _quad_polyline(W, nodes)) <= 1e-10
    assert value == dense_polyline_length(np.delete(nodes, 2, axis=0), W)


def test_leg_rule_evaluates_the_weight_once_per_round(boxed_seed):
    wc = CountingWeight()
    dense_polyline_length(boxed_seed(64.0, 48), wc)
    assert 1 <= wc.calls <= 5
    wc.calls = 0
    candidate_length(12, wc)
    assert 1 <= wc.calls <= 20


def test_leg_rule_raises_past_the_subinterval_limit():
    class NanWeight(CounterexampleWeight):
        def k(self, pts):
            return np.full(len(pts), np.nan)

    with pytest.raises(RuntimeError, match="400 subintervals"):
        dense_polyline_length(np.array([[0.0, -1.0], [2.0, 1.0]]), NanWeight())


def test_importing_the_cli_leaves_scipy_integrate_out():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hetconn.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
