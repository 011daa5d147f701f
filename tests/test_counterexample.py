import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetconn import (
    CounterexampleWeight,
    DivergentTailError,
    candidate_length,
    crossing_abscissas,
    crossing_lower_bound,
    dense_polyline_length,
    nonexistence_report,
)

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
    ws = W.weighted_space()
    assert len(ws.zero_set) == 3
    for z in ws.zero_set:
        assert W.k(z[None])[0] == 0.0
        assert np.all(W.k_and_grad(z[None])[1][0] == 0.0)
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
    with pytest.raises(DivergentTailError):
        CounterexampleWeight(g=lambda s: 1.0 / (1.0 + s))
    with pytest.raises(ValueError):
        CounterexampleWeight(g=lambda s: math.sin(s))


def test_custom_table_matches_closed_form():
    def same_g(s):
        return s if s <= 1.0 else s**-2.0

    wt = CounterexampleWeight(g=same_g)
    assert wt.g_infinity == pytest.approx(1.5, rel=1e-4)
    for t in (0.3, 1.0, 2.0, 50.0, 2e4):
        assert wt.big_g(t) == pytest.approx(W.big_g(t), rel=1e-4)


def test_crossing_abscissas():
    nodes = np.array([[0.0, -1.0], [2.0, 1.0]])
    assert crossing_abscissas(nodes) == [pytest.approx(1.0)]
    nodes = np.array([[0.0, -1.0], [3.0, 0.0], [5.0, 2.0]])
    assert crossing_abscissas(nodes) == [pytest.approx(3.0)]
    nodes = np.array([[0.0, 1.0], [1.0, 2.0]])
    assert crossing_abscissas(nodes) == []


def test_small_boxed_report():
    report = nonexistence_report(
        radii=(4.0, 8.0), n_leg=16, max_iters=40, n_candidates=6
    )
    assert report.infimum == 3.0
    assert np.all(report.best_lengths > report.bounds - 1e-6)
    assert np.all(report.bounds > 3.0)
    assert np.all(np.diff(report.candidate_lengths) < 0.0)
    assert len(report.crossings) == 2
    assert all(len(c) >= 1 for c in report.crossings)
    assert "demonstrated" in report.conclusion
    assert len(report.statuses) == 2
