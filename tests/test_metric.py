import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetconn import (
    EuclideanSpace,
    GridL2Space,
    SampledCurve,
    WeightedSpace,
    a_k_functional,
    k_length,
    metric_derivative,
    segment_lengths,
)
from hetconn.metric import drop_tied_nodes, trapezoid_weights
from hetconn.potentials import double_well, make_weight


def quad_weight():
    return WeightedSpace(
        space=EuclideanSpace(2),
        weight=lambda x: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1),
    )


def test_euclidean_distance():
    sp = EuclideanSpace(3)
    assert sp.distance(np.zeros(3), np.array([3.0, 0.0, 4.0])) == pytest.approx(5.0)
    assert sp.norm(np.array([1.0, 2.0, 2.0])) == pytest.approx(3.0)


def test_grid_l2_constant_function():
    # constant 1 on [0, 1] has L2 norm 1 under trapezoid weights
    sp = GridL2Space(n_points=101, n_components=1, spacing=0.01)
    v = np.ones(101)
    assert sp.norm(v) == pytest.approx(1.0, abs=1e-12)
    sp2 = GridL2Space(n_points=101, n_components=2, spacing=0.01)
    assert sp2.norm(np.ones(202)) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_sampled_curve_validation():
    with pytest.raises(ValueError):
        SampledCurve(times=np.array([0.0, 0.0, 1.0]), nodes=np.zeros((3, 1)))
    c = SampledCurve(times=np.array([0.0, 1.0, 3.0]),
                     nodes=np.array([[0.0], [2.0], [2.0]]))
    assert c.n_nodes == 3


def test_segment_lengths_polyline():
    c = SampledCurve(times=np.array([0.0, 1.0, 2.0]),
                     nodes=np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]]))
    sp = EuclideanSpace(2)
    assert segment_lengths(c, sp) == pytest.approx([5.0, 0.0])
    assert np.sum(segment_lengths(c, sp)) == pytest.approx(5.0)


def test_metric_derivative_linear():
    c = SampledCurve(times=np.array([0.0, 2.0]), nodes=np.array([[0.0], [4.0]]))
    md = metric_derivative(c, EuclideanSpace(1))
    assert md == pytest.approx([2.0])


def test_k_length_double_well_oracle():
    # straight polyline from -1 to 1 against K(x) = |1 - x^2|:
    # the exact weighted length is int_{-1}^{1} (1 - u^2) du = 4/3
    ws = make_weight(double_well())
    n = 2001
    c = SampledCurve(times=np.linspace(0.0, 1.0, n),
                     nodes=np.linspace(-1.0, 1.0, n)[:, None])
    assert k_length(c, ws, rule="midpoint") == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert k_length(c, ws, rule="min-endpoint") == pytest.approx(4.0 / 3.0, abs=1e-2)
    with pytest.raises(ValueError):
        k_length(c, ws, rule="simpson")


def test_k_length_infinite_weight_convention():
    # +inf * 0 = +inf: an infinite weight wins even on zero-length segments
    ws = WeightedSpace(
        space=EuclideanSpace(1),
        weight=lambda x: np.where(np.asarray(x)[..., 0] > 0.5, np.inf, 1.0),
    )
    c = SampledCurve(times=np.array([0.0, 1.0, 2.0]),
                     nodes=np.array([[1.0], [1.0], [1.0]]))
    assert k_length(c, ws, rule="min-endpoint") == math.inf
    assert k_length(c, ws, rule="midpoint") == math.inf


@st.composite
def polylines(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    flat = draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=2 * n, max_size=2 * n,
        )
    )
    nodes = np.asarray(flat).reshape(n, 2)
    return SampledCurve(times=np.linspace(0.0, 1.0, n), nodes=nodes)


@given(polylines())
@settings(max_examples=60, deadline=None)
def test_a_k_finest_equals_min_endpoint(curve):
    ws = quad_weight()
    finest = a_k_functional(curve, ws, list(range(curve.n_nodes)))
    assert finest == k_length(curve, ws, rule="min-endpoint")


@given(polylines(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_k_refinement_monotone(curve, data):
    ws = quad_weight()
    n = curve.n_nodes
    interior = sorted(
        data.draw(
            st.sets(st.integers(min_value=1, max_value=n - 2), max_size=n - 2)
        )
    )
    coarse = [0] + interior + [n - 1]
    fine = sorted(set(coarse) | {data.draw(st.integers(min_value=0, max_value=n - 1))})
    v_coarse = a_k_functional(curve, ws, coarse)
    v_fine = a_k_functional(curve, ws, fine)
    assert v_fine >= v_coarse - 1e-12 * max(1.0, abs(v_coarse))
    assert v_fine <= k_length(curve, ws, rule="min-endpoint") + 1e-12


def test_a_k_bad_subdivision():
    c = SampledCurve(times=np.linspace(0, 1, 4), nodes=np.zeros((4, 2)))
    ws = quad_weight()
    with pytest.raises(ValueError):
        a_k_functional(c, ws, [0])
    with pytest.raises(ValueError):
        a_k_functional(c, ws, [0, 2, 1])
    with pytest.raises(ValueError):
        a_k_functional(c, ws, [0, 5])


def test_drop_tied_nodes_drops_segments_below_rounding():
    # the last segment is too short to move the cumulative length, which
    # would leave two equal positions behind
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-17]])
    pos = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(nodes, axis=0), axis=1))])
    kept, out = drop_tied_nodes(pos, nodes)
    assert np.all(np.diff(kept) > 0.0)
    assert kept[0] == 0.0 and kept[-1] == 1.0
    assert np.array_equal(out[0], nodes[0])
    assert np.array_equal(out[-1], nodes[-1])


def test_coord_weights_are_built_once_and_read_only():
    cases = (
        (EuclideanSpace(3), np.ones(3)),
        (GridL2Space(5, 2, 0.1), np.repeat(trapezoid_weights(5, 0.1), 2)),
    )
    for space, expected in cases:
        w = space.coord_weights
        assert w is space.coord_weights
        assert not w.flags.writeable
        assert w.tobytes() == expected.tobytes()
    # equal spaces stay equal and hash alike once their weights are cached
    assert GridL2Space(5, 2, 0.1) == cases[1][0]
    assert hash(GridL2Space(5, 2, 0.1)) == hash(cases[1][0])


def test_adaptive_qk21_matches_quad_on_the_double_well_weight():
    from scipy import integrate

    from hetconn.metric import segment_k_lengths

    k = make_weight(double_well()).weight_at
    # (a, b, the well inside, where K = |1 - u^2| has its kink)
    cases = ((-1.0, 1.0, ()), (-1.0, 0.3, ()), (0.3, 2.0, (1.0,)), (-2.5, -1.0, ()))
    ends = np.array([[a, b] for a, b, _ in cases])
    values = segment_k_lengths(
        k, ends[:, :1], ends[:, 1:],
        [[(x - a) / (b - a) for x in kinks] for a, b, kinks in cases])
    for (a, b, kinks), value in zip(cases, values):
        ref, _ = integrate.quad(lambda x: k(np.array([[x]]))[0], a, b, points=kinks or None)
        assert value == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert values[0] == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_distances_equal_the_per_point_distance_bitwise():
    rng = np.random.default_rng(7)
    for space, pts in ((EuclideanSpace(3), rng.normal(size=(40, 3))),
                       (GridL2Space(101, 2, 0.01), rng.normal(size=(6, 202)))):
        ref = np.array([space.distance(p, pts[0]) for p in pts])
        assert space.distances(pts, pts[0]).tobytes() == ref.tobytes()
