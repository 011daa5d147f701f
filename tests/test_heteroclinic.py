import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetconn import (
    EuclideanSpace,
    GridL2Space,
    InteriorZeroError,
    SampledCurve,
    WeightedSpace,
    k_length,
    line_connection,
    line_legs,
    reparam_equipartition,
    verify_connection,
)
from hetconn.heteroclinic import equipartition
from hetconn.metric import midpoints, segment_k_lengths
from hetconn.potentials import double_well, make_weight, planar_two_well, triple_well


def test_golden_profile_matches_tanh(golden):
    conn = golden.conn
    t = conn.curve.times
    mask = np.abs(t) <= 5.0
    err = np.max(np.abs(conn.curve.nodes[mask, 0] - np.tanh(t[mask])))
    assert err < 1e-3
    assert conn.action == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert conn.dk_value == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert conn.equipartition_defect < 1e-3


def test_golden_centering_and_window(golden):
    conn = golden.conn
    t = conn.curve.times
    assert t[0] == pytest.approx(-t[-1])
    assert np.allclose(np.diff(t), t[1] - t[0])
    # centered: the node at t = 0 sits near the odd symmetry point
    i0 = int(np.argmin(np.abs(t)))
    assert abs(conn.curve.nodes[i0, 0]) < 5e-3


def _action(curve, p, space):
    """Midpoint-rule action sum (|segment speed|^2 / 2 + W(midpoint)) dt."""
    return equipartition(curve, space, p.values_at(midpoints(curve)))[0]


def test_action_ew_tanh_oracle():
    p = double_well()
    t = np.linspace(-9.0, 9.0, 2001)
    c = SampledCurve(times=t, nodes=np.tanh(t)[:, None])
    assert _action(c, p, EuclideanSpace(1)) == pytest.approx(4.0 / 3.0, abs=1e-5)


def test_action_dominates_k_length_young(golden):
    # midpoint action >= midpoint weighted length, segment by segment
    conn = golden.conn
    a = _action(conn.curve, golden.potential, golden.wspace.space)
    lk = k_length(conn.curve, golden.wspace, rule="midpoint")
    assert a >= lk - 1e-12
    assert a - lk < 1e-3  # near equality at equipartition


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_young_inequality_random_curves(seed):
    rng = np.random.default_rng(seed)
    p = double_well()
    ws = make_weight(p)
    n = int(rng.integers(3, 30))
    t = np.sort(rng.uniform(-2.0, 2.0, n))
    t[0], t[-1] = -2.0, 2.0
    if np.any(np.diff(t) <= 0):
        t = np.linspace(-2.0, 2.0, n)
    c = SampledCurve(times=t, nodes=rng.uniform(-1.5, 1.5, (n, 1)))
    assert _action(c, p, ws.space) >= k_length(c, ws, rule="midpoint") - 1e-10


def test_reparam_drops_a_tied_last_segment():
    # the last segment is too short to move the cumulative length
    c = SampledCurve(times=np.array([0.0, 1.0, 2.0]),
                     nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-17]]))
    conn = reparam_equipartition(c, make_weight(planar_two_well()), n_samples=101, t_max=8.0)
    assert np.array_equal(conn.x_minus, c.nodes[0])
    assert np.array_equal(conn.x_plus, c.nodes[-1])
    assert np.all(np.isfinite(conn.curve.nodes))


def test_reparam_of_the_segment_is_the_line_connection(golden):
    # one time map: the 400-segment polyline reproduces the single segment
    poly = reparam_equipartition(golden.geodesic, golden.wspace, n_samples=2001, t_max=9.0)
    line = line_connection(golden.wspace, -1, 1, 2001, 9)
    assert np.max(np.abs(poly.curve.nodes - line.curve.nodes)) <= 1e-14
    assert poly.action == pytest.approx(line.action, rel=1e-14)
    assert poly.dk_value == pytest.approx(line.dk_value, rel=1e-14)
    assert poly.window == line.window == 9.0


def test_reparam_of_the_planar_via_polyline():
    ws = make_weight(planar_two_well())
    way = np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    conn = reparam_equipartition(SampledCurve(times=np.arange(3.0), nodes=way), ws,
                                 n_samples=1601, t_max=16.0)
    assert conn.equipartition_defect <= 1e-4
    # d_K is the sum of one batched call over the two segments, bit for bit
    assert conn.dk_value == np.sum(segment_k_lengths(ws.weight_at, way[:-1], way[1:], [[], []]))


def test_reparam_needs_a_euclidean_space(golden):
    grid_space = WeightedSpace(GridL2Space(n_points=1, n_components=1, spacing=1.0),
                               golden.wspace.weight)
    with pytest.raises(ValueError, match="Euclidean"):
        reparam_equipartition(golden.geodesic, grid_space, n_samples=101, t_max=5.0)


def test_reparam_equipartition_interior_zero():
    ws = make_weight(triple_well())
    # a straight path parks a node exactly on the middle well
    c = SampledCurve(times=np.linspace(0.0, 1.0, 41),
                     nodes=np.linspace(-1.0, 1.0, 41)[:, None])
    with pytest.raises(InteriorZeroError):
        reparam_equipartition(c, ws, n_samples=101, t_max=5.0)


def test_reparam_requested_window_honored(golden):
    conn = reparam_equipartition(golden.geodesic, golden.wspace,
                                 n_samples=501, t_max=3.0)
    assert conn.window == pytest.approx(3.0)
    assert conn.curve.times[0] == pytest.approx(-3.0)


def test_verify_connection_report(golden):
    rep = verify_connection(golden.conn, potential=golden.potential,
                            wspace=golden.wspace)
    assert rep.action_gap < 1e-3
    assert rep.el_residual < 1e-3
    assert rep.equipartition_defect < 1e-3
    assert rep.endpoint_gap_minus < 1e-3
    assert rep.endpoint_gap_plus < 1e-3


def test_endpoints_near_wells(golden):
    conn = golden.conn
    assert abs(conn.curve.nodes[0, 0] + 1.0) < 1e-6
    assert abs(conn.curve.nodes[-1, 0] - 1.0) < 1e-6


def test_line_legs_split_in_the_order_of_travel():
    wells = triple_well().wells
    assert line_legs([1.0], [-1.0], wells) == [(1.0, 0.0), (0.0, -1.0)]
    assert line_legs([-1.0], [0.5], wells) == [(-1.0, 0.0), (0.0, 0.5)]
    # a well within 1e-9 of an end is that end
    assert line_legs([-1.0], [1e-10], wells) == [(-1.0, 1e-10)]


def test_line_connection_runs_either_way_along_a_leg():
    ws = make_weight(triple_well())
    up = line_connection(ws, 0.0, 1.0, n_samples=401, t_max=8.0)
    down = line_connection(ws, 1.0, 0.0, n_samples=401, t_max=8.0)
    for leg in (up, down):
        assert leg.dk_value == pytest.approx(0.25, abs=1e-15)
    assert (up.x_minus.tolist(), up.x_plus.tolist()) == ([0.0], [1.0])
    # the reverse leg is the forward one read backwards in time
    assert np.max(np.abs(down.curve.nodes[::-1] - up.curve.nodes)) <= 1e-14
    assert down.action == pytest.approx(up.action, rel=1e-13)
