import numpy as np
import pytest

from hetconn import (
    double_well,
    k_length,
    make_weight,
    minimize_k_length,
    planar_two_well,
)
from hetconn import function_space
from hetconn.geodesic import _seed_nodes


def test_double_well_chord_is_optimal():
    conn = minimize_k_length(double_well(), np.array([-1.0]), np.array([1.0]),
                             n_samples=2001, t_max=10.0)
    # the curve runs monotonely along the chord, and its K-length is 4/3
    assert np.all(np.diff(conn.curve.nodes[:, 0]) > 0.0)
    assert conn.dk_value == pytest.approx(4.0 / 3.0, abs=1e-4)
    assert conn.action == pytest.approx(4.0 / 3.0, abs=1e-4)
    # the nodes come on the uniform times, and the profile is tanh t
    assert conn.curve.times.tobytes() == np.linspace(-10.0, 10.0, 2001).tobytes()
    assert np.max(np.abs(conn.curve.nodes[:, 0] - np.tanh(conn.curve.times))) < 1e-5
    assert conn.dk_value == k_length(conn.curve, make_weight(double_well()))


def test_via_points_route_the_seed():
    p = planar_two_well()
    times = np.linspace(-6.0, 6.0, 201)
    for sign in (1.0, -1.0):
        via = np.array([0.0, sign])
        seed = _seed_nodes(p.wells[0], p.wells[1], [via], times)
        # the polyline's midpoint in chord length is the via point, at t = 0
        assert seed[100].tolist() == via.tolist()
        # and the relaxed curve keeps to that channel
        conn = minimize_k_length(p, p.wells[0], p.wells[1], 201, 6.0, [via])
        assert np.all(sign * conn.curve.nodes[1:-1, 1] > 0.0)
        assert conn.dk_value == pytest.approx(2.115106, abs=2e-3)


def test_endpoints_pinned():
    p = planar_two_well()
    conn = minimize_k_length(p, p.wells[0], p.wells[1], 401, 8.0, [np.array([0.0, 1.0])])
    assert conn.curve.nodes[0].tolist() == p.wells[0].tolist()
    assert conn.curve.nodes[-1].tolist() == p.wells[1].tolist()
    assert (conn.x_minus.tolist(), conn.x_plus.tolist()) == ([-1.0, 0.0], [1.0, 0.0])
    assert conn.window == 8.0


def _relaxation_steps(monkeypatch, p, via):
    """The Newton steps of one planar connect relaxation through ``via``."""
    infos = []
    newton = function_space.pinned_newton_cg

    def recorded(*args, **kwargs):
        out, info = newton(*args, **kwargs)
        infos.append(info)
        return out, info

    monkeypatch.setattr(function_space, "pinned_newton_cg", recorded)
    conn = minimize_k_length(p, p.wells[0], p.wells[1], 201, 6.0, [via])
    (info,) = infos
    assert info.status == "converged" and info.steps > 1
    return conn, info.steps


def test_n_iters_counts_accepted_steps(monkeypatch):
    p = planar_two_well()
    _, k = _relaxation_steps(monkeypatch, p, np.array([0.0, 1.0]))
    # the same relaxation cut one Newton step short stops there and says so
    monkeypatch.setattr(function_space, "RELAX_STEPS", k - 1)
    with pytest.raises(RuntimeError, match=f"max_iters after {k - 1} Newton steps"):
        minimize_k_length(p, p.wells[0], p.wells[1], 201, 6.0, [np.array([0.0, 1.0])])


def test_a_descent_whose_last_allowed_step_converges_says_so(monkeypatch):
    p = planar_two_well()
    via = np.array([0.0, 1.0])
    conn, k = _relaxation_steps(monkeypatch, p, via)
    # the tolerance is tested after the last allowed step, so a relaxation
    # allowed exactly its k steps converges to the same curve
    monkeypatch.setattr(function_space, "RELAX_STEPS", k)
    cut = minimize_k_length(p, p.wells[0], p.wells[1], 201, 6.0, [via])
    assert cut.curve.nodes.tobytes() == conn.curve.nodes.tobytes()
    assert cut.dk_value == conn.dk_value
