import numpy as np
import pytest

from hetconn import (
    EuclideanSpace,
    SampledCurve,
    SolverOptions,
    WeightedSpace,
    k_length,
    minimize_k_length,
    refine_nodes,
    remove_sigma_loops,
    sin_example_space,
)
from hetconn.geodesic import WEIGHT_FLOOR, _energy_grad
from hetconn.potentials import double_well, make_weight, planar_two_well, triple_well


def test_double_well_chord_is_optimal():
    ws = make_weight(double_well())
    curve, value, trace = minimize_k_length(
        ws, np.array([-1.0]), np.array([1.0]), SolverOptions(n_nodes=401)
    )
    assert trace.status == "converged"
    assert value == pytest.approx(4.0 / 3.0, abs=1e-4)
    assert trace.monotone


def test_descent_values_monotone():
    p = planar_two_well()
    ws = make_weight(p)
    opts = SolverOptions(n_nodes=51, max_iters=200,
                         via_points=(np.array([0.0, 1.0]),))
    curve, value, trace = minimize_k_length(ws, p.wells[0], p.wells[1], opts)
    vals = np.asarray(trace.energies)
    assert np.all(np.diff(vals) <= 1e-10 * np.maximum(1.0, np.abs(vals[:-1])))
    assert trace.monotone


def test_via_points_route_the_seed():
    p = planar_two_well()
    ws = make_weight(p)
    opts = SolverOptions(n_nodes=51, max_iters=0,
                         via_points=(np.array([0.0, 1.0]),))
    curve, _, _ = minimize_k_length(ws, p.wells[0], p.wells[1], opts)
    # the seed polyline passes through the via point
    gaps = np.linalg.norm(curve.nodes - np.array([0.0, 1.0]), axis=1)
    assert np.min(gaps) < 1e-9


def test_endpoints_pinned_and_projection_respected():
    p = planar_two_well()
    ws = make_weight(p)

    def box(nodes):
        out = nodes.copy()
        out[:, 1] = np.clip(out[:, 1], -0.5, 0.5)
        return out

    opts = SolverOptions(n_nodes=41, max_iters=50, project=box,
                         via_points=(np.array([0.0, 1.0]),))
    curve, _, _ = minimize_k_length(ws, p.wells[0], p.wells[1], opts)
    assert np.allclose(curve.nodes[0], p.wells[0])
    assert np.allclose(curve.nodes[-1], p.wells[1])
    assert np.max(curve.nodes[1:-1, 1]) <= 0.5 + 1e-12


def test_init_nodes_seed_override():
    ws = make_weight(double_well())
    seed = np.linspace(-1.0, 1.0, 21)[:, None] ** 3
    seed[0, 0], seed[-1, 0] = -1.0, 1.0
    opts = SolverOptions(init_nodes=seed, max_iters=0)
    curve, _, _ = minimize_k_length(ws, np.array([-1.0]), np.array([1.0]), opts)
    assert curve.n_nodes == 21
    assert np.allclose(curve.nodes[:, 0], seed[:, 0])


def test_remove_sigma_loops_not_worse():
    ws = make_weight(triple_well())
    # a wasteful detour that revisits the middle well region
    xs = np.concatenate([
        np.linspace(-1.0, 0.3, 20),
        np.linspace(0.3, -0.2, 10),
        np.linspace(-0.2, 1.0, 20),
    ])
    c = SampledCurve(times=np.linspace(0.0, 1.0, xs.size), nodes=xs[:, None])
    before = k_length(c, ws, rule="midpoint")
    cleaned = remove_sigma_loops(c, ws)
    after = k_length(cleaned, ws, rule="midpoint")
    assert after <= before + 1e-12
    assert np.allclose(cleaned.nodes[0], c.nodes[0])
    assert np.allclose(cleaned.nodes[-1], c.nodes[-1])


def test_refine_nodes_keeps_value_controlled():
    p = planar_two_well()
    ws = make_weight(p)
    opts = SolverOptions(n_nodes=31, max_iters=400,
                         via_points=(np.array([0.0, 1.0]),))
    curve, value, _ = minimize_k_length(ws, p.wells[0], p.wells[1], opts)
    refined = refine_nodes(curve, ws, 61, opts=opts)
    assert refined.n_nodes == 61
    assert k_length(refined, ws, rule="midpoint") <= value + 1e-9


def test_weight_floor_freezes_dead_segments():
    # nodes flanked by zero-weight segments receive no pull; only the node
    # touching the first active segment moves (reparametrization disabled so
    # nodes are not redistributed)
    ws = make_weight(double_well())
    seed = np.concatenate([
        np.full(5, -1.0), np.linspace(-1.0, 1.0, 21), np.full(5, 1.0)
    ])[:, None]
    opts = SolverOptions(init_nodes=seed, max_iters=5, reparam=None)
    curve, _, _ = minimize_k_length(ws, np.array([-1.0]), np.array([1.0]), opts)
    assert np.allclose(curve.nodes[:4, 0], -1.0, atol=1e-12)
    assert np.allclose(curve.nodes[-4:, 0], 1.0, atol=1e-12)


def _masked_energy_grad(nodes, wspace):
    # the gradient assembly with boolean-mask copies that the all-rows
    # assembly replaced, kept as the bitwise reference
    w = wspace.space.coord_weights
    diffs = nodes[1:] - nodes[:-1]
    lens = np.sqrt(np.sum(w * diffs * diffs, axis=1))
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    kvals, gk = wspace.weight_and_grad_at(mids)
    if np.any(np.isinf(kvals)):
        return np.inf, None
    energy = float(np.sum(kvals * lens))
    grad = np.zeros_like(nodes)
    active = (kvals >= WEIGHT_FLOOR) & (lens > 0.0)
    if np.any(active):
        half = 0.5 * gk * lens[:, None]
        pull = np.zeros_like(diffs)
        pull[active] = (kvals[active] / lens[active])[:, None] * (w * diffs[active])
        half[~active] = 0.0
        grad[:-1] += half - pull
        grad[1:] += half + pull
    grad[0] = 0.0
    grad[-1] = 0.0
    return energy, grad


def _masked_profile_weight(space):
    # the profile weight that evaluated its gradient on the live rows only
    def weight(pts, grad=False):
        w = space.effective_potential(pts)
        k = np.sqrt(2.0 * np.maximum(w, 0.0))
        if not grad:
            return k
        live = w > 1e-16
        g = np.zeros_like(pts)
        g[live] = space.energy_1d_grad(pts[live]).reshape(-1, g.shape[1]) / k[live][:, None]
        return k, g

    return WeightedSpace(space=space.ambient(), weight=weight)


def _gradient_paths():
    dw = make_weight(double_well())
    # a repeated node (zero-length segment), a node on the well -1 and a
    # segment whose midpoint weight sits below the floor
    line = np.array([-1.0, -1.0, -1.0 + 1e-12, -0.5, -0.5, 0.2, 0.9, 1.0])[:, None]
    planar = make_weight(planar_two_well())
    arc = np.stack([np.linspace(-1.0, 1.0, 9), np.sin(np.linspace(0.0, np.pi, 9))], axis=1)
    arc = np.insert(arc, 4, arc[4], axis=0)
    space = sin_example_space(m=17, relax=False)
    zp = space.z_plus.flatten()
    rng = np.random.default_rng(3)
    profiles = np.stack([-zp, -0.4 * zp, zp + 0.05 * rng.standard_normal(zp.size), zp, zp,
                         zp + 1e-13])
    walls = WeightedSpace(
        space=EuclideanSpace(2),
        weight=lambda pts, grad=False: (
            (np.where(pts[:, 0] > 0.5, np.inf, 1.0), np.zeros_like(pts)) if grad
            else np.where(pts[:, 0] > 0.5, np.inf, 1.0)
        ),
    )
    return {
        "double_well": (dw, dw, line),
        "planar": (planar, planar, arc),
        "profile_weight": (space.weighted_space(), _masked_profile_weight(space), profiles),
        "infinite_weight": (walls, walls, arc),
    }


@pytest.mark.parametrize("name", ["double_well", "planar", "profile_weight", "infinite_weight"])
def test_energy_grad_equals_the_masked_assembly_bitwise(name):
    wspace, reference, nodes = _gradient_paths()[name]
    energy, grad = _energy_grad(nodes, wspace, True)
    ref_energy, ref_grad = _masked_energy_grad(nodes, reference)
    assert energy == ref_energy
    if ref_grad is None:
        assert energy == np.inf and grad is None
    else:
        assert grad.tobytes() == ref_grad.tobytes()
        assert np.any(grad != 0.0)
