import dataclasses
import math

import numpy as np
import pytest

from hetconn import (
    EuclideanSpace,
    SampledCurve,
    SolverOptions,
    WeightedSpace,
    k_length,
    minimize_k_length,
    remove_sigma_loops,
    sin_example_space,
)
from hetconn.function_space import EffectivePotentialSpace
from hetconn.geodesic import (
    ARMIJO,
    BACKTRACK,
    MAX_BACKTRACKS,
    STEP0,
    WEIGHT_FLOOR,
    _energy_grad,
    _seed_nodes,
)
from hetconn.potentials import double_well, make_weight, planar_two_well, triple_well


def test_double_well_chord_is_optimal():
    ws = make_weight(double_well())
    curve, value, trace = minimize_k_length(
        ws, np.array([-1.0]), np.array([1.0]), SolverOptions(n_nodes=401)
    )
    assert trace.status == "converged"
    assert value == pytest.approx(4.0 / 3.0, abs=1e-4)
    assert trace.monotone
    # the nodes come back on uniform times
    assert curve.times.tobytes() == np.linspace(0.0, 1.0, 401).tobytes()


def test_n_iters_counts_accepted_steps():
    ws = make_weight(double_well())
    x_minus, x_plus = np.array([-1.0]), np.array([1.0])
    opts = SolverOptions(n_nodes=21, grad_tol=1e-3, max_iters=2000,
                         init_nodes=(np.linspace(-1.0, 1.0, 21) ** 3)[:, None])
    _, _, trace = minimize_k_length(ws, x_minus, x_plus, opts)
    k = len(trace.energies) - 1
    assert trace.status == "converged" and k > 0
    assert trace.n_iters == k
    # the same descent cut one step short has taken the same k - 1 steps
    _, _, cut = minimize_k_length(ws, x_minus, x_plus,
                                  dataclasses.replace(opts, max_iters=k - 1))
    assert (cut.status, cut.n_iters) == ("max_iters", k - 1)
    assert cut.energies == trace.energies[:-1]


def test_a_descent_whose_last_allowed_step_converges_says_so():
    ws = make_weight(double_well())
    x_minus, x_plus = np.array([-1.0]), np.array([1.0])
    opts = SolverOptions(n_nodes=21, grad_tol=1e-3, max_iters=2000,
                         init_nodes=(np.linspace(-1.0, 1.0, 21) ** 3)[:, None])
    curve, value, trace = minimize_k_length(ws, x_minus, x_plus, opts)
    k = trace.n_iters
    assert trace.status == "converged" and k == 30
    cut_curve, cut_value, cut = minimize_k_length(
        ws, x_minus, x_plus, dataclasses.replace(opts, max_iters=k))
    # the tolerance is tested at the returned nodes, and the norm is theirs
    assert (cut.status, cut.n_iters) == ("converged", k)
    assert cut.grad_norm == trace.grad_norm < opts.grad_tol
    assert cut.energies == trace.energies and cut.n_evals == trace.n_evals
    assert np.array_equal(cut_curve.nodes, curve.nodes) and cut_value == value


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


def test_endpoints_pinned():
    p = planar_two_well()
    ws = make_weight(p)
    opts = SolverOptions(n_nodes=41, max_iters=50, via_points=(np.array([0.0, 1.0]),))
    curve, _, _ = minimize_k_length(ws, p.wells[0], p.wells[1], opts)
    assert np.allclose(curve.nodes[0], p.wells[0])
    assert np.allclose(curve.nodes[-1], p.wells[1])


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


def test_remove_sigma_loops_distances_are_the_per_node_distances_bitwise():
    # the detour curve of test_remove_sigma_loops_not_worse
    ws = make_weight(triple_well())
    xs = np.concatenate([
        np.linspace(-1.0, 0.3, 20),
        np.linspace(0.3, -0.2, 10),
        np.linspace(-0.2, 1.0, 20),
    ])
    for sigma in ws.zero_set:
        batched = ws.space.distances(xs[:, None], sigma)
        per_node = np.array([ws.space.distance(p, sigma) for p in xs[:, None]])
        assert batched.tobytes() == per_node.tobytes()


def test_weight_floor_freezes_dead_segments():
    # nodes flanked by zero-weight segments receive no pull; only the node
    # touching the first active segment moves
    ws = make_weight(double_well())
    seed = np.concatenate([
        np.full(5, -1.0), np.linspace(-1.0, 1.0, 21), np.full(5, 1.0)
    ])[:, None]
    opts = SolverOptions(init_nodes=seed, max_iters=5)
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
    space = sin_example_space(m=17)
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


def _two_pass_energy_grad(nodes, wspace, want_grad):
    # the evaluation that recomputed diffs, lengths, midpoints and K for the
    # gradient of an accepted trial, kept as the bitwise reference
    w = wspace.space.coord_weights
    diffs = nodes[1:] - nodes[:-1]
    lens = np.sqrt(np.sum(w * diffs * diffs, axis=1))
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    if want_grad:
        kvals, gk = wspace.weight_and_grad_at(mids)
    else:
        kvals = wspace.weight_at(mids)
    if np.any(np.isinf(kvals)):
        return math.inf, None
    energy = float(np.sum(kvals * lens))
    if not want_grad:
        return energy, None
    active = (kvals >= WEIGHT_FLOOR) & (lens > 0.0)
    ratio = np.divide(kvals, lens, out=np.zeros_like(kvals), where=active)
    half = np.where(active[:, None], 0.5 * gk * lens[:, None], 0.0)
    pull = np.where(active[:, None], ratio[:, None] * (w * diffs), 0.0)
    grad = np.zeros_like(nodes)
    grad[:-1] += half - pull
    grad[1:] += half + pull
    grad[0] = 0.0
    grad[-1] = 0.0
    return energy, grad


def _two_pass_descent(wspace, x_minus, x_plus, opts):
    # the descent loop that evaluated each accepted trial twice; returns the
    # raw nodes, energies, status, iterations and line-search trials
    nodes = _seed_nodes(x_minus, x_plus, opts)
    energy, grad = _two_pass_energy_grad(nodes, wspace, True)
    energies = [energy]
    inv_w = 1.0 / wspace.space.coord_weights
    status, step, prev_slope, it, trials = "max_iters", STEP0, 0.0, 0, 0
    for it in range(1, opts.max_iters + 1):
        direction = grad * inv_w
        slope = float(np.sum(grad * direction))
        if math.sqrt(max(slope, 0.0)) < opts.grad_tol:
            status = "converged"
            break
        accepted = False
        t = step
        if prev_slope > 0.0:
            t = min(step * min(2.0, max(BACKTRACK, prev_slope / slope)), STEP0 * 1e3)
        for _ in range(MAX_BACKTRACKS):
            trial = nodes - t * direction
            trials += 1
            e_new, _ = _two_pass_energy_grad(trial, wspace, False)
            if e_new <= energy - ARMIJO * t * slope:
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            status = "stall"
            break
        nodes = trial
        energy = e_new
        energies.append(energy)
        step, prev_slope = t, slope
        _, grad = _two_pass_energy_grad(nodes, wspace, True)
    return nodes, energies, status, it, trials


def _descent_case(name, planar_space):
    """(weighted space, x_minus, x_plus, options) of a 40-iteration descent."""
    if name == "double_well":
        seed = np.linspace(-1.0, 1.0, 21)[:, None] ** 3
        return (make_weight(double_well()), np.array([-1.0]), np.array([1.0]),
                SolverOptions(init_nodes=seed, max_iters=40))
    if name == "planar":
        p = planar_two_well()
        return (make_weight(p), p.wells[0], p.wells[1],
                SolverOptions(n_nodes=21, max_iters=40, via_points=(np.array([0.0, 1.0]),)))
    if name == "sin_profiles":
        space = sin_example_space(m=17)
        return (space.weighted_space(), space.z_minus.flatten(), space.z_plus.flatten(),
                SolverOptions(n_nodes=9, max_iters=40))
    return (planar_space.weighted_space(), planar_space.z_minus.flatten(),
            planar_space.z_plus.flatten(), SolverOptions(n_nodes=9, max_iters=40))


DESCENT_CASES = ["double_well", "planar", "sin_profiles", "planar_profiles"]


@pytest.mark.parametrize("name", DESCENT_CASES)
def test_descent_equals_the_two_pass_loop_bitwise(name, planar_space):
    wspace, x_minus, x_plus, opts = _descent_case(name, planar_space)
    ref_nodes, ref_energies, ref_status, ref_iters, trials = _two_pass_descent(
        wspace, x_minus, x_plus, opts
    )
    curve, value, trace = minimize_k_length(wspace, x_minus, x_plus, opts)
    assert curve.nodes.tobytes() == ref_nodes.tobytes()
    ref_curve = SampledCurve(times=np.linspace(0.0, 1.0, ref_nodes.shape[0]), nodes=ref_nodes)
    assert value == k_length(ref_curve, wspace)
    assert trace.energies == ref_energies
    assert (trace.status, trace.n_iters) == (ref_status, ref_iters) == ("max_iters", 40)
    # some first trial was rejected, so a backtracked step was accepted too
    assert trials > trace.n_iters


@pytest.mark.parametrize("name", ["planar"])
def test_descent_takes_one_trial_per_step_and_keeps_moving(name):
    wspace, x_minus, x_plus, opts = _descent_case(name, None)
    opts = dataclasses.replace(opts, max_iters=200)
    _, _, trace = minimize_k_length(wspace, x_minus, x_plus, opts)
    assert (trace.status, trace.n_iters) == ("max_iters", 200)
    # trying 2t after every accepted step makes about 2 trials per step
    assert trace.n_evals <= 1.25 * trace.n_iters
    # a first trial shrunk by the full slope ratio once let the step fall
    # below 1e-15 and froze the energy
    assert trace.energies[-1] < trace.energies[-51]


def _counting_potential(p):
    calls = []

    def values(pts):
        calls.append(pts.shape[0])
        return p.values(pts)

    return dataclasses.replace(p, values=values), calls


def test_make_weight_evaluates_w_once_per_trial():
    p = planar_two_well()
    counted, calls = _counting_potential(p)
    opts = SolverOptions(n_nodes=21, max_iters=40, via_points=(np.array([0.0, 1.0]),))
    *_, trials = _two_pass_descent(make_weight(p), p.wells[0], p.wells[1], opts)
    _, _, trace = minimize_k_length(make_weight(counted), p.wells[0], p.wells[1], opts)
    accepted = len(trace.energies) - 1
    assert accepted == 40
    # the seed, every line-search trial and the returned value's k_length;
    # no second evaluation at an accepted trial's midpoints
    assert len(calls) == 1 + trials + 1


def test_weight_memo_recomputes_w_on_any_other_batch():
    p = planar_two_well()
    counted, calls = _counting_potential(p)
    ws, fresh = make_weight(counted), make_weight(p)
    a = np.array([[0.3, 0.2], [-0.5, 0.7]])
    a.flags.writeable = False
    ws.weight_at(a)
    k_a, g_a = ws.weight_and_grad_at(a)
    assert len(calls) == 1
    # a new array with different values, frozen or not, is evaluated afresh
    b = a + 0.25
    k_b, g_b = ws.weight_and_grad_at(b)
    assert len(calls) == 2
    ref_k, ref_g = fresh.weight_and_grad_at(b)
    assert k_b.tobytes() == ref_k.tobytes() and g_b.tobytes() == ref_g.tobytes()
    assert not np.array_equal(k_a, k_b)
    ws.weight_at(b)
    ws.weight_and_grad_at(b)
    assert len(calls) == 4
    c = np.array([[0.9, -0.1], [0.1, 0.4]])
    c.flags.writeable = False
    k_c, _ = ws.weight_and_grad_at(c)
    assert len(calls) == 5
    assert k_c.tobytes() == fresh.weight_at(c).tobytes()
    # the frozen batch still held gives back its own values
    k_again, g_again = ws.weight_and_grad_at(c)
    assert len(calls) == 5
    assert k_again.tobytes() == k_c.tobytes()


def test_profile_weight_evaluates_energy_once_per_frozen_batch(monkeypatch):
    space = sin_example_space(m=17)
    calls = []
    energy_1d = EffectivePotentialSpace.energy_1d

    def counted(self, values):
        calls.append(1)
        return energy_1d(self, values)

    zp = space.z_plus.flatten()
    a = np.stack([0.5 * zp, 0.9 * zp])
    a.flags.writeable = False
    b = np.stack([0.4 * zp, 0.8 * zp])
    ref_a = space.weighted_space().weight(a, grad=True)
    ref_b = space.weighted_space().weight(b, grad=True)
    monkeypatch.setattr(EffectivePotentialSpace, "energy_1d", counted)
    ws = space.weighted_space()
    k = ws.weight_at(a)
    k_a, g_a = ws.weight_and_grad_at(a)
    assert len(calls) == 1
    assert k.tobytes() == k_a.tobytes() == ref_a[0].tobytes()
    assert g_a.tobytes() == ref_a[1].tobytes()
    k_b, g_b = ws.weight_and_grad_at(b)
    assert len(calls) == 2
    assert k_b.tobytes() == ref_b[0].tobytes() and g_b.tobytes() == ref_b[1].tobytes()
