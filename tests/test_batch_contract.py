"""Every potential and weight is evaluated on (k, dim) batches only.

A batch of k points must give exactly (bitwise) what k batches of one give,
with the declared output shapes, and each built-in Hessian must match
central differences of its gradient.  The profile-space kernels follow the
same contract on (k, m, n) stacks of profiles, and the Gauss-Kronrod
quadrature on batches of panels and segments: the counterexample report
integrates all its candidates in one batch and must give what lone
candidates give.
"""

import numpy as np
import pytest

from hetconn import (
    CounterexampleWeight,
    EffectivePotentialSpace,
    candidate_length,
    crossing_lower_bound,
    double_well,
    make_weight,
    nonexistence_report,
    planar_two_well,
    sin_example_space,
    triple_well,
)
from hetconn.counterexample import _quad_breaks
from hetconn.metric import _qk21, qk21, segment_k_lengths

POTENTIALS = {
    "double_well": double_well,
    "triple_well": triple_well,
    "planar_two_well": lambda: planar_two_well(beta=1.5, kappa=0.7),
}


def _points(dim, k=7, seed=0):
    return np.random.default_rng(seed).uniform(-1.6, 1.6, (k, dim))


def _assert_batch_is_stack_of_singles(fn, pts, shape):
    batch = fn(pts)
    assert batch.shape == shape
    singles = np.stack([fn(p[None])[0] for p in pts])
    assert np.array_equal(batch, singles)


def _assert_weight_contract(ws, pts):
    """weight_at follows the batch contract."""
    _assert_batch_is_stack_of_singles(ws.weight_at, pts, (pts.shape[0],))


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_potential_batch_contract(name):
    p = POTENTIALS[name]()
    pts = _points(p.dim)
    k = pts.shape[0]
    _assert_batch_is_stack_of_singles(p.values_at, pts, (k,))
    _assert_batch_is_stack_of_singles(p.gradients_at, pts, (k, p.dim))
    _assert_batch_is_stack_of_singles(p.hessians_at, pts, (k, p.dim, p.dim))


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_hessians_match_central_differences_of_gradients(name):
    p = POTENTIALS[name]()
    pts = _points(p.dim, seed=1)
    eps = 1e-6
    fd = np.empty((pts.shape[0], p.dim, p.dim))
    for j in range(p.dim):
        e = np.zeros(p.dim)
        e[j] = eps
        fd[:, :, j] = (p.gradients_at(pts + e) - p.gradients_at(pts - e)) / (2 * eps)
    assert np.allclose(p.hessians_at(pts), fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_make_weight_batch_contract(name):
    p = POTENTIALS[name]()
    ws = make_weight(p)
    pts = np.concatenate([_points(p.dim, seed=2), np.stack(p.wells)])
    _assert_weight_contract(ws, pts)


def test_profile_space_weight_batch_contract():
    s = np.linspace(-6.0, 6.0, 41)
    eps = EffectivePotentialSpace(
        grid=s, n_components=1, bc="tails", potential=double_well(),
        tail_left=np.array([-1.0]), tail_right=np.array([1.0]),
    )
    eps.ref_value = eps.energy_1d(np.tanh(s))
    rng = np.random.default_rng(3)
    pts = np.tanh(s)[None, :] + 0.2 * rng.standard_normal((4, s.size))
    pts = np.concatenate([pts, np.tanh(s)[None, :]])
    # the effective potential, whose sqrt(2 max(., 0)) is the geodesic weight
    # on profile space
    _assert_batch_is_stack_of_singles(eps.effective_potential, pts, (pts.shape[0],))


def test_counterexample_weight_batch_contract():
    # the weight's three zeros (0, -1), (0, 0), (0, 1) among the points
    zeros = np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]])
    pts = np.concatenate([_points(2, seed=4) * 3.0, zeros])
    _assert_batch_is_stack_of_singles(CounterexampleWeight().k, pts, (pts.shape[0],))


def _planar_profile_space():
    p = planar_two_well(beta=1.5, kappa=0.7)
    return EffectivePotentialSpace(
        grid=np.linspace(-4.0, 4.0, 21), n_components=2, bc="tails", potential=p,
        tail_left=p.wells[0], tail_right=p.wells[1], x1_parity=(-1.0, 1.0),
    )


PROFILE_SPACES = {
    "planar_potential": _planar_profile_space,
    "sin_density": lambda: sin_example_space(m=17),
}


@pytest.mark.parametrize("name", sorted(PROFILE_SPACES))
def test_profile_kernels_on_a_stack_equal_single_profiles(name):
    space = PROFILE_SPACES[name]()
    k, m, n = 6, space.m, space.n_components
    stack = np.random.default_rng(5).uniform(-1.2, 1.2, (k, m, n))
    energies = space.energy_1d(stack)
    grads = space.energy_1d_grad(stack)
    assert energies.shape == (k,)
    assert grads.shape == (k, m, n)
    # a single profile is a stack of one
    assert np.array_equal(energies, np.concatenate([space.energy_1d(v) for v in stack]))
    assert np.array_equal(grads, np.concatenate([space.energy_1d_grad(v) for v in stack]))
    # the columns of a field, a strided view, give the same bits
    columns = stack.transpose(1, 0, 2).copy().transpose(1, 0, 2)
    assert np.array_equal(space.energy_1d(columns), energies)
    assert np.array_equal(space.energy_1d_grad(columns), grads)


@pytest.mark.parametrize("name", sorted(PROFILE_SPACES))
def test_density_hessians_on_a_stack_equal_single_profiles_and_differences(name):
    space = PROFILE_SPACES[name]()
    k, m, n = 5, space.m, space.n_components
    stack = np.random.default_rng(6).uniform(-1.2, 1.2, (k, m, n))
    hess = space._density_hessians(stack)
    assert hess.shape == (k, m, n, n)
    assert np.array_equal(hess, np.concatenate([space._density_hessians(v[None]) for v in stack]))
    # the density is pointwise, so moving one component at every node at once
    # gives one column of every node's Hessian
    eps = 1e-6
    fd = np.empty_like(hess)
    for c in range(n):
        e = np.zeros(n)
        e[c] = eps
        fd[..., c] = (space._density_grads(stack + e) - space._density_grads(stack - e)) / (2 * eps)
    assert np.allclose(hess, fd, rtol=1e-6, atol=1e-6)


def test_qk21_on_a_batch_equals_single_panels():
    rng = np.random.default_rng(7)
    # every batch size up to 40 rows, so the rows fall at every offset of a
    # vectorised kernel's blocks
    for p in range(1, 41):
        f = rng.standard_normal((p, 21))
        half = rng.uniform(0.1, 2.0, p)
        value, err = _qk21(f, half)
        singles = [_qk21(f[i:i + 1], half[i:i + 1]) for i in range(p)]
        assert np.array_equal(value, np.concatenate([v for v, _ in singles]))
        assert np.array_equal(err, np.concatenate([e for _, e in singles]))
    lo = rng.uniform(-2.0, 1.0, 33)
    hi = lo + rng.uniform(0.1, 3.0, 33)

    def fun(s):
        return np.exp(-s * s) * np.cos(3.0 * s)

    assert np.array_equal(qk21(fun, lo, hi),
                          np.concatenate([qk21(fun, lo[i:i + 1], hi[i:i + 1])
                                          for i in range(lo.size)]))


def _random_segments(seed, k=24):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, (k, 2)), rng.uniform(-3.0, 3.0, (k, 2))


@pytest.mark.parametrize("weight", ["counterexample", "planar_two_well"])
def test_segment_k_lengths_on_a_batch_equal_single_segments(weight):
    if weight == "counterexample":
        k, (a, b) = CounterexampleWeight().k, _random_segments(8)
        breaks = [_quad_breaks(p, q) for p, q in zip(a, b)]
    else:
        k, (a, b) = make_weight(POTENTIALS[weight]()).weight_at, _random_segments(9)
        breaks = [[]] * len(a)
    lengths = segment_k_lengths(k, a, b, breaks)
    singles = [segment_k_lengths(k, a[i:i + 1], b[i:i + 1], breaks[i:i + 1])[0]
               for i in range(len(a))]
    assert np.array_equal(lengths, singles)


@pytest.mark.parametrize("power, radii, n_max", [
    (2.0, (4.0, 8.0, 16.0, 32.0, 64.0), 12),  # configs/counterexample.json
    (2.0, (3.0, 5.0, 7.5, 100.0), 9),         # walls off the powers, one past 2^n_max
    (4.0, (1.0, 2.0), 20),
])
def test_nonexistence_report_equals_lone_candidates(power, radii, n_max):
    w = CounterexampleWeight(power=power)
    report = nonexistence_report(w, radii=radii, n_candidates=n_max)
    assert report.candidate_lengths.tolist() == [
        candidate_length(np.array([2.0**n]), w)[0] for n in range(1, n_max + 1)]
    assert report.box_candidates.tolist() == [
        candidate_length(np.array([r]), w)[0] for r in radii]
    assert report.bounds.tolist() == [crossing_lower_bound(np.array([r]), w)[0] for r in radii]


def test_candidate_length_on_an_array_equals_scalar_calls():
    # each abscissa alone, as an array of one
    w = CounterexampleWeight()
    x = np.array([8.0, 2.0, 128.0, 32.0, 2.5, 40.0])
    total = candidate_length(x, w)
    assert total.shape == (6,)
    assert total.tolist() == [candidate_length(np.array([v]), w)[0] for v in x.tolist()]
