import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetconn import (
    WellRefinementError,
    check_a4,
    double_well,
    make_weight,
    planar_two_well,
    refine_wells,
    triple_well,
)

coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def test_double_well_values():
    p = double_well()
    assert p.dim == 1
    assert p.values_at(np.array([1.0]))[0] == pytest.approx(0.0)
    assert p.values_at(np.array([-1.0]))[0] == pytest.approx(0.0)
    assert p.values_at(np.array([0.0]))[0] == pytest.approx(0.5)
    assert p.hessian_lower_bound == pytest.approx(-2.0)
    assert [w[0] for w in p.wells] == [-1.0, 1.0]


def test_triple_well_values():
    p = triple_well()
    for w in (-1.0, 0.0, 1.0):
        assert p.values_at(np.array([w]))[0] == pytest.approx(0.0)
    assert len(p.wells) == 3
    assert p.hessian_lower_bound == pytest.approx(-1.4)


def test_planar_two_well_values():
    p = planar_two_well(beta=2.0, kappa=0.5)
    for w in p.wells:
        assert p.values_at(w)[0] == pytest.approx(0.0)
        assert np.allclose(p.gradients_at(w)[0], 0.0, atol=1e-14)
    # the degenerate channel: u2^2 = kappa (1 - u1^2) kills the second term
    u = np.array([0.5, np.sqrt(0.5 * (1 - 0.25))])
    assert p.values_at(u)[0] == pytest.approx((0.25 - 1.0) ** 2)


@given(coord)
@settings(max_examples=50, deadline=None)
def test_double_well_gradient_matches_fd(x):
    p = double_well()
    eps = 1e-6
    fd = (p.values_at(np.array([x + eps]))[0] - p.values_at(np.array([x - eps]))[0]) / (2 * eps)
    assert p.gradients_at(np.array([x]))[0][0] == pytest.approx(fd, abs=1e-7)


@given(coord, coord)
@settings(max_examples=50, deadline=None)
def test_planar_gradient_matches_fd(x, y):
    p = planar_two_well()
    u = np.array([x, y])
    g = p.gradients_at(u)[0]
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1e-6
        fd = (p.values_at(u + e)[0] - p.values_at(u - e)[0]) / 2e-6
        assert g[j] == pytest.approx(fd, abs=1e-5)


@given(coord, coord)
@settings(max_examples=50, deadline=None)
def test_planar_hessian_lower_bound_holds(x, y):
    p = planar_two_well()
    h = p.hessians_at(np.array([x, y]))[0]
    lo = np.min(np.linalg.eigvalsh(h))
    assert lo >= p.hessian_lower_bound - 1e-8


def test_planar_hessian_lower_bound_is_sampled_on_first_read(monkeypatch):
    """Only connect's leg audits read the bound: a planar double never
    samples it, and a read samples the 33x33 box's eigenvalues once."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    p = planar_two_well()
    assert calls == []
    assert p.hessian_lower_bound == -8.0
    assert p.hessian_lower_bound == -8.0
    assert calls == [(33 * 33, 2, 2)]


def test_make_weight_is_sqrt_2w():
    p = double_well()
    ws = make_weight(p)
    x = np.array([0.3])
    assert ws.weight_at(x) == pytest.approx(np.sqrt(2.0 * p.values_at(x)[0]))
    assert ws.weight_at(np.array([1.0])) == pytest.approx(0.0)


def test_refine_wells_newton():
    p = double_well()
    refined = refine_wells(p, [np.array([-1.001]), np.array([0.999])])
    assert np.linalg.norm(refined[0] - np.array([-1.0])) < 1e-10
    assert np.linalg.norm(refined[1] - np.array([1.0])) < 1e-10


def test_refine_wells_degenerate_direction():
    # the planar well is quartic-flat in u2: convergence is judged on the
    # gradient, and the position error stays within the flat tolerance
    p = planar_two_well()
    refined = refine_wells(p, [p.wells[0] + np.array([1e-3, 1e-3])])
    assert p.values_at(refined[0])[0] < 1e-15
    assert np.linalg.norm(p.gradients_at(refined[0])[0]) < 1e-10
    assert np.linalg.norm(refined[0] - p.wells[0]) < 1e-4


def test_refine_wells_rejects_non_well():
    with pytest.raises(WellRefinementError):
        refine_wells(planar_two_well(), [np.array([0.0, 5.0])])


def test_check_a4_quadratic_and_quartic():
    # grad W . (x - a) behaves like 4 r^2 near a nondegenerate double-well
    # minimum; the sampled constant sits a bit below the r -> 0 limit
    fit2 = check_a4(double_well(), np.array([1.0]))
    assert fit2.ok
    assert fit2.p0 == 2.0
    assert 3.0 < fit2.c0 <= 4.0
    p = planar_two_well(beta=1.5)
    fit4 = check_a4(p, p.wells[1])
    assert fit4.ok
    assert fit4.p0 == 4.0
    assert fit4.c0 == pytest.approx(6.0, rel=5e-2)
