import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hetconn import (
    DoubleOptions,
    EffectivePotentialSpace,
    assemble_and_verify,
    audit_translation_speed,
    optimal_translation,
    sin_example_space,
    solve_asymmetric,
    solve_symmetric,
)
from hetconn import double_connection, function_space
from hetconn.double_connection import (
    POLISH_GTOL,
    POLISH_STEPS,
    _field_pins,
    _path_energy,
    _PathEnergyHessian,
    _polish_field,
    _seed_field,
    _symmetrize_columns,
    planar_effective_space,
    x2_defect,
)
from hetconn.function_space import pinned_newton_cg, poisson_preconditioner, truncated_cg
from hetconn.metric import trapezoid_weights

SMALL = DoubleOptions(n_out=33, t_max=4.0)


def test_planar_space_carries_mirror_profiles(planar_space):
    zm, zp = planar_space.z_minus, planar_space.z_plus
    assert np.array_equal(zm.values[:, 0], zp.values[:, 0])
    assert np.array_equal(zm.values[:, 1], -zp.values[:, 1])
    # first component is an odd connection between the wells
    assert np.array_equal(zp.values[:, 0], -zp.values[::-1, 0])
    assert zp.values[0, 0] == -1.0 and zp.values[-1, 0] == 1.0
    assert abs(planar_space.effective_potential(zp.values)) < 1e-12
    assert abs(planar_space.effective_potential(zm.values)) < 1e-12
    assert 2.0 < planar_space.ref_value < 2.3


def test_planar_weight_vanishes_only_on_the_profiles(planar_space):
    ws = planar_space.weighted_space()
    assert ws.weight_at(planar_space.z_plus.flatten())[0] == 0.0
    shoved = planar_space.z_plus.values.copy()
    shoved[:, 1] += 0.3 * np.exp(-planar_space.grid**2)
    assert ws.weight_at(shoved.ravel())[0] > 1e-2


def test_symmetric_solve_small(planar_space):
    result = solve_symmetric(planar_space, SMALL)
    assert result.mode == "sym"
    m, p, n = result.u.shape
    assert (m, p, n) == (planar_space.m, 33, 2)
    assert np.array_equal(result.u[:, 0, :], planar_space.z_minus.values)
    assert np.array_equal(result.u[:, -1, :], planar_space.z_plus.values)
    # odd symmetry of the first component holds exactly in every column
    for k in range(p):
        assert np.array_equal(result.u[:, k, 0], -result.u[::-1, k, 0])
    assert result.c_minus == 0.0 and result.c_plus == 0.0
    assert result.diagnostics["polish_status"] == "converged"
    # at equipartition the excess action matches the weighted path length
    assert result.energy == pytest.approx(result.diagnostics["k_length"], rel=5e-2)
    assert result.energy > 0.0


def test_symmetric_solve_verifies(planar_space):
    result = solve_symmetric(planar_space, SMALL)
    report = assemble_and_verify(result)
    rel = abs(report.energy_direct - report.energy_path) / report.energy_direct
    assert rel < 1e-6
    assert report.x2_gap_minus_l2 <= 1e-12
    assert report.x2_gap_plus_l2 <= 1e-12
    assert np.isfinite(report.residual_max)
    assert report.equip_defect < 0.2


def test_asymmetric_needs_a_whole_line_space():
    # translations do not act on the sine strip's pinned profiles
    with pytest.raises(ValueError, match="whole-line"):
        solve_asymmetric(sin_example_space(m=33), SMALL)


def test_asymmetric_solve_tracks_shifts(planar_space):
    result = solve_asymmetric(planar_space, SMALL)
    assert result.mode == "asym"
    assert result.m_track is not None and result.m_track.size == 33
    assert abs(result.c_minus) < 0.1
    assert abs(result.c_plus) < 0.1
    assert result.diagnostics["m_total_variation"] < 1.0
    audit = audit_translation_speed(result)
    assert audit.c_fit >= 0.0
    assert np.isfinite(audit.max_ratio)


def test_quotient_does_no_work_on_the_symmetric_fixture(planar_space):
    # from the blend of the mirror wells the unprojected Newton field tracks
    # no translation at all
    asym = solve_asymmetric(planar_space, SMALL)
    assert asym.c_minus == 0.0 and asym.c_plus == 0.0
    assert asym.diagnostics["m_total_variation"] == 0.0


def test_double_solves_run_no_path_descent(monkeypatch):
    from hetconn import geodesic, heteroclinic

    calls = []
    descend = geodesic.minimize_k_length

    def counted(*args, **kwargs):
        calls.append(args)
        return descend(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a double solve ran the equipartition reparametrization")

    # a module-level import of the names would escape the patches
    assert not hasattr(double_connection, "minimize_k_length")
    assert not hasattr(double_connection, "reparam_equipartition")
    monkeypatch.setattr(geodesic, "minimize_k_length", counted)
    monkeypatch.setattr(heteroclinic, "reparam_equipartition", refuse)
    monkeypatch.setattr(double_connection, "reparam_equipartition", refuse, raising=False)
    # the fixtures are built inside the counted region: their wells come
    # from a Newton relaxation, not a geodesic descent
    solve_symmetric(planar_effective_space(), SMALL)
    solve_asymmetric(planar_effective_space(), SMALL)
    solve_symmetric(sin_example_space(m=33), SMALL)
    assert calls == []


def test_planar_wells_are_discrete_minimizers(planar_space):
    zp = planar_space.z_plus.values
    g = planar_space.symmetrize(planar_space.energy_1d_grad(zp)[0])
    g[[0, -1]] = 0.0
    assert np.max(np.abs(g)) <= 1e-10


def test_speed_audit_rejects_symmetric_runs(planar_space):
    result = solve_symmetric(planar_space, SMALL)
    with pytest.raises(ValueError):
        audit_translation_speed(result)


def test_sin_space_wells_are_sines():
    space = sin_example_space(m=65)
    zp = space.z_plus
    assert np.max(np.abs(zp.values[:, 0] - np.sin(space.grid))) < 5e-2
    assert np.array_equal(space.z_minus.values, -zp.values)
    assert zp.values[0, 0] == 0.0 and zp.values[-1, 0] == pytest.approx(0.0, abs=1e-12)
    assert abs(space.effective_potential(zp.values)) < 1e-12
    assert space.effective_potential(np.sin(space.grid)[:, None]) >= -1e-12


def test_sin_small_solve_assembles():
    space = sin_example_space(m=33)
    opts = DoubleOptions(n_out=17, t_max=3.0)
    result = solve_symmetric(space, opts)
    assert result.u.shape == (33, 17, 1)
    assert np.max(np.abs(result.u)) < 1.5
    report = assemble_and_verify(result)
    rel = abs(report.energy_direct - report.energy_path) / max(report.energy_direct, 1e-12)
    assert rel < 1e-6
    assert report.x2_gap_minus_l2 <= 1e-12
    assert report.x2_gap_plus_l2 <= 1e-12
    assert np.isfinite(report.residual_max)


def test_optimal_translation_recovers_shift_of_a_planar_well(planar_space):
    zm, zp = planar_space.z_minus, planar_space.z_plus
    fit = optimal_translation(zp.translate(-0.4137).values, zm, zp)
    assert fit.which == 1
    assert fit.shift == pytest.approx(-0.4137, abs=1e-3)
    assert fit.unique


def _per_profile_fit(v, zm, zp, m_max, n_scan, unique_margin=1e-6):
    # one profile at a time, one translate per scan shift and per Newton
    # step: the per-profile scan that the stack kernel replaced, kept as the
    # bitwise reference
    w = trapezoid_weights(zm.m, zm.h)
    zero = np.zeros(zm.n_components)

    def misfit(z, m):
        diff = v - z.translate(m).values
        return float(np.sum(w * np.sum(diff * diff, axis=1)))

    def slopes(z, m):
        diff = v - z.translate(m).values
        dz, ddz = (
            np.column_stack([np.interp(z.s - m, z.s, f[:, c], left=zero[c], right=zero[c])
                             for c in range(z.n_components)])
            for f in (z.derivative(), z.second_difference())
        )
        dF = 2.0 * float(np.sum(w * np.sum(dz * diff, axis=1)))
        d2F = 2.0 * float(np.sum(w * np.sum(dz * dz, axis=1))) - 2.0 * float(
            np.sum(w * np.sum(ddz * diff, axis=1)))
        return dF, d2F

    def scan_and_polish(z, m_grid):
        vals = np.array([misfit(z, m) for m in m_grid])
        i = int(np.argmin(vals))
        m = float(m_grid[i])
        halfstep = float(m_grid[1] - m_grid[0])
        for _ in range(12):
            dF, d2F = slopes(z, m)
            if d2F <= 0.0:
                break
            step = float(np.clip(-dF / d2F, -2.0 * halfstep, 2.0 * halfstep))
            if abs(step) < 1e-14:
                break
            m += step
        loc = 1 + np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))
        far = loc[np.abs(m_grid[loc] - m_grid[i]) > 2 * halfstep]
        return m, misfit(z, m), float(np.min(vals[far], initial=np.inf))

    m_grid = np.linspace(-m_max, m_max, n_scan)
    m_m, f_m, second_m = scan_and_polish(zm, m_grid)
    m_p, f_p, second_p = scan_and_polish(zp, m_grid)
    if f_m <= f_p:
        which, m, f, second = -1, m_m, f_m, min(second_m, f_p)
    else:
        which, m, f, second = 1, m_p, f_p, min(second_p, f_m)
    return m, which, f, bool(second - f > unique_margin * max(1.0, f))


def test_stacked_optimal_translation_equals_per_profile_fits(planar_space):
    zm, zp = planar_space.z_minus, planar_space.z_plus
    quarter = 0.25 * float(planar_space.grid[-1] - planar_space.grid[0])
    rng = np.random.default_rng(8)
    taus = np.linspace(0.0, 1.0, 7)
    shifts = np.linspace(-quarter, quarter, 7)
    # columns of a translated blend path between the wells, one exact
    # template translate and the mirror-symmetric midpoint, where the two
    # templates tie
    columns = [(1.0 - t) * zm.translate(s).values + t * zp.translate(s).values
               + 0.01 * rng.standard_normal(zm.values.shape) for t, s in zip(taus, shifts)]
    columns += [zp.translate(0.3 * quarter).values, 0.5 * (zm.values + zp.values)]
    stack = np.stack(columns)
    fits = optimal_translation(stack, zm, zp, m_max=quarter, n_scan=129)
    assert all(np.shape(f) == (len(columns),) for f in fits)
    for i, column in enumerate(columns):
        one = optimal_translation(column, zm, zp, m_max=quarter, n_scan=129)
        ref = _per_profile_fit(column, zm, zp, quarter, 129)
        assert tuple(f[i] for f in fits) == tuple(f[0] for f in one) == ref
    assert not fits.unique[-1] and np.all(fits.unique[:-1])


# ---------------------------------------------------------------------------
# the path energy of a field, the polish objective


@pytest.fixture(params=["sin_density", "planar_potential"])
def field_space(request):
    if request.param == "planar_potential":
        return request.getfixturevalue("planar_space")
    return sin_example_space(m=33)


def _noisy_blend(space, p=9, seed=0):
    tau = np.linspace(0.0, 1.0, p)[None, :, None]
    zm = space.z_minus.values[:, None, :]
    zp = space.z_plus.values[:, None, :]
    u = (1.0 - tau) * zm + tau * zp
    return u + 0.05 * np.random.default_rng(seed).standard_normal(u.shape)


def _path_energy_by_columns(space, u, dt):
    """The per-column loop the batched path energy replaces."""
    m, p, _ = u.shape
    w1 = trapezoid_weights(m, space.h)
    wt = trapezoid_weights(p, dt)
    d2 = np.diff(u, axis=1) / dt
    kin = 0.5 * dt * np.sum(w1[:, None, None] * d2 * d2)
    pot = 0.0
    g = np.empty_like(u)
    for k in range(p):
        pot += wt[k] * (space.energy_1d(u[:, k, :])[0] - space.ref_value)
        g[:, k, :] = wt[k] * space.energy_1d_grad(u[:, k, :])[0]
    flux = w1[:, None, None] * d2
    g[:, :-1, :] -= flux
    g[:, 1:, :] += flux
    return float(kin + pot), g


def test_path_energy_equals_the_per_column_sum_bitwise(field_space):
    u = _noisy_blend(field_space)
    energy, grad = _path_energy(field_space, u, 0.1, grad=True)
    ref_energy, ref_grad = _path_energy_by_columns(field_space, u, 0.1)
    assert energy == ref_energy
    assert _path_energy(field_space, u, 0.1) == ref_energy
    assert np.array_equal(grad, ref_grad)


def test_path_energy_grad_matches_central_differences(field_space):
    u = _noisy_blend(field_space, seed=1)
    dt = 0.1
    _, g = _path_energy(field_space, u, dt, grad=True)
    rng = np.random.default_rng(3)
    hh = 1e-6
    for _ in range(3):
        d = rng.standard_normal(u.shape)
        # the profile gradient pins the x1 edge rows, as the polish does
        d[0] = d[-1] = 0.0
        fd = (_path_energy(field_space, u + hh * d, dt)
              - _path_energy(field_space, u - hh * d, dt)) / (2 * hh)
        assert float(np.sum(g * d)) == pytest.approx(fd, rel=1e-6)


def test_field_and_weight_evaluations_call_the_kernel_once(monkeypatch):
    space = sin_example_space(m=33)
    u = _noisy_blend(space)
    calls = []
    kernel = EffectivePotentialSpace.energy_1d

    def counted(self, values):
        calls.append(np.shape(values))
        return kernel(self, values)

    monkeypatch.setattr(EffectivePotentialSpace, "energy_1d", counted)
    _path_energy(space, u, 0.1, grad=True)
    assert len(calls) == 1
    calls.clear()
    x2_defect(space, u, 0.1)
    assert len(calls) == 1
    calls.clear()
    k = u.shape[1]
    nodes = u.transpose(1, 0, 2).reshape(k, -1)
    wspace = space.weighted_space()
    weights = wspace.weight_at(nodes)
    assert weights.shape == (k,)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the field polish: Hessian-vector products and the truncated Newton-CG


def test_path_energy_hessp_matches_central_differences_of_the_gradient(field_space):
    u = _noisy_blend(field_space, seed=2)
    dt = 0.1
    hessp = _PathEnergyHessian(field_space, u, dt)
    rng = np.random.default_rng(4)
    hh = 1e-6
    for _ in range(3):
        d = rng.standard_normal(u.shape)
        d[_field_pins(u.shape)] = 0.0
        fd = (_path_energy(field_space, u + hh * d, dt, grad=True)[1]
              - _path_energy(field_space, u - hh * d, dt, grad=True)[1]) / (2 * hh)
        hd = hessp(d)
        assert hd.shape == u.shape
        assert np.max(np.abs(hd - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.fixture(scope="module")
def planar_sym_field(planar_space):
    """The unpolished small planar sym field and its x2 step."""
    u, x2 = _seed_field(planar_space, SMALL, True)
    return u, float(np.diff(x2)[0])


def test_polish_keeps_a_planar_sym_field_odd_and_lowers_its_energy(planar_space,
                                                                   planar_sym_field):
    u0, dt = planar_sym_field
    gtol = POLISH_GTOL
    u, info = _polish_field(planar_space, u0, dt, True, gtol)
    assert np.array_equal(u, _symmetrize_columns(planar_space, u))
    pinned = _field_pins(u.shape)
    assert np.array_equal(u[pinned], u0[pinned])
    assert _path_energy(planar_space, u, dt) < _path_energy(planar_space, u0, dt)
    assert info.status == "converged" and 0 < info.steps
    # the free gradient, recomputed here, meets the tolerance the run reports
    g = _symmetrize_columns(planar_space, _path_energy(planar_space, u, dt, grad=True)[1])
    g[pinned] = 0.0
    assert float(np.max(np.abs(g))) == info.gmax <= gtol


def test_polish_at_the_step_cap_says_so(planar_space, planar_sym_field, monkeypatch):
    u0, dt = planar_sym_field
    monkeypatch.setattr(double_connection, "POLISH_STEPS", 1)
    gtol = POLISH_GTOL
    u, info = _polish_field(planar_space, u0, dt, True, gtol)
    assert info.status == "max_iters" and info.steps == 1
    assert info.gmax > gtol
    assert _path_energy(planar_space, u, dt) < _path_energy(planar_space, u0, dt)


def test_truncated_cg_stops_at_negative_curvature_with_a_descent_step(planar_space,
                                                                      planar_sym_field):
    u, dt = planar_sym_field
    free = (~_field_pins(u.shape)).astype(float)

    def reduce(v):
        return _symmetrize_columns(planar_space, v) * free

    hessp = _PathEnergyHessian(planar_space, u, dt)
    g = reduce(_path_energy(planar_space, u, dt, grad=True)[1])
    # zero tolerance: CG runs on until it meets the indefinite direction
    p, negative, products = truncated_cg(lambda d: reduce(hessp(d)), g, 0.0)
    assert negative and products > 1
    assert float(np.vdot(g, p)) < 0.0
    # the returned iterate is not the fallback; its own curvature is positive
    assert not np.array_equal(p, -g)
    assert float(np.vdot(p, reduce(hessp(p)))) > 0.0


def test_truncated_cg_falls_back_to_the_negative_gradient():
    g = np.array([1.0, -2.0, 0.5])
    p, negative, products = truncated_cg(lambda d: -d, g, 1e-12)
    assert negative and products == 1
    assert np.array_equal(p, -g)


# ---------------------------------------------------------------------------
# the shifted Poisson preconditioner of the polish's CG


def _flat_space(m=9):
    """A two-component space whose density has a zero Hessian, on a grid symmetric about 0."""
    return EffectivePotentialSpace(
        grid=np.linspace(-1.0, 1.0, m),
        n_components=2,
        bc="fixed",
        density=lambda s, v: np.zeros(v.shape[:2]),
        density_grad=lambda s, v: np.zeros(v.shape),
        density_hess=lambda s, v: np.zeros(v.shape + (2,)),
    )


def _free_noise(shape, seed):
    d = np.random.default_rng(seed).standard_normal(shape)
    d[_field_pins(shape)] = 0.0
    return d


def test_poisson_preconditioner_inverts_the_free_stencil():
    space = _flat_space()
    dt = 0.23
    u = _free_noise((space.m, 6, 2), 0)
    hess = _PathEnergyHessian(space, u, dt)
    assert np.array_equal(hess.shift, [0.0, 0.0])
    psolve = poisson_preconditioner(u.shape, space.h, dt)(hess.shift)
    free = ~_field_pins(u.shape)
    d = _free_noise(u.shape, 1)
    assert np.max(np.abs(psolve(hess(d)) - d)) <= 1e-12 * np.max(np.abs(d))
    back = psolve(d)
    assert np.all(back[~free] == 0.0)
    assert np.max(np.abs(hess(back)[free] - d[free])) <= 1e-12 * np.max(np.abs(d))


def test_poisson_preconditioner_commutes_with_the_odd_projection():
    space = _flat_space()
    dt = 0.23
    psolve = poisson_preconditioner((space.m, 6, 2), space.h, dt)(np.array([0.3, 1.7]))
    r = _free_noise((space.m, 6, 2), 2)
    lhs = psolve(_symmetrize_columns(space, r))
    rhs = _symmetrize_columns(space, psolve(r))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def _reference_poisson_solve(shape, h, dt, shift, r):
    """The field's shifted Poisson solve one component at a time, each DST-I
    the imaginary part of an rfft that pads a fresh copy with n=."""
    m, p, n = shape
    lam1 = (2.0 / h * np.sin(0.5 * np.pi * np.arange(1, m - 1) / (m - 1))) ** 2
    lam2 = (2.0 / dt * np.sin(0.5 * np.pi * np.arange(1, p - 1) / (p - 1))) ** 2
    inv = 4.0 / ((m - 1) * (p - 1) * h * dt) / (lam1[:, None] + lam2 + shift.reshape(n, 1, 1))

    def dst(x, axis):
        x = np.concatenate([np.zeros_like(x.take([0], axis)), x], axis=axis)
        spec = np.fft.rfft(x, 2 * x.shape[axis], axis=axis)
        return (spec[1:-1] if axis == 0 else spec[:, 1:-1]).imag

    out = np.zeros(shape)
    for c in range(n):
        x = dst(dst(r[1:-1, 1:-1, c], 0), 1) * inv[c]
        out[1:-1, 1:-1, c] = dst(dst(x, 0), 1)
    return out


@pytest.mark.parametrize("shape", [(401, 129, 2), (257, 257, 1), (17, 6, 2)])
def test_poisson_preconditioner_keeps_the_bits_of_the_reference_solve(shape):
    rng = np.random.default_rng(5)
    shift = np.abs(rng.standard_normal(shape[-1]))
    psolve = poisson_preconditioner(shape, 0.04, 0.23)(shift)
    for _ in range(2):
        # twice through the same buffers
        r = rng.standard_normal(shape)
        assert np.array_equal(psolve(r), _reference_poisson_solve(shape, 0.04, 0.23, shift, r))


def test_preconditioned_cg_with_an_exact_inverse_takes_one_product():
    # zero block: on the free nodes the Hessian is the SPD stencil the solve inverts
    space = _flat_space()
    dt = 0.23
    g = _free_noise((space.m, 6, 2), 3)
    hess = _PathEnergyHessian(space, g, dt)
    free = (~_field_pins(g.shape)).astype(float)
    psolve = poisson_preconditioner(g.shape, space.h, dt)(hess.shift)
    gnorm = float(np.linalg.norm(g))
    p, negative, products = truncated_cg(lambda d: hess(d) * free, g, 1e-10 * gnorm,
                                         psolve=psolve)
    assert not negative and products == 1
    assert np.max(np.abs(p + psolve(g))) <= 1e-12 * np.max(np.abs(p))
    # unpreconditioned, CG needs one product per distinct eigenvalue it meets
    assert truncated_cg(lambda d: hess(d) * free, g, 1e-10 * gnorm)[2] > 1


def test_preconditioned_cg_falls_back_to_a_descent_direction():
    g = np.array([1.0, -2.0, 0.5])
    weights = np.array([0.5, 2.0, 4.0])
    p, negative, products = truncated_cg(lambda d: -d, g, 1e-12, psolve=lambda r: weights * r)
    assert negative and products == 1
    # the first preconditioned direction, -M^-1 g
    assert np.array_equal(p, -weights * g)
    assert float(np.dot(g, p)) < 0.0


def test_the_preconditioner_cuts_the_polish_products(planar_space, planar_sym_field):
    u0, dt = planar_sym_field
    poisson = poisson_preconditioner(u0.shape, planar_space.h, dt)
    runs = {}
    for name, precond in (("plain", None), ("poisson", lambda hess: poisson(hess.shift))):
        u, info = pinned_newton_cg(
            lambda u: _path_energy(planar_space, u, dt, grad=True),
            lambda u: _PathEnergyHessian(planar_space, u, dt), u0, _field_pins(u0.shape),
            project=lambda u: _symmetrize_columns(planar_space, u),
            gtol=POLISH_GTOL, max_steps=POLISH_STEPS, precond=precond,
        )
        assert info.status == "converged"
        runs[name] = (_path_energy(planar_space, u, dt), info.products)
    assert runs["poisson"][1] < runs["plain"][1]
    assert runs["poisson"][0] == pytest.approx(runs["plain"][0], rel=1e-10)
    # the polish itself runs preconditioned
    assert _polish_field(planar_space, u0, dt, True, POLISH_GTOL)[1].products == runs["poisson"][1]


@pytest.mark.parametrize("m", [401, 2001])
def test_the_preconditioner_bounds_the_relaxation_products(monkeypatch, m):
    runs = []

    def counted(*args, **kwargs):
        out = pinned_newton_cg(*args, **kwargs)
        runs.append(out[1])
        return out

    monkeypatch.setattr(function_space, "pinned_newton_cg", counted)
    space = planar_effective_space(m=m)
    assert len(runs) == 1
    assert runs[0].status == "converged"
    # unpreconditioned: 927 products at m = 401 and 4,554 at m = 2001
    assert runs[0].products <= 100
    zp = space.z_plus.values
    assert np.array_equal(zp[:, 0], -zp[::-1, 0])


def test_a_small_double_solve_leaves_scipy_fft_out():
    # the fixture relaxes its wells here: neither that nor the polish may
    # load scipy.fft or scipy.optimize
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from hetconn import DoubleOptions, sin_example_space, solve_symmetric; "
            "r = solve_symmetric(sin_example_space(m=33), "
            "DoubleOptions(n_out=17, t_max=3.0)); "
            "assert r.diagnostics['polish_cg_products'] > 0; "
            "print('scipy.fft' in sys.modules, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
