import json
import math
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
    _path_energy,
    _PathEnergyHessian,
    _polish_field,
    _seed_field,
    field_audit,
    mirror_grid,
    planar_effective_space,
    polished_part,
    shift_track_summary,
)
from hetconn.function_space import (
    cut_half,
    fold,
    mirror_half,
    pinned_newton_cg,
    poisson_preconditioner,
    truncated_cg,
)
from hetconn.metric import SampledCurve, WeightedSpace, k_length, trapezoid_weights

SMALL = DoubleOptions(n_out=33, t_max=4.0)
MODES = ("sym", "asym")


@pytest.fixture(scope="module")
def small_solves(planar_space):
    """Small planar solves, one per mode."""
    return {"sym": solve_symmetric(planar_space, SMALL),
            "asym": solve_asymmetric(planar_space, SMALL)}


def _polished(result):
    """The part of a solve's field that ``polished_part`` says it polished."""
    return polished_part(result.space, result.mode, *result.u.shape[:2])


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
    def weight(values):
        # the geodesic weight K = sqrt(2 max(effective potential, 0)) on profile space
        return math.sqrt(2.0 * max(planar_space.effective_potential(values)[0], 0.0))

    assert weight(planar_space.z_plus.values) == 0.0
    shoved = planar_space.z_plus.values.copy()
    shoved[:, 1] += 0.3 * np.exp(-planar_space.grid**2)
    assert weight(shoved) > math.sqrt(2.0) * 1e-2


def test_symmetric_solve_small(planar_space):
    result = solve_symmetric(planar_space, SMALL)
    assert result.mode == "sym"
    p, m, n = result.u.shape
    assert (p, m, n) == (33, planar_space.m, 2)
    assert np.array_equal(result.u[0], planar_space.z_minus.values)
    assert np.array_equal(result.u[-1], planar_space.z_plus.values)
    # odd symmetry of the first component holds exactly in every column
    for k in range(p):
        assert np.array_equal(result.u[k, :, 0], -result.u[k, ::-1, 0])
    assert result.m_track is None
    assert result.diagnostics["polish_status"] == "converged"
    # at equipartition the excess action matches the weighted path length
    report = assemble_and_verify(result)
    assert report.energy_path == pytest.approx(report.k_length, rel=5e-2)
    assert report.energy_path > 0.0


def test_symmetric_solve_verifies(planar_space):
    result = solve_symmetric(planar_space, SMALL)
    report = assemble_and_verify(result)
    rel = abs(report.energy_direct - report.energy_path) / report.energy_direct
    assert rel < 1e-6
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
    c_minus, c_plus, variation = shift_track_summary(result.m_track)
    assert abs(c_minus) < 0.1
    assert abs(c_plus) < 0.1
    assert variation < 1.0
    audit = audit_translation_speed(result.m_track, assemble_and_verify(result))
    assert audit.c_fit >= 0.0
    assert np.isfinite(audit.max_ratio)


def test_quotient_does_no_work_on_the_symmetric_fixture(planar_space):
    # from the blend of the mirror wells the unprojected Newton field tracks
    # no translation at all
    asym = solve_asymmetric(planar_space, SMALL)
    assert shift_track_summary(asym.m_track) == (0.0, 0.0, 0.0)


def test_the_shipped_asym_field_needs_no_exact_scan_row(monkeypatch):
    # the Gram screen settles every column of planar_asym.json's field with
    # exact misfits at single shifts; a full exact row there would bring back
    # the cost of the exhaustive scan unseen
    from hetconn.cli import _double_setup

    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "planar_asym.json").read_text())
    exact = function_space.translation_misfits
    scanned = []

    def single_shifts_only(values, z, shifts):
        if np.size(shifts) != 1:
            raise AssertionError(f"an exact scan row of {np.size(shifts)} shifts")
        scanned.append(np.shape(values)[0])
        return exact(values, z, shifts)

    monkeypatch.setattr(function_space, "translation_misfits", single_shifts_only)
    _, _, opts, _, _, fixture, _ = _double_setup(cfg)
    result = solve_asymmetric(fixture(), opts)
    # at least one exact misfit per scanned column and template; the scan
    # reads the half window that the Newton-CG solved and mirrors its track
    assert sum(scanned) >= 2 * _polished(result).columns


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
    g = planar_space.energy_1d_grad(zp)[0]
    # the free rows; the edge rows are the tails' boundary data
    free = ~fold(zp.shape, (None,)).pinned
    assert free[1:-1].all() and not free[[0, -1]].any()
    assert np.max(np.abs(g[free])) <= 1e-10
    assert np.max(np.abs(g[~free])) > 1e-3


def test_speed_audit_rejects_symmetric_runs(planar_space):
    result = solve_symmetric(planar_space, SMALL)
    with pytest.raises(ValueError):
        audit_translation_speed(result.m_track, assemble_and_verify(result))


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
    assert result.u.shape == (17, 33, 1)
    assert np.max(np.abs(result.u)) < 1.5
    report = assemble_and_verify(result)
    rel = abs(report.energy_direct - report.energy_path) / max(report.energy_direct, 1e-12)
    assert rel < 1e-6
    assert np.isfinite(report.residual_max)


def test_optimal_translation_recovers_shift_of_a_planar_well(planar_space):
    zm, zp = planar_space.z_minus, planar_space.z_plus
    shift = optimal_translation(zp.translate(-0.4137).values, zm, zp,
                                m_max=float(zm.s[-1] - zm.s[0]), n_scan=2 * zm.m + 1)
    assert shift.shape == (1,)
    assert shift[0] == pytest.approx(-0.4137, abs=1e-3)


def _per_profile_fit(v, zm, zp, m_max, n_scan):
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
        return m, misfit(z, m)

    m_grid = np.linspace(-m_max, m_max, n_scan)
    m_m, f_m = scan_and_polish(zm, m_grid)
    m_p, f_p = scan_and_polish(zp, m_grid)
    return m_m if f_m <= f_p else m_p


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
    fitted = optimal_translation(stack, zm, zp, m_max=quarter, n_scan=129)
    assert fitted.shape == (len(columns),)
    for i, column in enumerate(columns):
        one = optimal_translation(column, zm, zp, m_max=quarter, n_scan=129)
        assert fitted[i] == one[0] == _per_profile_fit(column, zm, zp, quarter, 129)


# ---------------------------------------------------------------------------
# the path energy of a field, the polish objective


@pytest.fixture(params=["sin_density", "planar_potential"])
def field_space(request):
    if request.param == "planar_potential":
        return request.getfixturevalue("planar_space")
    return sin_example_space(m=33)


def _noisy_blend(space, p=9, seed=0):
    """A field (p, M, n) near the blend of the wells."""
    tau = np.linspace(0.0, 1.0, p)[:, None, None]
    u = (1.0 - tau) * space.z_minus.values + tau * space.z_plus.values
    return u + 0.05 * np.random.default_rng(seed).standard_normal(u.shape)


def _path_energy_by_columns(space, u, dt):
    """The per-column loop the batched path energy replaces."""
    p, m, _ = u.shape
    w1 = trapezoid_weights(m, space.h)[:, None]
    wt = trapezoid_weights(p, dt)
    d2 = np.diff(u, axis=0) / dt
    kin = 0.5 * dt * np.sum(w1 * d2 * d2)
    pot = 0.0
    g = np.empty_like(u)
    for k in range(p):
        pot += wt[k] * (space.energy_1d(u[k])[0] - space.ref_value)
        g[k] = wt[k] * space.energy_1d_grad(u[k])[0]
    flux = w1 * d2
    g[:-1] -= flux
    g[1:] += flux
    return float(kin + pot), g


def test_path_energy_equals_the_per_column_sum_bitwise(field_space):
    u = _noisy_blend(field_space)
    energy, grad = _path_energy(field_space, u, 0.1)
    ref_energy, ref_grad = _path_energy_by_columns(field_space, u, 0.1)
    assert energy == ref_energy
    assert np.array_equal(grad, ref_grad)


def test_path_energy_grad_matches_central_differences(field_space):
    u = _noisy_blend(field_space, seed=1)
    dt = 0.1
    _, g = _path_energy(field_space, u, dt)
    rng = np.random.default_rng(3)
    hh = 1e-6
    for _ in range(3):
        d = rng.standard_normal(u.shape)
        # the profile gradient pins the x1 edge rows, as the polish does
        d[:, [0, -1]] = 0.0
        fd = (_path_energy(field_space, u + hh * d, dt)[0]
              - _path_energy(field_space, u - hh * d, dt)[0]) / (2 * hh)
        assert float(np.sum(g * d)) == pytest.approx(fd, rel=1e-6)


def test_field_and_weight_evaluations_call_the_kernel_once(monkeypatch, planar_space,
                                                          small_solves):
    space = sin_example_space(m=33)
    u = _noisy_blend(space)
    calls = []
    kernel = EffectivePotentialSpace.energy_1d

    def counted(self, values):
        calls.append(values)
        return kernel(self, values)

    monkeypatch.setattr(EffectivePotentialSpace, "energy_1d", counted)
    # the field is the profile stack the kernel reads: no copy of it
    _path_energy(space, u, 0.1)
    assert len(calls) == 1 and np.shares_memory(calls[0], u)
    calls.clear()
    k = u.shape[0]
    nodes = u.reshape(k, -1)
    assert np.shares_memory(nodes, u)
    potentials = space.effective_potential(nodes)
    assert potentials.shape == (k,)
    assert len(calls) == 1 and np.shares_memory(calls[0], u)
    # a solve returns its field as that stack, the wells its end columns bit
    # for bit, the sign of every zero included
    result = solve_symmetric(space, DoubleOptions(n_out=17, t_max=3.0))
    assert result.u.shape == (17, space.m, 1) and result.u.flags.c_contiguous
    fields = [(result.u, space)] + [(small_solves[mode].u, planar_space) for mode in MODES]
    for field, wells in fields:
        assert field[0].tobytes() == wells.z_minus.values.tobytes()
        assert field[-1].tobytes() == wells.z_plus.values.tobytes()


def _five_point_residual(space, u, dt, margin):
    """The strong-form residual by its stencil: the 5-point Laplacian minus
    the density gradient, away from a margin of ``margin`` cells."""
    h = space.h
    res = np.zeros_like(u)
    res[:, 1:-1] += (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2]) / h**2
    res[1:-1] += (u[2:] - 2 * u[1:-1] + u[:-2]) / dt**2
    res -= space._density_grads(u)
    return res[margin:-margin, margin:-margin]


def test_the_audit_residual_is_the_five_point_residual(field_space):
    space = field_space
    u = _noisy_blend(space, p=17, seed=5)
    dt, margin = 0.1, 2
    h = space.h
    audit = field_audit(space, u, dt, margin)
    # the free gradient over its trapezoid weights h * dt
    res = _path_energy(space, u, dt)[1][margin:-margin, margin:-margin] / (-h * dt)
    assert audit.residual_max == pytest.approx(np.max(np.linalg.norm(res, axis=2)), rel=1e-15)
    assert audit.residual_l2 == pytest.approx(np.sqrt(np.sum(res**2) * h * dt), rel=1e-15)
    oracle = _five_point_residual(space, u, dt, margin)
    bound = 8 * np.finfo(float).eps * np.max(np.abs(u)) * (4 / h**2 + 4 / dt**2)
    assert np.max(np.abs(res - oracle)) <= bound
    # the noise keeps the residual far above the bound
    assert np.max(np.abs(oracle)) > 1e6 * bound


def test_one_audit_reads_the_field_and_its_midpoints_once(monkeypatch):
    space = sin_example_space(m=33)
    u = _noisy_blend(space)
    seen = {name: [] for name in ("energy_1d", "energy_1d_grad", "_density_values",
                                  "_density_grads")}

    def counting(name):
        kernel = getattr(EffectivePotentialSpace, name)

        def counted(self, values):
            seen[name].append(values)
            return kernel(self, values)
        return counted

    for name in seen:
        monkeypatch.setattr(EffectivePotentialSpace, name, counting(name))
    field_audit(space, u, 0.1, 2)
    # the field's energy and gradient, the direct density sum and the midpoints
    assert [len(seen[name]) for name in seen] == [2, 1, 3, 1]
    field, mids = seen["energy_1d"]
    assert np.shares_memory(field, u) and np.shares_memory(seen["energy_1d_grad"][0], u)
    # the segment midpoints, a C-ordered stack of their own
    assert mids.shape == (u.shape[0] - 1,) + u.shape[1:] and mids.flags.c_contiguous
    assert not np.shares_memory(mids, u)


@pytest.mark.parametrize("mode", MODES)
def test_the_audit_recomputes_the_solve_bit_for_bit(planar_space, small_solves, mode):
    result = small_solves[mode]
    u, dt = result.u, float(result.x2[1] - result.x2[0])
    report = assemble_and_verify(result)
    # the polish's free gradient max and last energy
    assert report.gmax == result.diagnostics["polish_gmax"]
    assert report.energy_path == _path_energy(planar_space, u, dt)[0]
    # the midpoint K-length of the columns as a profile path, K = sqrt(2 W)
    wspace = WeightedSpace(space=planar_space.ambient(), weight=lambda pts: np.sqrt(
        2.0 * np.maximum(planar_space.effective_potential(pts), 0.0)))
    columns = SampledCurve(times=result.x2, nodes=u.reshape(u.shape[0], -1))
    assert report.k_length == k_length(columns, wspace, rule="midpoint")
    assert report.reduction_gap == abs(report.energy_path - report.k_length)
    # the x2 kinetic term against the effective potential, segment by segment
    w1 = trapezoid_weights(u.shape[1], planar_space.h)[:, None]
    kinetic = 0.5 * np.sum(w1 * (np.diff(u, axis=0) / dt) ** 2, axis=(1, 2))
    defect = np.abs(kinetic - planar_space.effective_potential(0.5 * (u[:-1] + u[1:])))
    assert report.equip_defect == pytest.approx(np.max(defect), abs=1e-13 * np.max(kinetic))


# ---------------------------------------------------------------------------
# the field polish: Hessian-vector products and the truncated Newton-CG


def test_path_energy_hessp_matches_central_differences_of_the_gradient(field_space):
    u = _noisy_blend(field_space, seed=2)
    dt = 0.1
    rng = np.random.default_rng(4)
    hh = 1e-6
    m = field_space.m
    # every node, the edges and the half's first x1 row, the centre, included
    for space, x in ((field_space, u), (field_space.half(), u[:, m // 2:])):
        hessp = _PathEnergyHessian(space, x, dt)
        for _ in range(3):
            d = rng.standard_normal(x.shape)
            fd = (_path_energy(space, x + hh * d, dt)[1]
                  - _path_energy(space, x - hh * d, dt)[1]) / (2 * hh)
            hd = hessp(d)
            assert hd.shape == x.shape
            assert np.all(hd[:, [0, -1]] != 0.0)
            assert np.max(np.abs(hd - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.fixture(scope="module")
def planar_sym_field(planar_space):
    """The unpolished small planar sym field and its x2 step."""
    u, x2 = _seed_field(planar_space, SMALL)
    return u, float(np.diff(x2)[0])


def test_polish_keeps_a_planar_sym_field_odd_and_lowers_its_energy(planar_space,
                                                                   planar_sym_field):
    # the rows from the centre on: u1 pinned at zero there, u2 free
    u0, dt = planar_sym_field
    m = planar_space.m
    half = planar_space.half()
    rho = planar_space.x1_parity
    gtol = POLISH_GTOL
    # the seed's centre row is already odd in u1
    assert np.array_equal(cut_half(u0, rho, 1), u0[:, m // 2:])
    u, info = _polish_field(half, cut_half(u0, rho, 1), dt, gtol, (None, rho))
    pinned = fold(u.shape, (None, rho)).pinned
    assert pinned[:, 0, 0].all() and not pinned[1:-1, 0, 1].any()
    assert np.array_equal(u[pinned], u0[:, m // 2:][pinned])
    whole = mirror_half(u, rho, axis=1)
    assert np.array_equal(whole[:, ::-1, 0], -whole[..., 0])
    assert np.array_equal(whole[:, ::-1, 1], whole[..., 1])
    assert _path_energy(planar_space, whole, dt)[0] < _path_energy(planar_space, u0, dt)[0]
    assert info.status == "converged" and 0 < info.steps
    # the stop test reads the whole field's free gradient: the half's, its
    # centre row doubled
    g = _path_energy(half, u, dt)[1]
    g[pinned] = 0.0
    g[:, 0] *= 2.0
    assert float(np.max(np.abs(g))) == info.gmax <= gtol
    # which is the whole field's own, unprojected, to rounding
    g = _path_energy(planar_space, whole, dt)[1]
    g[fold(g.shape, (None, None)).pinned] = 0.0
    assert float(np.max(np.abs(g))) == pytest.approx(info.gmax, rel=1e-6)


def test_polish_at_the_step_cap_says_so(planar_space, planar_sym_field, monkeypatch):
    u0, dt = planar_sym_field
    monkeypatch.setattr(double_connection, "POLISH_STEPS", 1)
    gtol = POLISH_GTOL
    u, info = _polish_field(planar_space, u0, dt, gtol)
    assert info.status == "max_iters" and info.steps == 1
    assert info.gmax > gtol
    assert _path_energy(planar_space, u, dt)[0] < _path_energy(planar_space, u0, dt)[0]


def test_truncated_cg_stops_at_negative_curvature_with_a_descent_step(planar_space,
                                                                      planar_sym_field):
    u, dt = planar_sym_field
    free = (~fold(u.shape, (None, None)).pinned).astype(float)

    def reduce(v):
        return v * free

    hessp = _PathEnergyHessian(planar_space, u, dt)
    g = reduce(_path_energy(planar_space, u, dt)[1])
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


def _free_noise(shape, seed):
    d = np.random.default_rng(seed).standard_normal(shape)
    d[fold(shape, (None, None)).pinned] = 0.0
    return d


def _quadratic_field_space(q, m=9):
    """A two-component space with density q(x1) |u|^2 / 2 on a grid symmetric
    about 0: on the free nodes the field Hessian is h * dt * (L + q(x1)),
    whatever the field, the operator the line solve inverts at shift q."""
    grid = np.linspace(-1.0, 1.0, m)
    qs = q(grid)
    return EffectivePotentialSpace(
        grid=grid,
        n_components=2,
        bc="fixed",
        density=lambda s, v: 0.5 * qs * np.sum(v * v, axis=-1),
        density_grad=lambda s, v: qs[:, None] * v,
        density_hess=lambda s, v: qs[:, None, None] * np.eye(2) * np.ones(v.shape + (2,)),
    )


def _flat_space(m=9):
    """A two-component space whose density has a zero Hessian, on a grid symmetric about 0."""
    return _quadratic_field_space(np.zeros_like, m)


def test_poisson_preconditioner_inverts_the_free_stencil():
    space = _flat_space()
    dt = 0.23
    u = _free_noise((6, space.m, 2), 0)
    hess = _PathEnergyHessian(space, u, dt)
    # one shift per x1 row and component
    assert np.array_equal(hess.shift, np.zeros((space.m, 2)))
    psolve = poisson_preconditioner(u.shape, dt, space.h)(hess.shift)
    free = ~fold(u.shape, (None, None)).pinned
    d = _free_noise(u.shape, 1)
    assert np.max(np.abs(psolve(hess(d)) - d)) <= 1e-12 * np.max(np.abs(d))
    back = psolve(d)
    assert np.all(back[~free] == 0.0)
    assert np.max(np.abs(hess(back)[free] - d[free])) <= 1e-12 * np.max(np.abs(d))


def _even_rows(m, n, seed):
    """A random positive per-row shift (m, n), even in x1."""
    half = np.random.default_rng(seed).uniform(0.1, 5.0, ((m + 1) // 2, n))
    return np.concatenate([half, half[::-1][m % 2:]])


def _odd_first(v):
    """The projection of fields (P, M, 2) onto u1 odd and u2 even in x1."""
    return 0.5 * (v + v[:, ::-1] * [-1.0, 1.0])


def test_poisson_preconditioner_commutes_with_the_odd_projection():
    space = _flat_space()
    dt = 0.23
    shape = (6, space.m, 2)
    shift = _even_rows(space.m, 2, 4)
    assert np.array_equal(shift, shift[::-1])
    r = _free_noise(shape, 2)
    psolve = poisson_preconditioner(shape, dt, space.h)(shift)
    lhs = psolve(_odd_first(r))
    rhs = _odd_first(psolve(r))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))
    # the check sees the shift: one that is not even in x1 on the free rows
    # breaks it
    shift[1] += 1.0
    psolve = poisson_preconditioner(shape, dt, space.h)(shift)
    lhs = psolve(_odd_first(r))
    rhs = _odd_first(psolve(r))
    assert np.max(np.abs(lhs - rhs)) > 1e-6 * np.max(np.abs(rhs))


def _shipped_config(name):
    return json.loads((Path(__file__).resolve().parent.parent / "configs"
                       / f"{name}.json").read_text())


def test_the_field_shift_is_per_row_and_even_on_the_planar_sym_seed(planar_space):
    cfg = _shipped_config("planar_sym")
    assert cfg["m"] == planar_space.m
    u, x2 = _seed_field(planar_space, DoubleOptions(**cfg["opts"]))
    shift = _PathEnergyHessian(planar_space, u, float(np.diff(x2)[0])).shift
    assert shift.shape == (planar_space.m, 2)
    assert np.all(shift >= 0.0)
    # exactly even, as the seed is its x1 mirror, so the line solve commutes
    # with the x1 reflection
    assert np.array_equal(shift, shift[::-1])
    # and far from one shift per component: the row means of B_cc run from
    # 0 to about 16 (u1) and 3.2 (u2)
    assert np.all(np.min(shift, axis=0) < 0.01 * np.max(shift, axis=0))
    assert np.all(np.max(shift, axis=0) > 3.0)


def _reference_field_solve(shape, dt, h, shift, r):
    """The field's line solve by scipy: its DST-I along x2, and a banded
    solve along x1 for every x2 mode and component."""
    from scipy.fft import dst
    from scipy.linalg import solve_banded

    p, m, n = shape
    lam = (2.0 / dt * np.sin(0.5 * np.pi * np.arange(1, p - 1) / (p - 1))) ** 2
    out = np.zeros(shape)
    bands = np.zeros((3, m - 2))
    bands[0, 1:] = bands[2, :-1] = -1.0 / h**2
    for c in range(n):
        x = dst(r[1:-1, 1:-1, c], type=1, axis=0)
        for k in range(p - 2):
            bands[1] = 2.0 / h**2 + shift[1:-1, c] + lam[k]
            x[k] = solve_banded((1, 1), bands, x[k])
        # DST-I squares to 2 (p - 1) in scipy's normalisation
        out[1:-1, 1:-1, c] = dst(x, type=1, axis=0) / (2.0 * (p - 1) * h * dt)
    return out


@pytest.mark.parametrize("shape", [(6, 17, 2), (257, 257, 1), (129, 401, 2)])
def test_poisson_preconditioner_inverts_the_shifted_field_stencil(shape):
    rng = np.random.default_rng(6)
    shift = rng.uniform(0.0, 20.0, (shape[1], shape[-1]))
    psolve = poisson_preconditioner(shape, 0.23, 0.04)(shift)
    pins = fold(shape, (None, None)).pinned
    for _ in range(2):
        # twice through the same buffers
        r = rng.standard_normal(shape)
        out = psolve(r)
        assert np.all(out[pins] == 0.0)
        ref = _reference_field_solve(shape, 0.23, 0.04, shift, r)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def _reference_profile_solve(shape, h, shift, r):
    """The profile's shifted Poisson solve one component at a time, each DST-I
    the imaginary part of an rfft that pads a fresh copy with n=."""
    m, n = shape
    lam = (2.0 / h * np.sin(0.5 * np.pi * np.arange(1, m - 1) / (m - 1))) ** 2
    inv = 2.0 / ((m - 1) * h) / (lam + shift.reshape(n, 1))

    def dst(x):
        x = np.concatenate([[0.0], x])
        return np.fft.rfft(x, 2 * x.size)[1:-1].imag

    out = np.zeros(shape)
    for c in range(n):
        out[1:-1, c] = dst(dst(r[1:-1, c]) * inv[c])
    return out


@pytest.mark.parametrize("shape", [(401, 2), (2001, 2), (17, 1)])
def test_poisson_preconditioner_keeps_the_bits_of_the_reference_solve(shape):
    rng = np.random.default_rng(5)
    shift = np.abs(rng.standard_normal(shape[-1]))
    psolve = poisson_preconditioner(shape, 0.04)(shift)
    for _ in range(2):
        # twice through the same buffers
        r = rng.standard_normal(shape)
        assert np.array_equal(psolve(r), _reference_profile_solve(shape, 0.04, shift, r))


def test_preconditioned_cg_with_an_exact_inverse_takes_one_product():
    # a Hessian that varies along x1 only: on the free nodes it is the SPD
    # operator h * dt * (L + q(x1)) that the line solve inverts
    space = _quadratic_field_space(lambda x: 2.0 + np.sin(3.0 * x) + 4.0 * x * x, m=33)
    dt = 0.23
    g = _free_noise((6, space.m, 2), 3)
    hess = _PathEnergyHessian(space, g, dt)
    assert np.ptp(hess.shift) > 1.0
    free = (~fold(g.shape, (None, None)).pinned).astype(float)
    psolve = poisson_preconditioner(g.shape, dt, space.h)(hess.shift)
    d = _free_noise(g.shape, 4)
    assert np.max(np.abs(psolve(hess(d)) - d)) <= 1e-12 * np.max(np.abs(d))
    gnorm = float(np.linalg.norm(g))
    p, negative, products = truncated_cg(lambda d: hess(d) * free, g, 1e-10 * gnorm,
                                         psolve=psolve)
    assert not negative and products == 1
    assert np.max(np.abs(p + psolve(g))) <= 1e-12 * np.max(np.abs(p))
    # unpreconditioned, CG needs one product per distinct eigenvalue it meets
    assert truncated_cg(lambda d: hess(d) * free, g, 1e-10 * gnorm)[2] > 1
    # one shift per component, the mean of q, is no longer exact
    mean = poisson_preconditioner(g.shape, dt, space.h)(
        np.broadcast_to(np.mean(hess.shift, axis=0), hess.shift.shape))
    assert truncated_cg(lambda d: hess(d) * free, g, 1e-10 * gnorm, psolve=mean)[2] > 1


def test_preconditioned_cg_falls_back_to_a_descent_direction():
    g = np.array([1.0, -2.0, 0.5])
    weights = np.array([0.5, 2.0, 4.0])
    p, negative, products = truncated_cg(lambda d: -d, g, 1e-12, psolve=lambda r: weights * r)
    assert negative and products == 1
    # the first preconditioned direction, -M^-1 g
    assert np.array_equal(p, -weights * g)
    assert float(np.dot(g, p)) < 0.0


def test_the_preconditioner_cuts_the_polish_products(planar_space, monkeypatch):
    # the shipped planar sym and sin fields on their x1 rows from the centre
    # on, each with its cap on the preconditioned products (11 and 9 with
    # the line solve; 22 and 10 with one shift per component)
    planar, sin = _shipped_config("planar_sym"), _shipped_config("sin_example")
    assert planar["m"] == planar_space.m
    fields = [(planar_space, planar["opts"], 12),
              (sin_example_space(m=sin["m"]), sin["opts"], 10)]
    for space, opts, cap in fields:
        u0, x2 = _seed_field(space, DoubleOptions(**opts))
        dt = float(np.diff(x2)[0])
        half = space.half()
        rho = space.x1_parity
        u0 = cut_half(u0, rho, 1)
        runs = {}
        for name in ("plain", "poisson"):
            with monkeypatch.context() as patch:
                if name == "plain":
                    # no preconditioner: the CG's M is the identity
                    patch.setattr(double_connection, "poisson_preconditioner",
                                  lambda *args, **kwargs: lambda shift: None)
                u, info = _polish_field(half, u0, dt, POLISH_GTOL, (None, rho))
            assert info.status == "converged"
            runs[name] = (_path_energy(half, u, dt)[0], info.products)
        assert runs["poisson"][1] < runs["plain"][1]
        assert runs["poisson"][1] <= cap
        assert runs["poisson"][0] == pytest.approx(runs["plain"][0], rel=1e-10)


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


# ---------------------------------------------------------------------------
# one fold rule for both mirrored axes


@pytest.mark.parametrize("lo, hi, n", [
    (-8.0, 8.0, 401), (0.0, math.pi, 257), (-6.0, 6.0, 129),
    (-4.738781121298126, 4.738781121298126, 257), (-6.0, 6.0, 128),
])
def test_mirror_grid_is_its_own_mirror_bit_for_bit(lo, hi, n):
    # the shipped x1 and x2 windows, and one even node count
    g = mirror_grid(lo, hi, n)
    assert g.size == n and g[0] == lo and g[-1] == hi
    assert np.array_equal((g[0] + g[-1]) - g, g[::-1])
    assert g[0] + g[-1] == lo + hi
    assert np.all(g[1:] > g[:-1])


SIGMA, RHO = np.array([1.0, -1.0]), np.array([-1.0, 1.0])


@pytest.mark.parametrize("parities", [(None, None), (SIGMA, None), (None, RHO), (SIGMA, RHO)],
                         ids=["whole", "x2_half", "x1_half", "quarter"])
def test_fold_reads_the_whole_field_on_its_part(parities):
    # a planar field (9, 11, 2) that is its signed mirror on each folded axis
    space = double_connection.planar_shell(mirror_grid(-4.0, 4.0, 11))
    dt = 0.3
    rng = np.random.default_rng(12)
    part = np.tanh(rng.standard_normal((9, 11, 2)))
    for axis, signs in enumerate(parities):
        if signs is not None:
            part = cut_half(part, signs, axis)
    whole = part
    for axis, signs in reversed(list(enumerate(parities))):
        if signs is not None:
            whole = mirror_half(whole, signs, axis)
    assert whole.shape == (9, 11, 2)
    # cut_half inverts mirror_half
    sigma, rho = parities
    again = whole if rho is None else cut_half(whole, rho, 1)
    assert np.array_equal(again if sigma is None else cut_half(again, sigma), part)
    # the part's nodes in the whole field
    at = (slice(4 if sigma is not None else 0, None), slice(5 if rho is not None else 0, None))
    pins = fold(part.shape, parities)
    whole_pins = fold(whole.shape, (None, None)).pinned
    # the whole field's pins on the part, and the odd components of a centre line
    odd = np.zeros(part.shape, dtype=bool)
    if sigma is not None:
        odd[0] |= sigma < 0
    if rho is not None:
        odd[:, 0] |= rho < 0
    assert np.array_equal(pins.pinned, whole_pins[at] | odd)
    # the part's free gradient, scaled, is the whole field's: its max and,
    # in the fold's weights, its Euclidean norm
    g = _path_energy(space if rho is None else space.half(), part, dt)[1]
    g[pins.pinned] = 0.0
    gw = _path_energy(space, whole, dt)[1]
    gw[whole_pins] = 0.0
    scale = float(np.max(np.abs(gw)))
    assert np.max(np.abs(pins.gscale * g - np.where(odd, 0.0, gw[at]))) <= 1e-13 * scale
    assert float(np.max(np.abs(pins.gscale * g))) == pytest.approx(scale, rel=1e-13)
    assert math.sqrt(float(np.sum(pins.weights * g * g))) == pytest.approx(
        float(np.linalg.norm(gw)), rel=1e-13)
    # the factors broadcast: none is an array the size of the field
    assert pins.gscale.size * 2 <= part.size and pins.weights.size * 2 <= part.size


# ---------------------------------------------------------------------------
# the half-window solve of a field odd in x2


def test_the_shipped_sin_field_is_odd_in_x2_bit_for_bit():
    cfg = _shipped_config("sin_example")
    result = solve_symmetric(sin_example_space(m=cfg["m"]), DoubleOptions(**cfg["opts"]))
    u = result.u
    p = u.shape[0]
    assert _polished(result).columns == p // 2 + 1 == 129
    assert np.array_equal(u[::-1], -u)
    assert not np.any(u[p // 2])
    # and even about pi/2 in x1, polished on a quarter of the field
    assert _polished(result).rows == 129
    assert np.array_equal(u[:, ::-1], u)
    # the recorded gradient max is the whole field's, as verify recomputes it
    report = assemble_and_verify(result)
    assert report.gmax == result.diagnostics["polish_gmax"] <= POLISH_GTOL


def test_the_half_window_solve_matches_the_full_window_polish():
    space = sin_example_space(m=65)
    opts = DoubleOptions(n_out=65, t_max=4.0)
    u0, x2 = _seed_field(space, opts)
    dt = float(np.diff(x2)[0])
    full_u, full = _polish_field(space, u0, dt, POLISH_GTOL)
    result = solve_symmetric(space, opts)
    assert _polished(result).columns == 33
    assert full.status == result.diagnostics["polish_status"] == "converged"
    assert result.diagnostics["polish_steps"] == full.steps
    energy = assemble_and_verify(result).energy_path
    assert energy == pytest.approx(full.value, rel=1e-12, abs=0.0)
    assert np.max(np.abs(result.u - full_u)) <= 1e-7


# ---------------------------------------------------------------------------
# the half-window solve of a field that is its signed mirror in x2


def _even_extension(q):
    """E (2q - 1, q): the even extension of a half window's q columns about
    its first, the centre of the whole window."""
    e = np.zeros((2 * q - 1, q))
    for j in range(q):
        e[q - 1 + j, j] = e[q - 1 - j, j] = 1.0
    return e


def test_the_mixed_parity_solve_is_the_whole_window_solve_on_the_mirror():
    rng = np.random.default_rng(7)
    q, m, dt, h = 17, 23, 0.2, 0.05
    sigma = np.array([1.0, -1.0])
    shift = rng.uniform(0.0, 3.0, (m, 2))
    half = poisson_preconditioner((q, m, 2), dt, h, parities=(sigma, None))(shift)
    whole = poisson_preconditioner((2 * q - 1, m, 2), dt, h)(shift)
    e = _even_extension(q)
    d_inv = np.diag(1.0 / np.diag(e.T @ e))
    free = ~fold((q, m, 2), (sigma, None)).pinned
    # u1 is free on the centre column, u2 pinned there
    assert free[0, 1:-1, 0].all() and not free[0, :, 1].any()
    for _ in range(3):
        r = rng.standard_normal((q, m, 2)) * free
        got = half(r)
        # the even u1: 2 D^-1 E^T M^-1 E D^-1 of the whole window's solve
        ext = np.zeros((2 * q - 1, m, 2))
        ext[..., 0] = np.einsum("pq,qm->pm", e @ d_inv, r[..., 0])
        want = 2.0 * np.einsum("qp,pm->qm", d_inv @ e.T, whole(ext)[..., 0])
        assert np.max(np.abs(got[..., 0] - want)) <= 1e-12 * np.max(np.abs(want))
        # the odd u2: today's half-window Dirichlet solve
        dirichlet = poisson_preconditioner((q, m, 2), dt, h)(shift)(r)[..., 1]
        assert np.array_equal(got[..., 1], dirichlet)
        assert not np.any(got[~free])
        # symmetric
        s = rng.standard_normal((q, m, 2)) * free
        assert np.sum(s * got) == pytest.approx(np.sum(r * half(s)), rel=1e-12)


def test_the_preconditioner_s_default_parity_is_dirichlet_bit_for_bit():
    rng = np.random.default_rng(8)
    shape, shift = (9, 13, 2), rng.uniform(0.0, 2.0, (13, 2))
    r = rng.standard_normal(shape)
    plain = poisson_preconditioner(shape, 0.3, 0.1)(shift)(r)
    odd = poisson_preconditioner(shape, 0.3, 0.1, parities=([-1.0, -1.0], None))(shift)(r)
    assert np.array_equal(plain, odd)


def test_the_free_centre_row_solve_is_the_whole_x1_solve_on_the_mirror():
    rng = np.random.default_rng(9)
    p, q, dt, h = 9, 19, 0.2, 0.05
    rho = np.array([1.0, -1.0])
    # one shift per row; the sweep reads the centre row and the q - 2 free ones
    shift = rng.uniform(0.0, 3.0, (q, 2))
    half = poisson_preconditioner((p, q, 2), dt, h, parities=(None, rho))(shift)
    # the whole x1 rows' shifts, the mirror of the half's about the centre
    whole = poisson_preconditioner((p, 2 * q - 1, 2), dt, h)(
        np.concatenate([shift[:0:-1], shift]))
    e = _even_extension(q)
    d_inv = np.diag(1.0 / np.diag(e.T @ e))
    free = ~fold((p, q, 2), (None, rho)).pinned
    # u1 is free on the centre row, u2 pinned there
    assert free[1:-1, 0, 0].all() and not free[:, 0, 1].any()
    for _ in range(3):
        r = rng.standard_normal((p, q, 2)) * free
        got = half(r)
        # the even u1: 2 D^-1 E^T M^-1 E D^-1 of the whole rows' solve
        ext = np.zeros((p, 2 * q - 1, 2))
        ext[..., 0] = r[..., 0] @ (e @ d_inv).T
        want = 2.0 * whole(ext)[..., 0] @ (d_inv @ e.T).T
        assert np.max(np.abs(got[..., 0] - want)) <= 1e-12 * np.max(np.abs(want))
        # the odd u2: the Dirichlet solve on the half's free rows, bit for bit
        dirichlet = poisson_preconditioner((p, q, 2), dt, h)(shift)(r)[..., 1]
        assert np.array_equal(got[..., 1], dirichlet)
        assert not np.any(got[~free])
        # symmetric
        s = rng.standard_normal((p, q, 2)) * free
        assert np.sum(s * got) == pytest.approx(np.sum(r * half(s)), rel=1e-12)


def test_the_even_profile_solve_is_the_whole_profile_solve_on_the_mirror():
    rng = np.random.default_rng(10)
    q, h = 21, 0.07
    shift = np.array([0.4, 2.5])
    half = poisson_preconditioner((q, 2), h, parities=(np.array([1.0, -1.0]),))(shift)
    whole = poisson_preconditioner((2 * q - 1, 2), h)(shift)
    e = _even_extension(q)
    d_inv = np.diag(1.0 / np.diag(e.T @ e))
    for _ in range(3):
        r = rng.standard_normal((q, 2))
        r[-1] = 0.0
        r[0, 1] = 0.0
        got = half(r)
        want = 2.0 * d_inv @ e.T @ whole(np.column_stack([e @ d_inv @ r[:, 0],
                                                          np.zeros(2 * q - 1)]))[:, 0]
        assert np.max(np.abs(got[:, 0] - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(got[:, 1], poisson_preconditioner((q, 2), h)(shift)(r)[:, 1])
        assert got[-1, 0] == got[0, 1] == got[-1, 1] == 0.0


def test_the_line_solve_s_default_parity_is_dirichlet_bit_for_bit():
    rng = np.random.default_rng(11)
    shape, shift = (9, 13, 2), rng.uniform(0.0, 2.0, (13, 2))
    r = rng.standard_normal(shape)
    plain = poisson_preconditioner(shape, 0.3, 0.1)(shift)(r)
    # an odd centre row is pinned, whatever its shift: the other rows keep
    # their bits, the x2-even mixed parity's too
    centre = shift.copy()
    centre[0] = [5.0, 7.0]
    odd = poisson_preconditioner(shape, 0.3, 0.1, parities=(None, [-1.0, -1.0]))(centre)(r)
    assert np.array_equal(plain, odd)
    sigma = [1.0, -1.0]
    plain = poisson_preconditioner(shape, 0.3, 0.1, parities=(sigma, None))(shift)(r)
    odd = poisson_preconditioner(shape, 0.3, 0.1, parities=(sigma, [-1.0, -1.0]))(centre)(r)
    assert np.array_equal(plain, odd)


@pytest.mark.parametrize("name", ["sin", "planar"])
def test_the_quarter_solve_matches_the_x2_half_polish(name):
    if name == "sin":
        space, opts = sin_example_space(m=65), DoubleOptions(n_out=65, t_max=4.0)
    else:
        space, opts = planar_effective_space(m=65), DoubleOptions(n_out=33, t_max=4.0)
    u0, x2 = _seed_field(space, opts)
    dt = float(np.diff(x2)[0])
    # x2 >= 0 on every x1 row, its sigma = -1 components zero on the centre column
    p = u0.shape[0]
    sigma = double_connection.x2_reflection(u0[0], u0[-1])
    half_u0 = cut_half(u0, sigma)
    assert not np.any(half_u0[0][:, sigma < 0])
    half_u, half = _polish_field(space, half_u0, dt, POLISH_GTOL, (sigma, None))
    result = solve_symmetric(space, opts)
    assert _polished(result)[:2] == (p // 2 + 1, 33)
    assert half.status == result.diagnostics["polish_status"] == "converged"
    assert result.diagnostics["polish_steps"] == half.steps
    assert result.diagnostics["polish_cg_products"] == half.products
    whole = mirror_half(half_u, sigma)
    energy = assemble_and_verify(result).energy_path
    assert energy == pytest.approx(_path_energy(space, whole, dt)[0], rel=1e-12, abs=0.0)
    assert np.max(np.abs(result.u - whole)) <= 1e-7
    # the x1 mirror, bit for bit
    rho = space.x1_parity
    assert np.array_equal(result.u[:, ::-1] * rho, result.u)
    assert np.array_equal(space.grid[0] + space.grid[-1] - space.grid, space.grid[::-1])


def test_the_planar_half_window_solve_matches_the_full_window_polish():
    space = planar_effective_space(m=65)
    opts = DoubleOptions(n_out=33, t_max=4.0)
    u0, x2 = _seed_field(space, opts)
    dt = float(np.diff(x2)[0])
    # every x2 column, on the x1 rows from the centre on as the solve's
    rho = space.x1_parity
    full_u, full = _polish_field(space.half(), cut_half(u0, rho, 1), dt, POLISH_GTOL,
                                 (None, rho))
    full_u = mirror_half(full_u, rho, axis=1)
    result = solve_symmetric(space, opts)
    part = _polished(result)
    assert part.columns == 17
    assert part.sigma.tolist() == [1, -1]
    assert full.status == result.diagnostics["polish_status"] == "converged"
    assert result.diagnostics["polish_steps"] == full.steps
    report = assemble_and_verify(result)
    # the half space's energy is half the whole field's
    assert report.energy_path == pytest.approx(2.0 * full.value, rel=1e-12, abs=0.0)
    assert np.max(np.abs(result.u - full_u)) <= 1e-7
    # the signed mirror, bit for bit, with the wells at the ends
    assert np.array_equal(result.u[::-1] * [1.0, -1.0], result.u)
    assert np.array_equal(result.x2, -result.x2[::-1])
    assert np.array_equal(result.u[0], space.z_minus.values)
    # the stop test reads the whole field's free gradient max
    assert report.gmax <= POLISH_GTOL


def test_the_half_translation_scan_matches_the_full_scan_bit_for_bit():
    from hetconn.cli import _double_setup

    cfg = _shipped_config("planar_asym")
    _, _, opts, _, _, fixture, _ = _double_setup(cfg)
    space = fixture()
    result = solve_asymmetric(space, opts)
    assert _polished(result).columns == 65
    span = float(space.grid[-1] - space.grid[0])
    full = optimal_translation(result.u, space.z_minus, space.z_plus,
                               m_max=0.25 * span, n_scan=129)
    assert np.array_equal(result.m_track, full)
