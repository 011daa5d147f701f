import numpy as np
import pytest

from hetconn import (
    DoubleOptions,
    ScanWindowError,
    assemble_and_verify,
    audit_translation_speed,
    s0_scan,
    sin_example_space,
    solve_asymmetric,
    solve_symmetric,
)

SMALL = DoubleOptions(
    path_nodes=17, outer_iters=2, inner_iters=300, n_out=33, t_max=4.0, polish=False
)


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
    assert len(ws.zero_set) == 2
    assert ws.weight_at(planar_space.z_plus.flatten())[0] == 0.0
    shoved = planar_space.z_plus.values.copy()
    shoved[:, 1] += 0.3 * np.exp(-planar_space.grid**2)
    assert ws.weight_at(shoved.ravel())[0] > 1e-2


def test_s0_scan_finds_hugging_columns(planar_space):
    path = np.stack([planar_space.z_minus.values, planar_space.z_plus.values])
    s_minus, s_plus = s0_scan(path, planar_space, eps0=0.1)
    assert s_minus < 0.0 < s_plus
    jm = int(np.argmin(np.abs(planar_space.grid - s_minus)))
    jp = int(np.argmin(np.abs(planar_space.grid - s_plus)))
    am = np.asarray(planar_space.tail_left)
    ap = np.asarray(planar_space.tail_right)
    assert np.all(np.linalg.norm(path[:, jm, :] - am, axis=1) < 0.1)
    assert np.all(np.linalg.norm(path[:, jp, :] - ap, axis=1) < 0.1)


def test_s0_scan_reports_failure(planar_space):
    stuck = np.full((3, planar_space.m, 2), 5.0)
    with pytest.raises(ScanWindowError):
        s0_scan(stuck, planar_space, eps0=0.1)


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
    lk = result.diagnostics["outer_lk"]
    assert lk[-1] <= lk[0] + 1e-9
    # at equipartition the excess action matches the weighted path length
    assert result.energy == pytest.approx(lk[-1], rel=5e-2)
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
    assert report.x1_funnel_violation < 1e-9


def test_asymmetric_needs_the_quotient(planar_space):
    with pytest.raises(ValueError):
        solve_asymmetric(planar_space, SMALL)


def test_asymmetric_solve_tracks_shifts(quotient_space):
    result = solve_asymmetric(quotient_space, SMALL)
    assert result.mode == "asym"
    assert result.m_track is not None and result.m_track.size == 33
    assert abs(result.c_minus) < 0.1
    assert abs(result.c_plus) < 0.1
    assert result.diagnostics["m_total_variation"] < 1.0
    audit = audit_translation_speed(result)
    assert audit.c_fit >= 0.0
    assert np.isfinite(audit.max_ratio)


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
    opts = DoubleOptions(
        path_nodes=9, outer_iters=1, inner_iters=150, n_out=17, t_max=3.0,
        polish=True, polish_maxiter=500,
    )
    result = solve_symmetric(space, opts)
    assert result.u.shape == (33, 17, 1)
    assert np.max(np.abs(result.u)) < 1.5
    report = assemble_and_verify(result)
    rel = abs(report.energy_direct - report.energy_path) / max(report.energy_direct, 1e-12)
    assert rel < 1e-6
    assert report.x2_gap_minus_l2 <= 1e-12
    assert report.x2_gap_plus_l2 <= 1e-12
    assert np.isfinite(report.residual_max)
