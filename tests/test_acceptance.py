"""Ten end-to-end checks with pinned tolerances.

Each test covers one release criterion and prints a single
``criterion N: PASS/FAIL`` line with the measured numbers (run with -s to
see them on success).  The asserts pin the same tolerances as the printed
verdicts; nothing here is tuned per run.
"""

import time

import numpy as np

from hetconn import (
    DoubleOptions,
    GridFunction,
    SampledCurve,
    a_k_functional,
    assemble_and_verify,
    audit_translation_speed,
    check_a4,
    double_well,
    funnel_profile,
    funnel_project,
    k_length,
    line_connection,
    make_weight,
    minimize_k_length,
    mollify,
    nonexistence_report,
    parallelogram_defect,
    planar_two_well,
    second_difference_bound,
    sin_example_space,
    solve_asymmetric,
    solve_symmetric,
    spectral_audit,
    verify_connection,
)
from hetconn.double_connection import shift_track_summary
from hetconn.metric import EuclideanSpace, GridL2Space

TANH_TAILS = dict(tail_left=np.array([-1.0]), tail_right=np.array([1.0]))


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _smooth_polyline(seed, n):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    a = rng.standard_normal(5) / np.arange(1, 6)
    b = rng.standard_normal(5) / np.arange(1, 6)
    s = sum(
        a[k] * np.sin((k + 1) * np.pi * t) + b[k] * np.cos((k + 1) * np.pi * t)
        for k in range(5)
    )
    s = s - s[0]
    return t, s * (0.75 / max(1.0, np.max(np.abs(s))))


def _perturbed(space, rng, amp):
    pert = np.zeros((space.m, space.n_components))
    for c in range(space.n_components):
        for k in range(1, 6):
            pert[:, c] += rng.normal(0.0, amp / k) * np.sin(k * np.pi * space.grid / 12.0)
    window = np.exp(-((space.grid / 4.0) ** 2))
    return space.z_plus.values + pert * window[:, None]


def test_criterion_1_double_well_connection_matches_tanh():
    start = time.perf_counter()
    p = double_well()
    ws = make_weight(p)
    conn = line_connection(ws, -1.0, 1.0, n_samples=2001, t_max=5.0)
    k_val = conn.dk_value
    elapsed = time.perf_counter() - start

    t, u = conn.curve.times, conn.curve.nodes[:, 0]
    i = int(np.argmin(np.abs(u)))
    if u[i] > 0.0:
        i -= 1
    t_zero = t[i] - u[i] * (t[i + 1] - t[i]) / (u[i + 1] - u[i])
    linf = float(np.max(np.abs(u - np.tanh(t - t_zero))))
    gap_a = abs(conn.action - 4.0 / 3.0)
    gap_k = abs(k_val - 4.0 / 3.0)

    ok = linf < 1e-3 and gap_a < 1e-3 and gap_k < 1e-3 and elapsed < 10.0
    assert _line(
        1,
        ok,
        f"linf {linf:.3e}  action gap {gap_a:.3e}  k gap {gap_k:.3e}  "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_2_equipartition_defect(golden):
    rep = verify_connection(golden.conn, golden.potential, golden.wspace)
    d1 = rep.equipartition_defect

    p2 = planar_two_well()
    conn2 = minimize_k_length(p2, np.array([-1.0, 0.0]), np.array([1.0, 0.0]),
                              n_samples=2001, t_max=6.0, via_points=(np.array([0.0, 1.0]),))
    d2 = verify_connection(conn2, p2, make_weight(p2)).equipartition_defect

    ok = d1 < 1e-3 and d2 < 5e-2
    assert _line(2, ok, f"defect 1d {d1:.3e} (<1e-3)  planar {d2:.3e} (<5e-2)")


def test_criterion_3_polyline_quadrature_rules():
    ws = make_weight(double_well())
    ident_fails = 0
    ratio_fails = 0
    lo, hi = np.inf, -np.inf
    for seed in range(100):
        t, u = _smooth_polyline(seed, 65)
        curve = SampledCurve(times=t, nodes=u[:, None])
        gap = abs(
            a_k_functional(curve, ws, list(range(65)))
            - k_length(curve, ws, rule="min-endpoint")
        )
        if gap != 0.0:
            ident_fails += 1
        diffs = []
        for n in (65, 129, 257):
            tn, un = _smooth_polyline(seed, n)
            cn = SampledCurve(times=tn, nodes=un[:, None])
            diffs.append(
                abs(
                    k_length(cn, ws, rule="midpoint")
                    - k_length(cn, ws, rule="min-endpoint")
                )
            )
        r1, r2 = diffs[0] / diffs[1], diffs[1] / diffs[2]
        lo, hi = min(lo, r1, r2), max(hi, r1, r2)
        if not (1.5 <= r1 <= 2.5 and 1.5 <= r2 <= 2.5):
            ratio_fails += 1

    ok = ident_fails == 0 and ratio_fails == 0
    assert _line(
        3,
        ok,
        f"identity fails {ident_fails}/100  halving-ratio fails {ratio_fails}/100  "
        f"ratio range [{lo:.2f}, {hi:.2f}]",
    )


def test_criterion_4_funnel_projection_and_envelopes(planar_space):
    space = planar_space
    fit_m = check_a4(space.potential, np.asarray(space.tail_left, float))
    fit_p = check_a4(space.potential, np.asarray(space.tail_right, float))
    fm = funnel_profile(-1, fit_m.p0, 0.5 * fit_m.c0, 0.2, -6.0)
    fp = funnel_profile(+1, fit_p.p0, 0.5 * fit_p.c0, 0.2, +6.0)
    wl = np.asarray(space.tail_left, float)
    wr = np.asarray(space.tail_right, float)

    rng = np.random.default_rng(0)
    worst_gain = -np.inf
    for _ in range(100):
        v = _perturbed(space, rng, 0.1)
        before = space.energy_1d(v)[0]
        out = funnel_project(funnel_project(space.grid_function(v), fm, wl), fp, wr)
        worst_gain = max(worst_gain, space.energy_1d(out.values)[0] - before)

    # the envelope solves E'' = c E^(p0-1); differencing the closed-form
    # slope keeps the check at the 1e-10 level (one FD of an exact function)
    hh = 1e-6
    ode_resid = 0.0
    for prof, s in (
        (fp, np.linspace(6.5, 46.0, 800)),
        (fm, np.linspace(-46.0, -6.5, 800)),
    ):
        second = (prof.envelope_deriv(s + hh) - prof.envelope_deriv(s - hh)) / (2 * hh)
        ode_resid = max(
            ode_resid,
            float(np.max(np.abs(second - prof.c * prof.envelope(s) ** (prof.p0 - 1.0)))),
        )

    scale_err = 0.0
    for p0 in (2.0, 3.0, 4.0, 5.0):
        big = funnel_profile(1, p0, 2.0, 0.2, 0.0)
        half = funnel_profile(1, p0, 2.0, 0.1, 0.0)
        ratio = half.mouth_slope() / big.mouth_slope()
        scale_err = max(scale_err, abs(ratio / 2.0 ** (-p0 / 2.0) - 1.0))

    ok = worst_gain <= 1e-10 and ode_resid < 1e-10 and scale_err <= 1e-9
    assert _line(
        4,
        ok,
        f"worst projection gain {worst_gain:.2e} (<=1e-10)  "
        f"ode residual {ode_resid:.2e} (<1e-10)  "
        f"mouth-slope scaling err {scale_err:.2e} (<=1e-9)",
    )


def test_criterion_5_mollifier_energy_bound(planar_space):
    space = planar_space
    h = space.h
    lam = abs(space.potential.hessian_lower_bound)
    dk = space.ref_value
    rng = np.random.default_rng(1)
    violations = 0
    margin = np.inf
    for _ in range(50):
        v = space.grid_function(_perturbed(space, rng, 0.08))
        wv = space.effective_potential(v.values)[0]
        for mult in (4, 8, 16):
            delta = mult * h
            wm = space.effective_potential(mollify(v, delta).values)[0]
            bound = wv + 8.0 * delta**2 * lam * (wv + dk) + 10.0 * h
            margin = min(margin, bound - wm)
            if wm > bound:
                violations += 1

    ok = violations == 0
    assert _line(
        5, ok, f"violations {violations}/150  smallest margin {margin:.3e}"
    )


def test_criterion_6_sin_example_field():
    start = time.perf_counter()
    space = sin_example_space(m=257)
    res = solve_symmetric(space, DoubleOptions())
    rep = assemble_and_verify(res, margin=5)
    elapsed = time.perf_counter() - start

    # literal interior residual, recomputed from the field's x2 columns
    u = res.u[:, :, 0]
    h = space.h
    dt = float(res.x2[1] - res.x2[0])
    yy = (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h**2
    xx = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / dt**2
    mid = u[1:-1, 1:-1]
    sin2 = np.sin(space.grid[1:-1]) ** 2
    resid = yy + xx + mid - 4.0 * mid * (mid**2 - sin2)
    linf = float(np.max(np.abs(resid[4:-4, 4:-4])))

    # boundary decay over the last quarter of the window, both ends: strict
    # toward the stored wells, and toward +-sin up to the discrete floor
    # (the end column sits at the grid well, a fixed distance from sin)
    p = res.u.shape[0]
    q = p // 4
    target = np.sin(space.grid)[:, None]
    floor = float(space.z_plus.distance_l2(target))
    d_zp = np.array([space.z_plus.distance_l2(res.u[j]) for j in range(p - q, p)])
    d_zm = np.array([space.z_minus.distance_l2(res.u[j]) for j in range(q)])
    d_sp = np.array(
        [float(space.grid_function(res.u[j]).distance_l2(target)) for j in range(p - q, p)]
    )
    d_sm = np.array(
        [float(space.grid_function(res.u[j]).distance_l2(-target)) for j in range(q)]
    )
    wells_monotone = bool(np.all(np.diff(d_zp) < 0.0) and np.all(np.diff(d_zm) > 0.0))
    sin_monotone = bool(
        np.all(np.diff(d_sp) <= floor)
        and np.all(np.diff(d_sm) >= -floor)
        and d_sp[-1] < d_sp[0]
        and d_sm[0] < d_sm[-1]
    )

    ok = (
        linf < 5e-2
        and abs(linf - rep.residual_max) <= 1e-9 * linf
        and wells_monotone
        and sin_monotone
        and elapsed < 300.0
    )
    assert _line(
        6,
        ok,
        f"residual {linf:.3e} (<5e-2)  wells monotone {wells_monotone}  "
        f"sin monotone {sin_monotone} (floor {floor:.1e})  runtime {elapsed:.1f}s",
    )


def test_criterion_7_quotient_translation_speed(planar_space):
    opts6 = DoubleOptions(n_out=129, t_max=6.0)
    opts12 = DoubleOptions(n_out=129, t_max=12.0)
    res6 = solve_asymmetric(planar_space, opts6)
    res12 = solve_asymmetric(planar_space, opts12)
    a6 = audit_translation_speed(res6.m_track, assemble_and_verify(res6))
    a12 = audit_translation_speed(res12.m_track, assemble_and_verify(res12))

    limits = [c for res in (res6, res12) for c in shift_track_summary(res.m_track)[:2]]
    limits_ok = max(abs(c) for c in limits) < 1e-2
    both_floor = abs(a6.c_fit) < 1e-6 and abs(a12.c_fit) < 1e-6
    within = abs(a12.c_fit - a6.c_fit) <= 0.2 * max(abs(a6.c_fit), abs(a12.c_fit), 1e-300)
    stable = both_floor or within

    ok = limits_ok and stable
    assert _line(
        7,
        ok,
        f"|c| max {max(abs(c) for c in limits):.2e} (<1e-2)  "
        f"C fit {a6.c_fit:.3e} -> {a12.c_fit:.3e}  "
        f"(n_used {a6.n_used}/{a12.n_used})  stable {stable}",
    )


def test_criterion_8_vanishing_weight_escape():
    start = time.perf_counter()
    rep = nonexistence_report()
    elapsed = time.perf_counter() - start

    cand_dec = bool(np.all(np.diff(rep.candidate_lengths) < 0.0))
    cand_gap = abs(rep.candidate_lengths[-1] - rep.infimum)
    above = bool(np.all(rep.box_candidates > rep.bounds) and np.all(rep.bounds > rep.infimum))
    series_ok = (
        rep.radii.size == rep.box_candidates.size == rep.bounds.size
        and rep.candidate_ns.size == rep.candidate_lengths.size
        and np.all(np.isfinite(rep.box_candidates))
        and np.all(np.isfinite(rep.candidate_lengths))
    )

    ok = cand_dec and cand_gap < 1e-2 and above and series_ok and elapsed < 60.0
    assert _line(
        8,
        ok,
        f"candidates -> {rep.candidate_lengths[-1]:.6f} (gap {cand_gap:.2e})  "
        f"boxed min margin {np.min(rep.box_candidates - rep.bounds):.2e}  "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_9_second_difference_and_parallelogram(golden):
    rep = second_difference_bound(
        golden.conn.curve, golden.potential.hessian_lower_bound
    )

    rng = np.random.default_rng(2)
    spaces = ((EuclideanSpace(4), 4), (GridL2Space(17, 2, 0.25), 34))
    worst = 0.0
    for sp, dim in spaces:
        for _ in range(500):
            a = rng.standard_normal(dim)
            b = rng.standard_normal(dim)
            worst = max(worst, parallelogram_defect(sp, a, b))

    ok = rep.passed and worst < 1e-12
    assert _line(
        9,
        ok,
        f"second-difference passed {rep.passed} (C fitted {rep.c_fitted:.4f}, "
        f"lhs {rep.lhs:.4f} <= rhs {rep.rhs:.4f})  "
        f"parallelogram worst {worst:.2e} (<1e-12)",
    )


def test_criterion_10_kernel_residual_order():
    p = double_well()
    residuals = []
    for m in (201, 401, 801):
        s = np.linspace(-8.0, 8.0, m)
        z = GridFunction(s=s, values=np.tanh(s), **TANH_TAILS)
        residuals.append(spectral_audit(z, p).kernel_residual)
    o1 = float(np.log2(residuals[0] / residuals[1]))
    o2 = float(np.log2(residuals[1] / residuals[2]))

    ok = 1.7 <= o1 <= 2.3 and 1.7 <= o2 <= 2.3
    assert _line(
        10,
        ok,
        f"residuals {residuals[0]:.2e}/{residuals[1]:.2e}/{residuals[2]:.2e}  "
        f"orders {o1:.2f}, {o2:.2f} (within [1.7, 2.3])",
    )
