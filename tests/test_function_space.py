import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetconn import (
    EffectivePotentialSpace,
    FunnelEntryError,
    GridFunction,
    double_well,
    funnel_profile,
    funnel_project,
    gauge_fix_translations,
    mollify,
    optimal_translation,
    translation_misfits,
    translation_objective,
)
from hetconn import function_space
from hetconn.double_connection import planar_shell
from hetconn.function_space import poisson_preconditioner
from hetconn.metric import trapezoid_weights

S = np.linspace(-8.0, 8.0, 161)
TAILS = dict(tail_left=np.array([-1.0]), tail_right=np.array([1.0]))
# a translation scan over the whole span, one shift per half grid step
WHOLE_SPAN = dict(m_max=float(S[-1] - S[0]), n_scan=2 * S.size + 1)


def tanh_gf(shift=0.0):
    return GridFunction(s=S, values=np.tanh(S - shift), **TAILS)


def l2_norm(v):
    return v.distance_l2(np.zeros_like(v.values))


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(s=np.array([0.0, 1.0]), values=np.zeros(2), **TAILS)
    with pytest.raises(ValueError):
        GridFunction(s=np.array([0.0, 1.0, 3.0]), values=np.zeros(3), **TAILS)
    with pytest.raises(ValueError):
        GridFunction(s=S, values=np.zeros(7), **TAILS)
    with pytest.raises(ValueError):
        GridFunction(s=S, values=np.zeros(S.size), bc="tails")
    with pytest.raises(ValueError):
        GridFunction(s=S, values=np.zeros(S.size), bc="periodic")


def test_fixed_bc_takes_edge_values_as_tails():
    v = GridFunction(s=S, values=np.sin(S), bc="fixed")
    assert v.tail_left[0] == v.values[0, 0]
    assert v.tail_right[0] == v.values[-1, 0]


def test_norm_of_constant():
    v = GridFunction(s=np.linspace(0.0, 1.0, 11), values=np.ones(11), bc="fixed")
    assert l2_norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.sum(v.quad_weights()) == pytest.approx(1.0, abs=1e-14)


def test_norm_matches_quadrature_oracle():
    v = tanh_gf()
    # integral of tanh^2 over [-L, L] is 2 (L - tanh L)
    exact = 2.0 * (8.0 - math.tanh(8.0))
    assert l2_norm(v) ** 2 == pytest.approx(exact, rel=1e-4)


def test_derivative_and_second_difference():
    v = GridFunction(s=S, values=np.sin(S), bc="fixed")
    interior = slice(2, -2)
    assert np.max(np.abs(v.derivative()[interior, 0] - np.cos(S[interior]))) < 2e-3
    assert np.max(np.abs(v.second_difference()[interior, 0] + np.sin(S[interior]))) < 2e-3


def test_translate_matches_shifted_samples():
    v = tanh_gf()
    w = v.translate(0.5)
    assert np.max(np.abs(w.values[:, 0] - np.tanh(S - 0.5))) < 5e-3
    assert np.array_equal(v.translate(0.0).values, v.values)


def test_translate_fills_with_tails():
    v = tanh_gf()
    w = v.translate(30.0)
    assert np.all(w.values == -1.0)


def test_distance_to_self_is_zero():
    v = tanh_gf()
    assert v.distance_l2(v) == 0.0
    assert v.distance_l2(-v.values) == pytest.approx(2.0 * l2_norm(v), rel=1e-14)


# ---------------------------------------------------------------------------
# funnel envelopes


@pytest.mark.parametrize("p0", [2.0, 3.0, 5.0])
def test_envelope_solves_its_ode(p0):
    prof = funnel_profile(side=1, p0=p0, c=1.7, eps0=0.3, s0=2.0)
    s = np.linspace(2.5, 9.0, 400)
    e = prof.envelope(s)
    hh = 1e-4
    second = (prof.envelope(s + hh) - 2 * e + prof.envelope(s - hh)) / hh**2
    assert np.max(np.abs(second - 1.7 * e ** (p0 - 1.0))) < 1e-5


def test_envelope_mouth_value_and_slope():
    for p0 in (2.0, 2.5, 4.0):
        prof = funnel_profile(side=1, p0=p0, c=0.9, eps0=0.25, s0=-1.0)
        assert prof.envelope(-1.0) == pytest.approx(0.25, rel=1e-12)
        want = math.sqrt(2.0 * 0.9 / p0) * 0.25 ** (p0 / 2.0)
        assert prof.mouth_slope() == pytest.approx(want, rel=1e-12)
        hh = 1e-7
        fd = (prof.envelope(-1.0 + hh) - prof.envelope(-1.0)) / hh
        assert fd == pytest.approx(-want, rel=1e-5)


def test_mouth_slope_scaling_in_eps0():
    # halving the entry radius scales the entry slope by 2^(-p0/2) exactly
    for p0 in (2.0, 3.0, 4.0, 5.0):
        a = funnel_profile(side=1, p0=p0, c=2.0, eps0=0.2, s0=0.0)
        b = funnel_profile(side=1, p0=p0, c=2.0, eps0=0.1, s0=0.0)
        assert b.mouth_slope() / a.mouth_slope() == pytest.approx(
            2.0 ** (-p0 / 2.0), rel=1e-13
        )


def test_tail_l2_matches_quadrature():
    for p0 in (2.0, 3.0):
        prof = funnel_profile(side=1, p0=p0, c=1.2, eps0=0.4, s0=0.0)
        s = np.linspace(0.0, 400.0, 2_000_001)
        num = np.trapezoid(prof.envelope(s) ** 2, s)
        assert prof.tail_l2() == pytest.approx(num, rel=1e-3)


def test_envelope_constant_before_mouth():
    prof = funnel_profile(side=1, p0=2.0, c=1.0, eps0=0.5, s0=3.0)
    assert np.all(prof.envelope(np.array([-2.0, 0.0, 2.9])) == 0.5)
    assert np.all(prof.envelope_deriv(np.array([-2.0, 2.9])) == 0.0)


def test_envelope_mirror_sides():
    plus = funnel_profile(side=1, p0=3.0, c=1.0, eps0=0.3, s0=2.0)
    minus = funnel_profile(side=-1, p0=3.0, c=1.0, eps0=0.3, s0=-2.0)
    s = np.linspace(-9.0, 9.0, 301)
    assert np.allclose(plus.envelope(s), minus.envelope(-s), atol=0.0)


def test_funnel_profile_rejects_bad_exponents():
    for p0 in (1.5, 6.0, 7.0):
        with pytest.raises(ValueError):
            funnel_profile(side=1, p0=p0, c=1.0, eps0=0.1, s0=0.0)
    with pytest.raises(ValueError):
        funnel_profile(side=0, p0=2.0, c=1.0, eps0=0.1, s0=0.0)
    with pytest.raises(ValueError):
        funnel_profile(side=1, p0=2.0, c=-1.0, eps0=0.1, s0=0.0)


def test_funnel_project_clamps_excess_radius():
    v = tanh_gf()
    prof = funnel_profile(side=1, p0=2.0, c=2.0, eps0=0.2, s0=4.0)
    out = funnel_project(v, prof, well=np.array([1.0]))
    r = np.abs(out.values[:, 0] - 1.0)
    env = prof.envelope(S)
    assert np.all(r[S >= 4.0] <= env[S >= 4.0] + 1e-15)
    # unchanged before the mouth (up to the well-recentering roundoff)
    inside = S < 4.0
    assert np.max(np.abs(out.values[inside] - v.values[inside])) < 1e-15
    assert np.all(np.sign(out.values[:, 0] - 1.0) * np.sign(v.values[:, 0] - 1.0) >= 0.0)


def test_funnel_project_requires_entry():
    v = tanh_gf()
    tight = funnel_profile(side=1, p0=2.0, c=2.0, eps0=1e-6, s0=4.0)
    with pytest.raises(FunnelEntryError):
        funnel_project(v, tight, well=np.array([1.0]))


# ---------------------------------------------------------------------------
# mollification


def test_mollify_fixes_constants():
    v = GridFunction(s=S, values=np.full(S.size, 0.7),
                     tail_left=np.array([0.7]), tail_right=np.array([0.7]))
    out = mollify(v, delta=4 * v.h)
    assert np.max(np.abs(out.values - 0.7)) < 1e-14


def test_mollify_rejects_subgrid_width():
    v = tanh_gf()
    with pytest.raises(ValueError):
        mollify(v, delta=0.5 * v.h)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 12),
)
def test_mollify_respects_range(seed, k):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-2.0, 2.0, size=S.size)
    v = GridFunction(s=S, values=vals, **TAILS)
    out = mollify(v, delta=k * v.h)
    lo = min(vals.min(), -1.0)
    hi = max(vals.max(), 1.0)
    assert out.values.min() >= lo - 1e-12
    assert out.values.max() <= hi + 1e-12


def test_mollify_smooths():
    rng = np.random.default_rng(3)
    v = GridFunction(s=S, values=np.tanh(S) + 0.1 * rng.standard_normal(S.size),
                     **TAILS)
    rough = np.max(np.abs(v.second_difference()))
    out = mollify(v, delta=8 * v.h)
    assert np.max(np.abs(out.second_difference())) < 0.2 * rough


# ---------------------------------------------------------------------------
# translation fitting


def test_optimal_translation_recovers_shift():
    z_minus = tanh_gf()
    z_plus = z_minus.with_values(-z_minus.values)
    v = z_minus.translate(0.7374)
    shift = optimal_translation(v.values, z_minus, z_plus, **WHOLE_SPAN)
    assert shift.shape == (1,)
    assert shift[0] == pytest.approx(0.7374, abs=1e-3)


def _misfit_by_translate(v, z, shift):
    # the per-shift reference: one tail-filled interpolation per shift and component
    shifted = np.column_stack([
        np.interp(z.s - shift, z.s, z.values[:, c], left=z.tail_left[c], right=z.tail_right[c])
        for c in range(z.n_components)
    ])
    assert np.array_equal(z.translate(shift).values, shifted)
    diff = v.values - shifted
    return float(np.sum(v.quad_weights() * np.sum(diff * diff, axis=1)))


@pytest.mark.parametrize("n_components", [1, 2])
def test_batched_misfits_equal_per_shift_translates(n_components):
    rng = np.random.default_rng(12)
    base = np.stack([np.tanh(S), 0.5 / np.cosh(S)], axis=1)[:, :n_components]
    z = GridFunction(s=S, values=base, tail_left=np.array([-1.0, 0.0])[:n_components],
                     tail_right=np.array([1.0, 0.0])[:n_components])
    v = z.with_values(base + 0.05 * rng.standard_normal(base.shape))
    span = S[-1] - S[0]
    # shifts up to 1.5 spans push the template past the window, so the
    # misfit comes from the tail fills
    shifts = np.concatenate([np.linspace(-1.5 * span, 1.5 * span, 37), rng.uniform(-2.0, 2.0, 5)])
    misfits = translation_misfits(v.values, z, shifts)[0]
    assert misfits.shape == shifts.shape
    assert np.array_equal(misfits, [_misfit_by_translate(v, z, m) for m in shifts])
    # different profiles in one stack: a buffer carried over from the
    # previous profile would show in every row after the first
    stack = [v, z.translate(0.7), z.with_values(-base[::-1]), z.with_values(0.0 * base)]
    misfits = translation_misfits(np.stack([p.values for p in stack]), z, shifts)
    assert misfits.shape == (len(stack), shifts.size)
    for row, p in zip(misfits, stack):
        assert np.array_equal(row, [_misfit_by_translate(p, z, m) for m in shifts])


def _exhaustive_fit(values, z_minus, z_plus, m_max, n_scan):
    """optimal_translation without the Gram screen, profile by profile:
    translation_misfits over every scan shift, then the same Newton polish
    and choice of template."""
    m_grid = np.linspace(-m_max, m_max, n_scan)
    step = m_grid[1] - m_grid[0]
    shifts = []
    for v in np.asarray(values, dtype=float).reshape(-1, z_minus.m, z_minus.n_components):
        per_template = []
        for z in (z_minus, z_plus):
            vals = translation_misfits(v, z, m_grid)[0]
            i = int(np.argmin(vals))
            m = m_grid[i]
            for _ in range(12):
                _, dF, d2F = (x[0] for x in translation_objective(v, z, [m]))
                if d2F <= 0.0:
                    break
                s = np.clip(-dF / d2F, -2.0 * step, 2.0 * step)
                if np.abs(s) < 1e-14:
                    break
                m += s
            per_template.append((m, translation_objective(v, z, [m])[0][0]))
        (m_m, f_m), (m_p, f_p) = per_template
        shifts.append(m_m if f_m <= f_p else m_p)
    return np.array(shifts)


def _bump_gf(values):
    zero = np.zeros(1)
    return GridFunction(s=S, values=values, tail_left=zero, tail_right=zero)


def _bump(shift=0.0):
    return 1.0 / np.cosh(4.0 * (S - shift))[:, None]


def _two_bumps(delta):
    # narrow bumps at -3 and +3, the right one 1 + delta high: against the
    # bump template the scan has minima at both, on scan shifts, whose
    # depths 0.5 (1 + delta)^2 and 0.5 differ by about delta
    return _bump(-3.0) + (1.0 + delta) * _bump(3.0)


# each: (templates, stack, optimal_translation keywords, whether some scan
# row must be exact in full)
SCREEN_CASES = {
    # minima within rounding of each other are both candidates, and delta 0
    # ties them to rounding: the first is the exact row's argmin
    "two_far_minima": (
        "bump", np.stack([_two_bumps(d) for d in (1e-8, 0.0, -1e-8, 1e-2)]),
        dict(m_max=4.0, n_scan=129), False),
    "all_nan": ("tanh", np.full((1, S.size, 1), np.nan), WHOLE_SPAN, True),
    "nan_among_finite": (
        "tanh", np.stack([tanh_gf(0.4).values, np.full((S.size, 1), np.nan),
                          tanh_gf(-1.3).values]), dict(m_max=4.0, n_scan=129), True),
    # the two templates tie at every shift
    "zero": ("tanh", np.zeros((1, S.size, 1)), WHOLE_SPAN, False),
    "single_at_default_n_scan": (
        "tanh", tanh_gf(0.7374).values + 0.01 * np.sin(3.0 * S)[:, None], WHOLE_SPAN, False),
}


@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
def test_screened_fit_is_the_exhaustive_scan_bitwise(monkeypatch, case):
    templates, stack, kwargs, full_rows = SCREEN_CASES[case]
    if templates == "bump":
        z_minus = _bump_gf(_bump())
        z_plus = _bump_gf(-z_minus.values)
    else:
        z_minus = tanh_gf()
        z_plus = z_minus.with_values(-z_minus.values)
    exact = function_space.translation_misfits
    scanned = []

    def spy(values, z, shifts):
        scanned.append(np.size(shifts))
        return exact(values, z, shifts)

    monkeypatch.setattr(function_space, "translation_misfits", spy)
    with np.errstate(invalid="ignore"):
        shift = optimal_translation(stack, z_minus, z_plus, **kwargs)
        monkeypatch.undo()
        ref = _exhaustive_fit(stack, z_minus, z_plus, **kwargs)
    assert shift.dtype == ref.dtype
    assert np.array_equal(shift, ref, equal_nan=True)
    assert (kwargs["n_scan"] in scanned) == full_rows


def test_optimal_translation_of_an_empty_stack():
    z = tanh_gf()
    shift = optimal_translation(np.empty((0, S.size, 1)), z, z.with_values(-z.values),
                                **WHOLE_SPAN)
    assert shift.shape == (0,)


@pytest.mark.parametrize("newton_iters", [0, 1, 2, 12])
def test_polished_misfit_is_the_misfit_at_the_returned_shift(newton_iters):
    # the polish keeps each profile's last Newton evaluation; a profile whose
    # last allowed step moved it is evaluated once more
    z = tanh_gf()
    rng = np.random.default_rng(5)
    stack = np.stack([tanh_gf(s).values + 0.1 * rng.standard_normal((S.size, 1))
                      for s in (-1.3, 0.2, 2.9)])
    m, misfit = function_space._scan_and_polish(stack, z, np.linspace(-4.0, 4.0, 129),
                                                newton_iters)
    assert np.array_equal(misfit, translation_objective(stack, z, m)[0])


def test_translation_objective_derivatives():
    z = tanh_gf()
    v = z.translate(0.3).with_values(z.translate(0.3).values + 0.05 * np.sin(S)[:, None])
    # probe away from multiples of the grid step, where the interpolated
    # misfit has slope kinks in the shift
    hh = 1e-6
    for m in (-0.373, 0.131, 0.519):
        f0, df, d2f = (x[0] for x in translation_objective(v.values, z, m))
        fp = translation_objective(v.values, z, m + hh)[0][0]
        fm = translation_objective(v.values, z, m - hh)[0][0]
        # dF and d2F smooth the interpolation kinks, so agreement with the
        # exact piecewise derivative is only O(h^2); plenty for a clipped
        # Newton polish
        assert df == pytest.approx((fp - fm) / (2 * hh), rel=2e-2, abs=1e-6)
        assert d2f > 0.0
        assert d2f == pytest.approx((fp - 2 * f0 + fm) / hh**2, rel=3e-1, abs=1e-3)


def test_gauge_fix_removes_drift():
    z = tanh_gf()
    drift = [z.translate(0.12 * k) for k in range(6)]
    fixed, shifts = gauge_fix_translations(drift)
    assert shifts[0] == 0.0
    gaps = [fixed[i].distance_l2(fixed[i + 1]) for i in range(5)]
    raw = [drift[i].distance_l2(drift[i + 1]) for i in range(5)]
    assert max(gaps) < 0.2 * max(raw)


def test_gauge_fix_never_lengthens_weighted_path():
    z = tanh_gf()
    rng = np.random.default_rng(11)
    nodes = [
        z.translate(0.1 * k).with_values(
            z.translate(0.1 * k).values + 0.02 * rng.standard_normal((S.size, 1))
        )
        for k in range(5)
    ]

    def keff(v):
        return 1.0 + l2_norm(v)

    def length(path):
        out = 0.0
        for a, b in zip(path, path[1:]):
            mid = a.with_values(0.5 * (a.values + b.values))
            out += keff(mid) * a.distance_l2(b)
        return out

    fixed, _ = gauge_fix_translations(
        nodes, keff=lambda flat: np.array([keff(z.with_values(v)) for v in flat])
    )
    assert length(fixed) <= length(nodes) + 1e-10


# ---------------------------------------------------------------------------
# the effective potential on profiles

DW = double_well()


def dw_space():
    return EffectivePotentialSpace(
        grid=S,
        n_components=1,
        bc="tails",
        potential=DW,
        tail_left=np.array([-1.0]),
        tail_right=np.array([1.0]),
        ref_value=4.0 / 3.0,
        x1_parity=(-1.0,),
    )


def test_energy_of_tanh_profile():
    eps = dw_space()
    vals = np.tanh(S)[:, None]
    # the 1D action of the exact connection is 4/3; discretization adds O(h^2)
    assert eps.energy_1d(vals) == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert eps.effective_potential(vals) == pytest.approx(0.0, abs=1e-3)


def test_energy_grad_matches_finite_differences():
    whole = dw_space()
    rng = np.random.default_rng(5)
    vals = np.tanh(S)[:, None] + 0.05 * rng.standard_normal((S.size, 1))
    hh = 1e-6
    # every row, the edges and the half's first row, the centre, included
    for eps, v in ((whole, vals), (whole.half(), vals[S.size // 2:])):
        g = eps.energy_1d_grad(v)[0]
        assert np.all(g[[0, -1]] != 0.0)
        for j in range(eps.m):
            bump = np.zeros_like(v)
            bump[j, 0] = hh
            fd = (eps.energy_1d(v + bump)[0] - eps.energy_1d(v - bump)[0]) / (2 * hh)
            assert g[j, 0] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def _all_rows_energy_grad(space, values):
    # the gradient accumulated over whole rows, edges included, kept as the
    # bitwise reference
    v = np.ascontiguousarray(values, dtype=float).reshape(-1, space.m, space.n_components)
    grad = np.zeros_like(v)
    dv = np.diff(v, axis=1) / space.h
    grad[:, :-1] -= dv
    grad[:, 1:] += dv
    grad += trapezoid_weights(space.m, space.h)[:, None] * space._density_grads(v)
    return grad


def test_energy_grad_equals_the_all_rows_accumulation_bitwise():
    s = np.linspace(-1.0, 1.0, 6)
    # density u^2 / 2: its gradient keeps the sign of a zero
    eps = EffectivePotentialSpace(
        grid=s, n_components=1, bc="fixed",
        density=lambda grid, vals: 0.5 * vals[..., 0] ** 2,
        density_grad=lambda grid, vals: vals.copy(),
    )
    rng = np.random.default_rng(11)
    stack = np.concatenate([
        np.array([[1.0, 0.0, -0.0, 0.0, -0.0, 1.0],
                  [0.0, -0.0, -0.0, 0.0, 0.0, -0.0]])[..., None],
        rng.standard_normal((3, 6, 1)),
    ])
    got = eps.energy_1d_grad(stack)
    assert got.tobytes() == _all_rows_energy_grad(eps, stack).tobytes()
    # the signed zeros of the edge rows too: -0 + -0 there would keep a -0
    assert np.signbit(stack[1, -1, 0]) and not np.signbit(got[1, -1, 0])
    dw = dw_space()
    vals = np.tanh(S)[None, :, None] + 0.05 * rng.standard_normal((4, S.size, 1))
    assert dw.energy_1d_grad(vals).tobytes() == _all_rows_energy_grad(dw, vals).tobytes()
    half = dw.half()
    vals = vals[:, S.size // 2:]
    assert half.energy_1d_grad(vals).tobytes() == _all_rows_energy_grad(half, vals).tobytes()


def test_relax_profile_reaches_the_connection():
    eps = dw_space()
    seed = np.clip(S / 4.0, -1.0, 1.0)[:, None]
    out, energy = eps.relax_profile(seed)
    assert energy == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert np.max(np.abs(out[:, 0] - np.tanh(S))) < 5e-3
    # the half is relaxed and mirrored: odd bit for bit, not just approximately
    assert np.array_equal(out[:, 0], -out[::-1, 0])


def test_relax_profile_raises_unless_converged():
    eps = dw_space()
    seed = np.clip(S / 4.0, -1.0, 1.0)[:, None]
    with pytest.raises(RuntimeError, match="max free gradient"):
        eps.relax_profile(seed, gtol=0.0)


@pytest.mark.parametrize("name", ["double_well", "planar_shell"])
def test_energy_1d_hessp_matches_central_differences(name):
    if name == "double_well":
        eps = dw_space()
    else:
        eps = planar_shell(np.linspace(-6.0, 6.0, 61), beta=1.5, kappa=0.7)
    rng = np.random.default_rng(17)
    m, n = eps.m, eps.n_components
    v = rng.uniform(-1.2, 1.2, (m, n))
    hh = 1e-6
    # every row, the edges and the half's first row, the centre, included
    for space, x in ((eps, v), (eps.half(), v[m // 2:])):
        hessp = space.energy_1d_hessp(x)
        assert np.array_equal(hessp.diag,
                              np.einsum("mcc->mc", space._density_hessians(x[None])[0]))
        for _ in range(3):
            d = rng.standard_normal(x.shape)
            hd = hessp(d)
            assert np.all(hd[[0, -1]] != 0.0)
            fd = (space.energy_1d_grad(x + hh * d)[0]
                  - space.energy_1d_grad(x - hh * d)[0]) / (2 * hh)
            assert np.allclose(hd, fd, rtol=1e-6, atol=1e-7 * np.max(np.abs(fd)))


def _quadratic_space(sigma):
    """Density sum_c sigma_c u_c^2 / 2 on [-1, 1]: on the free rows the
    Hessian of the 1D action is h (L + sigma_c), the stencil the solve inverts."""
    sigma = np.asarray(sigma, dtype=float)
    return EffectivePotentialSpace(
        grid=np.linspace(-1.0, 1.0, 41),
        n_components=sigma.size,
        bc="fixed",
        density=lambda s, v: 0.5 * np.sum(sigma * v * v, axis=-1),
        density_grad=lambda s, v: sigma * v,
        density_hess=lambda s, v: np.broadcast_to(np.diag(sigma), v.shape + (sigma.size,)),
    )


def _free_rows_noise(shape, seed):
    d = np.random.default_rng(seed).standard_normal(shape)
    d[[0, -1]] = 0.0
    return d


def test_poisson_preconditioner_inverts_the_free_profile_stencil():
    eps = _quadratic_space([0.3, 1.7])
    shape = (eps.m, 2)
    hessp = eps.energy_1d_hessp(np.zeros(shape))
    # B_cc = sigma_c on every row
    assert np.array_equal(hessp.diag, np.broadcast_to([0.3, 1.7], shape))
    psolve = poisson_preconditioner(shape, eps.h)(np.array([0.3, 1.7]))
    d = _free_rows_noise(shape, 0)
    assert np.max(np.abs(psolve(hessp(d)) - d)) <= 1e-12 * np.max(np.abs(d))
    back = psolve(d)
    assert np.all(back[[0, -1]] == 0.0)
    # on the free rows; the pins zero the edge rows of a product
    assert np.max(np.abs(hessp(back)[1:-1] - d[1:-1])) <= 1e-12 * np.max(np.abs(d))


def symmetrize(values):
    """Project profiles (..., m, 2) onto the odd-first-component subspace."""
    flipped = values[..., ::-1, :]
    return 0.5 * (values + flipped * [-1.0, 1.0])


def test_poisson_preconditioner_commutes_with_symmetrize():
    eps = _quadratic_space([0.3, 1.7])
    psolve = poisson_preconditioner((eps.m, 2), eps.h)(np.array([0.3, 1.7]))
    r = _free_rows_noise((eps.m, 2), 1)
    lhs = psolve(symmetrize(r))
    rhs = symmetrize(psolve(r))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


@pytest.mark.parametrize("parity, grid", [
    ((-1.0, 1.0), np.linspace(0.0, 1.0, 11)),
    ((0.5,), np.linspace(0.0, 1.0, 11)),
    ((-1.0,), np.array([0.0, 0.1, 0.3, 0.6, 1.0])),
])
def test_x1_parity_needs_a_sign_per_component_and_a_mirrored_grid(parity, grid):
    with pytest.raises(ValueError, match="x1 parity|x1_parity"):
        EffectivePotentialSpace(grid=grid, n_components=1, bc="fixed", potential=DW,
                                x1_parity=parity)


def test_only_an_odd_grid_with_a_parity_has_a_half_space():
    eps = dw_space()
    half = eps.half()
    # a space of its own: no parity, the whole grid's step
    assert half.x1_parity is None and half.m == (S.size + 1) // 2
    assert half.h == eps.h
    assert np.array_equal(half.grid, S[S.size // 2:])
    assert half.ref_value == 0.5 * eps.ref_value
    for space in (half, _quadratic_space([0.3]),
                  EffectivePotentialSpace(grid=S[1:], n_components=1, bc="fixed",
                                          potential=DW, x1_parity=(-1.0,))):
        with pytest.raises(ValueError, match="centre row"):
            space.half()


def test_effective_potential_vanishes_on_stored_connections():
    eps = dw_space()
    z, _ = eps.relax_profile(np.tanh(S)[:, None], gtol=1e-12)
    gf = eps.grid_function(z)
    eps.z_minus = gf
    eps.z_plus = gf.with_values(-gf.values)
    eps.ref_value = eps.energy_1d(z)
    assert eps.effective_potential(eps.z_minus.values)[0] == 0.0
    assert eps.effective_potential(eps.z_plus.values)[0] == 0.0
    shoved = z.ravel() + 0.3 * np.abs(np.sin(S))
    # off them the weight K = sqrt(2 W) is positive
    assert math.sqrt(2.0 * eps.effective_potential(shoved)[0]) > 0.1
