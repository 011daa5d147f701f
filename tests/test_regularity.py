import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hetconn import (
    EuclideanSpace,
    GridFunction,
    GridL2Space,
    SampledCurve,
    double_well,
    parallelogram_defect,
    planar_two_well,
    second_difference_bound,
    spectral_audit,
    uniform_bounds_audit,
)

DW = double_well()
TAILS = dict(tail_left=np.array([-1.0]), tail_right=np.array([1.0]))


def tanh_grid(m):
    s = np.linspace(-8.0, 8.0, m)
    return GridFunction(s=s, values=np.tanh(s), **TAILS)


def test_second_difference_bound_on_the_connection(golden):
    rep = second_difference_bound(golden.conn.curve, golden.potential.hessian_lower_bound)
    assert rep.passed
    # integral of (tanh'')^2 is 16/15, of (tanh')^2 is 4/3, ratio 4/5
    assert rep.lhs == pytest.approx(16.0 / 15.0, rel=1e-3)
    assert rep.c_fitted == pytest.approx(0.8, rel=1e-3)
    assert rep.c_constant == 8.0
    assert rep.rhs == pytest.approx(8.0 * 4.0 / 3.0, rel=1e-3)


def test_second_difference_needs_three_nodes():
    curve = SampledCurve(times=np.array([0.0, 1.0]), nodes=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        second_difference_bound(curve, -2.0)


def test_second_difference_rejects_nonuniform_times():
    t = np.array([0.0, 0.1, 0.35, 0.6, 1.0])
    curve = SampledCurve(times=t, nodes=(t**2).reshape(-1, 1))
    with pytest.raises(ValueError, match="uniform"):
        second_difference_bound(curve, -1.0)


def test_uniform_bounds_on_the_connection(golden):
    rep = uniform_bounds_audit(golden.conn.curve, golden.wspace)
    assert rep.max_speed == pytest.approx(1.0, abs=1e-3)
    assert rep.max_w == pytest.approx(0.5, abs=1e-3)
    assert not rep.edge_flag_lo
    assert not rep.edge_flag_hi
    assert np.max(rep.equip_profile) < 1e-3


def test_uniform_bounds_flags_an_edge_spike(golden):
    nodes = golden.conn.curve.nodes.copy()
    nodes[-1] += 0.3
    spiked = SampledCurve(times=golden.conn.curve.times, nodes=nodes)
    rep = uniform_bounds_audit(spiked, golden.wspace)
    assert rep.edge_flag_hi
    assert not rep.edge_flag_lo


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(np.float64, 4, elements=st.floats(-1e6, 1e6)),
    b=hnp.arrays(np.float64, 4, elements=st.floats(-1e6, 1e6)),
)
def test_parallelogram_identity_euclidean(a, b):
    space = EuclideanSpace(4)
    scale = max(1.0, np.max(a * a), np.max(b * b))
    assert parallelogram_defect(space, a, b) < 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_parallelogram_identity_grid(seed):
    rng = np.random.default_rng(seed)
    space = GridL2Space(17, 2, 0.25)
    a = rng.standard_normal(34)
    b = rng.standard_normal(34)
    assert parallelogram_defect(space, a, b) < 1e-12


def test_spectral_audit_gap_and_residual():
    rep = spectral_audit(tanh_grid(401), DW)
    # the linearization around tanh has kernel z' and next eigenvalue 3
    assert 2.9 < rep.c0_est < 3.3
    assert rep.kernel_residual < 1e-2


def test_spectral_residual_refines_at_second_order():
    coarse = spectral_audit(tanh_grid(201), DW)
    fine = spectral_audit(tanh_grid(401), DW)
    ratio = coarse.kernel_residual / fine.kernel_residual
    assert 3.0 < ratio < 5.3


def test_spectral_gap_of_tanh_is_exact():
    # the continuum gap is 3 and the discrete one 2.9994 at m = 401; the
    # Rayleigh-floor estimate this replaced read 3.137
    assert abs(spectral_audit(tanh_grid(401), DW).c0_est - 3.0) < 1e-3


def test_spectral_gap_matches_a_dense_projection():
    # a perturbed two-component profile: A assembled by hand, compressed to
    # z'-perp with an orthonormal basis from a QR factorization
    p = planar_two_well()
    s = np.linspace(-6.0, 6.0, 61)
    rng = np.random.default_rng(7)
    v = np.stack([np.tanh(s), 0.3 / np.cosh(s)], axis=1) + 0.01 * rng.standard_normal((61, 2))
    z = GridFunction(s=s, values=v, tail_left=v[0], tail_right=v[-1])
    rep = spectral_audit(z, p)
    h, mi = z.h, 59
    a_mat = np.kron((2.0 * np.eye(mi) - np.eye(mi, k=1) - np.eye(mi, k=-1)) / h**2, np.eye(2))
    for i, block in enumerate(p.hessians_at(v[1:-1])):
        a_mat[2 * i:2 * i + 2, 2 * i:2 * i + 2] += block
    zp = z.derivative()[1:-1].ravel()
    q, _ = np.linalg.qr(np.column_stack([zp, rng.standard_normal((2 * mi, 2 * mi - 1))]))
    compressed = q[:, 1:].T @ a_mat @ q[:, 1:]
    assert rep.c0_est == pytest.approx(np.linalg.eigvalsh(compressed)[0], rel=1e-12)
    assert rep.kernel_residual == pytest.approx(np.sqrt(h * np.sum((a_mat @ zp) ** 2)),
                                                rel=1e-12)


def test_spectral_audit_constant_profile():
    s = np.linspace(-8.0, 8.0, 201)
    z = GridFunction(s=s, values=np.ones(201),
                     tail_left=np.array([1.0]), tail_right=np.array([1.0]))
    rep = spectral_audit(z, DW)
    assert rep.kernel_residual == 0.0
    # around a well the Hessian is 4, and the flat direction is gone
    assert 3.8 < rep.c0_est < 4.3


def test_importing_the_cli_leaves_scipy_sparse_out():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hetconn.cli; "
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
