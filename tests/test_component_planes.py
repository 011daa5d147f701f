"""The field kernels work one component plane at a time, to the bits of
their one-line numpy forms, and never reduce over the component axis."""

import os
import sys

import numpy as np
import pytest

from hetconn import cli
from hetconn.double_connection import (
    _PathEnergyHessian,
    planar_effective_space,
    planar_grid,
    planar_shell,
    sin_grid,
    sin_shell,
)
from hetconn.function_space import (
    component_sum,
    component_weights,
    mirror_half,
    signed_flip,
)
from hetconn.metric import trapezoid_weights


# the most components of a field: its trailing axis is no longer than this
MAX_COMPONENTS = 3


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _field(n, seed=0):
    """A random (P, M, n) field with zeros of both signs in it."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((9, 13, n))
    u[::3] = 0.0
    u[1::4, ::2] = -0.0
    return u


@pytest.mark.parametrize("n", [1, 2])
def test_component_kernels_keep_the_bits_of_their_numpy_forms(n):
    u = _field(n)
    signs = np.array([-1.0, 1.0][:n])
    w = np.random.default_rng(1).random(u.shape[1])
    assert np.array_equal(_bits(component_sum(u * u)), _bits(np.sum(u * u, axis=2)))
    assert np.array_equal(_bits(component_sum(u)), _bits(np.sum(u, axis=2)))
    assert np.array_equal(_bits(component_weights(w, n) * u), _bits(w[:, None] * u))
    for axis in (0, 1):
        assert np.array_equal(_bits(signed_flip(u, signs, axis)),
                              _bits(signs * np.flip(u, axis)))
    half = u[4:]
    reflected = signs * half[:0:-1]
    reflected += 0.0
    assert np.array_equal(_bits(mirror_half(half, signs)),
                          _bits(np.concatenate([reflected, half])))


@pytest.mark.parametrize("n", [1, 2])
def test_l2_norms_keep_the_bits_of_the_axis_sum_and_of_distance_l2(n):
    space = sin_shell(sin_grid(13)) if n == 1 else planar_shell(planar_grid(8.0, 13))
    v = _field(n)
    w = space.grid_function(v[0]).quad_weights()
    norms = space.l2_norms(v)
    assert np.array_equal(_bits(norms), _bits(np.sqrt(np.sum(w * np.sum(v * v, axis=2), axis=1))))
    zero = np.zeros(v.shape[1:])
    assert np.array_equal(_bits(norms), _bits(
        [space.grid_function(profile).distance_l2(zero) for profile in v]))


@pytest.mark.parametrize("n", [1, 2])
def test_the_hessian_planes_keep_the_einsum_bits(n):
    u = _field(n)
    rng = np.random.default_rng(3)
    block = rng.standard_normal(u.shape + (n,))
    block[::2, ::3] = -block[::2, ::3]
    block[1::3, ::2] = -0.0

    class Space:
        h = 0.25

        @staticmethod
        def _density_hessians(stack):
            return block.copy()

    hess = _PathEnergyHessian(Space, u, 0.5)
    p, m = u.shape[:2]
    weight = trapezoid_weights(p, 0.5)[:, None] * trapezoid_weights(m, 0.25)[None, :]
    weighted = block * weight[:, :, None, None]
    # a direction constant along both axes leaves the stencils' fluxes zero
    d = np.ones(u.shape) * np.arange(1, n + 1)
    assert np.array_equal(_bits(hess(d)), _bits(np.einsum("pmij,pmj->pmi", weighted, d)))
    planes = [[weighted[..., i, j] for j in range(n)] for i in range(n)]
    assert all(np.array_equal(_bits(a), _bits(b))
               for row, ref in zip(hess.planes, planes) for a, b in zip(row, ref))
    assert np.array_equal(_bits(hess.shift), _bits(
        np.maximum(np.einsum("pmcc->mc", block[1:-1]) / (p - 2), 0.0)))


def test_the_path_hessian_holds_no_block():
    space = planar_effective_space(m=33)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((9, 33, 2))
    hess = _PathEnergyHessian(space, u, 0.5)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)

    held = [a for value in vars(hess).values() for a in arrays(value)]
    assert held and all(a.ndim <= 3 for a in held)
    assert all(plane.shape == (9, 33) and plane.flags.c_contiguous
               for row in hess.planes for plane in row)


def test_no_field_sized_reduction_over_the_component_axis(tmp_path, monkeypatch):
    """A small planar_asym run and its verify reduce no array of more than
    1e4 entries over its trailing component axis alone."""
    found = []
    for name in ("sum", "max", "min"):
        original = getattr(np, name)

        def wrapped(a, axis=None, *args, _original=original, _name=name, **kwargs):
            caller = sys._getframe(1).f_code.co_filename
            arr = np.asarray(a)
            if (f"{os.sep}hetconn{os.sep}" in caller and arr.size > 10**4 and arr.ndim >= 2
                    and arr.shape[-1] <= MAX_COMPONENTS and axis is not None
                    and tuple(np.atleast_1d(axis) % arr.ndim) == (arr.ndim - 1,)):
                found.append((_name, caller, arr.shape, axis))
            return _original(a, axis, *args, **kwargs)

        monkeypatch.setattr(np, name, wrapped)
    config = tmp_path / "planar_asym.json"
    config.write_text('{"schema_version": 1, "example": "planar", "mode": "asym", '
                      '"m": 101, "s_max": 8.0, "opts": {"n_out": 101, "t_max": 6.0}}')
    out = tmp_path / "run"
    assert cli.main(["double", "--config", str(config), "--out", str(out)]) == 0
    assert cli.main(["verify", str(out)]) == 0
    assert found == []
