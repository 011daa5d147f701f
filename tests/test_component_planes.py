"""The field kernels work one component plane at a time, to the bits of
their one-line numpy forms, and never reduce over the component axis."""

import os
import sys
import types

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
    EffectivePotentialSpace,
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


def _block_space(block):
    """A fixed-boundary space on a grid of step 0.25 whose density Hessian
    at a stack of k profiles is the first k entries of ``block``."""
    n = block.shape[-1]
    return EffectivePotentialSpace(
        grid=np.linspace(0.0, 0.25 * (block.shape[1] - 1), block.shape[1]),
        n_components=n, bc="fixed",
        density=lambda s, stack: np.zeros(stack.shape[:2]),
        density_hess=lambda s, stack: block[:len(stack)].copy(),
    )


@pytest.mark.parametrize("n", [1, 2])
def test_the_hessian_planes_keep_the_einsum_bits(n):
    u = _field(n)
    rng = np.random.default_rng(3)
    block = rng.standard_normal(u.shape + (n,))
    block[::2, ::3] = -block[::2, ::3]
    block[1::3, ::2] = -0.0
    space = _block_space(block)
    p, m = u.shape[:2]
    wt = trapezoid_weights(p, 0.5)
    w1 = trapezoid_weights(m, space.h)
    # a direction constant along x1 leaves the kernel's fluxes zero
    d = np.repeat(rng.standard_normal((p, 1, n)), m, axis=1)
    d[2] = -0.0
    stack = block * (wt[:, None] * w1[None, :])[:, :, None, None]
    for values, scale, weighted, dir_ in ((u[0], None, block[0] * w1[:, None, None], d[0]),
                                          (u, wt, stack, d)):
        hessp = space.energy_1d_hessp(values, scale)
        assert np.array_equal(_bits(hessp(dir_)),
                              _bits(np.einsum("...mij,...mj->...mi", weighted, dir_)))
        diag = np.einsum("...cc->...c", block if scale is not None else block[0])
        assert np.array_equal(_bits(hessp.diag), _bits(diag))
    # the polish adds the x2 stencil, zero on a direction constant in both axes
    hess = _PathEnergyHessian(space, u, 0.5)
    const = np.ones(u.shape) * np.arange(1, n + 1)
    assert np.array_equal(_bits(hess(const)), _bits(np.einsum("pmij,pmj->pmi", stack, const)))
    assert np.array_equal(_bits(hess.shift), _bits(
        np.maximum(np.einsum("pmcc->mc", block[1:-1]) / (p - 2), 0.0)))


def _held_arrays(value, seen=None):
    """Every array that ``value`` keeps alive: through the attributes of an
    object of this package, a function's closure and attributes, lists,
    tuples and dicts, and each array's chain of bases."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
        if isinstance(value.base, np.ndarray):
            yield from _held_arrays(value.base, seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _held_arrays(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _held_arrays(item, seen)
    elif isinstance(value, types.FunctionType):
        for cell in value.__closure__ or ():
            yield from _held_arrays(cell.cell_contents, seen)
        yield from _held_arrays(vars(value), seen)
    elif type(value).__module__.startswith("hetconn."):
        yield from _held_arrays(vars(value), seen)


def test_the_path_hessian_holds_no_block():
    # the scan finds a block kept through a closure
    block = np.zeros((9, 33, 2, 2))

    def keeps(d):
        return block[..., 0, 0] * d

    assert [a.ndim for a in _held_arrays(keeps)] == [4]
    space = planar_effective_space(m=33)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((9, 33, 2))
    # and through a view: the kernel's diag keeps its block until dropped
    kernel = space.energy_1d_hessp(u, trapezoid_weights(9, 0.5))
    assert any(a.size == block.size for a in _held_arrays(kernel))
    hess = _PathEnergyHessian(space, u, 0.5)
    held = list(_held_arrays(hess))
    # the kernel's four planes and flux weights, the x2 weights and the shift
    assert sorted(a.shape for a in held) == [(9, 1, 1)] + [(9, 33)] * 4 + [(33, 2)] * 2
    assert all(a.flags.c_contiguous for a in held if a.shape == (9, 33))


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
