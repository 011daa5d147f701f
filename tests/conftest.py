from types import SimpleNamespace

import numpy as np
import pytest

from hetconn import (
    SolverOptions,
    double_well,
    make_weight,
    minimize_k_length,
    reparam_equipartition,
)
from hetconn.double_connection import planar_effective_space


@pytest.fixture(scope="session")
def golden():
    """Double-well connection pipeline output, wide window."""
    p = double_well()
    ws = make_weight(p)
    curve, value, trace = minimize_k_length(
        ws, np.array([-1.0]), np.array([1.0]),
        SolverOptions(n_nodes=401, max_iters=2000, grad_tol=1e-8),
    )
    conn = reparam_equipartition(
        curve, ws, n_samples=2001, t_max=9.0, resample=524288, resample_eps=1e-9
    )
    return SimpleNamespace(potential=p, wspace=ws, geodesic=curve,
                           k_value=value, trace=trace, conn=conn)


@pytest.fixture(scope="session")
def planar_space():
    return planar_effective_space(m=401)


@pytest.fixture(scope="session")
def boxed_seed():
    """Three-leg polyline P- -> (0.99 R, -1) -> (0.99 R, 1) -> P+ of the
    counterexample, ``n_leg`` segments per horizontal leg and twice as many
    on the vertical."""

    def seed(radius: float, n_leg: int) -> np.ndarray:
        xr = 0.99 * radius
        bottom = np.stack([np.linspace(0.0, xr, n_leg + 1),
                           np.full(n_leg + 1, -1.0)], axis=1)
        vertical = np.stack([np.full(2 * n_leg, xr),
                             np.linspace(-1.0, 1.0, 2 * n_leg + 1)[1:]], axis=1)
        top = np.stack([np.linspace(xr, 0.0, n_leg + 1)[1:],
                        np.full(n_leg, 1.0)], axis=1)
        return np.concatenate([bottom, vertical, top])

    return seed
