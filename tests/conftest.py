from types import SimpleNamespace

import numpy as np
import pytest

from hetconn import SampledCurve, double_well, line_connection, make_weight
from hetconn.double_connection import planar_effective_space


@pytest.fixture(scope="session")
def golden():
    """Double-well connection by exact quadrature, wide window, and the
    straight segment between the wells, its K-geodesic."""
    p = double_well()
    ws = make_weight(p)
    conn = line_connection(ws, -1.0, 1.0, n_samples=2001, t_max=9.0)
    segment = SampledCurve(times=np.linspace(0.0, 1.0, 401),
                           nodes=np.linspace(-1.0, 1.0, 401)[:, None])
    return SimpleNamespace(potential=p, wspace=ws, geodesic=segment, conn=conn)


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
