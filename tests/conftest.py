import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_unit_quat(rng, n=None):
    shape = (4,) if n is None else (n, 4)
    q = rng.normal(size=shape)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def state_columns(max_columns=8, bound=3.0):
    """Hypothesis strategy: a C-contiguous (23, N) array of flat state
    columns, as the engine's sigma cloud holds them, with entries in
    [-bound, bound] and each quaternion (rows 3-6) normalized."""
    def build(cols):
        q = cols[3:7]
        cols[3:7] = q / np.sqrt((q * q).sum(axis=0))
        return cols

    arrays = st.integers(1, max_columns).flatmap(lambda n: hnp.arrays(
        float, (23, n), elements=st.floats(-bound, bound)))
    return arrays.filter(
        lambda c: ((c[3:7] ** 2).sum(axis=0) > 1e-6).all()).map(build)


def random_pd_matrix(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim))


class LinearKalmanOracle:
    """Textbook Kalman filter over an explicit affine system, used as the
    independent reference for sigma-point exactness checks."""

    def __init__(self, a, b, q):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.q = np.asarray(q, dtype=float)

    def predict(self, x, p):
        x = self.a @ x + self.b
        p = self.a @ p @ self.a.T + self.q
        return x, 0.5 * (p + p.T)

    def update(self, x, p, z, h, r):
        h = np.asarray(h, dtype=float)
        s = h @ p @ h.T + r
        k = np.linalg.solve(s, h @ p).T
        x = x + k @ (np.asarray(z) - h @ x)
        p = p - k @ s @ k.T
        return x, 0.5 * (p + p.T)
