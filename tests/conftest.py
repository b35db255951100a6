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


def sigma_clouds(rng, count, locked=6, zeroed=0):
    """``count`` C-contiguous (23, 47) state clouds with unit quaternions,
    ``locked`` columns of each at pitch +-90 deg, where about half have
    |sin pitch| > 1 by rounding, and ``zeroed`` more with one to three
    components 0.0 or -0.0, such as [0, -1, -0, 0]."""
    from navfuse.core import euler_to_quat
    for _ in range(count):
        cols = rng.normal(size=(23, 47))
        cols[3:7] = random_unit_quat(rng, 47).T
        picked = rng.choice(47, locked + zeroed, replace=False)
        for j in picked[:locked]:
            cols[3:7, j] = euler_to_quat(rng.uniform(-np.pi, np.pi),
                                         rng.choice([-1.0, 1.0]) * np.pi / 2,
                                         rng.uniform(-np.pi, np.pi))
        for j in picked[locked:]:
            q = np.round(rng.normal(size=4))
            zeros = rng.choice(4, rng.integers(1, 4), replace=False)
            q[zeros] = rng.choice([0.0, -0.0], len(zeros))
            cols[3:7, j] = (q / np.linalg.norm(q) if q.any()
                            else [1.0, -0.0, 0.0, -0.0])
        yield cols


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
