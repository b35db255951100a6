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


def yaw_variance(q: np.ndarray, quat_cov: np.ndarray) -> float:
    """First-order yaw variance from the 4x4 quaternion covariance block.

    Perturbations are projected onto the tangent space at q first, because
    the radial component disappears under renormalization and must not
    count toward yaw uncertainty.
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = q
    s = 2.0 * (x * y + w * z)
    c = 1.0 - 2.0 * (y * y + z * z)
    ds = 2.0 * np.array([z, y, x, w])
    dc = np.array([0.0, 0.0, -4.0 * y, -4.0 * z])
    denom = s * s + c * c
    if denom < 1e-12:
        return float("inf")
    jac = (c * ds - s * dc) / denom
    jac = jac - (jac @ q) * q
    return float(jac @ np.asarray(quat_cov, dtype=float) @ jac)


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_distance(qa: np.ndarray, qb: np.ndarray) -> float:
    """Geodesic angle in SO(3) between two unit quaternions.  The arcsin
    form keeps full precision near zero, where arccos of the dot does not."""
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    chord = min(float(np.linalg.norm(qa - qb)), float(np.linalg.norm(qa + qb)))
    return 4.0 * np.arcsin(min(1.0, 0.5 * chord))


def enu_to_geodetic(enu: np.ndarray, origin):
    """The geodetic point of a local ENU position."""
    from navfuse.geodesy import ecef_to_geodetic, enu_to_ecef
    return ecef_to_geodetic(enu_to_ecef(enu, origin))


def truth_consistency_error(truth) -> float:
    """Max |central-difference position rate - world velocity| of the
    simulator's ground truth."""
    dt = truth.stamps[1] - truth.stamps[0]
    fd = (truth.position[2:] - truth.position[:-2]) / (2.0 * dt)
    vel_world = (truth.velocity_body[:, 0:1]
                 * np.stack([np.cos(truth.yaw), np.sin(truth.yaw)],
                            axis=-1))
    vel3 = np.concatenate([vel_world, np.zeros((len(truth.yaw), 1))], axis=-1)
    return float(np.max(np.linalg.norm(fd - vel3[1:-1], axis=-1)))


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
