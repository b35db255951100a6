"""State vector layout, quaternion algebra, and shared numeric conventions.

Quaternions are stored scalar-first as ``[w, x, y, z]`` ndarrays and use the
Hamilton convention: ``quat_mul(a, b)`` composes rotations so that rotating a
vector by the product applies ``b`` first, then ``a``.  The state quaternion
maps body-frame vectors into the world (local ENU) frame.

The filter state is a flat 23-vector ordered as position, quaternion, body
velocity, body angular rate, body acceleration, gyro bias, accel bias, and
the wheel-encoder yaw-rate bias.  All slices below index into that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STATE_DIM = 23
POS = slice(0, 3)
QUAT = slice(3, 7)
VEL = slice(7, 10)
OMEGA = slice(10, 13)
ACC = slice(13, 16)
GYRO_BIAS = slice(16, 19)
ACCEL_BIAS = slice(19, 22)
ENC_YAW_BIAS = 22

#: gravity in the local ENU frame, m/s^2
GRAVITY = np.array([0.0, 0.0, 9.80665])

#: below this angular rate (rad/s) the quaternion exponential uses its
#: first-order branch
EPSILON_OMEGA = 1e-8

#: eigenvalue floor used by covariance repair
EPSILON_PD = 1e-9

#: cap on angular-velocity variance, rad^2/s^2
OMEGA_VAR_CAP = 1.0

_STATE_FIELD_SLICES = (
    ("position", POS),
    ("quaternion", QUAT),
    ("velocity", VEL),
    ("angular_rate", OMEGA),
    ("acceleration", ACC),
    ("gyro_bias", GYRO_BIAS),
    ("accel_bias", ACCEL_BIAS),
    ("encoder_yaw_bias", slice(22, 23)),
)


class NumericalError(RuntimeError):
    """Raised when the filter produces non-finite or degenerate numbers."""


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Return unit quaternion(s); raises on (near-)zero norm."""
    q = np.asarray(q, dtype=float)
    norm = np.sqrt((q * q).sum(axis=-1, keepdims=True))
    if np.any(norm < 1e-12):
        raise NumericalError("quaternion norm collapsed to zero")
    return q / norm


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Unit quaternion with w >= 0 (q and -q encode the same rotation)."""
    q = quat_normalize(q)
    if q.ndim == 1:
        return -q if q[0] < 0.0 else q
    flip = np.where(q[..., :1] < 0.0, -1.0, 1.0)
    return q * flip


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a ⊗ b, renormalized.  Supports broadcasting."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericalError("non-finite quaternion input")
    aw, ax, ay, az = (a[..., i] for i in range(4))
    bw, bx, by, bz = (b[..., i] for i in range(4))
    out = np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )
    return quat_normalize(out)


def quat_exp(omega: np.ndarray, dt: float) -> np.ndarray:
    """Unit quaternion rotating by ||omega||*dt about omega's axis.

    Uses the exact half-angle form when ``||omega|| > EPSILON_OMEGA`` and the
    renormalized first-order form ``[1, omega*dt/2]`` otherwise.  Supports a
    trailing batch dimension on ``omega``.
    """
    omega = np.asarray(omega, dtype=float)
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    if not np.all(np.isfinite(omega)):
        raise NumericalError("non-finite angular rate")
    rate = np.sqrt((omega * omega).sum(axis=-1, keepdims=True))
    half = 0.5 * rate * dt
    small_mask = rate <= EPSILON_OMEGA
    # sin(theta)/||omega|| is safe: the small branch covers rate ~ 0
    safe_rate = np.where(small_mask, 1.0, rate)
    q = np.concatenate(
        [np.cos(half), np.sin(half) / safe_rate * omega], axis=-1
    )
    if np.any(small_mask):
        small = np.concatenate(
            [np.ones_like(half), 0.5 * dt * omega], axis=-1
        )
        q = np.where(small_mask, small, q)
    return quat_normalize(q)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the rotation R(q) to v.  Broadcasts over leading dimensions."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w, qx, qy, qz = (q[..., i] for i in range(4))
    vx, vy, vz = (v[..., i] for i in range(3))
    # v + w*t + qv x t with t = 2 qv x v, written out (np.cross is slow)
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return np.stack(
        [
            vx + w * tx + qy * tz - qz * ty,
            vy + w * ty + qz * tx - qx * tz,
            vz + w * tz + qx * ty - qy * tx,
        ],
        axis=-1,
    )


def quat_rotate_inv(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply R(q)^T to v (world -> body for a world-from-body quaternion)."""
    return quat_rotate(quat_conjugate(q), v)


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


def quat_to_euler(q: np.ndarray) -> tuple[float, float, float]:
    """ZYX (roll, pitch, yaw) extraction; pitch clamped at the +-90 deg
    singularity.  Yaw 0 points along world x (east), counterclockwise
    positive."""
    w, x, y, z = np.asarray(q, dtype=float)
    sin_pitch = -2.0 * (x * z - w * y)
    pitch = np.arcsin(np.clip(sin_pitch, -1.0, 1.0))
    roll = np.arctan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y))
    yaw = np.arctan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))
    return float(roll), float(pitch), float(yaw)


def euler_to_quat(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """ZYX composition qz(yaw) ⊗ qy(pitch) ⊗ qx(roll), canonical sign."""
    qx = np.array([np.cos(roll / 2), np.sin(roll / 2), 0.0, 0.0])
    qy = np.array([np.cos(pitch / 2), 0.0, np.sin(pitch / 2), 0.0])
    qz = np.array([np.cos(yaw / 2), 0.0, 0.0, np.sin(yaw / 2)])
    return quat_canonical(quat_mul(qz, quat_mul(qy, qx)))


def wrap_angle(a):
    """Wrap angle(s) into (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    wrapped = np.remainder(a + np.pi, 2.0 * np.pi)
    wrapped = np.where(wrapped <= 0.0, wrapped + 2.0 * np.pi, wrapped)
    out = wrapped - np.pi
    if out.ndim == 0:
        return float(out)
    return out


def rotation_distance(qa: np.ndarray, qb: np.ndarray) -> float:
    """Geodesic angle in SO(3) between two unit quaternions.  The arcsin
    form keeps full precision near zero, where arccos of the dot does not."""
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    chord = min(float(np.linalg.norm(qa - qb)), float(np.linalg.norm(qa + qb)))
    return 4.0 * np.arcsin(min(1.0, 0.5 * chord))


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


@dataclass
class ProcessNoiseConfig:
    """Continuous-time random-walk intensities for all state blocks.

    Each entry scales linearly with the step dt when the discrete process
    noise matrix is assembled.  ``coast_position_inflation`` multiplies the
    position block while the filter coasts without GPS.
    """

    q_position: float = 1e-4
    q_orientation: float = 1e-7
    q_velocity: float = 1e-3
    q_omega: float = 5e-2
    q_accel: float = 5e-1
    q_gyro_bias: float = 1e-9
    q_accel_bias: float = 1e-8
    q_ewz: float = 1e-11
    coast_position_inflation: float = 10.0

    def __post_init__(self):
        for name in (
            "q_position",
            "q_orientation",
            "q_velocity",
            "q_omega",
            "q_accel",
            "q_gyro_bias",
            "q_accel_bias",
            "q_ewz",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.coast_position_inflation < 1.0:
            raise ValueError("coast_position_inflation must be >= 1")


@dataclass
class FilterState:
    """The 23-dimensional filter state plus its timestamp."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    quaternion: np.ndarray = field(default_factory=quat_identity)
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular_rate: np.ndarray = field(default_factory=lambda: np.zeros(3))
    acceleration: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    encoder_yaw_bias: float = 0.0
    stamp: float = 0.0

    def as_vector(self) -> np.ndarray:
        vec = np.empty(STATE_DIM)
        vec[POS] = self.position
        vec[QUAT] = self.quaternion
        vec[VEL] = self.velocity
        vec[OMEGA] = self.angular_rate
        vec[ACC] = self.acceleration
        vec[GYRO_BIAS] = self.gyro_bias
        vec[ACCEL_BIAS] = self.accel_bias
        vec[ENC_YAW_BIAS] = self.encoder_yaw_bias
        return vec

    @classmethod
    def from_vector(cls, vec: np.ndarray, stamp: float = 0.0,
                    normalize: bool = True) -> "FilterState":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (STATE_DIM,):
            raise ValueError(f"state vector must have shape ({STATE_DIM},)")
        q = vec[QUAT]
        if normalize:
            q = quat_normalize(q)
        return cls(
            position=vec[POS].copy(),
            quaternion=q.copy(),
            velocity=vec[VEL].copy(),
            angular_rate=vec[OMEGA].copy(),
            acceleration=vec[ACC].copy(),
            gyro_bias=vec[GYRO_BIAS].copy(),
            accel_bias=vec[ACCEL_BIAS].copy(),
            encoder_yaw_bias=float(vec[ENC_YAW_BIAS]),
            stamp=stamp,
        )

    def copy(self) -> "FilterState":
        return FilterState.from_vector(self.as_vector(), self.stamp,
                                       normalize=False)

    def validate(self) -> None:
        """Hard error naming the offending component on NaN/Inf or a
        non-unit quaternion."""
        vec = self.as_vector()
        if not np.all(np.isfinite(vec)):
            for name, sl in _STATE_FIELD_SLICES:
                if not np.all(np.isfinite(vec[sl])):
                    raise NumericalError(f"non-finite filter state: {name}")
        if abs(np.linalg.norm(self.quaternion) - 1.0) > 1e-9:
            raise NumericalError("state quaternion lost unit norm")
