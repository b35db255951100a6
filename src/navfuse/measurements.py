"""Measurement models for every sensor path, and the GPS fix screen and
noise policy (``gps_fix_to_measurement``).

Each model bundles a batched measurement function ``h`` ((23, N) columns
of flat state vectors, the engine's component-major sigma cloud, -> (dim, N)
columns of measurement vectors), its noise matrix, an angular mask selecting
components whose residuals wrap at +-pi, and a chi-squared gate threshold
(the ``gates.*`` configuration keys).

A model linear in the state (encoder, its vertical-velocity constraint,
radar, ZUPT, GPS position without a lever arm) is declared by its (dim, 23)
matrix H instead; ``h`` is derived from H and the engine updates it in closed
form.  ``stack`` joins linear models into one whose rows the engine solves
together while gating and reporting each model, its *block*, on its own
(``ukf.update``); the encoder and its vertical constraint fuse that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    ACC,
    ACCEL_BIAS,
    ENC_YAW_BIAS,
    GRAVITY,
    GYRO_BIAS,
    OMEGA,
    POS,
    QUAT,
    STATE_DIM,
    VEL,
    quat_rotate_cols,
    rotate_inv_vertical_cols,
)
from .events import FixType, GpsFixSample
from .geodesy import EnuOrigin, GeodeticCoord, geodetic_to_enu


@dataclass
class MeasurementModel:
    """One measurement path the engine can consume.

    ``h`` is the batched measurement function, or the matrix H of a linear
    model, then kept read-only as ``matrix`` (else None) with ``h`` derived
    as ``H @ cols``.  ``r`` is replaced atomically between updates when
    the path adapts.  ``blocks`` holds the linear models a ``stack`` was
    built from, in row order; only a model with a matrix can have them.
    """

    name: str
    dim: int
    h: Union[Callable[[np.ndarray], np.ndarray], np.ndarray]
    r: np.ndarray
    gate: float
    angular: np.ndarray = None
    blocks: tuple["MeasurementModel", ...] = ()
    matrix: Optional[np.ndarray] = field(default=None, init=False)

    def __post_init__(self):
        self.r = np.atleast_2d(np.asarray(self.r, dtype=float))
        if self.angular is None:
            self.angular = np.zeros(self.dim, dtype=bool)
        self.wraps = bool(np.any(self.angular))
        self.all_angular = self.wraps and bool(self.angular.all())
        if self.gate <= 0:
            raise ValueError("gate threshold must be > 0")
        if not callable(self.h):
            matrix = np.array(self.h, dtype=float)
            if matrix.shape != (self.dim, STATE_DIM):
                raise ValueError(f"{self.name}: matrix shape {matrix.shape}, "
                                 f"expected {(self.dim, STATE_DIM)}")
            if self.wraps:
                raise ValueError(f"{self.name}: a linear model cannot wrap")
            matrix.flags.writeable = False
            self.matrix = matrix
            self.h = lambda cols: matrix @ cols
        if self.blocks and (self.matrix is None or sum(
                b.dim for b in self.blocks) != self.dim
                or any(b.matrix is None for b in self.blocks)):
            raise ValueError(f"{self.name}: blocks must be linear models "
                             f"whose rows make up its matrix")


def stack(*models: MeasurementModel) -> MeasurementModel:
    """One linear model whose H is the models' rows stacked in order, named
    after the first and keeping them as its ``blocks``.

    The engine gates and reports each block on its own and reads each
    block's current ``r``; the stacked ``r``, the blocks' R as stacked, and
    ``gate``, the sum of their gates, are what the blocks held when stacked.
    Only linear models stack: stacking is exact for them, because the
    Mahalanobis distance splits by the chain rule, and not for sigma-point
    paths, so a model without a matrix raises ``ValueError``.
    """
    if len(models) < 2 or any(m.matrix is None or m.blocks for m in models):
        raise ValueError("stack needs two or more unstacked linear models")
    r = np.zeros((sum(m.dim for m in models),) * 2)
    start = 0
    for m in models:
        r[start:start + m.dim, start:start + m.dim] = m.r
        start += m.dim
    return MeasurementModel(models[0].name, len(r),
                            np.vstack([m.matrix for m in models]), r,
                            sum(m.gate for m in models), blocks=tuple(models))


def _reading(index) -> np.ndarray:
    """The matrix H reading the state components at ``index``, in order."""
    return np.eye(STATE_DIM)[index]


def _yaw_cols(w, x, y, z) -> np.ndarray:
    """ZYX yaw of quaternion columns given as their four rows."""
    return np.arctan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))


def euler_cols(q: np.ndarray, with_yaw: bool = True) -> np.ndarray:
    """Vectorized ZYX (roll, pitch, yaw) extraction over (4, N) quaternion
    columns, as (3, N); ``with_yaw=False`` gives roll and pitch only."""
    w, x, y, z = q
    out = np.empty((3 if with_yaw else 2, q.shape[1]))
    out[0] = np.arctan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y))
    sin_pitch = -2.0 * (x * z - w * y)
    out[1] = np.arcsin(np.minimum(np.maximum(sin_pitch, -1.0), 1.0))
    if with_yaw:
        out[2] = _yaw_cols(w, x, y, z)
    return out


def imu_raw_model(sigma_gyro: float, sigma_accel: float,
                  gate: float) -> MeasurementModel:
    """6-DOF raw IMU: rates plus bias, accelerations plus bias and the
    gravity reaction rotated into the body frame."""

    g = float(GRAVITY[2])

    def h(x: np.ndarray) -> np.ndarray:
        out = np.empty((6, x.shape[1]))
        np.add(x[OMEGA], x[GYRO_BIAS], out=out[:3])
        np.add(x[ACC], x[ACCEL_BIAS], out=out[3:])
        out[3:] += rotate_inv_vertical_cols(x[QUAT], g)
        return out

    r = np.diag([sigma_gyro**2] * 3 + [sigma_accel**2] * 3)
    return MeasurementModel("imu_raw", 6, h, r, gate)


def imu_orientation_model(has_magnetometer: bool, sigma_orient: float,
                          gate: float) -> MeasurementModel:
    """Roll/pitch (2-DOF) for 6-axis IMUs; roll/pitch/yaw (3-DOF) with a
    magnetometer.  Without one, yaw stays unobservable from the IMU."""
    dim = 3 if has_magnetometer else 2

    def h(x: np.ndarray) -> np.ndarray:
        return euler_cols(x[QUAT], with_yaw=has_magnetometer)

    r = np.eye(dim) * sigma_orient**2
    name = "imu_orientation_3dof" if has_magnetometer else "imu_orientation"
    return MeasurementModel(name, dim, h, r, gate,
                            angular=np.ones(dim, dtype=bool))


def encoder_model(sigma_vx: float, sigma_vy: float, sigma_wz: float,
                  gate: float, b_ewz_enabled: bool = True) -> MeasurementModel:
    """3-DOF wheel odometry: body planar velocity and yaw rate with the
    encoder yaw-rate bias subtracted from the predicted reading."""
    h = _reading([VEL.start, VEL.start + 1, OMEGA.start + 2])
    if b_ewz_enabled:
        h[2, ENC_YAW_BIAS] = -1.0
    r = np.diag([sigma_vx**2, sigma_vy**2, sigma_wz**2])
    return MeasurementModel("encoder", 3, h, r, gate)


def encoder_vz_model(sigma: float, gate: float) -> MeasurementModel:
    """Non-holonomic ground constraint on body vertical velocity."""
    return MeasurementModel("encoder_vz", 1, _reading([VEL.start + 2]),
                            np.array([[sigma**2]]), gate)


def screen_gps_fix(
    fix: GpsFixSample,
    min_fix_type: FixType,
    max_hdop: float,
    min_satellites: int,
) -> Optional[str]:
    """Receiver-quality screen applied before any filter interaction: the
    reason a fix is screened out, or None when it passes.  A fix whose
    coordinates lie outside the geodetic range is screened out too, so it
    can neither set the ENU origin nor reach the engine, and so is one
    whose receiver covariance is not symmetric positive-definite, whose
    95% error bounds are not positive, or that gives no noise source for
    ``gps_fix_to_measurement``: no covariance, no pair of error bounds and
    no pair of DOPs."""
    if not (-np.pi / 2 <= fix.lat <= np.pi / 2
            and -np.pi <= fix.lon <= np.pi):
        return f"latitude {fix.lat} or longitude {fix.lon} rad out of range"
    for bound in (fix.err_horz, fix.err_vert):
        if bound is not None and not bound > 0.0:
            return f"error bound {bound} m is not positive"
    if fix.covariance is not None:  # 3x3, which ``pipeline.SENSORS`` checks
        r = np.asarray(fix.covariance, dtype=float)
        if not np.allclose(r, r.T, rtol=1e-9, atol=0.0):
            return "receiver covariance is not symmetric"
        try:
            np.linalg.cholesky(r)
        except np.linalg.LinAlgError:
            return "receiver covariance is not positive definite"
    if (fix.covariance is None
            and (fix.err_horz is None or fix.err_vert is None)
            and (fix.hdop is None or fix.vdop is None)):
        return "no covariance, error bounds or dilution of precision"
    if FixType(fix.fix_type) < min_fix_type:
        return (f"fix type {FixType(fix.fix_type).name} below "
                f"{FixType(min_fix_type).name}")
    if fix.hdop is not None and fix.hdop > max_hdop:
        return f"hdop {fix.hdop} above {max_hdop}"
    if fix.satellites is not None and fix.satellites < min_satellites:
        return f"{fix.satellites} satellites below {min_satellites}"
    return None


def gps_fix_to_measurement(
    fix: GpsFixSample,
    origin: EnuOrigin,
    base_r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """ENU measurement and noise R of a fix that passed ``screen_gps_fix``.

    This is the one GNSS noise policy.  R is the receiver's full 3x3
    covariance when it supplies one, else the diagonal of its 95% error
    bounds when it gives both (sigma = err/1.96), else ``base_r`` scaled by
    the dilution of precision, ``S @ base_r @ S`` with
    ``S = diag(hdop, hdop, vdop)``.  ``base_r`` is the path's configured
    noise, innovation-adapted when ``adaptive.gnss`` is on.
    """
    z = geodetic_to_enu(GeodeticCoord(fix.lat, fix.lon, fix.alt), origin)
    if fix.covariance is not None:
        r = np.asarray(fix.covariance, dtype=float)
    elif fix.err_horz is not None and fix.err_vert is not None:
        sh = fix.err_horz / 1.96
        sv = fix.err_vert / 1.96
        r = np.diag([sh**2, sh**2, sv**2])
    else:
        scale = np.diag([fix.hdop, fix.hdop, fix.vdop])
        r = scale @ base_r @ scale
    return z, r


def gps_position_model(r: np.ndarray, gate: float,
                       lever_offset: Optional[np.ndarray] = None
                       ) -> MeasurementModel:
    """3-DOF ENU position; the predicted measurement is shifted by the
    rotated lever arm when heading has been validated."""
    if lever_offset is None:
        return MeasurementModel("gps_pos", 3, _reading(POS), r, gate)
    lever = np.reshape(lever_offset, (3, 1))

    def h(x: np.ndarray) -> np.ndarray:
        return x[POS] + quat_rotate_cols(x[QUAT], lever)

    return MeasurementModel("gps_pos", 3, h, r, gate)


def derive_gps_heading(
    prev_xy: np.ndarray,
    prev_stamp: float,
    cur_xy: np.ndarray,
    cur_stamp: float,
    horizontal_var: float,
    min_baseline: float = 2.0,
    min_speed: float = 0.5,
    sigma_floor: float = 0.05,
) -> Optional[tuple[float, float]]:
    """Course-over-ground yaw from two accepted fixes.

    Returns (yaw, variance) or None when the baseline or implied ground
    speed is too small.  The variance follows a (sigma_v / speed)^2 model
    with sigma_v taken from the fixes' horizontal displacement noise, so it
    loosens automatically at low speed.
    """
    dt = cur_stamp - prev_stamp
    if dt <= 0.0:
        return None
    delta = np.asarray(cur_xy, dtype=float) - np.asarray(prev_xy, dtype=float)
    baseline = float(np.hypot(delta[0], delta[1]))
    if baseline < min_baseline:
        return None
    speed = baseline / dt
    if speed < min_speed:
        return None
    yaw = float(np.arctan2(delta[1], delta[0]))
    sigma_v = np.sqrt(horizontal_var) / dt
    sigma_yaw = max(sigma_floor, sigma_v / speed)
    return yaw, sigma_yaw**2


def gps_heading_model(variance: float, gate: float) -> MeasurementModel:
    """1-DOF yaw from GPS course over ground.  This is the path that makes
    the encoder yaw-rate bias observable through the cross-covariance."""

    def h(x: np.ndarray) -> np.ndarray:
        return _yaw_cols(*x[QUAT])[None]

    return MeasurementModel("gps_heading", 1, h, np.array([[variance]]), gate,
                            angular=np.array([True]))


def gps_velocity_model(sigma: float, gate: float) -> MeasurementModel:
    """2-DOF east/north world velocity from receiver Doppler."""

    def h(x: np.ndarray) -> np.ndarray:
        return quat_rotate_cols(x[QUAT], x[VEL])[:2]

    return MeasurementModel("gps_vel", 2, h, np.eye(2) * sigma**2, gate)


def radar_velocity_model(sigma: float, gate: float) -> MeasurementModel:
    """2-DOF body-frame velocity from radar Doppler: same shape as the
    encoder velocity but independent of wheel contact, so no yaw-rate bias
    term and no ground constraints attached."""
    return MeasurementModel("radar_vel", 2,
                            _reading([VEL.start, VEL.start + 1]),
                            np.eye(2) * sigma**2, gate)


def vslam_model(r: np.ndarray, gate: float, pos_floor: float = 0.01,
                orient_floor: float = 0.001) -> MeasurementModel:
    """6-DOF pose: position plus ZYX Euler angles, yaw residual wrapped.

    Supplied covariance diagonals are floored to keep degenerate SLAM noise
    estimates from collapsing the update.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float)).copy()
    floor = np.array([pos_floor**2] * 3 + [orient_floor**2] * 3)
    idx = np.arange(6)
    r[idx, idx] = np.maximum(np.diag(r), floor)

    def h(x: np.ndarray) -> np.ndarray:
        return np.concatenate([x[POS], euler_cols(x[QUAT])])

    angular = np.array([False, False, False, False, False, True])
    return MeasurementModel("vslam", 6, h, r, gate, angular=angular)


def zupt_model(sigma: float, gate: float) -> MeasurementModel:
    """Zero-velocity pseudo-measurement on all three body velocity axes."""
    return MeasurementModel("zupt", 3, _reading(VEL),
                            np.eye(3) * sigma**2, gate)
