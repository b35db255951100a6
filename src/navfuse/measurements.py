"""Measurement models for every sensor path, and the GPS fix screen and
noise policy (``gps_fix_to_measurement``).

Each model bundles a batched measurement function ``h`` ((23, N) columns
of flat state vectors, the engine's component-major sigma cloud, -> (dim, N)
columns of measurement vectors), its noise matrix, an angular mask selecting
components whose residuals wrap at +-pi, and a chi-squared gate threshold
(the ``gates.*`` configuration keys).

A model linear in the state (encoder, its vertical-velocity constraint,
radar, ZUPT, GPS position) is declared by its (dim, 23) matrix H instead;
``h`` is derived from H and the engine updates it in closed form.
``stack`` joins models of one kind, all linear or all through ``h``, into
one whose rows the engine solves together while gating and recording each
model, its *block*, on its own (``ukf.update``); the encoder and its
vertical constraint fuse that way in closed form, and an IMU sample's raw
and orientation rows from one sigma set and one ``imu_cols`` call.  A
stack holds one R, which its blocks' ``r`` view.  The IMU, Euler and
heading readings take the entries of R(q) - I they need from one matmul
(``core.rotation_rows_cols``), bit for bit as written out.
"""

from __future__ import annotations

from itertools import accumulate
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
    _cholesky,
    quat_rotate_cols,
    rotation_rows_cols,
    wrap_angle,
)
from .events import FixType, GpsFixSample
from .geodesy import EnuOrigin, GeodeticCoord, geodetic_to_enu


class MeasurementModel:
    """One measurement path the engine can consume.

    ``h`` is the batched measurement function, or the matrix H of a linear
    model, then kept read-only as ``matrix`` (else None) with ``h`` derived
    as ``H @ cols``.  ``blocks`` holds the models a ``stack`` was built
    from, in row order, each with a matrix exactly when the stack has one.
    ``parts``, built once here, pairs each path the engine gates with its
    rows: each block with its slice, or the model itself with all its rows.

    ``r`` is the noise R.  A model with blocks holds one R array for all
    its rows, and each block's ``r`` is a view of its diagonal part, so
    the stack's R is always what its blocks hold.  Assigning ``r`` to a
    block or a stack writes into that array, which must keep its shape;
    assigning it to any other model replaces its array, atomically between
    updates when the path adapts.
    """

    def __init__(self, name: str, dim: int,
                 h: Union[Callable[[np.ndarray], np.ndarray], np.ndarray],
                 r: np.ndarray, gate: float,
                 angular: Optional[np.ndarray] = None,
                 blocks: tuple["MeasurementModel", ...] = ()):
        self.name, self.dim, self.h, self.gate = name, dim, h, gate
        self.blocks = tuple(blocks)
        self._r = np.atleast_2d(np.asarray(r, dtype=float))
        self._in_place = bool(self.blocks)  # what assigning ``r`` does
        self.angular = (np.zeros(dim, dtype=bool) if angular is None
                        else angular)
        # the rows ``wrapped`` wraps: a slice, so a view, when contiguous
        i = np.flatnonzero(self.angular).tolist()
        self.wraps = bool(i)
        contiguous = self.wraps and i[-1] - i[0] == len(i) - 1
        self.angular_rows = (slice(i[0], i[-1] + 1) if contiguous
                             else self.angular)
        if not self.gate > 0:  # NaN too
            raise ValueError(f"{self.name}: gate threshold must be > 0")
        self.matrix: Optional[np.ndarray] = None
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
        if self.blocks and (sum(b.dim for b in self.blocks) != self.dim
                            or any((b.matrix is None) != (self.matrix is None)
                                   for b in self.blocks)):
            raise ValueError(f"{self.name}: blocks must make up its rows, "
                             f"all linear or all not, as it is")
        ends = accumulate(b.dim for b in self.blocks or (self,))
        self.parts = tuple((b, slice(end - b.dim, end))
                           for b, end in zip(self.blocks or (self,), ends))
        for block, rows in self.parts if self.blocks else ():
            self._r[rows, rows] = block.r
            block._r, block._in_place = self._r[rows, rows], True

    @property
    def r(self) -> np.ndarray:
        return self._r

    @r.setter
    def r(self, value) -> None:
        if not self._in_place:
            self._r = value
        elif np.shape(value) != self._r.shape:
            raise ValueError(f"{self.name}: R of shape {np.shape(value)}, "
                             f"expected {self._r.shape}")
        else:
            self._r[...] = value

    def wrapped(self, res: np.ndarray) -> np.ndarray:
        """``res``, a fresh residual array, with its angular rows wrapped in
        place; rows ``wrap_angle`` returns as they are are not written."""
        if self.wraps:
            angles = res[self.angular_rows]
            out = wrap_angle(angles)
            if out is not angles:
                res[self.angular_rows] = out
        return res


def stack(*models: MeasurementModel, h=None) -> MeasurementModel:
    """One model whose rows are the models' stacked in order, named after
    the first and keeping them as its ``blocks``: all linear, a linear
    model with their H stacked, or none linear, a sigma-point model whose
    ``h`` is ``h`` or fills one array block by block and whose angular mask
    is theirs concatenated; a mix raises ``ValueError``, and so does a
    model that is a stack or a block of one already.

    The stacked ``r`` is one array: each block's R on its diagonal part,
    which the block's ``r`` views from then on (``MeasurementModel``), and
    -0.0 off it, as x + -0.0 is x for every x, so the engine adds it to S
    in one operation, bit for bit the blocks' R added one by one.  The
    engine gates and reports each block on its own; ``gate`` is the sum of
    the blocks' gates when stacked.  A linear stack updates as the blocks
    would one after another, as the Mahalanobis distance splits by the
    chain rule; a sigma stack is one sigma set for the stacked measurement
    (``ukf.update``).
    """
    if len(models) < 2 or any(m.blocks or m._in_place for m in models):
        raise ValueError("stack needs two or more models, none stacked")
    linear = models[0].matrix is not None
    if any((m.matrix is not None) != linear for m in models):
        raise ValueError("stack needs models all linear or none linear")
    dim = sum(m.dim for m in models)
    r = np.full((dim, dim), -0.0)
    gate = sum(m.gate for m in models)
    if linear:
        return MeasurementModel(models[0].name, dim,
                                np.vstack([m.matrix for m in models]), r,
                                gate, blocks=models)
    parts = [(m, slice(end - m.dim, end))
             for m, end in zip(models, accumulate(m.dim for m in models))]

    def filled(cols: np.ndarray) -> np.ndarray:
        out = np.empty((dim, cols.shape[1]))
        for m, rows in parts:
            out[rows] = m.h(cols)
        return out

    return MeasurementModel(models[0].name, dim, h or filled, r, gate,
                            np.concatenate([m.angular for m in models]),
                            blocks=models)


def _reading(index) -> np.ndarray:
    """The matrix H reading the state components at ``index``, in order."""
    return np.eye(STATE_DIM)[index]


def _euler_rows(m: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Roll atan2(m21, 1 + m22), pitch asin(-m20) clipped and, given a
    third row of ``out``, yaw atan2(m10, 1 + m00), m = rotation_rows_cols(q).
    An m with a zero is recomputed written out: there 2(a + b) is -0 when
    a and b are, a matmul's sum never, and atan2 and asin keep that sign."""
    if np.count_nonzero(m) < m.size:
        w, x, y, z = q
        m = 2.0 * np.array([x * z - w * y, y * z + w * x, -(x * x + y * y),
                            -(y * y + z * z), x * y + w * z])
    np.arctan2(m[1], 1.0 + m[2], out=out[0])
    np.arcsin(np.minimum(np.maximum(-m[0], -1.0), 1.0), out=out[1])
    if len(out) == 3:
        np.arctan2(m[4], 1.0 + m[3], out=out[2])
    return out


def euler_cols(q: np.ndarray, with_yaw: bool = True) -> np.ndarray:
    """Vectorized ZYX (roll, pitch, yaw) extraction over (4, N) quaternion
    columns, as (3, N); ``with_yaw=False`` gives roll and pitch only."""
    return _euler_rows(rotation_rows_cols(q, 5 if with_yaw else 3), q,
                       np.empty((3 if with_yaw else 2, q.shape[1])))


def imu_cols(x: np.ndarray, angles: int = 0) -> np.ndarray:
    """The IMU reading of (23, N) state columns, rates and accelerations
    plus biases, the latter plus R(q)^T [0, 0, g], then ``angles`` rows of
    roll, pitch (and yaw), all from one ``rotation_rows_cols`` product."""
    m = rotation_rows_cols(x[QUAT], 5 if angles == 3 else 3)
    out = np.empty((6 + angles, x.shape[1]))
    np.add(x[OMEGA], x[GYRO_BIAS], out=out[:3])
    np.add(x[ACC], x[ACCEL_BIAS], out=out[3:6])
    reaction = GRAVITY[2] * m[:3]
    reaction[2] += GRAVITY[2]
    out[3:6] += reaction
    if angles:
        _euler_rows(m, x[QUAT], out[6:])
    return out


def imu_raw_model(sigma_gyro: float, sigma_accel: float,
                  gate: float) -> MeasurementModel:
    """6-DOF raw IMU: rates plus bias, accelerations plus bias and the
    gravity reaction rotated into the body frame (``imu_cols``)."""
    r = np.diag([sigma_gyro**2] * 3 + [sigma_accel**2] * 3)
    return MeasurementModel("imu_raw", 6, imu_cols, r, gate)


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
            _cholesky(r)
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


def gps_position_model(r: np.ndarray, gate: float) -> MeasurementModel:
    """3-DOF ENU position of the antenna, taken to be the body origin."""
    return MeasurementModel("gps_pos", 3, _reading(POS), r, gate)


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
        return euler_cols(x[QUAT])[2:]

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


def vslam_noise(variances, pos_floor: float = 0.01,
                orient_floor: float = 0.001) -> np.ndarray:
    """R of a VSLAM pose: its position and orientation variances, each
    floored at its floor squared so that degenerate SLAM noise estimates
    cannot collapse the update."""
    floor = [pos_floor**2] * 3 + [orient_floor**2] * 3
    return np.diag(np.maximum(np.asarray(variances, dtype=float), floor))


def vslam_model(r: np.ndarray, gate: float) -> MeasurementModel:
    """6-DOF pose: position plus ZYX Euler angles, yaw residual wrapped;
    ``r`` is as ``vslam_noise`` gives it."""

    def h(x: np.ndarray) -> np.ndarray:
        return np.concatenate([x[POS], euler_cols(x[QUAT])])

    angular = np.array([False, False, False, False, False, True])
    return MeasurementModel("vslam", 6, h, r, gate, angular=angular)


def zupt_model(sigma: float, gate: float) -> MeasurementModel:
    """Zero-velocity pseudo-measurement on all three body velocity axes."""
    return MeasurementModel("zupt", 3, _reading(VEL),
                            np.eye(3) * sigma**2, gate)
