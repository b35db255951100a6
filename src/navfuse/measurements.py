"""Measurement models for every sensor path, and the GPS fix screen and
noise policy (``gps_fix_to_measurement``).

Each model bundles a batched measurement function ``h`` ((23, N) columns
of flat state vectors, the engine's component-major sigma cloud, -> (dim, N)
columns of measurement vectors), its noise matrix, an angular mask selecting
components whose residuals wrap at +-pi, and its chi-squared gate: every
factory takes a false-alarm probability p (``gates.false_alarm``) and the
gate is chi2(dim, p) at the model's own dim (``core.chi2_threshold``).

A model linear in the state (encoder, its vertical-velocity constraint,
radar, ZUPT, GPS position) is declared by its (dim, 23) matrix H instead;
``h`` is derived from H and the engine updates it in closed form.  The
IMU's rates, gravity reaction and tilt (``imu_linearized``) and the VSLAM
pose are not linear, but each carries ``linearize``, h and its Jacobian
at one flat state, so that an update given no sigma set (the secondary
IMU's, a pose's) is closed form too, linearized at the mean; the primary
IMU's update reads predict's sigma set instead.  The headings (the IMU's
with a magnetometer, GPS course) and GPS velocity have none and update
through sigma points (``ukf.update``).
``stack`` joins models of one kind, all linear or all through ``h``, into
one whose rows the engine solves together while gating and recording each
model, its *block*, on its own (``ukf.update``); the encoder and its
vertical constraint fuse that way in closed form, and an IMU sample's raw
and orientation rows (``imu_stack``) from one ``imu_cols`` call, on one
sigma set or one linearization.  A stack holds one R, which its blocks'
``r`` view.  No model reads roll or pitch: the IMU's tilt, the headings
and gravity read R(q) - I (``core.rotation_rows_cols``, or its third row
written out in ``imu_linearized``), VSLAM a rotation vector.
"""

from __future__ import annotations

import math
from functools import partial
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
    _hamilton,
    chi2_threshold,
    quat_conjugate,
    quat_left_matrix,
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
    as ``H @ cols``.  ``linearize``, when not None, takes one flat state x
    to (h(x), H(x)), H being the Jacobian of ``h`` at x, taken along the
    unit sphere for a row that reads q, which the engine's closed form
    uses; a linear model's is derived, (H x, H).  ``blocks`` holds the
    models a ``stack`` was built
    from, in row order, each with a matrix exactly when the stack has one.
    ``parts``, built once here, pairs each path the engine gates with its
    rows: each block with its slice, or the model itself with all its rows.
    ``gate`` is the d2 a consistent update of ``dim`` rows exceeds with
    probability ``p_fa``, the false-alarm probability, which must lie in
    (0, 1]; a stack passes None and has none, as each of its blocks gates
    on its own.

    ``r`` is the noise R.  A model with blocks holds one R array for all
    its rows, and each block's ``r`` is a view of its diagonal part, so
    the stack's R is always what its blocks hold.  Assigning ``r`` to a
    block or a stack writes into that array, which must keep its shape;
    assigning it to any other model replaces its array, atomically between
    updates when the path adapts.
    """

    def __init__(self, name: str, dim: int,
                 h: Union[Callable[[np.ndarray], np.ndarray], np.ndarray],
                 r: np.ndarray, p_fa: Optional[float],
                 angular: Optional[np.ndarray] = None,
                 blocks: tuple["MeasurementModel", ...] = (),
                 linearize: Optional[Callable[[np.ndarray], tuple]] = None):
        self.name, self.dim, self.h = name, dim, h
        self.gate = None if blocks else chi2_threshold(dim, p_fa)
        self.linearize = linearize
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
            self.linearize = lambda x: (matrix @ x, matrix)
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


def stack(*models: MeasurementModel, h=None,
          linearize=None) -> MeasurementModel:
    """One model whose rows are the models' stacked in order, named after
    the first and keeping them as its ``blocks``: all linear, a linear
    model with their H stacked, or none linear, a model whose ``h`` is
    ``h`` or fills one array block by block, whose ``linearize`` is
    ``linearize`` (so None unless given) and whose angular mask is theirs
    concatenated; a mix raises ``ValueError``, and so does a model that is
    a stack or a block of one already.

    The stacked ``r`` is one array: each block's R on its diagonal part,
    which the block's ``r`` views from then on (``MeasurementModel``), and
    -0.0 off it, as x + -0.0 is x for every x, so the engine adds it to S
    in one operation, bit for bit the blocks' R added one by one.  The
    engine gates and reports each block on its own, so the stack has no
    ``gate``.  A linear stack updates as the blocks would one after
    another, as the Mahalanobis distance splits by the chain rule; any
    other stack is one linearization or one sigma set for the stacked
    measurement (``ukf.update``).
    """
    if len(models) < 2 or any(m.blocks or m._in_place for m in models):
        raise ValueError("stack needs two or more models, none stacked")
    linear = models[0].matrix is not None
    if any((m.matrix is not None) != linear for m in models):
        raise ValueError("stack needs models all linear or none linear")
    dim = sum(m.dim for m in models)

    def filled(cols: np.ndarray) -> np.ndarray:
        out = np.empty((dim, cols.shape[1]))
        for m, rows in model.parts:
            out[rows] = m.h(cols)
        return out

    model = MeasurementModel(
        models[0].name, dim,
        np.vstack([m.matrix for m in models]) if linear else h or filled,
        np.full((dim, dim), -0.0), None,
        np.concatenate([m.angular for m in models]),
        blocks=models, linearize=linearize)
    return model


def _reading(index) -> np.ndarray:
    """The matrix H reading the state components at ``index``, in order."""
    return np.eye(STATE_DIM)[index]


def imu_cols(x: np.ndarray, orient: int = 0) -> np.ndarray:
    """The IMU reading of (23, N) state columns, or of one flat state,
    rates and accelerations plus biases, the latter plus R(q)^T [0, 0, g],
    then ``orient`` rows: the tilt m20, m21 and, third, the heading
    atan2(m10, 1 + m00)."""
    m = rotation_rows_cols(x[QUAT], 5 if orient == 3 else 3)
    out = np.empty((6 + orient,) + x.shape[1:])
    np.add(x[OMEGA], x[GYRO_BIAS], out=out[:3])
    np.add(x[ACC], x[ACCEL_BIAS], out=out[3:6])
    reaction = GRAVITY[2] * m[:3]
    reaction[2] += GRAVITY[2]
    out[3:6] += reaction
    if orient:
        out[6:8] = m[:2]
    if orient == 3:
        out[8] = np.arctan2(m[4], 1.0 + m[3])
    return out


def _imu_matrix(orient: int) -> np.ndarray:
    """The part of ``imu_cols``'s Jacobian that reads no quaternion: the
    rates' and the accelerations' rows, each its state plus its bias."""
    h = np.zeros((6 + orient, STATE_DIM))
    h[:3] = _reading(OMEGA) + _reading(GYRO_BIAS)
    h[3:6] = _reading(ACC) + _reading(ACCEL_BIAS)
    h.flags.writeable = False
    return h


_IMU_MATRIX = {orient: _imu_matrix(orient) for orient in (0, 2)}


def imu_linearized(x: np.ndarray, orient: int = 0
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``imu_cols`` at one flat state, ``orient`` 0 or 2 (no heading row),
    and its Jacobian H, on Python floats.  R's third row less I's,
    m20 = 2(xz - wy), m21 = 2(yz + wx), m22 = -2(x^2 + y^2), gives the
    rows that read q: g m2. for the gravity reaction, m20 and m21 for the
    tilt.  Each one's Jacobian is its gradient less the radial part 2 m q,
    so taken along the unit sphere, on which the engine keeps q."""
    s = x.tolist()
    w, a, b, c = s[QUAT]
    g = GRAVITY[2]
    third = (2.0 * (a * c - w * b), 2.0 * (b * c + w * a),
             -2.0 * (a * a + b * b))
    grads = ((-2.0 * b, 2.0 * c, -2.0 * w, 2.0 * a),
             (2.0 * a, 2.0 * w, 2.0 * c, 2.0 * b),
             (0.0, -4.0 * a, -4.0 * b, 0.0))
    rows = np.array([[d - 2.0 * m * q for d, q in zip(grad, (w, a, b, c))]
                     for grad, m in zip(grads, third)])
    h = _IMU_MATRIX[orient].copy()
    h[3:6, QUAT] = g * rows
    if orient:
        h[6:8, QUAT] = rows[:2]
    z = [r + bias for r, bias in zip(s[OMEGA], s[GYRO_BIAS])] + [
        f + bias + g * m for f, bias, m in zip(s[ACC], s[ACCEL_BIAS], third)]
    z[5] += g  # R^T [0, 0, g] = g (m2. + e3)
    return np.array(z + list(third[:orient])), h


def imu_raw_model(sigma_gyro: float, sigma_accel: float,
                  p_fa: float) -> MeasurementModel:
    """6-DOF raw IMU: rates plus bias, accelerations plus bias and the
    gravity reaction rotated into the body frame (``imu_cols``)."""
    r = np.diag([sigma_gyro**2] * 3 + [sigma_accel**2] * 3)
    return MeasurementModel("imu_raw", 6, imu_cols, r, p_fa,
                            linearize=imu_linearized)


def imu_orientation_model(has_magnetometer: bool, sigma_orient: float,
                          p_fa: float) -> MeasurementModel:
    """The tilt (2-DOF), then with a magnetometer the heading, wrapped
    (3-DOF).  Without one, yaw stays unobservable from the IMU.  The tilt
    alone is linearized (``imu_linearized``); a heading row is not, so a
    3-DOF update draws sigma points."""
    dim = 3 if has_magnetometer else 2

    def h(x: np.ndarray) -> np.ndarray:
        return imu_cols(x, dim)[6:]

    def linearize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z, jac = imu_linearized(x, 2)
        return z[6:], jac[6:]

    r = np.eye(dim) * sigma_orient**2
    name = "imu_orientation_3dof" if has_magnetometer else "imu_orientation"
    return MeasurementModel(name, dim, h, r, p_fa,
                            angular=np.arange(dim) == 2,
                            linearize=None if has_magnetometer else linearize)


def imu_stack(raw: MeasurementModel,
              orient: MeasurementModel) -> MeasurementModel:
    """The raw and orientation rows of one IMU sample as one model, from
    one ``imu_cols`` call, linearized when the orientation model is."""
    dim = orient.dim
    return stack(raw, orient, h=partial(imu_cols, orient=dim),
                 linearize=partial(imu_linearized, orient=dim)
                 if orient.linearize is not None else None)


def encoder_model(sigma_vx: float, sigma_vy: float, sigma_wz: float,
                  p_fa: float, b_ewz_enabled: bool = True) -> MeasurementModel:
    """3-DOF wheel odometry: body planar velocity and yaw rate with the
    encoder yaw-rate bias subtracted from the predicted reading."""
    h = _reading([VEL.start, VEL.start + 1, OMEGA.start + 2])
    if b_ewz_enabled:
        h[2, ENC_YAW_BIAS] = -1.0
    r = np.diag([sigma_vx**2, sigma_vy**2, sigma_wz**2])
    return MeasurementModel("encoder", 3, h, r, p_fa)


def encoder_vz_model(sigma: float, p_fa: float) -> MeasurementModel:
    """Non-holonomic ground constraint on body vertical velocity."""
    return MeasurementModel("encoder_vz", 1, _reading([VEL.start + 2]),
                            np.array([[sigma**2]]), p_fa)


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
    95% error bounds or DOPs are not in (0, 1e150), or that gives no noise
    source for ``gps_fix_to_measurement``: no covariance, no pair of error
    bounds and no pair of DOPs."""
    if not (-np.pi / 2 <= fix.lat <= np.pi / 2
            and -np.pi <= fix.lon <= np.pi):
        return f"latitude {fix.lat} or longitude {fix.lon} rad out of range"
    for scale in (fix.err_horz, fix.err_vert, fix.hdop, fix.vdop):
        if scale is not None and not 0.0 < scale < 1e150:
            return f"error bound or DOP {scale} is not in (0, 1e150)"
    if fix.covariance is not None:  # 3x3, as ``events.SCHEMA`` declares
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
    if fix.fix_type < min_fix_type:
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
    noise, innovation-adapted when ``adaptive.gnss`` is on.  The DOP-scaled
    R is None where an entry would pass 1e300, tested in floats first.
    """
    z = geodetic_to_enu(GeodeticCoord(fix.lat, fix.lon, fix.alt), origin)
    if fix.covariance is not None:
        return z, np.asarray(fix.covariance, dtype=float)
    if fix.err_horz is not None and fix.err_vert is not None:
        sh = fix.err_horz / 1.96
        sv = fix.err_vert / 1.96
        return z, np.diag([sh**2, sh**2, sv**2])
    # base_r's largest variance bounds its every entry, as it factors
    top = max(fix.hdop, fix.vdop)
    if not top * top * max(base_r.item(0), base_r.item(4),
                           base_r.item(8)) < 1e300:
        return z, None
    s = np.array([fix.hdop, fix.hdop, fix.vdop])  # S @ base_r @ S
    return z, base_r * s[:, None] * s


def gps_position_model(r: np.ndarray, p_fa: float) -> MeasurementModel:
    """3-DOF ENU position of the antenna, taken to be the body origin."""
    return MeasurementModel("gps_pos", 3, _reading(POS), r, p_fa)


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
    dx = float(cur_xy[0]) - float(prev_xy[0])
    dy = float(cur_xy[1]) - float(prev_xy[1])
    baseline = math.hypot(dx, dy)
    if baseline < min_baseline:
        return None
    speed = baseline / dt
    if speed < min_speed:
        return None
    sigma_v = math.sqrt(horizontal_var) / dt
    sigma_yaw = max(sigma_floor, sigma_v / speed)
    return math.atan2(dy, dx), sigma_yaw**2


def gps_heading_model(variance: float, p_fa: float) -> MeasurementModel:
    """1-DOF yaw from GPS course over ground.  This is the path that makes
    the encoder yaw-rate bias observable through the cross-covariance."""

    def h(x: np.ndarray) -> np.ndarray:
        m = rotation_rows_cols(x[QUAT])
        return np.arctan2(m[4:], 1.0 + m[3:4])

    return MeasurementModel("gps_heading", 1, h, np.array([[variance]]), p_fa,
                            angular=np.array([True]))


def gps_velocity_model(sigma: float, p_fa: float) -> MeasurementModel:
    """2-DOF east/north world velocity from receiver Doppler."""

    def h(x: np.ndarray) -> np.ndarray:
        return quat_rotate_cols(x[QUAT], x[VEL])[:2]

    return MeasurementModel("gps_vel", 2, h, np.eye(2) * sigma**2, p_fa)


def radar_velocity_model(sigma: float, p_fa: float) -> MeasurementModel:
    """2-DOF body-frame velocity from radar Doppler: same shape as the
    encoder velocity but independent of wheel contact, so no yaw-rate bias
    term and no ground constraints attached."""
    return MeasurementModel("radar_vel", 2,
                            _reading([VEL.start, VEL.start + 1]),
                            np.eye(2) * sigma**2, p_fa)


def vslam_noise(variances, pos_floor: float = 0.01,
                orient_floor: float = 0.001) -> np.ndarray:
    """R of a VSLAM pose: its position and orientation variances, each
    floored at its floor squared so that degenerate SLAM noise estimates
    cannot collapse the update."""
    floor = [pos_floor**2] * 3 + [orient_floor**2] * 3
    return np.diag(np.maximum(np.asarray(variances, dtype=float), floor))


def _rotation_vector(q: np.ndarray) -> np.ndarray:
    """log(q) of unit quaternion columns as (3, N) rotation vectors, the
    shorter way round: 2 atan2(|v|, |w|) along v signed by w, 0 at v = 0."""
    w, v = q[0], q[1:] * np.where(q[0] < 0.0, -1.0, 1.0)
    norm = np.sqrt(np.add.reduce(v * v, axis=0))
    return v * (2.0 * np.arctan2(norm, np.abs(w)) / np.maximum(norm, 1e-300))


def _rotation_vector_linearized(d: np.ndarray) -> tuple[list, list]:
    """``_rotation_vector`` of one flat quaternion d, on Python floats, and
    its Jacobian in d as rows.  With d signed so that w >= 0, n = |v| and
    f = 2 atan2(n, w) / n, the vector is f v and its derivative is
    -2 v / |d|^2 in w and f I + (2 w / |d|^2 - f) / n^2 v v^T in v, the
    sign carried back: a scale of d changes neither, so the Jacobian's
    product with d is 0.  At v = 0, f is 2 / w and the v v^T term is 0."""
    w, x, y, z = d.tolist()
    s = -1.0 if w < 0.0 else 1.0
    w, x, y, z = s * w, s * x, s * y, s * z
    n2 = x * x + y * y + z * z
    d2 = n2 + w * w
    if n2 > 0.0:
        n = math.sqrt(n2)
        f = 2.0 * math.atan2(n, w) / n
        g = (2.0 * w / d2 - f) / n2
    else:
        f, g = 2.0 / w, 0.0
    phi = [f * x, f * y, f * z]
    a, f, g = -2.0 * s / d2, s * f, s * g
    return phi, [
        [a * x, f + g * x * x, g * x * y, g * x * z],
        [a * y, g * x * y, f + g * y * y, g * y * z],
        [a * z, g * x * z, g * y * z, f + g * z * z]]


#: the part of a VSLAM pose's Jacobian that reads no quaternion: position
_VSLAM_MATRIX = np.zeros((6, STATE_DIM))
_VSLAM_MATRIX[:3, POS] = np.eye(3)
_VSLAM_MATRIX.flags.writeable = False


def vslam_model(r: np.ndarray, p_fa: float) -> MeasurementModel:
    """6-DOF pose: position, then log(q_ref^-1 q), the rotation vector from
    ``q_ref``, which each pose sets to its quaternion as it sets ``r`` (as
    ``vslam_noise`` gives it), so that its orientation rows read zero.
    Linearized at a flat state through d = L(q_ref^-1) q
    (``core.quat_left_matrix``) and ``_rotation_vector_linearized``."""

    def h(x: np.ndarray) -> np.ndarray:
        d = _hamilton(quat_conjugate(model.q_ref)[:, None], x[QUAT])
        return np.concatenate([x[POS], _rotation_vector(d)])

    def linearize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        left = quat_left_matrix(quat_conjugate(model.q_ref))
        phi, jac_d = _rotation_vector_linearized(left @ x[QUAT])
        jac = _VSLAM_MATRIX.copy()
        jac[3:, QUAT] = np.array(jac_d) @ left
        return np.array(x[POS].tolist() + phi), jac

    model = MeasurementModel("vslam", 6, h, r, p_fa, linearize=linearize)
    model.q_ref = np.array([1.0, 0.0, 0.0, 0.0])
    return model


def zupt_model(sigma: float, p_fa: float) -> MeasurementModel:
    """Zero-velocity pseudo-measurement on all three body velocity axes."""
    return MeasurementModel("zupt", 3, _reading(VEL),
                            np.eye(3) * sigma**2, p_fa)
