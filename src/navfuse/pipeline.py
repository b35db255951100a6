"""Event-driven fusion pipeline: sensor table, gating policy, and mode logic.

Events are processed strictly in arrival order by one consumer, so a recorded
sequence always gives the same output.  ``SENSORS`` holds the per-sensor
policy, one row per stream kind (``events.event_kind``): the switch that
enables the sensor and the counter a disabled event bumps, the payload fields
with the shape each must have (all must be finite, and so must the stamp),
the quaternion field whose norm must be finite and nonzero, whether it needs
the IMU clock, and its handler.  Only the fields a row marks ``optional``
may be None, meaning absent: IMU orientation, the VSLAM covariance diagonal,
and the GPS DOPs, satellite count, error bounds and covariance.  A None in any
other field is malformed, and so is a GPS ``fix_type`` other than a
``FixType`` value.  ``ingest`` makes these checks in that order and answers
the first failure with a dropped-event report, before the session changes;
so does ``_on_vslam`` for a pose with a negative variance.

The session holds the state as the flat 23-vector ``x`` and its covariance
``cov``.  Each primary-IMU event predicts, updates and conditions ``cov``
once (``_imu_step``) and leaves a snapshot in the replay ring, sharing the
session's arrays, which the engine never writes into, and the one
measurement vector the step fused, which a replay fuses again.  The filter
clock is the newest snapshot's stamp (``ring.last_stamp``), None while the
ring is empty.
Every handler fuses its event's updates through ``FusionPipeline._fuse``,
one engine call per update, and reports the engine's ``UpdateRecord`` of
each path, from which it reads its decisions and innovations too.  An
update may stack paths (``measurements.stack``), each still gated and
recorded on its own: an encoder sample is one call, its odometry and
vertical-velocity constraint in closed form, and an IMU sample with
orientation is one call, its raw gyro/accel and orientation rows from one
sigma set.  A kind the table marks ``delayed`` (GPS fixes, GPS velocity and
VSLAM poses, late by receiver and mapping latency) stamped before the
newest snapshot is applied there and the recorded IMU steps are re-run.
Any other kind arrives with negligible latency, at rates where a rewind per
sample would cost a replay per sample, so it is applied where it arrives;
replay re-runs only IMU steps, so such an update inside a rewound window
does not survive it.  A delayed event whose every update is rejected
rewinds nothing, so the live state stands (``retro_unchanged``).  A
primary-IMU stamp must advance the filter clock by at most
``_MAX_IMU_GAP``; one outside that window is dropped, and a second in a row
restarts the session there, unless it lies at most ``_MAX_IMU_DELAY``
behind the clock, as late delivery does.

Every measurement model is built once, with the pipeline; an event sets only
the noise ``r`` of the models whose noise varies, GPS position and heading,
VSLAM and the encoder's.  An encoder sample writes its estimators' R into
its blocks' views of the stack's R, tightening the yaw rate there while
coasting, and an accepted block feeds its estimator when that one adapts.
A GPS fix that passes the receiver-quality screen gets its noise from the
one GNSS policy, ``measurements.gps_fix_to_measurement``, with the
``gps_pos`` estimator's R as the DOP-scaled base; accepted fixes feed that
estimator when it adapts and derive a course-over-ground heading from the
previous accepted fix.  The fix is taken at the body origin: there is no
antenna lever arm.

A checkpoint (version 7) is a JSON file: version, configuration hash, and
the session, the attributes ``FusionPipeline._SESSION`` lists and ``reset``
assigns, as state only: ``x``, covariance, the origin's [lat, lon, alt],
the replay snapshots, each estimator's R, innovation window and rows
filled, anchors, mode flags, readings and counters, each array as its shape
and the base64 of its little-endian float64 bytes.  Loading rebuilds what
the configuration fixes (the origin's frame, the estimators, the ring) and
reads every stored value by a typed reader, checking its type, shape,
range and any quaternion's unit norm, each snapshot's stamp to follow the
one before by at most ``_MAX_IMU_GAP``, as a live step does, and each
estimator's R as the estimator checks its own (``AdaptiveEstimator.checked``:
symmetric, at or above its floor, positive definite), before assigning any,
so a malformed file changes nothing and a resumed run is bit-identical to
an uninterrupted one.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import measurements as meas
from .adaptive import AdaptiveEstimator
from .config import PipelineConfig
from .core import (
    ENC_YAW_BIAS,
    GYRO_BIAS,
    POS,
    QUAT,
    QUAT_NORM_MIN,
    STATE_DIM,
    FilterState,
    NumericalError,
    all_finite,
    quat_conjugate,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_to_euler,
)
from .events import (
    EncoderSample,
    FixType,
    GpsFixSample,
    GpsVelocitySample,
    ImuSample,
    RadarVelocitySample,
    SensorEvent,
    VslamPoseSample,
    event_kind,
)
from .geodesy import EnuOrigin, GeodeticCoord
from .retrodiction import Snapshot, StateSnapshotRing
from .ukf import (UkfParams, UpdateRecord, _condition, update as ukf_update,
                  predict as ukf_predict)
from .process import STATE_BLOCKS, PropagationStep, noise_rates

_MAX_STEP_DT = 0.5
#: largest forward step of the primary-IMU stamp that is predicted across,
#: as bridging costs one predict per 0.5 s inside a single ingest call; a
#: stamp outside (clock, clock + gap] is dropped, and a second one in a row
#: restarts the session there (``_imu_clock_restarted``)
_MAX_IMU_GAP = 10.0
#: a primary-IMU stamp at most this far behind the clock is taken for late
#: delivery: dropped, it never confirms a backward clock jump
_MAX_IMU_DELAY = 0.5
_TOO_OLD = "older than replay buffer"
#: the ZUPT measurement, shared by every update that fuses one
_ZERO_VELOCITY = np.zeros(3)
_ZERO_VELOCITY.flags.writeable = False

CHECKPOINT_VERSION = 7


def zupt_trigger(last_encoder_speed: Optional[float],
                 last_imu_rate: Optional[float],
                 speed_threshold: float = 0.05,
                 rate_threshold: float = 0.05) -> bool:
    """Stationarity condition: both encoder speed and IMU rate below their
    thresholds.  Without encoder data the trigger never fires."""
    if last_encoder_speed is None or last_imu_rate is None:
        return False
    return (last_encoder_speed < speed_threshold
            and last_imu_rate < rate_threshold)


#: (counter, reason) of an event whose payload fails the sensor table
_MALFORMED = ("dropped_malformed", "malformed {}")
_NONFINITE = ("dropped_nonfinite", "non-finite {}")
_DEGENERATE = ("dropped_degenerate_quaternion", "degenerate {} quaternion")
#: the values a GPS ``fix_type`` may take: any other is malformed
_FIX_TYPES = tuple(FixType)


def _payload_fault(event: SensorEvent, row: "SensorPolicy"
                   ) -> Optional[tuple[str, str]]:
    """One pass over the row's fields: ``_MALFORMED`` when a field lacks its
    shape (a non-array's is ()), is None without being ``optional``, or is a
    ``fix_type`` that equals no ``FixType`` value, else
    ``_NONFINITE`` when the stamp or a field is not finite, else
    ``_DEGENERATE`` when the ``quaternion`` field is too short to normalize
    (``quat_normalize``) or too long for its norm to be finite, else None.
    The norm is one ``np.vdot``, which warns of no overflow."""
    finite, degenerate = math.isfinite(event.stamp), False
    for name, shape in row.shapes.items():
        value = getattr(event, name)
        if value is None:
            if name in row.optional:
                continue
            return _MALFORMED
        if getattr(value, "shape", ()) != shape or (
                name == "fix_type" and value not in _FIX_TYPES):
            return _MALFORMED
        if finite:
            finite = all_finite(value) if shape else math.isfinite(value)
        if finite and name == row.quaternion:
            norm = math.sqrt(np.vdot(value, value))
            degenerate = not QUAT_NORM_MIN <= norm < math.inf
    if not finite:
        return _NONFINITE
    return _DEGENERATE if degenerate else None


@dataclass
class CoastState:
    active: bool = False
    last_accept: Optional[float] = None
    relax_armed: bool = False


@dataclass
class VslamAnchor:
    """Map-to-odom offset applied to raw VSLAM poses, plus the consecutive
    gate-rejection counter driving re-anchoring."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    quaternion: np.ndarray = field(
        default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0])
    )
    rejections: int = 0

    def apply(self, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (quat_rotate(self.quaternion, p) + self.position,
                quat_mul(self.quaternion, q))

    def reanchor(self, filter_p: np.ndarray, filter_q: np.ndarray,
                 raw_p: np.ndarray, raw_q: np.ndarray) -> None:
        self.quaternion = quat_mul(filter_q, quat_conjugate(raw_q))
        self.position = filter_p - quat_rotate(self.quaternion, raw_p)
        self.rejections = 0


@dataclass
class StepReport:
    stamp: float
    kind: str
    state: FilterState
    cov_diag: np.ndarray
    updates: list[UpdateRecord] = field(default_factory=list)
    coast: bool = False
    zupt: bool = False
    origin_set: bool = False
    dropped: Optional[str] = None


class CheckpointError(ValueError):
    """Raised when a checkpoint cannot be restored (stale config hash,
    version mismatch, malformed document)."""


class FusionPipeline:
    """Owns the filter state and routes sensor events through it."""

    def __init__(self, config: Optional[PipelineConfig] = None):
        self.config = config or PipelineConfig()
        self._params = UkfParams(
            alpha=self.config["ukf.alpha"],
            beta=self.config["ukf.beta"],
            kappa=self.config["ukf.kappa"],
        )
        self._build_models()
        self.reset()

    # ------------------------------------------------------------------
    # construction / lifecycle

    def _build_models(self) -> None:
        cfg = self.config
        # per IMU kind: the raw model, and the raw and orientation models
        # stacked, one sigma set per sample with each block gated on its
        # own, or None when that source's orientation is not used
        self._imu_models = {}
        for kind in ("imu", "imu2"):
            raw = meas.imu_raw_model(cfg[f"{kind}.sigma_gyro"],
                                     cfg[f"{kind}.sigma_accel"],
                                     cfg["gates.imu"])
            orient = meas.imu_orientation_model(
                cfg[f"{kind}.has_magnetometer"], cfg[f"{kind}.sigma_orient"],
                cfg["gates.imu"])
            joint = meas.stack(raw, orient, h=partial(
                meas.imu_cols, angles=orient.dim)) if cfg[
                    f"{kind}.use_orientation"] else None
            self._imu_models[kind] = (raw, joint)
        # one closed-form update per encoder sample: the wheel odometry and
        # its vertical-velocity constraint, each gated on its own
        self._encoder_model = meas.stack(
            meas.encoder_model(cfg["encoder.sigma_vx"],
                               cfg["encoder.sigma_vy"],
                               cfg["encoder.sigma_wz"], cfg["gates.encoder"],
                               b_ewz_enabled=cfg["features.b_ewz"]),
            meas.encoder_vz_model(cfg["encoder.vz_sigma"],
                                  cfg["gates.encoder"]))
        self._radar_model = meas.radar_velocity_model(cfg["radar.sigma"],
                                                      cfg["gates.encoder"])
        self._zupt_model = meas.zupt_model(cfg["zupt.sigma"],
                                           cfg["gates.zupt"])
        self._zupt_update = (_ZERO_VELOCITY, self._zupt_model, 1.0)
        # each fix, course and pose sets its model's R before its update: a
        # pose's is its variances, else the configured ones, floored
        self._gps_model = meas.gps_position_model(np.eye(3),
                                                  cfg["gates.gps_pos"])
        self._heading_model = meas.gps_heading_model(1.0, cfg["gates.heading"])
        self._vslam_noise = partial(meas.vslam_noise,
                                    pos_floor=cfg["vslam.pos_floor"],
                                    orient_floor=cfg["vslam.orient_floor"])
        self._vslam_r = self._vslam_noise(
            [cfg["vslam.sigma_pos"] ** 2] * 3
            + [cfg["vslam.sigma_orient"] ** 2] * 3)
        self._vslam_model = meas.vslam_model(self._vslam_r, cfg["gates.vslam"])
        # after ``_gps_model``, so a bad gates.gps_pos is reported as its
        self._gps_vel_model = meas.gps_velocity_model(
            cfg["gnss.velocity_sigma"], cfg["gates.gps_pos"])

        # per coast mode (off, on): the states the filter holds, which get
        # neither gain nor process noise, and Q's per-second diagonal.  The
        # held states are the state's tail from the first one held (the
        # biases come last, b_ewz last of all), a slice for ``ukf_update``,
        # None when there are none
        if not cfg["features.bias_states"]:
            first = GYRO_BIAS.start
        elif not cfg["features.b_ewz"]:
            first = ENC_YAW_BIAS
        else:
            first = STATE_DIM
        inflation = cfg["coast.position_inflation"]
        if not inflation >= 1.0:
            raise ValueError("coast.position_inflation must be >= 1")
        # coasting holds the encoder yaw-rate bias: it is consumed as a
        # correction, not re-estimated, until GPS returns
        self._modes = tuple(
            (slice(k, STATE_DIM) if k < STATE_DIM else None,
             noise_rates(cfg, range(k, STATE_DIM), scale))
            for k, scale in ((first, 1.0),
                             (min(first, ENC_YAW_BIAS), inflation)))

    def _build_adaptive(self) -> dict[str, AdaptiveEstimator]:
        cfg = self.config

        def floor_sq(key: str, sigma: str) -> float:
            """The floor ``key`` squared if it is > 0, else sigma²."""
            return (cfg[key] if cfg[key] > 0 else cfg[sigma]) ** 2

        enc = ("encoder.sigma_vx", "encoder.sigma_vy", "encoder.sigma_wz")
        gnss_floor = ([floor_sq("adaptive.gnss_floor_xy", "gnss.sigma_xy")] * 2
                      + [floor_sq("adaptive.gnss_floor_z", "gnss.sigma_z")])
        enc_floor = [floor_sq("adaptive.encoder_floor", key) for key in enc]
        # path -> its configured sigmas, diagonal floor and enable switch
        paths = {
            "gps_pos": (("gnss.sigma_xy", "gnss.sigma_xy", "gnss.sigma_z"),
                        gnss_floor, "adaptive.gnss"),
            "encoder": (enc, enc_floor, "adaptive.encoder"),
            "encoder_vz": (("encoder.vz_sigma",), None, "adaptive.vz"),
        }
        return {name: AdaptiveEstimator(
                    name, np.diag([cfg[key] ** 2 for key in sigmas]), floor,
                    cfg["adaptive.window"], cfg["adaptive.alpha"],
                    enabled=cfg[switch])
                for name, (sigmas, floor, switch) in paths.items()}

    #: the session: every attribute ``reset`` assigns, which is exactly
    #: what a checkpoint saves and restores
    _SESSION = ("x", "cov", "origin", "ring", "adaptive", "vslam_anchor",
                "_last_raw_vslam", "coast", "_zupt_active",
                "_last_encoder_speed", "_last_imu_rate", "_heading_anchor",
                "_jump_stamp", "diagnostics")

    def reset(self) -> None:
        """Restore the configured initial state and clear all session
        memory (``_SESSION``): origin, adaptive windows, ring, anchors."""
        cfg = self.config
        self.x = FilterState().vector
        diag = np.empty(STATE_DIM)
        for block, _, var_key in STATE_BLOCKS:
            diag[block] = cfg[var_key]
        self.cov = np.diag(diag)
        self.origin: Optional[EnuOrigin] = None
        self.ring = StateSnapshotRing(cfg["retro.capacity"])
        self.adaptive = self._build_adaptive()
        self.vslam_anchor = VslamAnchor()
        self._last_raw_vslam: Optional[tuple[np.ndarray, np.ndarray]] = None
        self.coast = CoastState()
        self._zupt_active = False
        self._last_encoder_speed: Optional[float] = None
        self._last_imu_rate: Optional[float] = None
        self._heading_anchor: Optional[tuple[np.ndarray, float, float]] = None
        self._jump_stamp: Optional[float] = None
        self.diagnostics: dict[str, int] = {}

    # ------------------------------------------------------------------
    # helpers

    @property
    def state(self) -> FilterState:
        """The state's named components, as a copy of ``x``."""
        return FilterState.from_vector(self.x, normalize=False)

    def _count(self, key: str) -> None:
        self.diagnostics[key] = self.diagnostics.get(key, 0) + 1

    def _apply_updates(self, x: np.ndarray, cov: np.ndarray,
                       updates: list, coast_active: bool,
                       records: list[UpdateRecord], chained: bool = False):
        """Apply ``(z, model, gate_scale)`` updates in order, one engine call
        each, appending the engine's record of each path to ``records``.
        With ``chained``, stop after the first rejected update.  Returns
        the state and the covariance."""
        frozen = self._modes[coast_active][0]
        for z, model, gate_scale in updates:
            self._count("engine_update_calls")
            out = ukf_update(x, cov, z, model, self._params,
                             gate_scale=gate_scale, frozen=frozen)
            records.extend(out.records)
            x, cov = out.x, out.cov
            if chained and not out.accepted:
                break
        return x, cov

    def _fuse(self, stamp: float, kind: str, updates: list,
              chained: bool = False) -> Optional[list[UpdateRecord]]:
        """Fuse one event's updates (``_apply_updates``).  A ``delayed``
        kind stamped before the newest snapshot is applied there and the
        later IMU steps are replayed if any update was accepted; anything
        else is applied to the current state.  Returns the update records,
        None when the event is older than the buffer."""
        records: list[UpdateRecord] = []

        def apply(x: np.ndarray, cov: np.ndarray):
            return self._apply_updates(x, cov, updates, self.coast.active,
                                       records, chained)

        # every kind that is fused needs the clock, so the ring has a snapshot
        if not (SENSORS[kind].delayed and self.config["retro.enabled"]
                and stamp < self.ring.last_stamp):
            self.x, self.cov = apply(self.x, self.cov)
            return records
        replay = self.ring.apply_delayed(stamp, apply, self._imu_step)
        if replay.status == "dropped_old":
            self._count("retro_dropped_too_old")
            return None
        if replay.status == "unchanged":  # the live state stands
            self._count("retro_unchanged")
        else:
            self._count("retro_replays")
            self.x, self.cov = replay.x, replay.cov
        return records

    def _report(self, stamp: float, kind: str,
                updates: Optional[list[UpdateRecord]] = None,
                origin_set: bool = False,
                dropped: Optional[str] = None) -> StepReport:
        return StepReport(stamp, kind, self.state, self.cov.diagonal().copy(),
                          updates or [], self.coast.active, self._zupt_active,
                          origin_set, dropped)

    def _drop(self, stamp: float, kind: str, counter: str,
              reason: str) -> StepReport:
        self._count(counter)
        return self._report(stamp, kind, dropped=reason)

    def _update_coast(self, now: float) -> None:
        cfg = self.config
        if self.coast.last_accept is None:
            self.coast.last_accept = now
        was_active = self.coast.active
        # a Python bool even for numpy stamps: it indexes ``_modes`` and a
        # checkpoint holds it
        self.coast.active = bool(now - self.coast.last_accept
                                 > cfg["coast.enter_s"])
        if self.coast.active and not was_active:
            self.coast.relax_armed = True
            self._count("coast_entries")

    def _update_zupt(self) -> None:
        cfg = self.config
        if not cfg["zupt.enabled"]:
            self._zupt_active = False
            return
        # the trigger needs both readings, so ZUPT is never held without them
        speed, rate = self._last_encoder_speed, self._last_imu_rate
        hyst = cfg["zupt.hysteresis"]
        thr_s, thr_r = cfg["zupt.speed_threshold"], cfg["zupt.rate_threshold"]
        if self._zupt_active:
            if speed > hyst * thr_s or rate > hyst * thr_r:
                self._zupt_active = False
        else:
            self._zupt_active = zupt_trigger(speed, rate, thr_s, thr_r)

    # ------------------------------------------------------------------
    # ingestion

    def ingest(self, event: SensorEvent) -> StepReport:
        kind = event_kind(event)
        row = SENSORS[kind]
        if row.enable_key is not None and not self.config[row.enable_key]:
            return self._drop(event.stamp, kind, row.disabled_counter,
                              f"{kind} disabled")
        fault = _payload_fault(event, row)
        if fault is not None:
            counter, reason = fault
            return self._drop(event.stamp, kind, counter, reason.format(kind))
        if row.needs_clock and self.ring.last_stamp is None:
            return self._drop(event.stamp, kind, "dropped_before_clock",
                              "no imu clock yet")
        return row.handler(self, event)

    def _imu_vector(self, sample: ImuSample) -> np.ndarray:
        """The sample's measurement vector: gyro and accel for the raw
        rows, then roll, pitch (and yaw with a magnetometer) for the
        orientation rows, unless the source has no orientation model or
        the sample no orientation."""
        joint = self._imu_models[event_kind(sample)][1]
        if joint is None or sample.orientation is None:
            return np.concatenate([sample.gyro, sample.accel])
        # ``ingest`` dropped a quaternion too short to normalize
        w, x, y, z = sample.orientation.tolist()
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        rpy = quat_to_euler((w / norm, x / norm, y / norm, z / norm))
        return np.concatenate([sample.gyro, sample.accel,
                               rpy[: joint.blocks[1].dim]])

    def _imu_update(self, kind: str, z: np.ndarray) -> tuple:
        """One update of ``z`` (``_imu_vector``): the raw gyro/accel rows,
        stacked with the orientation rows when ``z`` holds them."""
        raw, joint = self._imu_models[kind]
        return z, raw if len(z) == raw.dim else joint, 1.0

    def _imu_step(self, x: np.ndarray, cov: np.ndarray, stamp: float,
                  step: Snapshot, records: Optional[list[UpdateRecord]] = None
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Predict from ``stamp`` to the step's IMU stamp, run the update
        of its stored measurement vector, and the ZUPT update while one was
        held.  Live ingestion and ring replay both run this, so the two
        paths are bit-identical."""
        dt_total = step.stamp - stamp
        q_rate = self._modes[step.coast_active][1]
        while dt_total > 1e-12:
            dt = min(dt_total, _MAX_STEP_DT)
            x, cov = ukf_predict(x, cov, PropagationStep(dt, q_rate),
                                 self._params)
            dt_total -= dt
            if dt_total > 1e-12:  # the next sub-step draws from this one
                cov = _condition(cov)
        updates = [self._imu_update("imu", step.z)]
        if step.zupt_active:
            updates.append(self._zupt_update)
        x, updated = self._apply_updates(x, cov, updates, step.coast_active,
                                         [] if records is None else records)
        # predict leaves ``cov`` raw, for an accepted update to condition;
        # with every update rejected, that very array comes back
        return x, _condition(cov) if updated is cov else updated

    def _imu_clock_restarted(self, stamp: float) -> bool:
        """Whether ``stamp`` confirms a jump of the primary-IMU clock, ahead
        (log splice) or back (sensor restart): the sample before it was
        dropped, ``stamp`` follows that one by a time in
        (0, ``_MAX_IMU_GAP``], and it lies outside the window
        [clock - ``_MAX_IMU_DELAY``, clock + ``_MAX_IMU_GAP``], so samples
        merely delivered late never restart.  A confirmed jump restarts the
        session (counters kept), since neither the state nor the replay
        ring can be carried across it."""
        if not (self._jump_stamp is not None
                and 0.0 < stamp - self._jump_stamp <= _MAX_IMU_GAP
                and not -_MAX_IMU_DELAY <= stamp - self.ring.last_stamp
                <= _MAX_IMU_GAP):
            return False
        diagnostics = self.diagnostics
        self.reset()
        self.diagnostics = diagnostics
        self._count("imu_clock_restarts")
        return True

    def _on_imu(self, sample: ImuSample) -> StepReport:
        clock = self.ring.last_stamp
        if clock is None or self._imu_clock_restarted(sample.stamp):
            clock = sample.stamp  # the first step predicts nothing
        elif not 0.0 < sample.stamp - clock <= _MAX_IMU_GAP:
            # a lone stamp outside the window is dropped; the next one may
            # confirm a jump
            self._jump_stamp = sample.stamp
            if sample.stamp <= clock:
                return self._drop(sample.stamp, "imu",
                                  "dropped_imu_out_of_order",
                                  "imu stamp not increasing")
            return self._drop(sample.stamp, "imu", "dropped_imu_time_jump",
                              "imu stamp jumped ahead")
        self._jump_stamp = None
        self._update_coast(sample.stamp)
        # finite, as JSON needs; ZUPT compares it with finite thresholds
        self._last_imu_rate = min(math.hypot(*sample.gyro.tolist()), _MAX)
        self._update_zupt()
        step = Snapshot(sample.stamp, None, None, self._imu_vector(sample),
                        self._zupt_active, self.coast.active)
        records: list[UpdateRecord] = []
        self.x, self.cov = self._imu_step(self.x, self.cov, clock, step,
                                          records)
        report = self._report(sample.stamp, "imu", records)
        report.state.validate()
        step.x, step.cov = self.x, self.cov
        self.ring.record(step)
        return report

    def _on_imu2(self, sample: ImuSample) -> StepReport:
        update = self._imu_update("imu2", self._imu_vector(sample))
        return self._report(sample.stamp, "imu2",
                            self._fuse(sample.stamp, "imu2", [update]))

    def _on_encoder(self, sample: EncoderSample) -> StepReport:
        self._last_encoder_speed = abs(float(sample.velocity[0]))
        # the estimators' R, written into the blocks' views of the stack's R
        odometry, vertical = self._encoder_model.blocks
        odometry.r = self.adaptive["encoder"].r
        vertical.r = self.adaptive["encoder_vz"].r
        if self.coast.active:
            # coasting leans on the bias-corrected encoder yaw rate for
            # heading, so its noise is tightened by this factor
            odometry.r[2, 2] *= self.config["coast.encoder_wz_factor"]
        # the odometry reading, then the vertical velocity it implies: zero
        z = np.array([sample.velocity[0], sample.velocity[1],
                      sample.yaw_rate, 0.0])
        records = self._fuse(sample.stamp, "encoder",
                             [(z, self._encoder_model, 1.0)])
        for rec in records:  # one per block, each an adaptive path
            estimator = self.adaptive[rec.path]
            if rec.accepted and estimator.enabled:
                estimator.observe(rec.innovation)
        self._update_zupt()
        return self._report(sample.stamp, "encoder", records)

    def _on_radar(self, sample: RadarVelocitySample) -> StepReport:
        return self._report(sample.stamp, "radar", self._fuse(
            sample.stamp, "radar",
            [(sample.velocity_body, self._radar_model, 1.0)]))

    # -- late sensors: GPS, GPS velocity, VSLAM ---------------------------

    def _on_gps_fix(self, sample: GpsFixSample) -> StepReport:
        cfg = self.config
        reason = meas.screen_gps_fix(
            sample, FixType(cfg["gnss.min_fix_type"]), cfg["gnss.max_hdop"],
            cfg["gnss.min_satellites"])
        if reason is not None:
            return self._drop(sample.stamp, "gps", "gps_quality_rejected",
                              reason)
        if self.origin is None:
            self.origin = EnuOrigin.from_geodetic(
                GeodeticCoord(sample.lat, sample.lon, sample.alt))
            self._count("origin_set")
            return self._report(sample.stamp, "gps", origin_set=True)
        if self.ring.last_stamp is None:
            return self._drop(sample.stamp, "gps", "dropped_before_clock",
                              "no imu clock yet")

        # the estimator's R is the configured one, floored, when
        # ``adaptive.gnss`` is off
        z, r = meas.gps_fix_to_measurement(
            sample, self.origin, self.adaptive["gps_pos"].r)
        gate_scale = 1.0
        if self.coast.active and self.coast.relax_armed:
            gate_scale = cfg["coast.gate_relax"]
            self.coast.relax_armed = False

        self._gps_model.r = r
        updates = [(z, self._gps_model, gate_scale)]
        heading_plan = self._plan_heading(z, r, sample.stamp)
        if heading_plan is not None:
            yaw_z, yaw_var_z = heading_plan
            self._heading_model.r = np.array([[yaw_var_z]])
            updates.append((np.array([yaw_z]), self._heading_model, 1.0))
        # the heading update runs only after an accepted position update
        records = self._fuse(sample.stamp, "gps", updates, chained=True)
        if records is None:
            return self._report(sample.stamp, "gps", dropped=_TOO_OLD)
        if records[0].accepted:
            self.coast.last_accept = max(self.coast.last_accept or 0.0,
                                         sample.stamp)
            self.coast.active = False
            self._heading_anchor = (z[:2].copy(), sample.stamp,
                                    float(r[0, 0] + r[1, 1]))
            estimator = self.adaptive["gps_pos"]
            if estimator.enabled:
                estimator.observe(records[0].innovation)
        return self._report(sample.stamp, "gps", records)

    def _plan_heading(self, z: np.ndarray, r: np.ndarray,
                      stamp: float) -> Optional[tuple[float, float]]:
        cfg = self.config
        if not cfg["gnss.heading_enabled"] or self._heading_anchor is None:
            return None
        prev_xy, prev_stamp, prev_var = self._heading_anchor
        horizontal_var = prev_var + float(r[0, 0] + r[1, 1])
        return meas.derive_gps_heading(
            prev_xy, prev_stamp, z[:2], stamp,
            horizontal_var / 2.0,
            min_baseline=cfg["gnss.heading_min_baseline"],
            min_speed=cfg["gnss.heading_min_speed"],
            sigma_floor=cfg["gnss.heading_sigma_floor"],
        )

    def _on_gps_velocity(self, sample: GpsVelocitySample) -> StepReport:
        records = self._fuse(sample.stamp, "gps_vel", [
            (sample.velocity_en, self._gps_vel_model, 1.0)])
        return self._report(sample.stamp, "gps_vel", records,
                            dropped=_TOO_OLD if records is None else None)

    def _on_vslam(self, sample: VslamPoseSample) -> StepReport:
        # a negative variance (the stream writes -1 for absent) is no
        # variance; ``vslam_noise`` would floor it to the tightest noise
        if sample.cov_diag is not None and np.any(sample.cov_diag < 0):
            counter, reason = _MALFORMED
            return self._drop(sample.stamp, "vslam", counter,
                              reason.format("vslam"))
        cfg = self.config
        pitch = quat_to_euler(self.x[QUAT])[1]
        limit = np.radians(90.0 - cfg["vslam.singularity_deg"])
        if abs(pitch) > limit:
            return self._drop(sample.stamp, "vslam",
                              "vslam_skipped_singularity",
                              "pitch near singularity")
        raw_q = quat_normalize(sample.quaternion)
        self._last_raw_vslam = (sample.position.copy(), raw_q.copy())
        p_c, q_c = self.vslam_anchor.apply(sample.position, raw_q)
        rpy = quat_to_euler(q_c)
        z = np.concatenate([p_c, rpy])
        self._vslam_model.r = (self._vslam_r if sample.cov_diag is None
                               else self._vslam_noise(sample.cov_diag))
        records = self._fuse(sample.stamp, "vslam",
                             [(z, self._vslam_model, 1.0)])
        if records is None:
            return self._report(sample.stamp, "vslam", dropped=_TOO_OLD)
        self._vslam_reinit_check(records[0].accepted, sample.stamp)
        return self._report(sample.stamp, "vslam", records)

    def _vslam_reinit_check(self, accepted: bool, stamp: float) -> None:
        if accepted:
            self.vslam_anchor.rejections = 0
            return
        self.vslam_anchor.rejections += 1
        if self.vslam_anchor.rejections >= self.config["vslam.reinit_n"]:
            x = self.x  # the pose a late one was gated at: its snapshot's
            if self.config["retro.enabled"] and stamp < self.ring.last_stamp:
                x = self.ring.entries[self.ring.nearest_at_or_before(stamp)].x
            self.vslam_anchor.reanchor(x[POS], x[QUAT], *self._last_raw_vslam)
            self._count("vslam_reanchors")

    # ------------------------------------------------------------------
    # persistence

    def save_checkpoint(self, path: str) -> None:
        """Write the session (``_session_doc``) as JSON, with the checkpoint
        version and the configuration hash that loading checks."""
        doc = {"version": CHECKPOINT_VERSION,
               "config_hash": self.config.hash(),
               "session": self._session_doc()}
        text = json.dumps(doc, allow_nan=False)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def load_checkpoint(self, path: str) -> None:
        """Restore a session written by ``save_checkpoint``.  All of it is
        read (``_read_session``) before any of it is assigned, so a bad
        checkpoint raises ``CheckpointError`` and changes nothing."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
        if (not isinstance(doc, dict)
                or doc.get("version") != CHECKPOINT_VERSION):
            raise CheckpointError("checkpoint version mismatch")
        if doc.get("config_hash") != self.config.hash():
            raise CheckpointError("checkpoint was written with a different "
                                  "configuration")
        try:
            session = self._read_session(doc["session"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc
        for name, value in session.items():
            setattr(self, name, value)

    def _session_doc(self) -> dict:
        """The session (``_SESSION``) in its JSON form, state only: what the
        configuration fixes (the origin's frame, the estimators' settings,
        the ring's capacity) is rebuilt from it by ``_read_session``."""
        def opt(value, form):
            return None if value is None else form(value)

        origin, anchor, coast = self.origin, self.vslam_anchor, self.coast
        return {
            "x": _array_doc(self.x),
            "cov": _array_doc(self.cov),
            "origin": opt(origin, lambda o: [o.geodetic.lat, o.geodetic.lon,
                                             o.geodetic.alt]),
            "ring": [[s.stamp, _array_doc(s.x), _array_doc(s.cov),
                      _array_doc(s.z_raw), opt(s.z_orient, _array_doc),
                      s.zupt_active, s.coast_active]
                     for s in self.ring.entries],
            "adaptive": {name: [_array_doc(est.r),
                                _array_doc(est._innovations), est._filled]
                         for name, est in self.adaptive.items()},
            "vslam_anchor": [_array_doc(anchor.position),
                             _array_doc(anchor.quaternion), anchor.rejections],
            "_last_raw_vslam": opt(self._last_raw_vslam,
                                   lambda pq: [_array_doc(v) for v in pq]),
            "coast": [coast.active, coast.last_accept, coast.relax_armed],
            "_zupt_active": self._zupt_active,
            "_last_encoder_speed": self._last_encoder_speed,
            "_last_imu_rate": self._last_imu_rate,
            "_heading_anchor": opt(self._heading_anchor, lambda h: [
                _array_doc(h[0]), h[1], h[2]]),
            "_jump_stamp": self._jump_stamp,
            "diagnostics": dict(self.diagnostics),
        }

    def _read_session(self, doc: dict) -> dict:
        """The session ``_session_doc`` stored, rebuilt on the
        configuration: the origin from its point, fresh estimators given
        their stored R and window, and a fresh ring filled through
        ``record``.  Each stored value goes through its typed reader; a
        value of the wrong type, shape or range raises ``ValueError``."""
        if set(doc) != set(self._SESSION):
            raise ValueError("session keys missing or unknown: "
                             f"{sorted(set(doc) ^ set(self._SESSION))}")
        joint = self._imu_models["imu"][1]

        def snapshot(clock, stamp, x, cov, z_raw, z_orient, zupt, coast):
            """The stored snapshot, whose stamp follows ``clock``, the one
            before it, by at most ``_MAX_IMU_GAP``, as a live step's does:
            a replay predicts across that gap."""
            stamp = _read_real(stamp)
            if clock is not None and not 0.0 < stamp - clock <= _MAX_IMU_GAP:
                raise ValueError("snapshot stamps not increasing by at most "
                                 f"{_MAX_IMU_GAP} s")
            z = _read_array(z_raw, (6,))
            if z_orient is not None:
                if joint is None:
                    raise ValueError("orientation rows without their model")
                z = np.concatenate(
                    [z, _read_array(z_orient, (joint.blocks[1].dim,))])
            return Snapshot(stamp, _read_array(x, _STATE, QUAT),
                            _read_array(cov, _COV), z, _read_flag(zupt),
                            _read_flag(coast))

        ring = StateSnapshotRing(self.config["retro.capacity"])
        if len(doc["ring"]) > ring.capacity:
            raise ValueError("replay ring over capacity")
        for entry in doc["ring"]:
            ring.record(snapshot(ring.last_stamp, *entry))
        adaptive = self._build_adaptive()
        if doc["adaptive"].keys() != adaptive.keys():
            raise ValueError("adaptive paths differ from the configuration")
        for name, est in adaptive.items():
            r, window, filled = doc["adaptive"][name]
            est.r = est.checked(_read_array(r, (est.dim, est.dim)),
                                "stored noise")
            est._innovations = _read_array(window, (est.window, est.dim))
            est._filled = _read_count(filled, top=est.window)
        position, quaternion, rejections = doc["vslam_anchor"]
        active, last_accept, relax_armed = doc["coast"]

        def opt(value, read):
            return None if value is None else read(*value)

        return {
            "x": _read_array(doc["x"], _STATE, QUAT),
            "cov": _read_array(doc["cov"], _COV),
            # GeodeticCoord range-checks the point
            "origin": opt(doc["origin"], lambda lat, lon, alt:
                          EnuOrigin.from_geodetic(GeodeticCoord(
                              _read_real(lat), _read_real(lon),
                              _read_real(alt)))),
            "ring": ring,
            "adaptive": adaptive,
            "vslam_anchor": VslamAnchor(_read_array(position, (3,)),
                                        _read_array(quaternion, (4,),
                                                    slice(None)),
                                        _read_count(rejections)),
            "_last_raw_vslam": opt(doc["_last_raw_vslam"], lambda p, q: (
                _read_array(p, (3,)), _read_array(q, (4,), slice(None)))),
            "coast": CoastState(_read_flag(active),
                                _read_real(last_accept, optional=True),
                                _read_flag(relax_armed)),
            "_zupt_active": _read_flag(doc["_zupt_active"]),
            "_last_encoder_speed": _read_real(doc["_last_encoder_speed"],
                                              True, 0.0),
            "_last_imu_rate": _read_real(doc["_last_imu_rate"], True, 0.0),
            "_heading_anchor": opt(doc["_heading_anchor"], lambda xy, t, var: (
                _read_array(xy, (2,)), _read_real(t), _read_real(var))),
            "_jump_stamp": _read_real(doc["_jump_stamp"], optional=True),
            "diagnostics": {name: _read_count(count)
                            for name, count in doc["diagnostics"].items()},
        }


#: the stored form of every array element: little-endian float64
_F8 = np.dtype("<f8")
_MAX = float(np.finfo(float).max)  # a Python float: exact against any int
_STATE, _COV = (STATE_DIM,), (STATE_DIM, STATE_DIM)


def _array_doc(a: np.ndarray) -> dict:
    """An array's stored form: its shape and its float64 bytes in base64."""
    return {"shape": list(a.shape), "f8": base64.b64encode(
        a.astype(_F8, copy=False).tobytes()).decode("ascii")}


def _read_array(doc: dict, shape: tuple[int, ...],
                unit: Optional[slice] = None) -> np.ndarray:
    """The array ``doc`` stores (``_array_doc``), which must have ``shape``
    and finite entries, and a norm of 1 within 1e-9 over ``unit``, the
    tolerance of ``FilterState.validate``."""
    if doc.keys() != {"shape", "f8"} or doc["shape"] != list(shape):
        raise ValueError(f"expected an array of shape {shape}")
    data = base64.b64decode(doc["f8"], validate=True)
    if len(data) != _F8.itemsize * math.prod(shape):
        raise ValueError(f"array payload does not match shape {shape}")
    a = np.frombuffer(data, _F8).reshape(shape).astype(float)
    if not np.isfinite(a).all():
        raise ValueError("non-finite array entry")
    if unit is not None and abs(math.sqrt(a[unit] @ a[unit]) - 1.0) > 1e-9:
        raise ValueError("quaternion without unit norm")
    return a


def _read_flag(value) -> bool:
    if type(value) is not bool:
        raise ValueError(f"expected a bool, not {value!r}")
    return value


def _read_real(value, optional: bool = False, low: float = -_MAX,
               top: float = _MAX, types: tuple = (int, float)):
    """``value`` if its type is one of ``types`` (a bool's is not) and it
    lies in [low, top], which keeps out NaN and, by default, inf; None too
    when ``optional``."""
    if value is None and optional:
        return None
    if type(value) not in types or not low <= value <= top:
        raise ValueError(f"{value!r} is not a number in [{low}, {top}]")
    return value


#: a counter, a fill count or a rejection count
_read_count = partial(_read_real, low=0, top=math.inf, types=(int,))


@dataclass(frozen=True)
class SensorPolicy:
    """One row of the sensor table (see the module docstring); which kinds
    ``FusionPipeline._fuse`` applies at their stamp is ``delayed``."""

    enable_key: Optional[str]         # None: the sensor is always on
    disabled_counter: Optional[str]
    shapes: dict[str, tuple[int, ...]]  # payload field: its shape
    needs_clock: bool
    handler: Callable[[FusionPipeline, SensorEvent], StepReport]
    #: the payload's rotation field, whose norm must be finite and nonzero
    quaternion: Optional[str] = None
    delayed: bool = False             # late: fused at its stamp
    #: the payload fields that may be None, meaning absent; a None in any
    #: other field drops the event as malformed
    optional: frozenset[str] = frozenset()


_IMU_FIELDS = {"gyro": (3,), "accel": (3,), "orientation": (4,)}
_IMU_OPTIONAL = frozenset({"orientation"})

SENSORS: dict[str, SensorPolicy] = {
    # the primary IMU starts the clock and is always on
    "imu": SensorPolicy(None, None, _IMU_FIELDS, False,
                        FusionPipeline._on_imu, "orientation",
                        optional=_IMU_OPTIONAL),
    "imu2": SensorPolicy("imu2.enabled", "dropped_imu2_disabled",
                         _IMU_FIELDS, True, FusionPipeline._on_imu2,
                         "orientation", optional=_IMU_OPTIONAL),
    "encoder": SensorPolicy("encoder.enabled", "dropped_encoder_disabled",
                            {"velocity": (2,), "yaw_rate": ()}, True,
                            FusionPipeline._on_encoder),
    # the first fix sets the origin without the clock; the handler checks
    # the clock after that
    "gps": SensorPolicy("gnss.enabled", "dropped_gnss_disabled",
                        {**dict.fromkeys(("lat", "lon", "alt", "fix_type",
                                          "hdop", "vdop", "satellites",
                                          "err_horz", "err_vert"), ()),
                         "covariance": (3, 3)}, False,
                        FusionPipeline._on_gps_fix, delayed=True,
                        optional=frozenset({"hdop", "vdop", "satellites",
                                            "err_horz", "err_vert",
                                            "covariance"})),
    "gps_vel": SensorPolicy("gnss.velocity_enabled",
                            "dropped_gps_vel_disabled", {"velocity_en": (2,)},
                            True, FusionPipeline._on_gps_velocity,
                            delayed=True),
    "radar": SensorPolicy("radar.enabled", "dropped_radar_disabled",
                          {"velocity_body": (2,)}, True,
                          FusionPipeline._on_radar),
    "vslam": SensorPolicy("vslam.enabled", "dropped_vslam_disabled",
                          {"position": (3,), "quaternion": (4,),
                           "cov_diag": (6,)}, True,
                          FusionPipeline._on_vslam, "quaternion",
                          delayed=True, optional=frozenset({"cov_diag"})),
}
