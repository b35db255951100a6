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
the first failure with a dropped-event report, before the session changes.

The session holds the state as the flat 23-vector ``x`` and its covariance
``cov``.  Each primary-IMU event runs one prediction step plus its updates
and leaves a snapshot in the replay ring, sharing the session's arrays,
which the engine never writes into.  The filter clock is the newest
snapshot's stamp (``ring.last_stamp``), None while the ring is empty.
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

A GPS fix that passes the receiver-quality screen gets its noise from the
one GNSS policy, ``measurements.gps_fix_to_measurement``, with the
``gps_pos`` estimator's R as the DOP-scaled base; accepted fixes feed that
estimator, derive a course-over-ground heading from the previous accepted
fix, and are shifted by the antenna lever arm once heading is validated.

A checkpoint (version 4) is a JSON file: version, configuration hash, and
the session, the attributes ``FusionPipeline._SESSION`` lists and ``reset``
assigns (``x``, covariance, origin, replay ring and so the clock, adaptive
windows, anchors, mode timers, counters), with each array stored as its
shape and the base64 of its little-endian float64 bytes.  Loading builds
only the listed session types and validates all of it, down to each flag's,
stamp's and anchor's type and shape, before assigning any, so a malformed
file changes nothing and a resumed run is bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import base64
import json
import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import measurements as meas
from .adaptive import AdaptiveEstimator
from .config import DEFAULTS, PipelineConfig
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
    yaw_variance,
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
from .ukf import (UkfParams, UpdateRecord, update as ukf_update,
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

CHECKPOINT_VERSION = 4


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
        # the GPS, heading and VSLAM models are built per event, so every
        # gate is checked here, at construction
        for key in DEFAULTS:
            if key.startswith("gates.") and not cfg[key] > 0.0:
                raise ValueError(f"{key} must be > 0")
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
        self._gps_vel_model = meas.gps_velocity_model(
            cfg["gnss.velocity_sigma"], cfg["gates.gps_pos"])
        self._radar_model = meas.radar_velocity_model(cfg["radar.sigma"],
                                                      cfg["gates.encoder"])
        self._zupt_model = meas.zupt_model(cfg["zupt.sigma"],
                                           cfg["gates.zupt"])
        # body-frame base->antenna offset (``_update_lever``)
        self._lever_offset = np.array([cfg["lever.arm_x"], cfg["lever.arm_y"],
                                       cfg["lever.arm_z"]])
        self._has_lever = bool(np.any(self._lever_offset))

        # per coast mode (off, on): the states the filter holds, which get
        # neither gain nor process noise, and Q's per-second diagonal
        if not cfg["features.bias_states"]:
            frozen = list(range(GYRO_BIAS.start, STATE_DIM))
        elif not cfg["features.b_ewz"]:
            frozen = [ENC_YAW_BIAS]
        else:
            frozen = []
        # coasting holds the encoder yaw-rate bias: it is consumed as a
        # correction, not re-estimated, until GPS returns
        coast_frozen = sorted({*frozen, ENC_YAW_BIAS})
        inflation = cfg["coast.position_inflation"]
        if not inflation >= 1.0:
            raise ValueError("coast.position_inflation must be >= 1")
        self._modes = ((frozen, noise_rates(cfg, frozen)),
                       (coast_frozen,
                        noise_rates(cfg, coast_frozen, inflation)))

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
                "_lever_ok_since", "_lever_validated", "_jump_stamp",
                "diagnostics")

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
        self._lever_ok_since: Optional[float] = None
        self._lever_validated = False
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

    def _update_lever(self, now: float) -> None:
        """The lever arm applies to GPS fixes for good once yaw variance has
        stayed below ``lever.yaw_var_threshold`` for ``lever.hold_s``, as
        heading must be known before the offset can be rotated."""
        if not self._has_lever:
            return
        var = yaw_variance(self.x[QUAT], self.cov[QUAT, QUAT])
        if var < self.config["lever.yaw_var_threshold"]:
            if self._lever_ok_since is None:
                self._lever_ok_since = now
            elif now - self._lever_ok_since >= self.config["lever.hold_s"]:
                self._lever_validated = True
        else:
            self._lever_ok_since = None

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

    def _imu_vectors(self, sample: ImuSample
                     ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The sample's measurement vectors: gyro and accel for the raw
        rows, and roll, pitch (and yaw with a magnetometer) for the
        orientation rows, or None when the source has no orientation
        model or the sample no orientation."""
        joint = self._imu_models[event_kind(sample)][1]
        z_raw = np.concatenate([sample.gyro, sample.accel])
        if joint is None or sample.orientation is None:
            return z_raw, None
        # ``ingest`` dropped a quaternion too short to normalize
        w, x, y, z = sample.orientation.tolist()
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        rpy = quat_to_euler((w / norm, x / norm, y / norm, z / norm))
        return z_raw, np.array(rpy[: joint.blocks[1].dim])

    def _imu_update_list(self, kind: str, z_raw: np.ndarray,
                         z_orient: Optional[np.ndarray]) -> list:
        """One update: the raw gyro/accel rows, stacked with the orientation
        rows when there is an orientation measurement (``_imu_vectors``)."""
        raw, joint = self._imu_models[kind]
        if z_orient is None:
            return [(z_raw, raw, 1.0)]
        return [(np.concatenate([z_raw, z_orient]), joint, 1.0)]

    def _imu_step(self, x: np.ndarray, cov: np.ndarray, stamp: float,
                  step: Snapshot, records: Optional[list[UpdateRecord]] = None
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Predict from ``stamp`` to the step's IMU stamp, run the updates
        of its stored measurement vectors, and the ZUPT update while one was
        held.  Live ingestion and ring replay both run this, so the two
        paths are bit-identical."""
        dt_total = step.stamp - stamp
        q_rate = self._modes[step.coast_active][1]
        while dt_total > 1e-12:
            dt = min(dt_total, _MAX_STEP_DT)
            x, cov = ukf_predict(x, cov, PropagationStep(dt, q_rate),
                                 self._params)
            dt_total -= dt
        updates = self._imu_update_list("imu", step.z_raw, step.z_orient)
        if step.zupt_active:
            updates.append((np.zeros(3), self._zupt_model, 1.0))
        return self._apply_updates(x, cov, updates, step.coast_active,
                                   [] if records is None else records)

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
        self._last_imu_rate = math.sqrt(np.vdot(sample.gyro, sample.gyro))
        self._update_zupt()
        step = Snapshot(sample.stamp, None, None, *self._imu_vectors(sample),
                        self._zupt_active, self.coast.active)
        records: list[UpdateRecord] = []
        self.x, self.cov = self._imu_step(self.x, self.cov, clock, step,
                                          records)
        report = self._report(sample.stamp, "imu", records)
        report.state.validate()
        step.x, step.cov = self.x, self.cov
        self.ring.record(step)
        self._update_lever(sample.stamp)
        return report

    def _on_imu2(self, sample: ImuSample) -> StepReport:
        updates = self._imu_update_list("imu2", *self._imu_vectors(sample))
        return self._report(sample.stamp, "imu2",
                            self._fuse(sample.stamp, "imu2", updates))

    def _on_encoder(self, sample: EncoderSample) -> StepReport:
        self._last_encoder_speed = abs(float(sample.velocity[0]))
        blocks = self._encoder_model.blocks
        for block in blocks:
            block.r = self.adaptive[block.name].r.copy()
        if self.coast.active:
            # coasting leans on the bias-corrected encoder yaw rate for
            # heading, so its noise is tightened by this factor
            blocks[0].r[2, 2] *= self.config["coast.encoder_wz_factor"]
        # the odometry reading, then the vertical velocity it implies: zero
        z = np.array([sample.velocity[0], sample.velocity[1],
                      sample.yaw_rate, 0.0])
        records = self._fuse(sample.stamp, "encoder",
                             [(z, self._encoder_model, 1.0)])
        for rec in records:  # one per block, each an adaptive path
            if rec.accepted:
                self.adaptive[rec.path].observe(rec.innovation)
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

        lever = self._lever_offset if self._lever_validated else None
        model = meas.gps_position_model(r, cfg["gates.gps_pos"], lever)
        updates = [(z, model, gate_scale)]
        heading_plan = self._plan_heading(z, r, sample.stamp)
        if heading_plan is not None:
            yaw_z, yaw_var_z = heading_plan
            updates.append((np.array([yaw_z]), meas.gps_heading_model(
                yaw_var_z, cfg["gates.heading"]), 1.0))
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
            self.adaptive["gps_pos"].observe(records[0].innovation)
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
        if sample.cov_diag is not None:
            r = np.diag(np.asarray(sample.cov_diag, dtype=float))
        else:
            r = np.diag([cfg["vslam.sigma_pos"] ** 2] * 3
                        + [cfg["vslam.sigma_orient"] ** 2] * 3)
        model = meas.vslam_model(r, cfg["gates.vslam"],
                                 cfg["vslam.pos_floor"],
                                 cfg["vslam.orient_floor"])
        records = self._fuse(sample.stamp, "vslam", [(z, model, 1.0)])
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
        """Write the session (``_SESSION``) as JSON, with the checkpoint
        version and the configuration hash that loading checks."""
        doc = {"version": CHECKPOINT_VERSION,
               "config_hash": self.config.hash(),
               "session": {name: _encode(getattr(self, name))
                           for name in self._SESSION}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def load_checkpoint(self, path: str) -> None:
        """Restore a session written by ``save_checkpoint``.  All of it is
        decoded and validated before any of it is assigned, so a bad
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
            session = {name: _decode(doc["session"][name])
                       for name in self._SESSION}
            ring = session["ring"]
            for x, cov in ([(session["x"], session["cov"])]
                           + [(e.x, e.cov) for e in ring.entries]):
                if not (isinstance(x, np.ndarray)
                        and _is_finite_array(cov, (STATE_DIM, STATE_DIM))):
                    raise ValueError("bad state or covariance")
                FilterState.from_vector(x, normalize=False).validate()
            joint = self._imu_models["imu"][1]
            for e in ring.entries:
                if not (_is_finite_array(e.z_raw, (6,))
                        and (e.z_orient is None or joint is not None
                             and _is_finite_array(e.z_orient,
                                                  (joint.blocks[1].dim,)))):
                    raise ValueError("bad snapshot measurement vectors")
            stamps = [e.stamp for e in ring.entries]
            if (ring.capacity != self.config["retro.capacity"]
                    or len(stamps) > ring.capacity
                    or any(b <= a for a, b in zip(stamps, stamps[1:]))):
                raise ValueError("replay ring over capacity or unordered")
            origin = session["origin"]
            if origin is not None:
                # the point is range-checked (object.__new__ skipped that),
                # and the frame must be the one the point gives
                point = GeodeticCoord(**vars(origin.geodetic))
                if _encode(origin) != _encode(EnuOrigin.from_geodetic(point)):
                    raise ValueError("origin frame does not match its point")
            _check_session_values(session)
            fresh = self._build_adaptive()
            if session["adaptive"].keys() != fresh.keys():
                raise ValueError("adaptive paths differ from the config")
            for name, est in session["adaptive"].items():
                # equal to the configured one but for its state: a symmetric
                # R that factors, and a window of finite innovations
                new, r, window = fresh[name], est.r, est._innovations
                new.r, new._innovations = r, window
                if not (_encode(new) == _encode(est)
                        and _is_finite_array(r, (new.dim, new.dim))
                        and np.array_equal(r, r.T)
                        and window.maxlen == new.window
                        and all(_is_finite_array(nu, (new.dim,))
                                for nu in window)):
                    raise ValueError(f"bad {name} noise estimator")
                np.linalg.cholesky(r)
        except (AttributeError, KeyError, TypeError, ValueError,
                NumericalError, RecursionError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc
        for name, value in session.items():
            setattr(self, name, value)


#: the types a checkpoint may hold besides JSON scalars and containers, each
#: with the attributes a live instance carries, which are what it stores
_SESSION_TYPES = {type(o).__name__: (type(o), tuple(vars(o))) for o in (
    Snapshot(0.0, None, None, None), StateSnapshotRing(), CoastState(),
    VslamAnchor(), AdaptiveEstimator("", np.eye(1)), GeodeticCoord(0, 0),
    EnuOrigin.from_geodetic(GeodeticCoord(0, 0)))}
_SEQUENCES = {"list": list, "tuple": tuple, "deque": deque}
#: the stored form of every array element: little-endian float64
_ARRAY_DTYPE = np.dtype("<f8")


def _is_finite_array(value, shape: tuple[int, ...]) -> bool:
    return (isinstance(value, np.ndarray) and value.shape == shape
            and bool(np.isfinite(value).all()))


def _is_real(value) -> bool:
    """A finite int or float, not a bool."""
    return type(value) in (int, float) and math.isfinite(value)


def _check_session_values(session: dict) -> None:
    """Raise ``ValueError`` unless each session value that is neither the
    state, the ring, the origin nor an estimator has the type and shape a
    live session gives it: flags, the replay snapshots' mode flags too,
    are bools, stamps finite numbers or None, the last encoder speed and
    IMU rate readings None or numbers >= 0 (inf, a gyro too large to
    square, reads as a rate), anchors finite arrays of their sizes,
    counters ints.
    A session object of the wrong type lacks an attribute read here, which
    raises ``AttributeError``."""
    coast, anchor = session["coast"], session["vslam_anchor"]
    heading, raw = session["_heading_anchor"], session["_last_raw_vslam"]
    counters, steps = session["diagnostics"], session["ring"].entries
    checks = {
        "flags": all(type(v) is bool for v in (
            session["_zupt_active"], session["_lever_validated"],
            coast.active, coast.relax_armed,
            *(flag for e in steps for flag in (e.zupt_active,
                                               e.coast_active)))),
        "stamps": all(v is None or _is_real(v) for v in (
            coast.last_accept, session["_lever_ok_since"],
            session["_jump_stamp"], *(e.stamp for e in steps))),
        "readings": all(v is None or type(v) in (int, float) and v >= 0.0
                        for v in (session["_last_encoder_speed"],
                                  session["_last_imu_rate"])),
        "vslam_anchor": (_is_finite_array(anchor.position, (3,))
                         and _is_finite_array(anchor.quaternion, (4,))
                         and type(anchor.rejections) is int),
        "_heading_anchor": heading is None or (
            type(heading) is tuple and len(heading) == 3
            and _is_finite_array(heading[0], (2,))
            and _is_real(heading[1]) and _is_real(heading[2])),
        "_last_raw_vslam": raw is None or (
            type(raw) is tuple and len(raw) == 2
            and _is_finite_array(raw[0], (3,))
            and _is_finite_array(raw[1], (4,))),
        "diagnostics": type(counters) is dict and all(
            type(v) is int for v in counters.values()),
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise ValueError(f"bad session values: {bad}")


def _encode(value):
    """JSON form of a session value: a scalar as it is, anything else as
    ``{"type": name, "value": ...}``; an object's value is its attributes,
    an array's is the base64 of its float64 bytes, with its ``shape``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    kind = type(value).__name__
    if isinstance(value, np.ndarray):
        data = value.astype(_ARRAY_DTYPE, copy=False).tobytes()
        return {"type": kind, "shape": list(value.shape),
                "value": base64.b64encode(data).decode("ascii")}
    if kind in _SEQUENCES:
        return {"type": kind, "value": [_encode(v) for v in value],
                "maxlen": getattr(value, "maxlen", None)}
    if isinstance(value, dict):
        fields = value
    elif _SESSION_TYPES.get(kind, (None,))[0] is type(value):
        fields = {name: getattr(value, name)
                  for name in _SESSION_TYPES[kind][1]}
    else:
        raise TypeError(f"a checkpoint cannot hold a {kind}")
    return {"type": kind,
            "value": {name: _encode(v) for name, v in fields.items()}}


def _decode(doc):
    """Inverse of ``_encode``.  It builds only arrays, the containers and
    the ``_SESSION_TYPES`` with exactly their attributes; anything else is an
    error, and so is an array payload whose byte count misses its shape."""
    if not isinstance(doc, dict):
        return doc
    kind, value = doc["type"], doc["value"]
    if kind == "ndarray":
        shape = tuple(doc["shape"])
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"bad array shape {shape!r}")
        data = base64.b64decode(value, validate=True)
        if len(data) != _ARRAY_DTYPE.itemsize * math.prod(shape):
            raise ValueError(f"array payload does not match shape {shape}")
        return np.frombuffer(data, _ARRAY_DTYPE).reshape(shape).astype(float)
    if kind in _SEQUENCES:
        items = [_decode(v) for v in value]
        return (deque(items, doc["maxlen"]) if kind == "deque"
                else _SEQUENCES[kind](items))
    fields = {name: _decode(v) for name, v in value.items()}
    if kind == "dict":
        return fields
    cls, names = _SESSION_TYPES.get(kind, (None, None))
    if cls is None:
        raise TypeError(f"unknown type {kind!r} in checkpoint")
    if fields.keys() != set(names):
        raise ValueError(f"{kind} attributes {sorted(fields)} are not "
                         f"{sorted(names)}")
    obj = object.__new__(cls)
    for name, v in fields.items():
        object.__setattr__(obj, name, v)  # frozen dataclasses too
    return obj


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
