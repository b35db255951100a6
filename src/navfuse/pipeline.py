"""Event-driven fusion pipeline: sensor table, gating policy, and mode logic.

Events are processed strictly in arrival order by one consumer, so a recorded
sequence always gives the same output.  ``SENSORS`` holds the per-sensor
policy, one row per stream kind (``events.event_kind``): the switch that
enables the sensor and the counter a disabled event bumps, whether it needs
the IMU clock, and its plan and commit.  ``ingest`` checks the switch, the
stamp and the payload ``events.SCHEMA`` declares (``_payload_fault``), then
the clock, and drops the event at the first failure, before the session
changes, as the VSLAM plan drops a pose with a negative variance.

The session holds the state as the flat 23-vector ``x`` and its covariance
``cov``.  After every event ``cov`` is exactly symmetric, its angular-rate
variances are at most ``OMEGA_VAR_CAP`` (``reset`` caps the configured
``init.omega_var`` too), and it factors: the precondition of a closed-form
update (``ukf.update``), which conditions only a covariance that does not
factor.  Each primary-IMU event predicts, updates and conditions ``cov``
once (``_imu_step``), which also floors it at ``EPSILON_PD``: its
sigma-point update's output or, that update rejected, the prediction,
before any ZUPT update.  The IMU update reads the sigma cloud that the last
predict sub-step drew and propagated, Q but for the quaternion block's
already in it (``ukf.predict``), so a step, live or replayed, makes one
sigma draw; a step that predicts nothing, and every update that follows
no predict (imu2, GPS heading, VSLAM), draws its own.  A step leaves a
snapshot in the replay ring, sharing the session's arrays, which the
engine never writes into, and the one measurement vector the step fused,
which a replay fuses again.  The filter
clock is the newest snapshot's stamp (``ring.last_stamp``), None while the
ring is empty.  A primary-IMU stamp must advance the clock by at most
``_MAX_IMU_GAP``; one outside that window is dropped, and a second in a row
restarts the session there, unless it lies at most ``_MAX_IMU_DELAY``
behind the clock, as late delivery does.

Every other event goes one way, plan, fuse, commit, in
``FusionPipeline._fuse``: its row's plan returns the updates from the event,
session fields and the state at the stamp, and its commit makes every
change the event leaves in the session (``SensorPolicy``), so an event that
the plan or the ring drops changes nothing.  The updates are fused one
engine call each, holding the states the coast mode at the stamp holds, and
each path's ``UpdateRecord`` is reported.  An update may stack paths
(``measurements.stack``), each still gated and recorded on its own: an
encoder sample is one call, its odometry and vertical-velocity constraint
in closed form, and an IMU sample with orientation is one call, its raw
gyro/accel and orientation rows (its tilt, ``_imu_vector``) from one sigma
set; a VSLAM pose's orientation rows are zero against the model's
``q_ref``, its anchored quaternion.  A kind the table marks
``delayed`` (GPS fixes, GPS velocity and VSLAM poses, late by receiver and
mapping latency) stamped before the clock is applied at the newest snapshot
at or before its stamp and the recorded IMU steps are re-run; one older
than the ring is dropped.  Any other kind arrives with negligible latency,
at rates where a rewind per sample would cost a replay per sample, so it is
applied where it arrives; replay re-runs only IMU steps, so such an update
inside a rewound window does not survive it.  A delayed event whose every
update is rejected rewinds nothing, so the live state stands
(``retro_unchanged``).

Every measurement model is built once, with the pipeline; a plan sets only
the noise ``r`` of the models whose noise varies: GPS position and heading,
VSLAM, and the encoder's, whose blocks' views of the stack's R take the
estimators' R.  A GPS fix that passes the receiver-quality screen gets its
noise from ``measurements.gps_fix_to_measurement``, with the ``gps_pos``
estimator's R as the DOP-scaled base; one whose R would overflow, is not
finite or does not factor (a DOP or error bound whose square underflows) is
dropped as ``gps_quality_rejected`` before the engine.  Accepted encoder
blocks and fixes feed the estimators that adapt; an adapted R that does not
factor is refused, the path keeping its R, and counted as
``adaptive_rejected_<path>``.  The fix is taken at the body origin: there
is no antenna lever arm.  The configuration is read once too:
``_build_models`` resolves every setting an event reads (each kind's enable
switch, ZUPT's thresholds, the coast values, the GNSS screen and heading
values, ``vslam.reinit_n``) into one ``_Settings``, so no event looks one
up.

A fix's course-over-ground heading is read from the chord between it and
the heading anchor: an earlier accepted fix, with the filter's horizontal
position at that fix.  The heading is planned, chained after the fix's
position update, only once the state the fix is planned on (``x``, or the
snapshot's for a late fix; a fix older than the ring plans none) lies at
least ``gnss.heading_min_baseline`` from the anchor's filter position, so
the chord spans real travel and not fix noise.  The first accepted fix
sets the anchor; an accepted fix moves it only when its heading ran,
accepted or gated.  Entering coast drops the anchor, since a chord across
an outage is no course.

A checkpoint (version 10) is a JSON file: version, configuration hash, and
the session, whose attributes, initial values and checked readers
``FusionPipeline._SESSION`` declares.  Loading refuses another
configuration's hash, and rebuilds on this one what it fixes and the file
does not hold: the origin's frame, the estimators and the ring.  Every
stored value is read before any is assigned, so a malformed file changes
nothing and a resumed run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import measurements as meas
from .adaptive import AdaptiveEstimator
from .config import PipelineConfig
from .core import (
    ENC_YAW_BIAS,
    GYRO_BIAS,
    OMEGA,
    OMEGA_VAR_CAP,
    POS,
    QUAT,
    QUAT_NORM_MIN,
    STATE_DIM,
    FilterState,
    NumericalError,
    _cholesky,
    all_finite,
    quat_conjugate,
    quat_mul,
    quat_normalize,
    quat_rotate,
)
from .events import (
    SCHEMA,
    EncoderSample,
    FixType,
    GpsFixSample,
    GpsVelocitySample,
    ImuSample,
    RadarVelocitySample,
    SensorEvent,
    VslamPoseSample,
    _REAL,
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
#: the ZUPT measurement, shared by every update that fuses one
_ZERO_VELOCITY = np.zeros(3)
_ZERO_VELOCITY.flags.writeable = False

CHECKPOINT_VERSION = 10


#: (counter, reason) of an event whose payload fails its declaration
_MALFORMED = ("dropped_malformed", "malformed {}")
_NONFINITE = ("dropped_nonfinite", "non-finite {}")
_DEGENERATE = ("dropped_degenerate_quaternion", "degenerate {} quaternion")
#: (counter, reason) of an event before the clock, and of a late one older
#: than the ring
_BEFORE_CLOCK = ("dropped_before_clock", "no imu clock yet")
_TOO_OLD = ("retro_dropped_too_old", "older than replay buffer")
#: per kind, what ``_payload_fault`` reads of its ``SCHEMA`` entry: the IMU
#: source, the rotation field, and the fields as plain (shape, absent,
#: values, name) tuples, which unpack faster than ``Payload`` records
_CHECKS = {kind: (stream.source, stream.rotation,
                  tuple((f.shape, f.absent, f.values, f.name)
                        for f in stream.fields))
           for kind, stream in SCHEMA.items()}


def _payload_fault(event: SensorEvent, kind: str
                   ) -> Optional[tuple[str, str]]:
    """One pass over the kind's fields (``_CHECKS``): ``_MALFORMED``
    when the stamp is no real scalar (``events._REAL``), an IMU's source is
    not the kind's, or no real scalar either, or a field lacks its shape (a
    non-array's is ()), is None where it may not be absent or is none of its
    ``values``, else ``_NONFINITE`` when the stamp, as a float, or a field
    is not finite, else ``_DEGENERATE`` when the rotation is too short to
    normalize (``quat_normalize``) or its norm, one ``np.vdot``, which
    warns of no overflow, is not finite, else None."""
    source, rotation, checks = _CHECKS[kind]
    if not isinstance(event.stamp, _REAL) or source is not None and not (
            isinstance(event.source, _REAL) and event.source == source):
        return _MALFORMED
    finite, degenerate = -_MAX <= event.stamp <= _MAX, False  # NaN fails
    for shape, absent, values, name in checks:
        value = getattr(event, name)
        if value is None:
            if absent is not None:
                continue
            return _MALFORMED
        if getattr(value, "shape", ()) != shape or (
                values is not None and value not in values):
            return _MALFORMED
        if finite:
            finite = all_finite(value) if shape else math.isfinite(value)
        if finite and name == rotation:
            norm = math.sqrt(np.vdot(value, value))
            degenerate = not QUAT_NORM_MIN <= norm < math.inf
    if not finite:
        return _NONFINITE
    return _DEGENERATE if degenerate else None


class Plan(NamedTuple):
    """A row's ``(z, model, gate_scale)`` updates, whether each runs only
    after the one before it is accepted, and a value for its commit."""

    updates: list
    chained: bool = False
    carry: object = None


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


@dataclass(frozen=True, slots=True)
class _Settings:
    """The settings events read, resolved once from the configuration by
    ``FusionPipeline._build_models``: held together, so the pipeline keeps
    at most 30 attributes of its own, past which CPython stops sharing an
    instance dict's keys and each attribute read slows (timeit, CPython
    3.11: eight reads 82 -> 97 ns)."""

    enabled: dict[str, bool]  # each kind's switch; True for the primary IMU
    retro: bool
    coast_enter_s: float
    encoder_wz_factor: float
    gate_relax: float
    #: ZUPT's trigger thresholds (speed, rate), then its release ones, the
    #: trigger's times the hysteresis; None when ZUPT is off
    zupt: Optional[tuple[float, float, float, float]]
    gps_screen: Callable  # ``meas.screen_gps_fix`` given the gnss.* limits
    heading_baseline: float
    #: ``meas.derive_gps_heading`` given the gnss.heading_* values; None
    #: when GNSS heading is off
    derive_heading: Optional[Callable]
    vslam_reinit_n: int


#: the stored form of every array element: little-endian float64
_F8 = np.dtype("<f8")
_MAX = float(np.finfo(float).max)  # a Python float: exact against any int
_STATE, _COV = (STATE_DIM,), (STATE_DIM, STATE_DIM)
#: the stored part of a session value that holds more than its state (the
#: configuration fixes the rest): the origin's point, the ring's snapshots,
#: an estimator's R, innovation window and rows filled
_STORED = {EnuOrigin: lambda origin: origin.geodetic,
           StateSnapshotRing: lambda ring: ring.entries,
           AdaptiveEstimator: lambda est: (est.r, est._innovations,
                                           est._filled)}


def _doc(value):
    """A session value's stored form, by its type once ``_STORED`` projects
    it: an array as its shape and the base64 of its ``_F8`` bytes, a
    dataclass as its fields in order, a dict by key, a tuple or list by
    item, and None, a bool or a number as itself."""
    if type(value) in _STORED:
        value = _STORED[type(value)](value)
    if isinstance(value, np.ndarray):
        import base64  # here, as ``json`` and ``base64`` serve checkpoints
        return {"shape": list(value.shape), "f8": base64.b64encode(
            value.astype(_F8, copy=False).tobytes()).decode("ascii")}
    if is_dataclass(value):
        value = [getattr(value, f.name) for f in fields(value)]
    if isinstance(value, dict):
        return {key: _doc(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_doc(item) for item in value]
    return value


def _read_array(doc: dict, shape: tuple[int, ...],
                unit: Optional[slice] = None) -> np.ndarray:
    """The array ``doc`` stores (``_doc``), which must have ``shape``
    and finite entries, and a norm of 1 within 1e-9 over ``unit``, the
    tolerance of ``FilterState.validate``."""
    import base64
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


def _read_cov(doc: dict) -> np.ndarray:
    """The covariance ``doc`` stores (``_read_array``), which must hold the
    session's invariant that closed-form updates trust: exactly symmetric,
    angular-rate variances at most ``OMEGA_VAR_CAP``, and factoring through
    ``_cholesky``."""
    cov = _read_array(doc, _COV)
    if not np.array_equal(cov, cov.T):
        raise ValueError("covariance not exactly symmetric")
    if cov.diagonal()[OMEGA].max() > OMEGA_VAR_CAP:
        raise ValueError(f"angular-rate variance above {OMEGA_VAR_CAP}")
    try:
        _cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance does not factor") from None
    return cov


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


def _items(build: Callable, *readers: Callable,
           optional: bool = False) -> Callable:
    """The ``_SESSION`` reader of a list stored item by item: ``build``
    of its items, each read by its reader, or None too when ``optional``;
    a list of another length raises ``ValueError``."""
    def read(pipe, doc):
        if doc is None and optional:
            return None
        return build(*[item_read(item) for item_read, item
                       in zip(readers, doc, strict=True)])
    return read


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
                meas.imu_cols, orient=orient.dim)) if cfg[
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
        thr_s, thr_r = cfg["zupt.speed_threshold"], cfg["zupt.rate_threshold"]
        hyst = cfg["zupt.hysteresis"]
        baseline = cfg["gnss.heading_min_baseline"]
        self._settings = _Settings(
            enabled={kind: row.enable_key is None or cfg[row.enable_key]
                     for kind, row in SENSORS.items()},
            retro=cfg["retro.enabled"],
            coast_enter_s=cfg["coast.enter_s"],
            encoder_wz_factor=cfg["coast.encoder_wz_factor"],
            gate_relax=cfg["coast.gate_relax"],
            zupt=((thr_s, thr_r, hyst * thr_s, hyst * thr_r)
                  if cfg["zupt.enabled"] else None),
            gps_screen=partial(meas.screen_gps_fix,
                               min_fix_type=FixType(cfg["gnss.min_fix_type"]),
                               max_hdop=cfg["gnss.max_hdop"],
                               min_satellites=cfg["gnss.min_satellites"]),
            heading_baseline=baseline,
            derive_heading=partial(
                meas.derive_gps_heading, min_baseline=baseline,
                min_speed=cfg["gnss.heading_min_speed"],
                sigma_floor=cfg["gnss.heading_sigma_floor"])
            if cfg["gnss.heading_enabled"] else None,
            vslam_reinit_n=cfg["vslam.reinit_n"])
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
        # coasting holds the encoder yaw-rate bias: it is consumed as a
        # correction, not re-estimated, until GPS returns
        self._modes = tuple(
            (slice(k, STATE_DIM) if k < STATE_DIM else None,
             noise_rates(cfg, range(k, STATE_DIM), scale))
            for k, scale in ((first, 1.0),
                             (min(first, ENC_YAW_BIAS),
                              cfg["coast.position_inflation"])))

    def _build_adaptive(self) -> dict[str, AdaptiveEstimator]:
        cfg = self.config

        def floor_sq(key: str, sigma: str) -> float:
            """The floor ``key`` squared, or sigma² where that is 0."""
            return cfg[key] ** 2 or cfg[sigma] ** 2

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

    def _read_adaptive(self, doc: dict) -> dict[str, AdaptiveEstimator]:
        """Fresh estimators holding their stored R, which each checks as
        its own (``AdaptiveEstimator.checked``), window and rows filled."""
        adaptive = self._build_adaptive()
        if doc.keys() != adaptive.keys():
            raise ValueError("adaptive paths differ from the configuration")
        for name, est in adaptive.items():
            r, window, filled = doc[name]
            est.r = est.checked(_read_array(r, (est.dim, est.dim)),
                                "stored noise")
            est._innovations = _read_array(window, (est.window, est.dim))
            est._filled = _read_count(filled, top=est.window)
        return adaptive

    def _initial_cov(self) -> np.ndarray:
        """P0: the configured variances, the angular-rate ones capped at
        ``OMEGA_VAR_CAP``, which every session's P holds for a closed-form
        update to trust."""
        diag = np.empty(STATE_DIM)
        for block, _, var_key in STATE_BLOCKS:
            diag[block] = self.config[var_key]
        np.minimum(diag[OMEGA], OMEGA_VAR_CAP, out=diag[OMEGA])
        return np.diag(diag)

    def _read_ring(self, doc: list) -> StateSnapshotRing:
        """A fresh ring of the configured capacity, filled through
        ``record`` with the stored snapshots.  Each stamp follows the one
        before it by at most ``_MAX_IMU_GAP``, as a live step's does: a
        replay predicts across that gap.  Each z holds the raw rows, or
        with orientation the joint rows."""
        raw, joint = self._imu_models["imu"]
        z_shapes = [[raw.dim]] + ([] if joint is None else [[joint.dim]])
        ring = StateSnapshotRing(self.config["retro.capacity"])
        if len(doc) > ring.capacity:
            raise ValueError("replay ring over capacity")
        for stamp, x, cov, z, zupt, coast in doc:
            stamp, clock = _read_real(stamp), ring.last_stamp
            if clock is not None and not 0.0 < stamp - clock <= _MAX_IMU_GAP:
                raise ValueError("snapshot stamps not increasing by at most "
                                 f"{_MAX_IMU_GAP} s")
            if z["shape"] not in z_shapes:
                raise ValueError(f"snapshot z of shape {z['shape']}, not one "
                                 f"of {z_shapes}")
            ring.record(Snapshot(stamp, _read_array(x, _STATE, QUAT),
                                 _read_cov(cov),
                                 _read_array(z, tuple(z["shape"])),
                                 _read_flag(zupt), _read_flag(coast)))
        return ring

    #: the session, every attribute ``reset`` assigns and a checkpoint
    #: stores, in this order: per attribute, ``(initial, read)``, its value
    #: in a fresh session, ``initial(pipe)``, and the checked reader of its
    #: stored form (``_doc``), ``read(pipe, doc)``, which raises
    #: ``ValueError`` on a value of the wrong type, shape or range
    _SESSION: dict[str, tuple[Callable, Callable]] = {
        "x": (lambda _: FilterState().vector,
              lambda _, doc: _read_array(doc, _STATE, QUAT)),
        "cov": (_initial_cov, lambda _, doc: _read_cov(doc)),
        # the origin's point, which ``GeodeticCoord`` range-checks
        "origin": (lambda _: None, _items(
            lambda *point: EnuOrigin.from_geodetic(GeodeticCoord(*point)),
            _read_real, _read_real, _read_real, optional=True)),
        "ring": (lambda pipe: StateSnapshotRing(pipe.config["retro.capacity"]),
                 _read_ring),
        "adaptive": (_build_adaptive, _read_adaptive),
        "vslam_anchor": (lambda _: VslamAnchor(), _items(
            VslamAnchor, partial(_read_array, shape=(3,)),
            partial(_read_array, shape=(4,), unit=slice(None)), _read_count)),
        "coast": (lambda _: CoastState(), _items(
            CoastState, _read_flag, partial(_read_real, optional=True),
            _read_flag)),
        "_zupt_active": (lambda _: False, lambda _, doc: _read_flag(doc)),
        "_last_encoder_speed": (lambda _: None,
                                lambda _, doc: _read_real(doc, True, 0.0)),
        "_last_imu_rate": (lambda _: None,
                           lambda _, doc: _read_real(doc, True, 0.0)),
        # fix xy, stamp, fix variance (r00 + r11 of a factoring R, so not
        # negative), the filter's xy at that fix
        "_heading_anchor": (lambda _: None, _items(
            lambda *anchor: anchor, partial(_read_array, shape=(2,)),
            _read_real, partial(_read_real, low=0.0),
            partial(_read_array, shape=(2,)), optional=True)),
        "_jump_stamp": (lambda _: None,
                        lambda _, doc: _read_real(doc, optional=True)),
        "diagnostics": (lambda _: {}, lambda _, doc: {
            name: _read_count(count) for name, count in doc.items()}),
    }

    def reset(self) -> None:
        """Restore the configured initial state and clear all session
        memory: each ``_SESSION`` attribute takes its initial value."""
        for name, (initial, _) in self._SESSION.items():
            setattr(self, name, initial(self))

    # ------------------------------------------------------------------
    # helpers

    @property
    def state(self) -> FilterState:
        """The state's named components, as a copy of ``x``."""
        return FilterState.from_vector(self.x, normalize=False)

    def _count(self, key: str) -> None:
        self.diagnostics[key] = self.diagnostics.get(key, 0) + 1

    def _observe(self, path: str, innovation: np.ndarray) -> None:
        """Feed an accepted innovation to the path's noise estimator,
        counting an adapted R it refused as ``adaptive_rejected_<path>``."""
        estimator = self.adaptive[path]
        if estimator.enabled and not estimator.observe(innovation):
            self._count(f"adaptive_rejected_{path}")

    def _apply_updates(self, x: np.ndarray, cov: np.ndarray,
                       updates: list, coast_active: bool,
                       records: list[UpdateRecord], chained: bool = False,
                       cloud: Optional[tuple] = None):
        """Apply ``(z, model, gate_scale)`` updates in order, one engine call
        each, appending the engine's record of each path to ``records``.
        With ``chained``, stop after the first rejected update.  ``cloud``,
        the sigma cloud predict drew for ``x`` and ``cov``, serves the one
        update of an IMU step.  Returns the state and the covariance."""
        frozen = self._modes[coast_active][0]
        for z, model, gate_scale in updates:
            self._count("engine_update_calls")
            out = ukf_update(x, cov, z, model, self._params,
                             gate_scale=gate_scale, frozen=frozen,
                             cloud=cloud)
            records.extend(out.records)
            x, cov = out.x, out.cov
            if chained and not out.accepted:
                break
        return x, cov

    def _fuse(self, kind: str, row: "SensorPolicy",
              event: SensorEvent) -> StepReport:
        """Plan, fuse and commit one event (see the module docstring)."""
        stamp, ring = event.stamp, self.ring
        x, coast_active = self.x, self.coast.active
        late = (row.delayed and self._settings.retro
                and ring.last_stamp is not None and stamp < ring.last_stamp)
        if late:  # the snapshot at the stamp, None when older than the ring
            idx = ring.nearest_at_or_before(stamp)
            base = None if idx is None else ring.entries[idx]
            x = None if base is None else base.x
            coast_active = base is not None and base.coast_active
        plan = row.plan(self, event, x)
        if not isinstance(plan, Plan):
            return self._drop(stamp, kind, *plan)
        updates, chained, carry = plan
        records: list[UpdateRecord] = []
        if updates and not late:
            self.x, self.cov = self._apply_updates(
                self.x, self.cov, updates, coast_active, records, chained)
        elif updates:
            replay = ring.apply_delayed(
                stamp, lambda x, cov: self._apply_updates(
                    x, cov, updates, coast_active, records, chained),
                self._imu_step)
            if replay.status == "dropped_old":
                return self._drop(stamp, kind, *_TOO_OLD)
            if replay.status == "unchanged":  # the live state stands
                self._count("retro_unchanged")
            else:
                self._count("retro_replays")
                self.x, self.cov = replay.x, replay.cov
        origin = self.origin  # only a commit that sets the origin replaces it
        if row.commit is not None:
            row.commit(self, event, x, records, carry)
        return self._report(stamp, kind, records,
                            origin_set=self.origin is not origin)

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
        if self.coast.last_accept is None:
            self.coast.last_accept = now
        was_active = self.coast.active
        # a Python bool even for numpy stamps: it indexes ``_modes`` and a
        # checkpoint holds it
        self.coast.active = bool(now - self.coast.last_accept
                                 > self._settings.coast_enter_s)
        if self.coast.active and not was_active:
            self.coast.relax_armed = True
            self._heading_anchor = None
            self._count("coast_entries")

    def _update_zupt(self) -> None:
        thresholds = self._settings.zupt
        if thresholds is None:
            self._zupt_active = False
            return
        # the trigger needs both readings, so ZUPT is never held without them
        speed, rate = self._last_encoder_speed, self._last_imu_rate
        thr_s, thr_r, release_s, release_r = thresholds
        if self._zupt_active:
            if speed > release_s or rate > release_r:
                self._zupt_active = False
        else:
            self._zupt_active = (speed is not None and rate is not None
                                 and speed < thr_s and rate < thr_r)

    # ------------------------------------------------------------------
    # ingestion

    def ingest(self, event: SensorEvent) -> StepReport:
        kind = event_kind(event)
        row = SENSORS[kind]
        if row.enable_key is not None and not self._settings.enabled[kind]:
            return self._drop(event.stamp, kind, row.disabled_counter,
                              f"{kind} disabled")
        fault = _payload_fault(event, kind)
        if fault is not None:
            counter, reason = fault
            return self._drop(event.stamp, kind, counter, reason.format(kind))
        if row.needs_clock and self.ring.last_stamp is None:
            return self._drop(event.stamp, kind, *_BEFORE_CLOCK)
        if row.plan is None:  # the primary IMU, whose stamp is the clock
            return self._on_imu(event)
        return self._fuse(kind, row, event)

    def _imu_vector(self, sample: ImuSample) -> np.ndarray:
        """The sample's measurement vector: gyro and accel for the raw
        rows, then its tilt 2(xz - wy), 2(yz + wx) (and heading with a
        magnetometer), unless the source has no orientation model or the
        sample no orientation."""
        joint = self._imu_models[event_kind(sample)][1]
        if joint is None or sample.orientation is None:
            return np.concatenate([sample.gyro, sample.accel])
        # ``ingest`` dropped a quaternion too short to normalize
        w, x, y, z = sample.orientation.tolist()
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / norm, x / norm, y / norm, z / norm
        orient = (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), math.atan2(
            2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z)))
        return np.concatenate([sample.gyro, sample.accel,
                               orient[: joint.blocks[1].dim]])

    def _imu_update(self, kind: str, z: np.ndarray) -> tuple:
        """The update of ``z`` (``_imu_vector``), orientation rows or not."""
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
        cloud = None  # a first step predicts nothing: its update draws
        while dt_total > 1e-12:
            dt = min(dt_total, _MAX_STEP_DT)
            x, cov, cloud = ukf_predict(x, cov, PropagationStep(dt, q_rate),
                                        self._params)
            dt_total -= dt
            if dt_total > 1e-12:  # the next sub-step draws from this one
                cov = _condition(cov)
        records = [] if records is None else records
        x, updated = self._apply_updates(
            x, cov, [self._imu_update("imu", step.z)], step.coast_active,
            records, cloud=cloud)
        # predict leaves ``cov`` raw, for the sigma-point update to
        # condition; rejected, it hands that very array back, conditioned
        # here before the closed-form ZUPT update
        if updated is cov:
            updated = _condition(cov)
        if step.zupt_active:
            x, updated = self._apply_updates(x, updated, [self._zupt_update],
                                             step.coast_active, records)
        return x, updated

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

    # ------------------------------------------------------------------
    # sensor rows: each plan(event, x) and commit(event, x, records, carry)

    def _plan_imu2(self, sample: ImuSample, x) -> Plan:
        return Plan([self._imu_update("imu2", self._imu_vector(sample))])

    def _plan_encoder(self, sample: EncoderSample, x) -> Plan:
        # the estimators' R, written into the blocks' views of the stack's R
        odometry, vertical = self._encoder_model.blocks
        odometry.r = self.adaptive["encoder"].r
        vertical.r = self.adaptive["encoder_vz"].r
        if self.coast.active:
            # coasting leans on the bias-corrected encoder yaw rate for
            # heading, so its noise is tightened by this factor
            odometry.r[2, 2] *= self._settings.encoder_wz_factor
        # the odometry reading, then the vertical velocity it implies: zero
        z = np.array([sample.velocity[0], sample.velocity[1],
                      sample.yaw_rate, 0.0])
        return Plan([(z, self._encoder_model, 1.0)])

    def _commit_encoder(self, sample: EncoderSample, x, records, carry):
        self._last_encoder_speed = abs(float(sample.velocity[0]))
        adaptive = self.adaptive
        for rec in records:  # one per block, each an adaptive path
            if rec.accepted and adaptive[rec.path].enabled:
                self._observe(rec.path, rec.innovation)
        self._update_zupt()

    def _plan_radar(self, sample: RadarVelocitySample, x) -> Plan:
        return Plan([(sample.velocity_body, self._radar_model, 1.0)])

    def _plan_gps_velocity(self, sample: GpsVelocitySample, x) -> Plan:
        return Plan([(sample.velocity_en, self._gps_vel_model, 1.0)])

    def _plan_gps_fix(self, fix: GpsFixSample, x) -> Plan | tuple:
        """The position update, its gate relaxed while coasting with the
        relax armed, then, only if it is accepted, the heading from the
        anchor once ``x`` has travelled the baseline from it (see the
        module docstring); none for the first fix, whose commit sets the
        origin.  Carries (z, R)."""
        settings = self._settings
        reason = settings.gps_screen(fix)
        if reason is not None:
            return "gps_quality_rejected", reason
        if self.origin is None:
            return Plan([])
        if self.ring.last_stamp is None:
            return _BEFORE_CLOCK
        # the estimator's R is the configured one, floored, when
        # ``adaptive.gnss`` is off
        z, r = carry = meas.gps_fix_to_measurement(
            fix, self.origin, self.adaptive["gps_pos"].r)
        if r is None or not all_finite(r):  # OpenBLAS factors NaN and inf
            return "gps_quality_rejected", "fix noise R is not finite"
        try:  # a DOP or bound whose square underflows gives R = 0
            _cholesky(r)
        except np.linalg.LinAlgError:
            return ("gps_quality_rejected",
                    "fix noise R is not positive definite")
        self._gps_model.r = r
        relaxed = self.coast.active and self.coast.relax_armed
        updates = [(z, self._gps_model,
                    settings.gate_relax if relaxed else 1.0)]
        anchor = self._heading_anchor
        if (settings.derive_heading is not None and anchor is not None
                and x is not None
                and math.hypot(x[0] - anchor[3][0], x[1] - anchor[3][1])
                >= settings.heading_baseline):
            prev_xy, prev_stamp, prev_var, _ = anchor
            heading = settings.derive_heading(
                prev_xy, prev_stamp, z[:2], fix.stamp,
                (prev_var + float(r[0, 0] + r[1, 1])) / 2.0)
            if heading is not None:
                yaw_z, yaw_var_z = heading
                self._heading_model.r = np.array([[yaw_var_z]])
                updates.append((np.array([yaw_z]), self._heading_model, 1.0))
        return Plan(updates, True, carry)

    def _commit_gps_fix(self, fix: GpsFixSample, x, records, carry):
        if self.origin is None:
            self.origin = EnuOrigin.from_geodetic(
                GeodeticCoord(fix.lat, fix.lon, fix.alt))
            self._count("origin_set")
            return
        if self.coast.active:  # the plan used up any armed relax
            self.coast.relax_armed = False
        if records[0].accepted:
            z, r = carry
            self.coast.last_accept = max(self.coast.last_accept or 0.0,
                                         fix.stamp)
            self.coast.active = False
            # records[1] is the heading's: it ran, accepted or gated
            if self._heading_anchor is None or len(records) > 1:
                self._heading_anchor = (z[:2].copy(), fix.stamp,
                                        float(r[0, 0] + r[1, 1]),
                                        x[:2].copy())
            self._observe("gps_pos", records[0].innovation)

    def _plan_vslam(self, pose: VslamPoseSample, x) -> Plan | tuple:
        """The anchored pose's update, unless a variance is negative (the
        stream writes -1 for absent, which ``vslam_noise`` would floor to
        the tightest noise), against the anchored quaternion as ``q_ref``.
        Carries the raw quaternion, normalized."""
        if pose.cov_diag is not None and np.any(pose.cov_diag < 0):
            return _MALFORMED[0], _MALFORMED[1].format("vslam")
        raw_q, anchor = quat_normalize(pose.quaternion), self.vslam_anchor
        z = np.zeros(6)
        z[:3] = quat_rotate(anchor.quaternion, pose.position) + anchor.position
        self._vslam_model.q_ref = quat_mul(anchor.quaternion, raw_q)
        self._vslam_model.r = (self._vslam_r if pose.cov_diag is None
                               else self._vslam_noise(pose.cov_diag))
        return Plan([(z, self._vslam_model, 1.0)], carry=raw_q)

    def _commit_vslam(self, pose: VslamPoseSample, x, records, raw_q):
        # after ``vslam.reinit_n`` rejections in a row, re-anchor the map on
        # the state the pose was gated at
        anchor = self.vslam_anchor
        if records[0].accepted:
            anchor.rejections = 0
            return
        anchor.rejections += 1
        if anchor.rejections >= self._settings.vslam_reinit_n:
            anchor.quaternion = quat_mul(x[QUAT], quat_conjugate(raw_q))
            anchor.position = x[POS] - quat_rotate(anchor.quaternion,
                                                   pose.position)
            anchor.rejections = 0
            self._count("vslam_reanchors")

    # ------------------------------------------------------------------
    # persistence

    def save_checkpoint(self, path: str) -> None:
        """Write the session (``_session_doc``) as JSON, with the checkpoint
        version and the configuration hash that loading checks."""
        import json  # here, as ``json`` and ``base64`` serve checkpoints only
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
        import json
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
        """The session (``_SESSION``) in its stored form (``_doc``)."""
        return {name: _doc(getattr(self, name)) for name in self._SESSION}

    def _read_session(self, doc: dict) -> dict:
        """The session ``_session_doc`` stored, each value read by its
        ``_SESSION`` reader, given this pipeline."""
        if set(doc) != set(self._SESSION):
            raise ValueError("session keys missing or unknown: "
                             f"{sorted(set(doc) ^ set(self._SESSION))}")
        return {name: read(self, doc[name])
                for name, (_, read) in self._SESSION.items()}


@dataclass(frozen=True)
class SensorPolicy:
    """One row of the sensor table (see the module docstring).

    ``plan(pipe, event, x)`` returns a ``Plan`` or a ``(counter, reason)``
    drop from the event, session fields and ``x``, the state the updates
    apply to (None for a late event older than the ring); ``commit(pipe,
    event, x, records, carry)`` makes every change the event leaves in the
    session.  ``FusionPipeline._fuse`` is their only caller.  The primary
    IMU, whose stamp is the clock, has neither: ``_on_imu`` steps it."""

    enable_key: Optional[str]         # None: the sensor is always on
    disabled_counter: Optional[str]
    needs_clock: bool
    plan: Optional[Callable[..., Plan | tuple[str, str]]]
    commit: Optional[Callable[..., None]] = None  # None: no side effect
    delayed: bool = False             # late: fused at its stamp


SENSORS: dict[str, SensorPolicy] = {
    # the primary IMU starts the clock and is always on
    "imu": SensorPolicy(None, None, False, None),
    "imu2": SensorPolicy("imu2.enabled", "dropped_imu2_disabled", True,
                         FusionPipeline._plan_imu2),
    "encoder": SensorPolicy("encoder.enabled", "dropped_encoder_disabled",
                            True, FusionPipeline._plan_encoder,
                            FusionPipeline._commit_encoder),
    # the first fix sets the origin without the clock; the plan checks
    # the clock after that
    "gps": SensorPolicy("gnss.enabled", "dropped_gnss_disabled", False,
                        FusionPipeline._plan_gps_fix,
                        FusionPipeline._commit_gps_fix, delayed=True),
    "gps_vel": SensorPolicy("gnss.velocity_enabled",
                            "dropped_gps_vel_disabled", True,
                            FusionPipeline._plan_gps_velocity, delayed=True),
    "radar": SensorPolicy("radar.enabled", "dropped_radar_disabled", True,
                          FusionPipeline._plan_radar),
    "vslam": SensorPolicy("vslam.enabled", "dropped_vslam_disabled", True,
                          FusionPipeline._plan_vslam,
                          FusionPipeline._commit_vslam, delayed=True),
}
