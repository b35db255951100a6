import base64
import json

import numpy as np
import pytest

from navfuse.config import DEFAULTS, PipelineConfig
from navfuse.adaptive import AdaptiveEstimator
from navfuse.core import (ENC_YAW_BIAS, EPSILON_PD, GRAVITY, OMEGA,
                          OMEGA_VAR_CAP, QUAT, STATE_DIM, euler_to_quat)
from navfuse.events import (
    EncoderSample,
    FixType,
    GpsFixSample,
    GpsVelocitySample,
    ImuSample,
    RadarVelocitySample,
    VslamPoseSample,
)
from navfuse.geodesy import EnuOrigin, GeodeticCoord
from navfuse import pipeline as pipeline_module
from navfuse.pipeline import (
    SENSORS,
    CheckpointError,
    FusionPipeline,
    zupt_trigger,
)

from conftest import enu_to_geodetic, rotation_distance, yaw_variance

ORIGIN = EnuOrigin.from_geodetic(GeodeticCoord.from_degrees(45.0, -75.6, 80.0))


def imu_at(stamp, gyro=(0, 0, 0), accel=None, orientation=None):
    accel = GRAVITY.copy() if accel is None else np.asarray(accel, float)
    return ImuSample(stamp, np.asarray(gyro, float), accel,
                     None if orientation is None else np.asarray(orientation))


def gps_at(enu, stamp, **kw):
    geo = enu_to_geodetic(np.asarray(enu, dtype=float), ORIGIN)
    defaults = dict(fix_type=FixType.RTK_FLOAT, hdop=1.0, vdop=1.0,
                    satellites=9)
    defaults.update(kw)
    return GpsFixSample(stamp, geo.lat, geo.lon, geo.alt, **defaults)


def encoder_at(stamp, vx=0.0, vy=0.0, wz=0.0):
    return EncoderSample(stamp, np.array([vx, vy]), wz)


def stationary_stream(duration, imu_rate=100.0, gps_rate=0.0,
                      encoder=True, gps_offset=(0.0, 0.0, 0.0)):
    events = []
    n = int(duration * imu_rate)
    gps_stride = int(imu_rate / gps_rate) if gps_rate else 0
    for k in range(n):
        t = k / imu_rate
        events.append(imu_at(t))
        if encoder:
            events.append(encoder_at(t))
        if gps_stride and k % gps_stride == 0:
            events.append(gps_at(gps_offset, t))
    return events


def run(pipeline, events):
    return [pipeline.ingest(e) for e in events]


def ingest_counting(pipe, event):
    """Ingest one event; return its report and the diagnostics it bumped."""
    before = dict(pipe.diagnostics)
    report = pipe.ingest(event)
    bumped = {k: v - before.get(k, 0) for k, v in pipe.diagnostics.items()
              if v != before.get(k, 0)}
    return report, bumped


def session_of(pipe):
    """The session but for its counters, as a checkpoint stores it."""
    doc = pipe._session_doc()
    del doc["diagnostics"]
    return doc


def array_doc(a):
    """An array as a checkpoint stores it."""
    return {"shape": list(a.shape),
            "f8": base64.b64encode(a.astype("<f8").tobytes()).decode()}


ALL_ON = {"imu2.enabled": True, "gnss.velocity_enabled": True,
          "radar.enabled": True, "vslam.enabled": True}

#: kind -> (enable key, diagnostics key of a disabled event)
SWITCHES = {
    "imu2": ("imu2.enabled", "dropped_imu2_disabled"),
    "encoder": ("encoder.enabled", "dropped_encoder_disabled"),
    "gps": ("gnss.enabled", "dropped_gnss_disabled"),
    "gps_vel": ("gnss.velocity_enabled", "dropped_gps_vel_disabled"),
    "radar": ("radar.enabled", "dropped_radar_disabled"),
    "vslam": ("vslam.enabled", "dropped_vslam_disabled"),
}


def event_of(kind, stamp, x=0.0):
    """A well-formed event of ``kind``; ``x`` goes into its payload."""
    if kind in ("imu", "imu2"):
        return ImuSample(stamp, np.array([x, 0.0, 0.0]), GRAVITY.copy(),
                         source=1 if kind == "imu" else 2)
    if kind == "encoder":
        return encoder_at(stamp, vx=x)
    if kind == "gps":
        fix = gps_at([0.0, 0.0, 0.0], stamp)
        fix.alt += x
        return fix
    if kind == "gps_vel":
        return GpsVelocitySample(stamp, np.array([x, 0.0]))
    if kind == "radar":
        return RadarVelocitySample(stamp, np.array([x, 0.0]))
    return VslamPoseSample(stamp, np.array([x, 0.0, 0.0]),
                           np.array([1.0, 0.0, 0.0, 0.0]))


class TestBasics:
    def test_omega_variance_cap_holds_in_a_run(self):
        """With every IMU update gated and ``ukf.q_omega`` at 1.0, omega's
        variance would pass 1.0 within a second and reach about 2 by the
        end; ``ukf.cap_omega_variance`` holds it at the cap."""
        pipe = FusionPipeline(PipelineConfig({"gates.imu": 1e-12,
                                              "ukf.q_omega": 1.0}))
        reports = run(pipe, [imu_at(0.01 * k, gyro=(0.01, 0, 0))
                             for k in range(200)])
        assert not any(rec.accepted for r in reports for rec in r.updates)
        assert all(np.all(r.cov_diag[OMEGA] <= OMEGA_VAR_CAP)
                   for r in reports)
        assert np.all(reports[-1].cov_diag[OMEGA] == OMEGA_VAR_CAP)

    def test_one_report_per_imu_event(self):
        pipe = FusionPipeline(PipelineConfig())
        events = stationary_stream(2.0, gps_rate=5.0)
        reports = run(pipe, events)
        imu_events = sum(isinstance(e, ImuSample) for e in events)
        imu_reports = [r for r in reports if r.kind == "imu"]
        assert len(imu_reports) == imu_events
        assert all(r.dropped is None for r in imu_reports)

    def test_determinism_bit_identical(self):
        def once():
            pipe = FusionPipeline(PipelineConfig())
            reports = run(pipe, stationary_stream(3.0, gps_rate=5.0))
            return (np.array([r.state.as_vector() for r in reports
                              if r.kind == "imu"]),
                    np.array([r.cov_diag for r in reports
                              if r.kind == "imu"]))

        s1, c1 = once()
        s2, c2 = once()
        assert np.array_equal(s1, s2)
        assert np.array_equal(c1, c2)

    def test_nonfinite_events_rejected_with_diagnostics(self):
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(0.5))
        bad_imu = imu_at(0.6, gyro=(np.nan, 0, 0))
        report = pipe.ingest(bad_imu)
        assert report.dropped is not None
        assert pipe.diagnostics["dropped_nonfinite"] == 1
        bad_enc = encoder_at(0.61, vx=np.inf)
        assert pipe.ingest(bad_enc).dropped is not None
        state_before = pipe.state.as_vector().copy()
        assert np.array_equal(pipe.state.as_vector(), state_before)

    def test_out_of_order_imu_dropped(self):
        pipe = FusionPipeline(PipelineConfig())
        pipe.ingest(imu_at(1.0))
        report = pipe.ingest(imu_at(0.5))
        assert report.dropped is not None
        assert pipe.diagnostics["dropped_imu_out_of_order"] == 1

    def test_large_gap_chunked_not_rejected(self):
        pipe = FusionPipeline(PipelineConfig())
        pipe.ingest(imu_at(0.0))
        report = pipe.ingest(imu_at(1.7))
        assert report.dropped is None
        assert pipe.ring.last_stamp == pytest.approx(1.7)

    def test_imu_time_jump_dropped_without_predicting(self, monkeypatch):
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(0.5))
        x, cov, ring = pipe.x, pipe.cov, list(pipe.ring.entries)
        predicts = []
        monkeypatch.setattr(pipeline_module, "ukf_predict",
                            lambda *args, **kw: predicts.append(args))
        report, bumped = ingest_counting(pipe,
                                         imu_at(pipe.ring.last_stamp + 1e6))
        assert report.dropped is not None
        assert bumped == {"dropped_imu_time_jump": 1}
        assert predicts == []
        assert pipe.x is x and pipe.cov is cov
        assert pipe.ring.entries == ring

    def test_confirmed_imu_time_jump_restarts_and_fuses_again(self,
                                                              monkeypatch):
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(0.5, gps_rate=5.0))
        assert pipe.origin is not None
        jump = pipe.ring.last_stamp + 1e6
        predicts = []

        def counting_predict(*args, **kw):
            predicts.append(args[2].dt)
            return ukf_predict(*args, **kw)

        ukf_predict = pipeline_module.ukf_predict
        monkeypatch.setattr(pipeline_module, "ukf_predict", counting_predict)
        report, bumped = ingest_counting(pipe, imu_at(jump))
        assert bumped == {"dropped_imu_time_jump": 1}
        report, bumped = ingest_counting(pipe, imu_at(jump + 0.01))
        assert report.dropped is None
        assert bumped["imu_clock_restarts"] == 1
        assert predicts == []
        assert pipe.ring.last_stamp == jump + 0.01
        assert pipe.origin is None
        assert [e.stamp for e in pipe.ring.entries] == [jump + 0.01]
        report = pipe.ingest(imu_at(jump + 0.02))
        assert report.dropped is None
        assert predicts == [pytest.approx(0.01)]
        assert pipe.ring.last_stamp == jump + 0.02
        assert pipe.diagnostics["dropped_imu_time_jump"] == 1
        assert pipe.diagnostics["imu_clock_restarts"] == 1

    def test_backward_imu_clock_reset_restarts_the_session(self):
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(2.0, encoder=False))
        reports = run(pipe, [imu_at(k / 1000) for k in range(1, 200)])
        assert reports[0].dropped is not None
        assert all(r.dropped is None for r in reports[1:])
        assert pipe.ring.last_stamp == 0.199
        assert pipe.diagnostics["dropped_imu_out_of_order"] == 1
        assert pipe.diagnostics["imu_clock_restarts"] == 1

    @pytest.mark.parametrize("stale", [
        (0.3,), (0.3, 0.3), (0.47, 0.48),
        tuple(k / 100 for k in range(1, 49)),
    ], ids=["lone", "repeated", "late_pair", "late_burst"])
    def test_stale_imu_stamps_keep_the_clock(self, stale):
        """Samples delivered late, within ``_MAX_IMU_DELAY`` of the clock,
        are dropped one by one and never restart the session."""
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(0.5, encoder=False))
        reports = run(pipe, [imu_at(t) for t in stale])
        assert all(r.dropped is not None for r in reports)
        assert pipe.ingest(imu_at(0.5)).dropped is None
        assert pipe.ring.last_stamp == 0.5
        assert pipe.diagnostics["dropped_imu_out_of_order"] == len(stale)
        assert "imu_clock_restarts" not in pipe.diagnostics

    def test_lone_imu_time_jump_keeps_the_clock(self):
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(0.5))
        now = pipe.ring.last_stamp
        for stamp in (now + 1e6, now + 0.01, now + 1e6 + 0.01, now + 0.02):
            pipe.ingest(imu_at(stamp))
        assert pipe.ring.last_stamp == now + 0.02
        assert pipe.diagnostics["dropped_imu_time_jump"] == 2
        assert "imu_clock_restarts" not in pipe.diagnostics

    def test_no_nan_reaches_state(self):
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(1.0, gps_rate=5.0))
        bad = GpsFixSample(1.01, np.nan, 0.0, 0.0)
        assert pipe.ingest(bad).dropped is not None
        assert np.all(np.isfinite(pipe.state.as_vector()))


class TestSensorTable:
    def test_one_row_per_stream_kind(self):
        assert set(SENSORS) == {"imu", "imu2", "encoder", "gps", "gps_vel",
                                "radar", "vslam"}
        assert {k: (row.enable_key, row.disabled_counter)
                for k, row in SENSORS.items() if k != "imu"} == SWITCHES

    def test_late_kinds_are_the_delayed_rows(self):
        assert {k for k, row in SENSORS.items()
                if row.delayed} == {"gps", "gps_vel", "vslam"}

    @pytest.mark.parametrize("kind", sorted(SWITCHES))
    def test_disabled(self, kind):
        key, counter = SWITCHES[kind]
        pipe = FusionPipeline(PipelineConfig({**ALL_ON, key: False}))
        pipe.ingest(imu_at(0.0))
        report, bumped = ingest_counting(pipe, event_of(kind, 0.005))
        assert bumped == {counter: 1}
        assert report.dropped == f"{kind} disabled"
        assert report.kind == kind and not report.updates

    @pytest.mark.parametrize("kind", sorted(SENSORS))
    def test_nonfinite_payload(self, kind):
        pipe = FusionPipeline(PipelineConfig(ALL_ON))
        pipe.ingest(imu_at(0.0))
        before = pipe.state.as_vector().copy()
        report, bumped = ingest_counting(pipe,
                                         event_of(kind, 0.005, np.nan))
        assert bumped == {"dropped_nonfinite": 1}
        assert report.dropped == f"non-finite {kind}"
        assert np.array_equal(pipe.state.as_vector(), before)

    def test_finite_check_takes_the_flattened_dot_product(self):
        """A finite payload whose x.x overflows passes; one NaN anywhere in
        a (3, 3) field fails."""
        fault = pipeline_module._payload_fault
        assert fault(imu_at(0.01, gyro=(1e200, 0, 0)), SENSORS["imu"]) is None
        cov = np.eye(3)
        cov[1, 2] = np.nan
        fix = gps_at([0, 0, 0], 0.015, covariance=cov)
        assert fault(fix, SENSORS["gps"]) == ("dropped_nonfinite",
                                              "non-finite {}")
        fix.covariance = np.eye(3) * 1e200
        assert fault(fix, SENSORS["gps"]) is None

    @pytest.mark.parametrize("kind", sorted(SENSORS))
    def test_nonfinite_stamp(self, kind):
        pipe = FusionPipeline(PipelineConfig(ALL_ON))
        run(pipe, stationary_stream(0.5, gps_rate=5.0))
        ring_len = len(pipe.ring)
        before = pipe.state.as_vector().copy()
        report, bumped = ingest_counting(pipe, event_of(kind, np.nan))
        assert bumped == {"dropped_nonfinite": 1}
        assert report.dropped == f"non-finite {kind}"
        assert not report.updates
        assert len(pipe.ring) == ring_len
        assert np.array_equal(pipe.state.as_vector(), before)

    def test_nan_stamped_first_imu_leaves_clock_unset(self):
        pipe = FusionPipeline(PipelineConfig())
        report, bumped = ingest_counting(pipe, imu_at(np.nan))
        assert report.dropped is not None
        assert bumped == {"dropped_nonfinite": 1}
        pipe.ingest(imu_at(0.0))
        pipe.ingest(imu_at(0.01))
        assert pipe.ring.last_stamp == pytest.approx(0.01)

    @pytest.mark.parametrize("kind, quaternion", [
        ("imu", [1e-13] * 4), ("imu2", [1e-13] * 4), ("vslam", [0.0] * 4),
        # a norm that overflows: normalized, the quaternion would be all
        # zeros, a crash for VSLAM and a roll of zero for this 90 degree one
        ("vslam", [1e300, 0.0, 0.0, 0.0]), ("imu", [1e300, 1e300, 0.0, 0.0]),
    ], ids=["imu", "imu2", "vslam", "vslam_overflow", "imu_overflow"])
    def test_degenerate_quaternion_dropped(self, kind, quaternion):
        pipe = FusionPipeline(PipelineConfig(ALL_ON))
        run(pipe, stationary_stream(0.5, gps_rate=5.0))
        before = session_of(pipe)
        event = event_of(kind, 0.5, 0.3)
        setattr(event, "quaternion" if kind == "vslam" else "orientation",
                np.array(quaternion))
        report, bumped = ingest_counting(pipe, event)
        assert bumped == {"dropped_degenerate_quaternion": 1}
        assert report.dropped == f"degenerate {kind} quaternion"
        assert not report.updates
        assert session_of(pipe) == before

    @pytest.mark.parametrize("kind, field, path", [
        ("imu", "gyro", "imu_raw"),
        ("imu", "accel", "imu_raw"),
        ("encoder", "velocity", "encoder"),
        ("radar", "velocity_body", "radar_vel"),
        ("vslam", "position", "vslam"),
    ])
    def test_finite_payload_too_large_to_square_gates_at_infinity(
            self, kind, field, path):
        """Its d2 overflows: the update is gated, and no overflow warning
        (an error under this suite's filter) is raised."""
        pipe = FusionPipeline(PipelineConfig(ALL_ON))
        run(pipe, [imu_at(0.01 * k) for k in range(20)])
        event = event_of(kind, 0.2)
        getattr(event, field)[0] = 1e300
        report = pipe.ingest(event)
        [rec] = [rec for rec in report.updates if rec.path == path]
        assert (rec.accepted, rec.reason, rec.d2) == (False, "gated", np.inf)
        pipe.state.validate()

    @pytest.mark.parametrize("kind, name, value", [
        ("imu", "gyro", np.zeros(2)),
        ("imu", "orientation", np.array([1.0, 0.0, 0.0])),
        ("encoder", "velocity", np.zeros(3)),
        ("encoder", "velocity", np.zeros(1)),
        ("radar", "velocity_body", np.zeros(3)),
        ("gps_vel", "velocity_en", np.zeros(3)),
        ("vslam", "position", np.zeros(2)),
        ("vslam", "cov_diag", np.ones(5)),
        # the stream's "absent" marker, which ``vslam_noise`` would floor to
        # the tightest noise
        ("vslam", "cov_diag", np.array([0.01] * 3 + [-1.0] * 3)),
        ("vslam", "cov_diag", np.full(6, -1.0)),
        ("gps", "covariance", np.ones(8)),
    ], ids=["imu_gyro", "imu_orientation", "encoder_3", "encoder_1",
            "radar", "gps_vel", "vslam_position", "vslam_cov_diag",
            "vslam_negative_variance", "vslam_all_negative",
            "gps_covariance"])
    def test_malformed_payload_dropped(self, kind, name, value):
        pipe = FusionPipeline(PipelineConfig(ALL_ON))
        run(pipe, stationary_stream(0.5, gps_rate=5.0))
        before = session_of(pipe)
        event = event_of(kind, 0.5, 0.3)
        setattr(event, name, value)
        report, bumped = ingest_counting(pipe, event)
        assert bumped == {"dropped_malformed": 1}
        assert report.dropped == f"malformed {kind}"
        assert not report.updates
        assert session_of(pipe) == before

    def test_zero_vslam_variance_is_floored_not_dropped(self):
        pipe = FusionPipeline(PipelineConfig(ALL_ON))
        run(pipe, stationary_stream(0.5, gps_rate=5.0))
        event = event_of("vslam", 0.5)
        event.cov_diag = np.zeros(6)
        report = pipe.ingest(event)
        assert report.dropped is None
        assert [rec.path for rec in report.updates] == ["vslam"]
        assert np.array_equal(pipe._vslam_model.r,
                              pipe._vslam_noise(np.zeros(6)))

    @pytest.mark.parametrize("kind, name", [
        ("imu", "gyro"), ("imu", "accel"), ("imu2", "gyro"),
        ("encoder", "yaw_rate"), ("encoder", "velocity"),
        ("radar", "velocity_body"), ("gps_vel", "velocity_en"),
        ("gps", "fix_type"), ("gps", "lat"), ("vslam", "position"),
        ("vslam", "quaternion"),
    ])
    def test_none_in_a_required_field_dropped(self, kind, name):
        """Only the fields the table marks optional may be None."""
        pipe = FusionPipeline(PipelineConfig(ALL_ON))
        run(pipe, [imu_at(k * 0.01) for k in range(5)])
        if kind == "gps":
            assert pipe.ingest(event_of("gps", 0.04)).origin_set
        before = session_of(pipe)
        event = event_of(kind, 0.05, 0.3)
        setattr(event, name, None)
        report, bumped = ingest_counting(pipe, event)
        assert bumped == {"dropped_malformed": 1}
        assert report.dropped == f"malformed {kind}"
        assert not report.updates
        assert session_of(pipe) == before

    def test_optional_fields_are_the_absent_ones(self):
        assert {k: row.optional for k, row in SENSORS.items()
                if row.optional} == {
            "imu": {"orientation"}, "imu2": {"orientation"},
            "vslam": {"cov_diag"},
            "gps": {"hdop", "vdop", "satellites", "err_horz", "err_vert",
                    "covariance"}}

    @pytest.mark.parametrize("fix_type", [
        7, -1, 2.5, np.nan, np.inf, np.array(5), "2"])
    def test_fix_type_that_is_no_fix_type_dropped(self, fix_type):
        """A ``fix_type`` other than the integral values 0-4 is malformed:
        it neither sets the origin nor reaches the engine."""
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, [imu_at(k * 0.01) for k in range(5)])
        before = session_of(pipe)
        report, bumped = ingest_counting(
            pipe, gps_at([0.0, 0.0, 0.0], 0.05, fix_type=fix_type))
        assert bumped == {"dropped_malformed": 1}
        assert report.dropped == "malformed gps"
        assert session_of(pipe) == before and pipe.origin is None

    @pytest.mark.parametrize("fix_type, origin_set", [
        (0, False), (1, True), (4.0, True), (np.int64(3), True),
        (np.array(2), True)])
    def test_plain_fix_type_values_are_screened(self, fix_type, origin_set):
        """The integral values 0-4 pass as the ``FixType`` they equal: a
        plain 0 is screened out below the minimum, a plain 1-4 is not."""
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, [imu_at(k * 0.01) for k in range(5)])
        report = pipe.ingest(gps_at([0.0, 0.0, 0.0], 0.05,
                                    fix_type=fix_type))
        assert report.origin_set == origin_set
        if not origin_set:
            assert report.dropped == "fix type NONE below GPS"
            assert pipe.diagnostics["gps_quality_rejected"] == 1

    @pytest.mark.parametrize("satellites", [np.nan, np.inf, -np.inf])
    def test_nonfinite_satellites_dropped(self, satellites):
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, [imu_at(k * 0.01) for k in range(5)])
        before = session_of(pipe)
        report, bumped = ingest_counting(
            pipe, gps_at([0.0, 0.0, 0.0], 0.05, satellites=satellites))
        assert bumped == {"dropped_nonfinite": 1}
        assert report.dropped == "non-finite gps"
        assert session_of(pipe) == before and pipe.origin is None
        # an absent count is no count: the fix sets the origin
        assert pipe.ingest(gps_at([0.0, 0.0, 0.0], 0.06,
                                  satellites=None)).origin_set

    @pytest.mark.parametrize("kind", sorted(SWITCHES))
    def test_before_imu_clock(self, kind):
        pipe = FusionPipeline(PipelineConfig(ALL_ON))
        if kind == "gps":
            # the first fix sets the origin, which needs no clock
            assert pipe.ingest(event_of("gps", 0.0)).origin_set
        report, bumped = ingest_counting(pipe, event_of(kind, 0.005))
        assert bumped == {"dropped_before_clock": 1}
        assert report.dropped == "no imu clock yet"


class TestConstruction:
    """A setting the filter cannot use is refused when the pipeline is
    built, not at the first event that would use it."""

    @pytest.mark.parametrize("key", sorted(
        k for k in DEFAULTS if k.startswith("ukf.q_")))
    def test_negative_process_noise(self, key):
        cfg = PipelineConfig({key: -1e-6})
        with pytest.raises(ValueError):
            FusionPipeline(cfg)

    def test_coast_position_deflation(self):
        cfg = PipelineConfig({"coast.position_inflation": 0.5})
        with pytest.raises(ValueError):
            FusionPipeline(cfg)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("key", sorted(
        k for k in DEFAULTS if k.startswith("gates.")))
    def test_nonpositive_gate(self, key, value):
        cfg = PipelineConfig({key: value})
        with pytest.raises(ValueError):
            FusionPipeline(cfg)


    def test_linear_models_update_in_closed_form(self):
        """The models linear in the state keep their matrix, so the engine
        updates them without sigma points."""
        pipe = FusionPipeline()
        models = [pipe._encoder_model, *pipe._encoder_model.blocks,
                  pipe._radar_model, pipe._zupt_model, pipe._gps_model]
        for model in models:
            assert model.matrix is not None, model.name

    def test_encoder_sample_is_one_closed_form_update(self, monkeypatch):
        """The odometry and its vertical-velocity constraint are stacked:
        one engine call, one conditioning, no sigma points, one record per
        path."""
        from navfuse import ukf
        pipe = FusionPipeline()
        pipe.ingest(imu_at(0.0))
        calls = {"ukf_update": 0, "_condition": 0,
                 "generate_sigma_points": 0}
        for owner, name in ((pipeline_module, "ukf_update"),
                            (ukf, "_condition"),
                            (ukf, "generate_sigma_points")):
            def counted(*args, _fn=getattr(owner, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        report, bumped = ingest_counting(pipe, encoder_at(0.005, vx=0.01))
        assert calls == {"ukf_update": 1, "_condition": 1,
                         "generate_sigma_points": 0}
        assert bumped == {"engine_update_calls": 1}
        assert [(r.path, r.accepted) for r in report.updates] == [
            ("encoder", True), ("encoder_vz", True)]

    def test_plain_imu_event_engine_work(self, monkeypatch):
        """A primary-IMU sample with orientation, no ZUPT held and no
        repair firing: one predict and one update of the raw and
        orientation rows stacked, each one sigma set (``_cholesky``); the
        update factors S and whitens both blocks with one solve
        (``_whiten``), and its output is the step's one conditioning (one
        ``np.linalg.cholesky``), as predict leaves its covariance raw.  It
        counts the third sample, because the second one's update, the first
        from the initial quaternion variance, repairs its covariance."""
        from navfuse import ukf
        pipe = FusionPipeline()
        orientation = np.array([1.0, 0.0, 0.0, 0.0])
        pipe.ingest(imu_at(0.0, orientation=orientation))
        pipe.ingest(imu_at(0.01, orientation=orientation))
        calls = dict.fromkeys(("generate_sigma_points", "repair_pd",
                               "_cholesky", "cholesky", "_whiten",
                               "eigvalsh", "ukf_update"), 0)
        for owner, name in ((ukf, "generate_sigma_points"),
                            (ukf, "repair_pd"), (ukf, "_cholesky"),
                            (np.linalg, "cholesky"), (ukf, "_whiten"),
                            (np.linalg, "eigvalsh"),
                            (pipeline_module, "ukf_update")):
            def counted(*args, _fn=getattr(owner, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        report = pipe.ingest(imu_at(0.02, orientation=orientation))
        assert [r.path for r in report.updates] == ["imu_raw",
                                                    "imu_orientation"]
        assert calls == {"generate_sigma_points": 2, "repair_pd": 1,
                         "_cholesky": 2, "cholesky": 1, "_whiten": 1,
                         "eigvalsh": 0, "ukf_update": 1}

    def test_encoder_event_engine_work(self, monkeypatch):
        """An encoder sample once the vertical-velocity window is full, both
        paths accepted and no repair firing: the update's conditioning makes
        the one ``np.linalg.cholesky`` call (``repair_pd``'s check), the
        adapting ``encoder_vz`` estimator the one ``observe`` call, whose
        check factors through the LAPACK seam, and the disabled ``encoder``
        estimator none; no ``np.ix_`` is built."""
        pipe = FusionPipeline()
        pipe.ingest(imu_at(0.0))
        vz = pipe.adaptive["encoder_vz"]
        for k in range(vz.window):
            pipe.ingest(encoder_at(0.0001 * (k + 1)))
        assert vz._filled == vz.window and not pipe.adaptive["encoder"].enabled
        calls = dict.fromkeys(("cholesky", "eigvalsh", "observe", "ix_"), 0)
        for owner, name in ((np.linalg, "cholesky"), (np.linalg, "eigvalsh"),
                            (AdaptiveEstimator, "observe"), (np, "ix_")):
            def counted(*args, _fn=getattr(owner, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        r_before = vz.r
        report = pipe.ingest(encoder_at(0.01, vx=0.01))
        assert [(r.path, r.accepted) for r in report.updates] == [
            ("encoder", True), ("encoder_vz", True)]
        assert calls == {"cholesky": 1, "eigvalsh": 0, "observe": 1, "ix_": 0}
        assert vz.r is not r_before  # the EMA stepped

    def test_coasting_encoder_event_holds_the_frozen_block(self,
                                                           monkeypatch):
        """While coasting, the encoder update holds b_ewz through the mode's
        slice: the state, and the covariance it hands to its conditioning,
        equal bit for bit what the same update holding nothing gives with
        the held entries put back by the former ``np.ix_`` formula."""
        from navfuse import ukf
        pipe = FusionPipeline()
        pipe.ingest(imu_at(0.0))
        pipe.ingest(encoder_at(0.005, vx=0.01, wz=0.01))
        pipe.ingest(imu_at(6.0))  # no GPS for longer than coast.enter_s
        assert pipe.coast.active
        seen, conditioned = [], []
        update, condition = pipeline_module.ukf_update, ukf._condition

        def spied(*args, **kwargs):
            seen.append((args, kwargs))
            return update(*args, **kwargs)

        def recorded(p, *args):
            conditioned.append(p)
            return condition(p, *args)

        monkeypatch.setattr(pipeline_module, "ukf_update", spied)
        monkeypatch.setattr(ukf, "_condition", recorded)
        x0, cov0 = pipe.x, pipe.cov
        report = pipe.ingest(encoder_at(6.005, vx=0.01, wz=0.01))
        assert report.updates[0].accepted
        [(args, kwargs)] = seen
        held = list(range(STATE_DIM))[kwargs["frozen"]]
        assert held == [ENC_YAW_BIAS]
        free = update(*args, **{**kwargs, "frozen": None})
        assert free.x[ENC_YAW_BIAS] != x0[ENC_YAW_BIAS]
        want_x = free.x.copy()
        want_x[held] = x0[held]
        want_p = conditioned[1].copy()
        want_p[np.ix_(held, held)] = cov0[np.ix_(held, held)]
        assert pipe.x.tobytes() == want_x.tobytes()
        assert conditioned[0].tobytes() == want_p.tobytes()

    @pytest.mark.parametrize("stamp, gyro, reason, conditionings", [
        (0.01, (0, 0, 0), "accepted", 1),
        (0.01, (1e300, 0, 0), "gated", 1),
        # sub-steps of 0.5, 0.5, 0.5 and 0.2 s
        (1.7, (0, 0, 0), "accepted", 4),
    ], ids=["accepted", "gated", "gap"])
    def test_imu_step_conditions_once(self, monkeypatch, stamp, gyro,
                                      reason, conditionings):
        """Predict leaves its covariance raw: an IMU step conditions it once
        after its update, through the update's output or, with every block
        gated, one ``_condition``, and once between the sub-steps of a gap
        longer than ``_MAX_STEP_DT``, so the session's covariance is always
        conditioned."""
        from navfuse import ukf
        pipe = FusionPipeline()
        pipe.ingest(imu_at(0.0))
        repairs = []
        repair_pd = ukf.repair_pd

        def counted(p, *args):
            repairs.append(p)
            return repair_pd(p, *args)

        monkeypatch.setattr(ukf, "repair_pd", counted)
        report = pipe.ingest(imu_at(stamp, gyro=gyro))
        assert [r.reason for r in report.updates] == [reason]
        assert len(repairs) == conditionings
        assert np.array_equal(pipe.cov, pipe.cov.T)
        assert np.linalg.eigvalsh(pipe.cov)[0] >= 0.5 * EPSILON_PD


class TestGps:
    def test_first_fix_sets_origin_without_jumping_state(self):
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(0.2))
        before = pipe.state.as_vector().copy()
        report = pipe.ingest(gps_at([5.0, 5.0, 0.0], 0.21))
        assert report.origin_set
        assert pipe.origin is not None
        # the origin-setting fix does not touch the filter state at all
        assert np.array_equal(pipe.state.as_vector(), before)

    def test_position_pulls_toward_fixes(self):
        pipe = FusionPipeline(PipelineConfig())
        events = stationary_stream(10.0, gps_rate=5.0,
                                   gps_offset=(3.0, -2.0, 0.0))
        # first fix only sets the origin at the offset point, so later
        # fixes sit at (0,0,0) in the pipeline frame; use explicit events
        pipe.ingest(imu_at(0.0))
        pipe.ingest(gps_at([0.0, 0.0, 0.0], 0.001))  # origin
        k = 1
        for t in np.arange(0.01, 10.0, 0.01):
            pipe.ingest(imu_at(t))
            pipe.ingest(encoder_at(t))
            if k % 20 == 0:
                pipe.ingest(gps_at([3.0, -2.0, 0.0], t))
            k += 1
        assert np.allclose(pipe.state.position[:2], [3.0, -2.0], atol=0.5)

    def test_quality_rejected_fix_never_reaches_engine(self):
        cfg = PipelineConfig({"gnss.min_fix_type": int(FixType.RTK_FIXED)})
        pipe = FusionPipeline(cfg)
        pipe.ingest(imu_at(0.0))
        calls_before = pipe.diagnostics.get("engine_update_calls", 0)
        report = pipe.ingest(gps_at([0, 0, 0], 0.01,
                                    fix_type=FixType.DGPS))
        assert report.dropped is not None
        assert pipe.diagnostics.get("engine_update_calls",
                                    0) == calls_before
        assert pipe.diagnostics["gps_quality_rejected"] == 1
        assert pipe.origin is None

    def test_out_of_range_coordinates_are_quality_rejected(self):
        pipe = FusionPipeline(PipelineConfig())
        pipe.ingest(imu_at(0.0))
        calls = pipe.diagnostics["engine_update_calls"]
        bad = GpsFixSample(0.01, 95.0, -75.6, 80.0)
        report = pipe.ingest(bad)
        assert report.dropped is not None and pipe.origin is None
        pipe.ingest(gps_at([0, 0, 0], 0.02))  # in range: sets the origin
        bad.stamp = 0.03
        report = pipe.ingest(bad)
        assert report.dropped is not None and not report.updates
        bad.lat, bad.lon = 0.5, -4.0
        assert pipe.ingest(bad).dropped is not None
        assert pipe.diagnostics["gps_quality_rejected"] == 3
        assert pipe.diagnostics["engine_update_calls"] == calls

    @pytest.mark.parametrize("covariance", [
        -4.0 * np.eye(3),                          # fused with d2 < 0
        np.diag([1.0, -1.0, 1.0]),                 # indefinite
        np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]),  # not symmetric
    ])
    def test_fix_with_invalid_covariance_is_quality_rejected(self,
                                                             covariance):
        pipe = FusionPipeline(PipelineConfig())
        pipe.ingest(imu_at(0.0))
        pipe.ingest(gps_at([0, 0, 0], 0.005))  # origin
        for t in np.arange(0.01, 0.5, 0.01):
            pipe.ingest(imu_at(t))
        before = pipe.state.as_vector()
        calls = pipe.diagnostics["engine_update_calls"]
        report = pipe.ingest(gps_at([0.0, 6.4, 0.0], 0.495,
                                    covariance=covariance))
        assert report.dropped is not None and not report.updates
        assert pipe.diagnostics["gps_quality_rejected"] == 1
        assert pipe.diagnostics["engine_update_calls"] == calls
        assert np.array_equal(pipe.state.as_vector(), before)

    @pytest.mark.parametrize("horz, vert", [(-5.0, -5.0), (0.0, 0.0),
                                            (5.0, 0.0)])
    def test_fix_with_nonpositive_error_bound_is_quality_rejected(
            self, horz, vert):
        """A 95% bound is squared into R, so a negative one would pass for
        its magnitude and a zero one would give R = 0."""
        pipe = FusionPipeline(PipelineConfig())
        pipe.ingest(imu_at(0.0))
        pipe.ingest(gps_at([0, 0, 0], 0.005))  # origin
        for t in np.arange(0.01, 0.5, 0.01):
            pipe.ingest(imu_at(t))
        before = pipe.state.as_vector()
        report, bumped = ingest_counting(pipe, gps_at(
            [0.0, 6.4, 0.0], 0.495, err_horz=horz, err_vert=vert))
        assert report.dropped is not None and not report.updates
        assert bumped == {"gps_quality_rejected": 1}
        assert np.array_equal(pipe.state.as_vector(), before)

    def test_spike_gated_and_state_bit_identical(self):
        pipe = FusionPipeline(PipelineConfig())
        pipe.ingest(imu_at(0.0))
        pipe.ingest(gps_at([0, 0, 0], 0.001))  # origin
        t = 0.0
        for t in np.arange(0.01, 5.0, 0.01):
            pipe.ingest(imu_at(t))
            pipe.ingest(encoder_at(t))
            if int(round(t * 100)) % 20 == 0:
                pipe.ingest(gps_at([0, 0, 0], t))
        state_before = pipe.state.as_vector().copy()
        cov_before = pipe.cov.copy()
        report = pipe.ingest(gps_at([500.0, 0, 0], t + 0.001))
        rec = report.updates[-1]
        assert not rec.accepted
        assert rec.d2 > 1e3 * 16.27
        assert np.array_equal(pipe.state.as_vector(), state_before)
        assert np.array_equal(pipe.cov, cov_before)


    @pytest.mark.parametrize("dop", ["hdop", "vdop"])
    def test_fix_without_a_noise_source_is_quality_rejected(self, dop):
        """No covariance, no pair of error bounds and a missing DOP leave
        the noise policy nothing to build R from."""
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(0.5, gps_rate=5.0))
        before = session_of(pipe)
        report, bumped = ingest_counting(
            pipe, gps_at([0.0, 0.0, 0.0], 0.5, err_horz=1.0, **{dop: None}))
        assert bumped == {"gps_quality_rejected": 1}
        assert report.dropped == ("no covariance, error bounds or dilution "
                                  "of precision")
        assert not report.updates
        assert session_of(pipe) == before
        # both bounds are a noise source without the DOPs
        report = pipe.ingest(gps_at([0.0, 0.0, 0.0], 0.51, err_horz=1.0,
                                    err_vert=2.0, **{dop: None}))
        assert report.dropped is None
        assert [r.path for r in report.updates] == ["gps_pos"]

    @pytest.mark.parametrize("field", ["hdop", "vdop", "err_horz",
                                       "err_vert"])
    def test_nonfinite_quality_field_dropped(self, field):
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(0.5, gps_rate=5.0))
        fix = gps_at([0.0, 0.0, 0.0], 0.5,
                     **{"err_horz": 1.0, "err_vert": 2.0, field: np.nan})
        report, bumped = ingest_counting(pipe, fix)
        assert report.dropped == "non-finite gps"
        assert not report.updates
        assert bumped == {"dropped_nonfinite": 1}


class TestGpsNoise:
    def test_horizontal_bound_alone_uses_the_adapted_dop_noise(self):
        """A fix with ``err_horz`` but no ``err_vert`` lacks the bounds the
        policy needs, so it is fused exactly like a fix with neither."""
        config = PipelineConfig({"adaptive.window": 2, "adaptive.alpha": 0.5,
                                 "adaptive.gnss_floor_xy": 0.5})
        fused = []
        for bounds in ({"err_horz": 1.5}, {}):
            pipe = FusionPipeline(config)
            run(pipe, stationary_stream(2.0, gps_rate=5.0))
            est = pipe.adaptive["gps_pos"]
            assert not np.allclose(est.r, est.r0)
            report = pipe.ingest(gps_at([0.3, -0.2, 0.1], 1.99, **bounds))
            assert report.updates[0].accepted
            fused.append((pipe.state.as_vector(), pipe.cov))
        assert np.array_equal(fused[0][0], fused[1][0])
        assert np.array_equal(fused[0][1], fused[1][1])


    @pytest.mark.parametrize("xy, z, floor", [
        (0.0, 0.0, [1.0, 1.0, 4.0]),
        (0.5, 0.0, [0.25, 0.25, 4.0]),
        (0.5, -3.0, [0.25, 0.25, 4.0]),
        (0.0, 3.0, [1.0, 1.0, 9.0]),
    ])
    def test_gnss_floor_at_or_below_zero_floors_at_the_configured_r(
            self, xy, z, floor):
        pipe = FusionPipeline(PipelineConfig({"adaptive.gnss_floor_xy": xy,
                                              "adaptive.gnss_floor_z": z}))
        est = pipe.adaptive["gps_pos"]
        assert est.floor.tolist() == floor
        assert np.diag(est.r).tolist() == [max(f, r) for f, r in
                                           zip(floor, [1.0, 1.0, 4.0])]


class TestYawObservability:
    def test_yaw_variance_stays_wide_without_a_magnetometer(self):
        """Nothing observes yaw on a stationary stream without a
        magnetometer or a GPS course, so its variance must stay wide.  Wide
        quaternion sigma points, renormalized, shrink it: at ``ukf.alpha``
        0.3 or more this fails, so the filter, not this bound, is wrong."""
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(3.0, gps_rate=5.0, encoder=False))
        assert yaw_variance(pipe.state.quaternion,
                            pipe.cov[QUAT, QUAT]) >= 0.05


class TestZupt:
    def test_trigger_thresholds(self):
        assert zupt_trigger(0.04, 0.04)
        assert not zupt_trigger(0.06, 0.01)
        assert not zupt_trigger(0.01, 0.06)
        assert not zupt_trigger(None, 0.01)

    def test_hysteresis_rearm(self):
        cfg = PipelineConfig()
        pipe = FusionPipeline(cfg)
        pipe.ingest(imu_at(0.0))
        pipe.ingest(encoder_at(0.0, vx=0.0))
        pipe.ingest(imu_at(0.01))
        assert pipe._zupt_active
        # between 1x and 1.5x threshold: trigger holds
        pipe.ingest(encoder_at(0.01, vx=0.06))
        pipe.ingest(imu_at(0.02))
        assert pipe._zupt_active
        # above 1.5x: releases
        pipe.ingest(encoder_at(0.02, vx=0.08))
        pipe.ingest(imu_at(0.03))
        assert not pipe._zupt_active
        # must drop below 1x again to re-arm
        pipe.ingest(encoder_at(0.03, vx=0.06))
        pipe.ingest(imu_at(0.04))
        assert not pipe._zupt_active
        pipe.ingest(encoder_at(0.04, vx=0.04))
        pipe.ingest(imu_at(0.05))
        assert pipe._zupt_active

    def test_zupt_updates_emitted_while_held(self):
        pipe = FusionPipeline(PipelineConfig())
        reports = run(pipe, stationary_stream(1.0))
        zupt_recs = [r for r in reports if r.kind == "imu"
                     and any(u.path == "zupt" for u in r.updates)]
        assert len(zupt_recs) > 90


class TestCoast:
    def _run_with_gap(self, gap_s, total_s=14.0, cfg=None):
        pipe = FusionPipeline(cfg or PipelineConfig())
        pipe.ingest(imu_at(0.0))
        pipe.ingest(gps_at([0, 0, 0], 0.001))
        gap_start = 3.0
        reports = []
        for t in np.arange(0.01, total_s, 0.01):
            reports.append(pipe.ingest(imu_at(t)))
            pipe.ingest(encoder_at(t))
            in_gap = gap_start < t < gap_start + gap_s
            if int(round(t * 100)) % 20 == 0 and not in_gap:
                pipe.ingest(gps_at([0, 0, 0], t))
        return pipe, reports

    def test_short_gap_never_coasts(self):
        pipe, reports = self._run_with_gap(4.0)
        assert not any(r.coast for r in reports)

    def test_long_gap_enters_coast_and_recovers(self):
        pipe, reports = self._run_with_gap(8.0)
        coasting = [r.stamp for r in reports if r.coast]
        assert coasting
        assert min(coasting) == pytest.approx(3.0 + 5.0, abs=0.3)
        assert max(coasting) < 11.5  # exits on first accepted fix
        assert pipe.diagnostics["coast_entries"] == 1

    def test_coast_inflates_position_uncertainty(self):
        # identical runs except the coast inflation factor; the variance
        # difference at 2.5 s into the coast is the inflation integral
        base = {"ukf.q_position": 0.01}
        _, r_one = self._run_with_gap(
            8.0, cfg=PipelineConfig({**base,
                                     "coast.position_inflation": 1.0}))
        _, r_ten = self._run_with_gap(
            8.0, cfg=PipelineConfig({**base,
                                     "coast.position_inflation": 10.0}))

        def pvar(reports, t):
            best = min(reports, key=lambda r: abs(r.stamp - t))
            return best.cov_diag[:2].sum()

        # expected extra: (10-1) * q_pos * coast_time * 2 axes ~ 0.45
        diff = pvar(r_ten, 10.5) - pvar(r_one, 10.5)
        assert diff > 0.2

    def test_gate_relax_consumed_once(self):
        cfg = PipelineConfig({"coast.gate_relax": 2.0})
        pipe = FusionPipeline(cfg)
        pipe.ingest(imu_at(0.0))
        pipe.ingest(gps_at([0, 0, 0], 0.001))
        for t in np.arange(0.01, 10.0, 0.01):
            pipe.ingest(imu_at(t))
            pipe.ingest(encoder_at(t))
            if int(round(t * 100)) % 20 == 0 and t < 3.0:
                pipe.ingest(gps_at([0, 0, 0], t))
        assert pipe.coast.active and pipe.coast.relax_armed
        report = pipe.ingest(gps_at([0.5, 0, 0], 10.0))
        rec = report.updates[-1]
        assert rec.threshold == pytest.approx(2.0 * 16.27)
        assert not pipe.coast.relax_armed
        # next fix back to the normal threshold
        pipe.ingest(imu_at(10.01))
        report2 = pipe.ingest(gps_at([0.5, 0, 0], 10.02))
        assert report2.updates[-1].threshold == pytest.approx(16.27)

    def test_b_ewz_frozen_during_coast(self):
        pipe, reports = self._run_with_gap(8.0)
        coast_vals = np.array([r.state.encoder_yaw_bias
                               for r in reports if r.coast])
        assert len(coast_vals) > 100
        # frozen up to sigma-mean rounding noise (weights sum to 1 only to
        # machine precision)
        assert np.max(np.abs(coast_vals - coast_vals[0])) < 1e-12
        coast_vars = [r.cov_diag[22] for r in reports if r.coast]
        assert all(v == pytest.approx(coast_vars[0], rel=1e-9)
                   for v in coast_vars)


class TestVslam:
    def _vslam_pipe(self):
        cfg = PipelineConfig({"vslam.enabled": True, "gnss.enabled": False,
                              "vslam.sigma_pos": 0.05,
                              "vslam.sigma_orient": 0.01})
        return FusionPipeline(cfg)

    def _drive(self, pipe, t0, t1, pose_offset=np.zeros(3)):
        outcomes = []
        for t in np.arange(t0, t1, 0.01):
            pipe.ingest(imu_at(t))
            pipe.ingest(encoder_at(t))
            if int(round(t * 100)) % 10 == 0:
                report = pipe.ingest(VslamPoseSample(
                    t, pose_offset.astype(float),
                    np.array([1.0, 0, 0, 0])))
                if report.updates:
                    outcomes.append((t, report.updates[-1].accepted))
        return outcomes

    def test_reinit_reanchors_after_exactly_n_rejections(self):
        pipe = self._vslam_pipe()
        pipe.ingest(imu_at(0.0))
        good = self._drive(pipe, 0.01, 3.0)
        assert all(a for _, a in good)
        state_before = pipe.state.as_vector().copy()
        jumped = self._drive(pipe, 3.01, 5.0, pose_offset=np.array(
            [50.0, 0.0, 0.0]))
        rejected = [a for _, a in jumped]
        assert rejected[:10] == [False] * 10
        assert pipe.diagnostics["vslam_reanchors"] == 1
        # recovery: accepted again shortly after the re-anchor
        assert any(rejected[10:15])
        # position continuous (no teleport toward the jumped map)
        assert np.linalg.norm(pipe.state.position[:2]) < 1.0

    def test_nine_rejections_then_accept_resets_counter(self):
        pipe = self._vslam_pipe()
        pipe.ingest(imu_at(0.0))
        self._drive(pipe, 0.01, 2.0)
        t = 2.0
        for k in range(9):
            t += 0.1
            pipe.ingest(imu_at(round(t, 3)))
            pipe.ingest(VslamPoseSample(round(t, 3),
                                        np.array([50.0, 0, 0]),
                                        np.array([1.0, 0, 0, 0])))
        assert pipe.vslam_anchor.rejections == 9
        t += 0.1
        pipe.ingest(imu_at(round(t, 3)))
        pipe.ingest(VslamPoseSample(round(t, 3), np.zeros(3),
                                    np.array([1.0, 0, 0, 0])))
        assert pipe.vslam_anchor.rejections == 0
        assert pipe.diagnostics.get("vslam_reanchors", 0) == 0

    def test_late_poses_reanchor_against_the_pose_at_their_stamp(self):
        """The VSLAM map jumps 50 m at t = 8 s and every pose arrives 0.3 s
        late, so it is gated at the snapshot at its stamp.  Re-anchoring
        against the live pose instead, 0.3 s further along a 2 m/s figure
        eight, gave an anchor that rejected the next poses too: 10
        re-anchors and 3 of the next 40 poses accepted."""
        from navfuse.simulator import SimScenario, generate
        _, events = generate(SimScenario(
            seed=5, duration_s=20.0,
            trajectory={"type": "figure_eight", "radius": 15.0,
                        "speed": 2.0},
            encoder={"rate_hz": 50.0},
            vslam={"enabled": True, "rate_hz": 10.0, "delay_s": 0.3,
                   "reinits": [{"t": 8.0, "offset": [50.0, 0.0, 0.0]}]}))
        pipe = FusionPipeline(PipelineConfig({"vslam.enabled": True,
                                              "gnss.enabled": False}))
        accepted = []
        for event in events:
            report = pipe.ingest(event)
            if report.kind == "vslam" and report.updates \
                    and event.stamp >= 8.0:
                accepted.append(report.updates[0].accepted)
        assert accepted[:10] == [False] * 10
        assert pipe.diagnostics["vslam_reanchors"] == 1
        assert sum(accepted[10:50]) >= 38


class TestAuxiliarySensors:
    def test_gps_velocity_updates_velocity(self):
        cfg = PipelineConfig({"gnss.velocity_enabled": True,
                              "encoder.enabled": False,
                              "zupt.enabled": False})
        pipe = FusionPipeline(cfg)
        for t in np.arange(0.0, 3.0, 0.01):
            pipe.ingest(imu_at(t))
            if int(round(t * 100)) % 20 == 0:
                pipe.ingest(GpsVelocitySample(t, np.array([1.0, 0.0])))
        assert pipe.state.velocity[0] == pytest.approx(1.0, abs=0.2)

    def test_radar_updates_body_velocity(self):
        cfg = PipelineConfig({"radar.enabled": True,
                              "encoder.enabled": False,
                              "zupt.enabled": False})
        pipe = FusionPipeline(cfg)
        for t in np.arange(0.0, 3.0, 0.01):
            pipe.ingest(imu_at(t))
            if int(round(t * 100)) % 10 == 0:
                pipe.ingest(RadarVelocitySample(t, np.array([2.0, 0.0])))
        assert pipe.state.velocity[0] == pytest.approx(2.0, abs=0.3)

    def test_secondary_imu_fused_as_measurement_only(self):
        cfg = PipelineConfig({"imu2.enabled": True})
        pipe = FusionPipeline(cfg)
        pipe.ingest(imu_at(0.0))
        stamp_before = pipe.ring.last_stamp
        report = pipe.ingest(ImuSample(0.005, np.zeros(3), GRAVITY.copy(),
                                       None, source=2))
        assert report.kind == "imu2"
        assert report.updates  # fused
        assert pipe.ring.last_stamp == stamp_before  # clock untouched
        cfg_off = PipelineConfig()
        pipe2 = FusionPipeline(cfg_off)
        pipe2.ingest(imu_at(0.0))
        assert pipe2.ingest(ImuSample(0.005, np.zeros(3), GRAVITY.copy(),
                                      None, source=2)).dropped is not None


class TestRetrodiction:
    def test_delayed_gps_matches_inorder_oracle(self):
        # identical measurements, one stream delivers GPS 0.2 s late
        def fixes():
            return {round(t, 2): gps_at([0.5, 0.2, 0.0], t)
                    for t in np.arange(0.2, 6.0, 0.2)}

        turn = (0.0, 0.0, 0.3)

        def build(delayed):
            # run long enough that every delayed fix still arrives
            events = []
            fix_map = fixes()
            for k in range(625):
                t = round(k * 0.01, 3)
                events.append(imu_at(t, gyro=turn))
                key = round(t - (0.2 if delayed else 0.0), 2)
                if key in fix_map and abs(
                        (t - (0.2 if delayed else 0.0)) - key) < 1e-9:
                    events.append(fix_map.pop(key))
            assert not fix_map
            return events

        def final_state(events):
            cfg = PipelineConfig({"encoder.enabled": False,
                                  "zupt.enabled": False,
                                  "gnss.heading_enabled": False})
            pipe = FusionPipeline(cfg)
            run(pipe, events)
            return pipe.state

        inorder = final_state(build(delayed=False))
        delayed = final_state(build(delayed=True))
        assert np.max(np.abs(delayed.position - inorder.position)) < 1e-6
        assert rotation_distance(delayed.quaternion,
                                 inorder.quaternion) < 1e-8

    def test_replay_reuses_the_live_measurement_vectors(self, monkeypatch):
        """A rewind over 20 IMU steps re-derives none of their measurement
        vectors: no Euler extraction, the stored vectors are the ones the
        live steps fused, and each replayed step hands the engine the very
        array its live step fused (``Snapshot.z``)."""
        fused = []
        live_update = pipeline_module.ukf_update

        def recording(state, cov, z, model, *args, **kw):
            fused.append((model.name, np.array(z), z))
            return live_update(state, cov, z, model, *args, **kw)

        monkeypatch.setattr(pipeline_module, "ukf_update", recording)
        orientation = euler_to_quat(0.01, -0.02, 0.3)
        pipe = FusionPipeline(PipelineConfig({"encoder.enabled": False}))
        pipe.ingest(imu_at(0.0, orientation=orientation))
        pipe.ingest(gps_at([0, 0, 0], 0.0))  # origin
        live = {}
        for k in range(1, 31):
            fused.clear()
            pipe.ingest(imu_at(k * 0.01, orientation=orientation))
            entry = pipe.ring.entries[-1]
            assert [name for name, *_ in fused] == ["imu_raw"]
            assert np.array_equal(
                np.concatenate([entry.z_raw, entry.z_orient]), fused[0][1])
            live[entry.stamp] = fused[0][2]

        euler_calls = []
        live_euler = pipeline_module.quat_to_euler
        monkeypatch.setattr(pipeline_module, "quat_to_euler",
                            lambda q: euler_calls.append(q) or live_euler(q))
        assert sum(e.stamp > 0.1 for e in pipe.ring.entries) == 20
        fused.clear()
        pipe.ingest(gps_at([0.1, 0, 0], 0.1))
        assert pipe.diagnostics["retro_replays"] == 1
        assert len(euler_calls) == 0
        replayed = [z for name, _, z in fused if name == "imu_raw"]
        assert len(replayed) == 20
        assert all(z is live[entry.stamp] for z, entry in
                   zip(replayed, pipe.ring.entries[-20:], strict=True))

    def test_gated_late_fix_rewinds_nothing(self):
        """A late fix far outside the gate leaves the live state and every
        snapshot as they were, so an encoder update fused inside its window
        survives it."""
        def build(encoder):
            pipe = FusionPipeline(PipelineConfig({"zupt.enabled": False}))
            pipe.ingest(imu_at(0.0))
            pipe.ingest(gps_at([0, 0, 0], 0.0))  # origin
            for k in range(1, 51):
                pipe.ingest(imu_at(k * 0.01))
                if encoder and k == 45:
                    pipe.ingest(encoder_at(k * 0.01 + 0.005, vx=0.5))
            return pipe

        pipe = build(encoder=True)
        assert not np.array_equal(pipe.x, build(encoder=False).x)
        x, cov = pipe.x, pipe.cov
        arrays = [(e.x, e.cov) for e in pipe.ring.entries]
        report, bumped = ingest_counting(pipe, gps_at([500.0, 0, 0], 0.3))
        assert [(r.path, r.accepted) for r in report.updates] == [
            ("gps_pos", False)]
        assert bumped == {"engine_update_calls": 1, "retro_unchanged": 1}
        assert pipe.x is x and pipe.cov is cov
        assert all(e.x is ex and e.cov is ec
                   for e, (ex, ec) in zip(pipe.ring.entries, arrays))

    def test_too_old_measurement_dropped(self):
        cfg = PipelineConfig({"retro.capacity": 10})
        pipe = FusionPipeline(cfg)
        pipe.ingest(imu_at(0.0))
        pipe.ingest(gps_at([0, 0, 0], 0.0))  # origin
        for t in np.arange(0.01, 2.0, 0.01):
            pipe.ingest(imu_at(t))
        report = pipe.ingest(gps_at([0, 0, 0], 0.5))
        assert report.dropped is not None
        assert pipe.diagnostics["retro_dropped_too_old"] == 1


class TestFusionRouting:
    """Which events rewind: the kinds the sensor table marks ``delayed``."""

    def _pipe(self, **overrides):
        pipe = FusionPipeline(PipelineConfig({**ALL_ON, **overrides}))
        pipe.ingest(imu_at(0.0))
        pipe.ingest(gps_at([0, 0, 0], 0.0))  # origin
        for t in np.arange(0.01, 0.5, 0.01):
            pipe.ingest(imu_at(t))
        return pipe

    #: kind -> the paths one event (``event_of``, which gives an IMU no
    #: orientation) records, and the engine calls it makes: the encoder's
    #: two paths are one stacked call
    PROMPT = {"encoder": (["encoder", "encoder_vz"], 1),
              "radar": (["radar_vel"], 1),
              "imu2": (["imu_raw"], 1)}

    @pytest.mark.parametrize("kind", ["encoder", "radar", "imu2"])
    def test_prompt_kind_stamped_in_the_past_is_fused_where_it_arrives(
            self, kind):
        pipe = self._pipe()
        clock = pipe.ring.last_stamp
        history = [e.x.copy() for e in pipe.ring.entries]
        report, bumped = ingest_counting(pipe, event_of(kind, 0.3, 0.2))
        assert report.dropped is None
        paths, engine_calls = self.PROMPT[kind]
        assert [rec.path for rec in report.updates] == paths
        assert bumped == {"engine_update_calls": engine_calls}
        assert pipe.ring.last_stamp == clock
        assert all(np.array_equal(e.x, old)
                   for e, old in zip(pipe.ring.entries, history))

    @pytest.mark.parametrize("kind", ["gps", "gps_vel", "vslam"])
    def test_late_kind_replays_once_or_is_dropped_when_too_old(self, kind):
        pipe = self._pipe(**{"retro.capacity": 10})
        report, bumped = ingest_counting(pipe, event_of(kind, 0.45, 0.2))
        assert report.dropped is None and report.updates
        assert bumped["retro_replays"] == 1
        report, bumped = ingest_counting(pipe, event_of(kind, 0.2, 0.2))
        assert report.dropped == "older than replay buffer"
        assert not report.updates
        assert bumped == {"retro_dropped_too_old": 1}

    @pytest.mark.parametrize("kind", ["gps", "gps_vel", "vslam"])
    def test_without_retrodiction_a_late_kind_is_fused_where_it_arrives(
            self, kind):
        """The ablation fuses a late event at the live state, as if it were
        stamped at the clock: one engine call, no rewind."""
        pipe = self._pipe(**{"retro.enabled": False})
        live = self._pipe()
        history = [e.x.copy() for e in pipe.ring.entries]
        report, bumped = ingest_counting(pipe, event_of(kind, 0.3, 0.2))
        assert report.dropped is None and report.updates[0].accepted
        assert bumped == {"engine_update_calls": 1}
        assert all(np.array_equal(e.x, old)
                   for e, old in zip(pipe.ring.entries, history))
        live.ingest(event_of(kind, live.ring.last_stamp, 0.2))
        assert np.array_equal(pipe.x, live.x)
        assert np.array_equal(pipe.cov, live.cov)

    @pytest.mark.parametrize("gate, paths", [
        (16.27, ["gps_pos", "gps_heading"]),
        (1e-6, ["gps_pos"]),
    ])
    def test_heading_update_only_after_an_accepted_position(self, gate,
                                                            paths):
        pipe = self._pipe(**{"gates.gps_pos": gate})
        # an anchor 3 m behind at 6 m/s: both runs plan a heading update
        pipe._heading_anchor = (np.array([-3.0, 0.0]), 0.0, 2.0)
        report = pipe.ingest(gps_at([0.0, 0.0, 0.0], 0.5))
        assert [rec.path for rec in report.updates] == paths
        assert report.updates[0].accepted == (len(paths) == 2)


class TestLifecycle:
    def test_reset_clears_session_state(self):
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(2.0, gps_rate=5.0))
        assert pipe.origin is not None
        pipe.reset()
        assert pipe.origin is None
        assert len(pipe.ring) == 0
        assert np.allclose(pipe.state.as_vector()[:3], 0.0)
        report = pipe.ingest(imu_at(100.0))
        assert report.dropped is None
        fix = pipe.ingest(gps_at([1.0, 0, 0], 100.001))
        assert fix.origin_set  # new origin after reset

    def test_checkpoint_while_coasting_on_numpy_stamps(self, tmp_path):
        """Numpy stamps leave the coast flag a Python bool, which a
        checkpoint can hold."""
        path = str(tmp_path / "ckpt.json")
        pipe = FusionPipeline(PipelineConfig({"gnss.enabled": False}))
        run(pipe, [imu_at(t) for t in np.arange(0.0, 6.0, 0.01)])
        assert pipe.coast.active
        pipe.save_checkpoint(path)
        resumed = FusionPipeline(PipelineConfig({"gnss.enabled": False}))
        resumed.load_checkpoint(path)
        assert resumed.coast == pipe.coast

    def test_checkpoint_roundtrip_reproduces_reports(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        tail = []
        for k in range(200, 400):
            t = k * 0.01
            tail.append(imu_at(t))
            tail.append(encoder_at(t))
            if k % 20 == 0:
                tail.append(gps_at([0.3, 0, 0], t))

        pipe1 = FusionPipeline(PipelineConfig())
        run(pipe1, stationary_stream(2.0, gps_rate=5.0))
        pipe1.save_checkpoint(path)
        cont1 = [r.state.as_vector() for r in run(pipe1, tail)
                 if r.kind == "imu"]

        pipe2 = FusionPipeline(PipelineConfig())
        pipe2.load_checkpoint(path)
        cont2 = [r.state.as_vector() for r in run(pipe2, tail)
                 if r.kind == "imu"]
        assert np.array_equal(np.array(cont1), np.array(cont2))

    def test_checkpoint_mid_ring_then_late_fix_replays_loaded_steps(
            self, tmp_path):
        """A checkpoint taken with a full ring, then a late fix that
        rewinds across the loaded snapshots: each one's step, read from the
        stored fields (a 0.65 s gap of two predict sub-steps, ZUPT rows
        while stationary, orientation rows), replays bit for bit as the
        uninterrupted run's live one."""
        path = str(tmp_path / "ckpt.json")
        orientation = euler_to_quat(0.01, -0.02, 0.3)
        head, tail = [gps_at([0, 0, 0], 0.0)], []
        for k in [*range(51), *range(115, 240)]:  # a gap from 0.5 to 1.15 s
            part = head if k < 200 else tail
            part += [imu_at(k / 100, orientation=orientation),
                     encoder_at(k / 100 + 0.005)]
            if k == 210:  # 1.1 s late: it rewinds to the snapshot at 0.5 s
                part.append(gps_at([0.2, 0, 0], 1.0))

        def reports(pipe, part):
            return [(r.kind, r.dropped, r.zupt, r.state.as_vector().tobytes(),
                     r.cov_diag.tobytes(),
                     [(u.path, u.reason, u.d2, u.innovation.tobytes())
                      for u in r.updates]) for r in run(pipe, part)]

        pipe = FusionPipeline(PipelineConfig())
        reports(pipe, head)
        assert len(pipe.ring) == 100 and pipe.ring.entries[0].stamp < 0.5
        stamps = [e.stamp for e in pipe.ring.entries]
        assert max(np.diff(stamps)) > 0.5  # two predict sub-steps
        assert any(e.zupt_active for e in pipe.ring.entries)
        pipe.save_checkpoint(path)
        resumed = FusionPipeline(PipelineConfig())
        resumed.load_checkpoint(path)
        for live, loaded in zip(pipe.ring.entries, resumed.ring.entries,
                                strict=True):
            assert (live.stamp, live.z.tobytes(), live.zupt_active,
                    live.coast_active) == (loaded.stamp, loaded.z.tobytes(),
                                           loaded.zupt_active,
                                           loaded.coast_active)
        want = reports(pipe, tail)
        assert pipe.diagnostics["retro_replays"] == 1
        assert reports(resumed, tail) == want
        assert resumed.diagnostics == pipe.diagnostics

    def test_checkpoint_inside_a_filling_window_resumes(self, tmp_path):
        """The checkpoint holds 9 of the 20 rows of ``gps_pos``'s window
        (the first fix only sets the origin); the tail fills it, so the
        first adapted R comes from rows saved in the checkpoint and rows
        fed after it."""
        path = str(tmp_path / "ckpt.json")
        config = PipelineConfig({"adaptive.window": 20})
        tail = stationary_stream(6.0, gps_rate=5.0,
                                 gps_offset=(0.3, -0.2, 0.5))[2 * 200 + 10:]

        pipe1 = FusionPipeline(config)
        run(pipe1, stationary_stream(2.0, gps_rate=5.0))
        est = pipe1.adaptive["gps_pos"]
        assert est._filled == 9
        r_before = est.r.copy()
        pipe1.save_checkpoint(path)
        pipe2 = FusionPipeline(config)
        pipe2.load_checkpoint(path)
        cont1, cont2 = run(pipe1, tail), run(pipe2, tail)

        assert est._filled == 20 and not np.array_equal(est.r, r_before)
        assert len(cont1) == len(cont2) == len(tail)

        def records(report):
            return [{**vars(rec), "innovation": rec.innovation.tobytes()}
                    for rec in report.updates]

        for a, b in zip(cont1, cont2):
            assert records(a) == records(b)
            assert np.array_equal(a.state.as_vector(), b.state.as_vector())
            assert np.array_equal(a.cov_diag, b.cov_diag)
        for name, est1 in pipe1.adaptive.items():
            est2 = pipe2.adaptive[name]
            assert np.array_equal(est1.r, est2.r)
            assert np.array_equal(est1._innovations, est2._innovations)

    def test_checkpoint_after_huge_gyro_sample_resumes(self, tmp_path):
        """A finite gyro whose norm overflows leaves the largest float as
        the IMU rate reading, which a checkpoint saves as strict JSON and
        loads like any other."""
        path = str(tmp_path / "ckpt.json")
        head = [imu_at(k * 0.01) for k in range(20)]
        head.append(imu_at(0.2, gyro=(1.5e308, 1.5e308, 0)))
        tail = [e for k in range(21, 120)
                for e in (imu_at(k * 0.01), encoder_at(k * 0.01 + 0.005))]

        pipe1 = FusionPipeline(PipelineConfig())
        run(pipe1, head)
        assert pipe1._last_imu_rate == np.finfo(float).max
        pipe1.save_checkpoint(path)
        cont1 = [(r.state.as_vector(), r.cov_diag) for r in run(pipe1, tail)]

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        with open(path, encoding="utf-8") as fh:
            json.loads(fh.read(), parse_constant=refuse)
        pipe2 = FusionPipeline(PipelineConfig())
        pipe2.load_checkpoint(path)
        assert pipe2._last_imu_rate == np.finfo(float).max
        cont2 = [(r.state.as_vector(), r.cov_diag) for r in run(pipe2, tail)]
        assert np.array_equal(np.array(cont1), np.array(cont2))

    def test_reset_assigns_exactly_the_session(self):
        """``_SESSION`` is what checkpoints save, so an attribute ``reset``
        assigns but the declaration misses would not survive a resume."""
        assigned = []

        class Recording(FusionPipeline):
            def __setattr__(self, name, value):
                assigned.append(name)
                super().__setattr__(name, value)

        pipe = FusionPipeline(PipelineConfig())
        pipe.__class__ = Recording
        pipe.reset()
        assert sorted(assigned) == sorted(FusionPipeline._SESSION)

    def test_checkpoint_stores_exactly_the_session(self):
        """A session attribute the stored form forgets would not survive a
        resume."""
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(0.5, gps_rate=5.0))
        assert set(pipe._session_doc()) == set(FusionPipeline._SESSION)

    @pytest.mark.parametrize("keys, value", [
        ((), []),                                           # wrong root type
        (("version",), 3),
        (("session", "_zupt_active"), None),                # missing key
        (("session", "x"), array_doc(np.zeros(5))),
        (("session", "x"), [0.0] * 3 + [1.0] + [0.0] * 19),
        (("session", "ring", 0, 1), array_doc(np.ones(23))),  # non-unit quat
        (("session", "cov"), array_doc(np.zeros((23, 3)))),
        (("session", "cov", "f8"), "not base64!"),          # garbled bytes
        (("session", "cov", "f8"),                          # cut short
         array_doc(np.eye(23))["f8"][:-8]),
        (("session", "cov", "shape"), [23, 24]),            # shape mismatch
        (("session", "ring", 0, 3), array_doc(np.zeros(5))),
        (("session", "ring", 0, 4), array_doc(np.array([0.0, np.nan]))),
        (("session", "coast", 2), None),                    # field missing
        (("session", "adaptive", "encoder_vz", 0),
         array_doc(np.array([[np.nan]]))),
        (("session", "adaptive", "gps_pos", 0),
         array_doc(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0]]))),
        (("session", "adaptive", "gps_pos", 0), array_doc(np.eye(2))),
        (("session", "adaptive", "gps_pos", 0),                # floor 1, 1, 4
         array_doc(np.eye(3) * 0.5)),
        (("session", "adaptive", "gps_pos", 1), array_doc(np.zeros((7, 3)))),
        (("session", "adaptive", "gps_pos", 1),
         array_doc(np.pad([[np.nan, 0, 0]], ((49, 0), (0, 0))))),
        (("session", "adaptive", "gps_pos", 2), 51),
        (("session", "adaptive", "gps_pos", 2), -1),
        (("session", "adaptive", "gps_pos", 2), True),
        (("session", "adaptive", "encoder_vz"), None),
        (("session", "coast", 1), "x"),
        (("session", "vslam_anchor", 0), array_doc(np.zeros(2))),
        (("session", "_heading_anchor"), 5),
        (("session", "ring", 0, 6), 5),
        (("session", "_last_imu_rate"), float("nan")),
        (("session", "_last_encoder_speed"), -1.0),
        (("session", "ring", 1, 0), 0.0),                   # not increasing
        (("session", "ring"),                               # 101 snapshots
         lambda ring: ring + [[ring[-1][0] + 0.01, *ring[-1][1:]]]),
        (("session", "origin", 0), 2.0),                    # lat > pi/2
        (("session", "observe"), 5),                        # unknown key
        (("session", "vslam_anchor", 1), array_doc(np.zeros(4))),
        (("session", "_last_raw_vslam"),
         [array_doc(np.zeros(3)), array_doc(np.zeros(4))]),
        (("session", "_jump_stamp"), 10 ** 400),            # beyond a float
        # a step no live run takes, of 2e9 predict sub-steps
        (("session", "ring", -1, 0), 1e9),
    ], ids=["root", "version_3", "missing", "state_shape", "state_list",
            "snapshot_state", "cov_shape", "garbled", "truncated",
            "payload_shape", "snapshot_z_raw", "snapshot_z_orient",
            "missing_attribute", "estimator_r_nan", "estimator_r_indefinite",
            "estimator_r_size", "adaptive_below_floor", "innovation_window",
            "innovation_nan", "innovation_count_over",
            "innovation_count_negative",
            "innovation_count_bool", "estimator_missing", "coast_stamp_type",
            "vslam_anchor_shape", "heading_anchor_type",
            "snapshot_mode_type", "imu_rate_nan", "encoder_speed_negative",
            "snapshot_order", "ring_over_capacity", "origin_range",
            "unknown_session_key", "anchor_quaternion_zero",
            "raw_vslam_quaternion_zero", "stamp_huge_int", "snapshot_gap"])
    def test_malformed_checkpoint_changes_nothing(self, tmp_path, keys,
                                                  value):
        path = tmp_path / "ckpt.json"
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(1.0, gps_rate=5.0))
        pipe.save_checkpoint(str(path))
        doc = json.loads(path.read_text())
        if not keys:
            doc = value
        else:
            *parents, last = keys
            target = doc
            for key in parents:
                target = target[key]
            if value is None:
                del target[last]
            elif callable(value):
                target[last] = value(target[last])
            else:
                target[last] = value
        path.write_text(json.dumps(doc))
        run(pipe, stationary_stream(1.5, gps_rate=5.0)[-50:])
        before = {name: getattr(pipe, name) for name in pipe._SESSION}
        counts = dict(pipe.diagnostics)
        with pytest.raises(CheckpointError):
            pipe.load_checkpoint(str(path))
        assert all(getattr(pipe, name) is old for name, old in before.items())
        assert pipe.diagnostics == counts

    def test_deeply_nested_checkpoint_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(CheckpointError):
            FusionPipeline(PipelineConfig()).load_checkpoint(str(path))

    def test_checkpoint_config_hash_guard(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        pipe = FusionPipeline(PipelineConfig())
        run(pipe, stationary_stream(0.5))
        pipe.save_checkpoint(path)
        other = FusionPipeline(PipelineConfig({"ukf.alpha": 0.2}))
        with pytest.raises(CheckpointError, match="configuration"):
            other.load_checkpoint(path)


class TestBewzObservability:
    def test_variance_decreases_with_gps_heading(self):
        from navfuse.simulator import SimScenario, generate
        scenario = SimScenario.from_dict({
            "seed": 11, "duration_s": 40.0,
            "trajectory": {"type": "circle", "radius": 15.0, "speed": 3.0,
                           "accel": 0.5},
            "imu": {"rate_hz": 100.0, "sigma_gyro": 0.003,
                    "sigma_accel": 0.03, "orientation": False},
            "encoder": {"enabled": True, "rate_hz": 50.0, "sigma_v": 0.02,
                        "sigma_wz": 0.01, "bias_wz": 0.005},
            "gps": {"enabled": True, "rate_hz": 5.0, "sigma_xy": 0.5,
                    "sigma_z": 1.0},
        })
        truth, events = generate(scenario)
        cfg = PipelineConfig({"gnss.sigma_xy": 0.5, "gnss.sigma_z": 1.0,
                              "imu.sigma_gyro": 0.003,
                              "encoder.sigma_vx": 0.02,
                              "encoder.sigma_vy": 0.02,
                              "encoder.sigma_wz": 0.01})
        pipe = FusionPipeline(cfg)
        var_start, var_end = None, None
        for e in events:
            r = pipe.ingest(e)
            if r.kind == "imu" and r.dropped is None:
                if var_start is None and r.stamp > 5.0:
                    var_start = r.cov_diag[22]
                var_end = r.cov_diag[22]
        assert var_end < var_start

    def test_bias_recovered_across_a_gps_blackout(self):
        """The paper's 23rd state: the encoder yaw-rate bias is identified
        online, held while coasting through a blackout, and recovered with
        the simulator's sign (``core.ENC_YAW_BIAS``)."""
        from navfuse.simulator import SimScenario, generate
        bias = 0.02
        _, events = generate(SimScenario.from_dict({
            "seed": 1, "duration_s": 30.0,
            "trajectory": {"type": "waypoints", "loop": True,
                           "points": [[0, 0], [20, 0], [20, 15], [0, 15]]},
            "encoder": {"rate_hz": 50.0, "bias_wz": bias},
            "gps": {"rate_hz": 5.0,
                    "dropouts": [{"start": 15.0, "end": 25.0}]},
        }))
        pipe = FusionPipeline(PipelineConfig())
        assert any(r.coast for r in run(pipe, events))
        assert abs(pipe.state.encoder_yaw_bias - bias) < 0.005

    def test_constant_without_heading_and_noise(self):
        # no GPS, no encoder: nothing couples to the encoder bias state
        cfg = PipelineConfig({"gnss.enabled": False,
                              "encoder.enabled": False,
                              "zupt.enabled": False,
                              "ukf.q_ewz": 0.0})
        pipe = FusionPipeline(cfg)
        values = []
        for t in np.arange(0.0, 3.0, 0.01):
            r = pipe.ingest(imu_at(t, gyro=(0, 0, 0.1)))
            values.append(r.state.encoder_yaw_bias)
        assert np.max(np.abs(np.asarray(values))) < 1e-13
