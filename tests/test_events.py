import io

import numpy as np
import pytest

from navfuse.events import (
    EncoderSample,
    FixType,
    GpsFixSample,
    GpsVelocitySample,
    ImuSample,
    RadarVelocitySample,
    StreamFormatError,
    VslamPoseSample,
    event_kind,
    event_to_line,
    line_to_event,
    read_stream,
    write_stream,
)


def sample_events():
    return [
        ImuSample(0.00, np.array([0.1, 0.2, 0.3]),
                  np.array([0.0, 0.0, 9.81]),
                  np.array([1.0, 0.0, 0.0, 0.0])),
        ImuSample(0.01, np.array([0.1, 0.2, 0.3]),
                  np.array([0.0, 0.0, 9.81])),
        EncoderSample(0.01, np.array([1.5, -0.02]), 0.21),
        GpsFixSample(0.2, np.radians(45.0), np.radians(-75.0), 82.0,
                     FixType.RTK_FLOAT, 1.2, 1.8, 11, 2.5, 4.0),
        GpsFixSample(0.4, np.radians(45.0), np.radians(-75.0), 82.0),
        GpsVelocitySample(0.2, np.array([1.2, -0.4])),
        RadarVelocitySample(0.3, np.array([1.5, 0.02])),
        VslamPoseSample(0.25, np.array([1.0, 2.0, 0.1]),
                        np.array([0.9689, 0.0, 0.0, 0.2474]),
                        np.array([0.01, 0.01, 0.01, 1e-4, 1e-4, 1e-4])),
        VslamPoseSample(0.35, np.array([1.0, 2.0, 0.1]),
                        np.array([1.0, 0.0, 0.0, 0.0])),
    ]


class TestRoundTrip:
    def test_all_kinds_roundtrip_exactly(self):
        for event in sample_events():
            back = line_to_event(event_to_line(event))
            assert type(back) is type(event)
            assert back.stamp == event.stamp
            for attr in ("gyro", "accel", "orientation", "velocity",
                         "velocity_en", "velocity_body", "position",
                         "quaternion", "cov_diag"):
                if hasattr(event, attr):
                    a, b = getattr(event, attr), getattr(back, attr)
                    if a is None:
                        assert b is None
                    else:
                        assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_gps_fields_roundtrip(self):
        fix = sample_events()[3]
        back = line_to_event(event_to_line(fix))
        assert back.fix_type == FixType.RTK_FLOAT
        assert back.hdop == 1.2 and back.vdop == 1.8
        assert back.satellites == 11
        assert back.err_horz == 2.5 and back.err_vert == 4.0
        no_err = line_to_event(event_to_line(sample_events()[4]))
        assert no_err.err_horz is None and no_err.err_vert is None
        # error bounds without DOPs or a satellite count: -1 marks absent
        no_dop = GpsFixSample(0.6, np.radians(45.0), np.radians(-75.0), 82.0,
                              FixType.GPS, None, None, None, 2.5, 4.0)
        back = line_to_event(event_to_line(no_dop))
        assert (back.hdop, back.vdop, back.satellites) == (None, None, None)
        assert back.err_horz == 2.5 and back.err_vert == 4.0

    def test_stream_write_read(self):
        buf = io.StringIO()
        events = sample_events()
        assert write_stream(events, buf) == len(events)
        buf.seek(0)
        back = list(read_stream(buf))
        assert len(back) == len(events)
        assert [type(e) for e in back] == [type(e) for e in events]

    def test_identical_serialization_is_byte_stable(self):
        lines1 = [event_to_line(e) for e in sample_events()]
        lines2 = [event_to_line(e) for e in sample_events()]
        assert lines1 == lines2


class TestErrors:
    def test_bad_line_reports_line_number(self):
        with pytest.raises(StreamFormatError, match="line 3"):
            line_to_event("0.01 imu 1 2", lineno=3)

    def test_unknown_kind(self):
        with pytest.raises(StreamFormatError, match="unknown sensor"):
            line_to_event("0.0 sonar 1 2 3", lineno=1)

    @pytest.mark.parametrize("kind, counts", [
        ("imu", "6 or 10"), ("imu2", "6 or 10"), ("encoder", "3"),
        ("gps", "9"), ("gps_vel", "2"), ("radar", "2"), ("vslam", "13"),
    ])
    def test_wrong_column_count(self, kind, counts):
        for n in (1, 11, 14):
            with pytest.raises(StreamFormatError,
                               match=f"line 4: {kind} needs {counts} cols"):
                line_to_event(f"0.5 {kind} " + " 0.5" * n, lineno=4)

    def test_bad_number(self):
        with pytest.raises(StreamFormatError):
            line_to_event("0.0 encoder 1 x 3", lineno=1)

    @pytest.mark.parametrize("cols", [
        "45.0 -75.6 80.0 9 1.0 1.0 8 -1 -1",      # no such fix type
        "45.0 -75.6 80.0 1 0.0 1.0 8 -1 -1",      # hdop of 0
        "45.0 -75.6 80.0 nan 1.0 1.0 8 -1 -1",    # NaN fix type
        "45.0 -75.6 80.0 inf 1.0 1.0 8 -1 -1",    # infinite fix type
        "45.0 -75.6 80.0 1 1.0 1.0 nan -1 -1",    # NaN satellite count
        "45.0 -75.6 80.0 1.5 1.0 1.0 8 -1 -1",    # fractional fix type
        "45.0 -75.6 80.0 1 1.0 1.0 11.7 -1 -1",   # fractional satellites
    ])
    def test_malformed_gps_record_is_format_error(self, cols):
        with pytest.raises(StreamFormatError, match="line 7"):
            line_to_event(f"0.5 gps {cols}", lineno=7)

    def test_event_kind_names_every_sample_type(self):
        kinds = [event_kind(e) for e in sample_events()]
        assert kinds == [line.split()[1] for line in
                         map(event_to_line, sample_events())]
        assert set(kinds) == {"imu", "encoder", "gps", "gps_vel", "radar",
                              "vslam"}
        assert event_kind(ImuSample(0.0, np.zeros(3), np.zeros(3),
                                    source=2)) == "imu2"
        with pytest.raises(TypeError):
            event_kind(object())

    def test_hdop_must_be_positive(self):
        with pytest.raises(ValueError):
            GpsFixSample(0.0, 0.0, 0.0, 0.0, hdop=-1.0)

    def test_comments_and_blanks_skipped(self):
        buf = io.StringIO("# header\n\n0.01 encoder 1.0 0.0 0.1\n")
        assert len(list(read_stream(buf))) == 1
