"""The ingest contract as a property: whatever a stream holds, every event
gets a report and the session stays a valid filter that a checkpoint
carries over bit for bit.

The streams are a short simulated run of every sensor, the late ones
delayed past the clock, mutated by hypothesis: a payload field or a stamp
set to a non-finite, huge, negative or zero value, to None or to an array
of the wrong shape; events duplicated; events moved.  The configuration
keeps a small replay ring, a short coast entry, a short adaptive window and
a short heading baseline, and re-anchors VSLAM at its first rejected pose;
the VSLAM map jumps half way.  So rewinds, too-old drops, coasting with its
relaxed gate, ZUPT, noise adaptation, GPS heading and re-anchoring all occur
in a stream of about a hundred events, and a checkpoint that lost any of
the state they leave would not resume bit for bit.  Every mutated event the
text format can hold also comes back bit for bit through the stream codec,
and the stream read back gives the same reports.
"""

import copy
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from navfuse.config import PipelineConfig
from navfuse.events import (NEGATIVE, NO_COLUMN, SCHEMA, GpsFixSample,
                             event_kind, event_to_line, line_to_event)
from navfuse.pipeline import FusionPipeline, StepReport
from navfuse.simulator import SimScenario, generate

CONFIG = {"imu2.enabled": True, "gnss.velocity_enabled": True,
          "radar.enabled": True, "vslam.enabled": True,
          "retro.capacity": 12, "coast.enter_s": 0.15,
          "vslam.reinit_n": 1, "gnss.heading_min_baseline": 0.05,
          "gnss.heading_min_speed": 0.1, "adaptive.window": 4}

_, BASE = generate(SimScenario(
    seed=3, duration_s=0.6,
    trajectory={"type": "circle", "radius": 5.0, "speed": 1.0},
    imu={"rate_hz": 50.0}, imu2={"enabled": True, "rate_hz": 25.0},
    encoder={"rate_hz": 25.0},
    gps={"rate_hz": 10.0, "delay_s": 0.1},
    gps_velocity={"enabled": True, "rate_hz": 10.0, "delay_s": 0.1},
    radar={"enabled": True, "rate_hz": 10.0},
    vslam={"enabled": True, "rate_hz": 10.0, "delay_s": 0.06,
           "reinits": [{"t": 0.3, "offset": [5.0, 0.0, 0.0]}]}))

#: what a mutated stamp may become, and a payload field: an array field
#: gets the value in one element, or becomes the wrong-shaped array
STAMPS = [np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, 0.0, -1.0, 7.0]
VALUES = [*STAMPS, None, "short"]


def fields_of(event):
    return ["stamp", *(f.name for f in SCHEMA[event_kind(event)].fields)]


def mutated(event, name, value, where):
    """A copy of ``event`` with ``name`` set to ``value``; a stamp too may
    become None or a 1-element array, which only an API caller can pass."""
    event = copy.copy(event)
    old = getattr(event, name)
    if value == "short":
        value = np.zeros(1)
    elif value is not None and isinstance(old, np.ndarray):
        array = old.astype(float)
        array.flat[where % array.size] = value
        value = array
    setattr(event, name, value)
    return event


OPS = st.one_of(
    st.tuples(st.just("mutate"), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6), st.sampled_from(VALUES),
              st.integers(0, 8)),
    st.tuples(st.just("duplicate"), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6)),
    st.tuples(st.just("move"), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6)))


def apply_ops(ops):
    events = list(BASE)
    for op, i, j, *rest in ops:
        i %= len(events)
        if op == "mutate":
            names = fields_of(events[i])
            value, where = rest
            events[i] = mutated(events[i], names[j % len(names)], value,
                                where)
        elif op == "duplicate":
            events.insert(j % (len(events) + 1), copy.copy(events[i]))
        else:
            events.insert(j % len(events), events.pop(i))
    return events


def ingest_checked(pipe, event):
    """``pipe.ingest(event)``, checking that a report comes back and that
    the state stays finite and the covariance positive definite."""
    report = pipe.ingest(event)
    assert isinstance(report, StepReport)
    assert np.isfinite(pipe.x).all()
    np.linalg.cholesky(pipe.cov)
    return report


def fingerprint(report):
    return (report.stamp, report.kind, report.dropped, report.coast,
            report.zupt, report.origin_set,
            report.state.as_vector().tobytes(), report.cov_diag.tobytes(),
            [(u.path, u.accepted, u.d2, u.threshold, u.reason,
              u.innovation.tobytes()) for u in report.updates])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(OPS, max_size=8), cut=st.floats(0.0, 1.0))
# stamps that are no real number: None, then a 1-element array, each side
# of the cut
@example(ops=[("mutate", 5, 0, None, 0), ("mutate", 70, 0, "short", 0)],
         cut=0.5)
# a late fix whose horizontal or vertical 95% bound, the other one set, or
# whose vdop squares past the largest float
@example(ops=[("mutate", 43, 8, 1e300, 0), ("mutate", 43, 9, 7.0, 0)],
         cut=0.5)
@example(ops=[("mutate", 43, 8, 7.0, 0), ("mutate", 43, 9, 1e300, 0)],
         cut=0.5)
@example(ops=[("mutate", 43, 6, 1e300, 0)], cut=0.5)
def test_any_stream_keeps_a_valid_session_that_resumes_bit_for_bit(ops,
                                                                    cut):
    events = apply_ops(ops)
    split = int(cut * len(events))
    pipe = FusionPipeline(PipelineConfig(CONFIG))
    for event in events[:split]:
        ingest_checked(pipe, event)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "checkpoint.json")
        pipe.save_checkpoint(path)
        resumed = FusionPipeline(PipelineConfig(CONFIG))
        resumed.load_checkpoint(path)
    for event in events[split:]:
        report = ingest_checked(pipe, event)
        assert fingerprint(resumed.ingest(event)) == fingerprint(report)
    assert resumed.diagnostics == pipe.diagnostics
    assert np.array_equal(resumed.x, pipe.x)
    assert np.array_equal(resumed.cov, pipe.cov)


def codec_holds(event):
    """Whether the text format can hold every field of ``event``: a float
    stamp, each field in its declared shape and among the values it is
    limited to, None only where it may be absent, no value where it has no
    column (the GPS covariance), and no value the format reads as absent
    (a negative one where -1 marks absent, all negative for a vector) or
    refuses.  A DOP of zero is refused and a satellite count must be a
    whole number; and the format writes latitude and longitude in degrees,
    which give back the radians only where the conversions cancel."""
    if type(event.stamp) is not float:
        return False
    for shape, absent, values, *_, name in SCHEMA[event_kind(event)].fields:
        value = getattr(event, name)
        if value is None:
            if absent is None:
                return False
        elif (absent == NO_COLUMN or np.shape(value) != shape
              or absent == NEGATIVE and np.all(np.less(value, 0))
              or values is not None and value not in values):
            return False
    if isinstance(event, GpsFixSample):
        sats = event.satellites
        return (all(np.radians(np.degrees(v)) == v or v != v
                    for v in (event.lat, event.lon))
                and 0 not in (event.hdop, event.vdop)
                and (sats is None or float(sats).is_integer()))
    return True


def same_fields(event, back):
    """Every field equal bit for bit as float64, None as None."""
    if event_kind(event) != event_kind(back):
        return False
    for name in fields_of(event):
        a, b = getattr(event, name), getattr(back, name)
        if (a is None) != (b is None) or a is not None and (
                np.asarray(a, dtype=float).tobytes()
                != np.asarray(b, dtype=float).tobytes()):
            return False
    return True


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(OPS, max_size=8))
# a NaN stamp, a GPS fix type of 0.0 and a zero error bound
@example(ops=[("mutate", 0, 0, np.nan, 0), ("mutate", 14, 4, 0.0, 0),
              ("mutate", 29, 8, 0.0, 0)])
def test_text_codec_round_trips_every_event_it_can_hold(ops):
    events = apply_ops(ops)
    read_back = []
    for event in events:
        if codec_holds(event):
            back = line_to_event(event_to_line(event))
            assert same_fields(event, back), event_to_line(event)
            event = back
        read_back.append(event)
    pipe = FusionPipeline(PipelineConfig(CONFIG))
    other = FusionPipeline(PipelineConfig(CONFIG))
    for event, back in zip(events, read_back):
        # a read-back NaN stamp is another NaN object: compare its bits
        mine, theirs = (fingerprint(p.ingest(e))
                        for p, e in ((pipe, event), (other, back)))
        assert np.float64(theirs[0]).tobytes() == np.float64(
            mine[0]).tobytes()
        assert theirs[1:] == mine[1:]
    assert other.diagnostics == pipe.diagnostics
