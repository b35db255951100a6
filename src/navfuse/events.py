"""Sensor sample types and the line-oriented stream interchange format.

A stream file carries one record per line, ``stamp sensor_kind payload...``,
ordered by arrival time (the stamp is the measurement epoch; delayed sensors
appear later in the file than their stamp).  Column sets per kind:

    imu      gx gy gz ax ay az [qw qx qy qz]
    imu2     gx gy gz ax ay az [qw qx qy qz]
    encoder  vx vy wz
    gps      lat_deg lon_deg alt fix_type hdop vdop sats err_horz err_vert
    gps_vel  ve vn
    radar    vx vy
    vslam    px py pz qw qx qy qz c_px c_py c_pz c_r c_p c_y

``SCHEMA``, which the codec and the pipeline's ingest check walk, is the one
declaration of these payloads, each field declared on its dataclass
(``_payload``).  An absent GPS DOP, satellite count, error CI or VSLAM
covariance diagonal is -1 in each column; present DOPs and CIs are > 0, and
a diagonal with only some values negative reaches the pipeline, which drops
it as malformed.  The GPS receiver covariance has no column: only the API
carries it.  Floats are written with full round-trip precision so replays
are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from enum import IntEnum
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    TextIO, Union)

import numpy as np

#: how the text holds an absent field: -1 in each column (any negative value,
#: all of a vector's, reads as absent); left out (last field only); no column
NEGATIVE, OMITTED, NO_COLUMN = "negative", "omitted", "no column"


class Payload(NamedTuple):
    """One payload field, as ``_payload`` declares it on its dataclass."""

    shape: tuple[int, ...] = ()       # () for a scalar
    absent: Optional[str] = None      # None: it may not be absent
    values: Optional[tuple] = None    # the only values it may take
    read: Callable = float            # its column's value as the field's
    write: Callable = float           # the field's value as its column's
    name: str = ""                    # the dataclass field's, by ``_stream``


def _payload(*args, default=MISSING, **kw):
    return field(default=default, metadata={"payload": Payload(*args, **kw)})


def _whole(value: float) -> int:
    """``value`` as an int, which it must equal: no truncation."""
    if not value.is_integer():
        raise ValueError(f"{value} is not a whole number")
    return int(value)


class FixType(IntEnum):
    NONE = 0
    GPS = 1
    DGPS = 2
    RTK_FLOAT = 3
    RTK_FIXED = 4


@dataclass
class ImuSample:
    stamp: float
    gyro: np.ndarray = _payload((3,))
    accel: np.ndarray = _payload((3,))
    orientation: Optional[np.ndarray] = _payload((4,), OMITTED, default=None)
    source: int = 1  # 1 = primary (drives the clock), 2 = secondary


@dataclass
class EncoderSample:
    stamp: float
    velocity: np.ndarray = _payload((2,))  # body (vx, vy)
    yaw_rate: float = _payload()


@dataclass
class GpsFixSample:
    stamp: float
    lat: float = _payload(read=math.radians, write=math.degrees)  # rad
    lon: float = _payload(read=math.radians, write=math.degrees)  # rad
    alt: float = _payload()
    fix_type: FixType = _payload(values=tuple(FixType), default=FixType.GPS,
                                 read=lambda v: FixType(_whole(v)))
    hdop: float = _payload(absent=NEGATIVE, default=1.0)
    vdop: float = _payload(absent=NEGATIVE, default=1.0)
    satellites: int = _payload(absent=NEGATIVE, read=_whole, default=8)
    # 95% CI, m
    err_horz: Optional[float] = _payload(absent=NEGATIVE, default=None)
    err_vert: Optional[float] = _payload(absent=NEGATIVE, default=None)
    # full 3x3 ENU, m^2
    covariance: Optional[np.ndarray] = _payload((3, 3), NO_COLUMN,
                                                default=None)

    def __post_init__(self):
        for dop in (self.hdop, self.vdop):
            if dop is not None and dop <= 0:
                raise ValueError(f"a DOP of {dop} is not > 0")


@dataclass
class GpsVelocitySample:
    stamp: float
    velocity_en: np.ndarray = _payload((2,))  # world (east, north)


@dataclass
class RadarVelocitySample:
    stamp: float
    velocity_body: np.ndarray = _payload((2,))  # body (forward, lateral)


@dataclass
class VslamPoseSample:
    stamp: float
    position: np.ndarray = _payload((3,))
    quaternion: np.ndarray = _payload((4,))
    # (px, py, pz, about pose x, y, z)
    cov_diag: Optional[np.ndarray] = _payload((6,), NEGATIVE, default=None)


SensorEvent = Union[
    ImuSample,
    EncoderSample,
    GpsFixSample,
    GpsVelocitySample,
    RadarVelocitySample,
    VslamPoseSample,
]


class Stream(NamedTuple):
    """One kind's payload: sample type, fields in column order, rotation
    field (its norm finite and nonzero), the IMU ``source`` it stands for,
    column counts and ``decode(stamp, vals)``, compiled so a line costs what
    a hand-written reader would: ``encoder``'s is ``sample(stamp,
    velocity(vals[0:2]), vals[2])``, ``velocity`` bound to ``np.array``."""

    sample: type
    fields: tuple[Payload, ...]
    rotation: Optional[str]
    source: Optional[int]
    counts: tuple[int, ...]
    decode: Callable


def _stream(sample: type, rotation=None, source=None) -> Stream:
    payload = tuple(f.metadata["payload"]._replace(name=f.name)
                    for f in fields(sample) if "payload" in f.metadata)
    scope, args, counts, start = {"sample": sample}, [], (), 0
    for shape, absent, _, read, _, name in payload:
        if absent == NO_COLUMN:
            continue
        stop = start + math.prod(shape)
        cols = f"vals[{start}:{stop}]" if shape else f"vals[{start}]"
        scope[name] = np.array if shape else read
        value = cols if read is float and not shape else f"{name}({cols})"
        if absent == OMITTED:
            counts = (start,)
            value += f" if len(vals) == {stop} else None"
        elif absent == NEGATIVE:
            test = f"all(v < 0 for v in {cols})" if shape else f"{cols} < 0"
            value = f"None if {test} else {value}"
        args.append(value)
        start = stop
    if source is not None:
        args.append(f"source={source}")
    return Stream(sample, payload, rotation, source, counts + (start,), eval(
        f"lambda stamp, vals: sample(stamp, {', '.join(args)})", scope))


SCHEMA: dict[str, Stream] = {
    "imu": _stream(ImuSample, "orientation", source=1),
    "imu2": _stream(ImuSample, "orientation", source=2),
    "encoder": _stream(EncoderSample),
    "gps": _stream(GpsFixSample),
    "gps_vel": _stream(GpsVelocitySample),
    "radar": _stream(RadarVelocitySample),
    "vslam": _stream(VslamPoseSample, "quaternion"),
}


class StreamFormatError(ValueError):
    """Raised with the offending line number on a malformed stream record."""


def format_row(values: Iterable[float]) -> str:
    """Numbers as text, each the repr of its float, space-separated: the
    form of every numeric column the package writes."""
    return " ".join(repr(float(v)) for v in values)


_KIND_OF_TYPE = {stream.sample: kind for kind, stream in SCHEMA.items()
                 if stream.source is None}
#: the types a stamp or an IMU source may have: a Python or numpy real
#: scalar; a source is tested to be one first, as an array's truth value
#: is ambiguous
_REAL = (float, int, np.floating, np.integer)


def event_kind(event: SensorEvent) -> str:
    """The stream kind name of an event; an IMU sample's kind follows its
    source: ``imu``, which drives the clock, for a real scalar equal to 1,
    else ``imu2``, which does not (a source other than 2 is malformed)."""
    if isinstance(event, ImuSample):
        source = event.source
        return ("imu" if isinstance(source, _REAL) and source == 1
                else "imu2")
    try:
        return _KIND_OF_TYPE[type(event)]
    except KeyError:
        raise TypeError(f"unknown event type {type(event)!r}") from None


def event_to_line(event: SensorEvent) -> str:
    """``event`` as a stream line; ValueError for an IMU sample whose
    source names no stream kind."""
    kind = event_kind(event)
    stream = SCHEMA[kind]
    if stream.source is not None and not (isinstance(event.source, _REAL)
                                          and event.source == stream.source):
        raise ValueError(f"IMU source {event.source!r} is neither 1 nor 2")
    cols = []
    for shape, absent, _, _, write, name in stream.fields:
        value = getattr(event, name)
        if absent == NO_COLUMN or value is None and absent == OMITTED:
            continue
        if value is None and absent == NEGATIVE:  # -1 in each column
            value = [-1.0] * math.prod(shape) if shape else -1.0
        cols += list(value) if shape else [write(value)]
    return f"{event.stamp!r} {kind} {format_row(cols)}"


def line_to_event(line: str, lineno: int = 0) -> SensorEvent:
    parts = line.split()
    if len(parts) < 3:
        raise StreamFormatError(f"line {lineno}: too few columns")
    kind = parts[1]
    try:
        stamp = float(parts[0])
    except ValueError as exc:
        raise StreamFormatError(f"line {lineno}: bad stamp") from exc
    try:
        vals = [float(p) for p in parts[2:]]
    except ValueError as exc:
        raise StreamFormatError(f"line {lineno}: bad number") from exc
    stream = SCHEMA.get(kind)
    if stream is None:
        raise StreamFormatError(f"line {lineno}: unknown sensor kind {kind!r}")
    if len(vals) not in stream.counts:
        counts = " or ".join(map(str, stream.counts))
        raise StreamFormatError(f"line {lineno}: {kind} needs {counts} cols")
    try:
        return stream.decode(stamp, vals)
    except ValueError as exc:
        # an unknown fix type, a fractional, NaN or infinite fix type or
        # satellite count, or a DOP <= 0
        raise StreamFormatError(f"line {lineno}: bad {kind} record: {exc}") \
            from exc


def write_stream(events: Iterable[SensorEvent], sink: TextIO) -> int:
    """Stream events to a file handle one line at a time; returns count."""
    count = 0
    for event in events:
        sink.write(event_to_line(event))
        sink.write("\n")
        count += 1
    return count


def read_stream(source: TextIO) -> Iterator[SensorEvent]:
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        yield line_to_event(line, lineno)
