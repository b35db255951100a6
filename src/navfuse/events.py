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

An absent GPS DOP, satellite count or error CI is written as -1, and any
negative value in those columns reads back as absent; present DOPs and CIs
are strictly positive.  A VSLAM covariance diagonal is all present or all
-1 (absent); one with only some values negative reaches the pipeline, which
drops it as malformed.  Floats are written with full round-trip precision
so replays are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Optional, TextIO, Union

import numpy as np


class FixType(IntEnum):
    NONE = 0
    GPS = 1
    DGPS = 2
    RTK_FLOAT = 3
    RTK_FIXED = 4


@dataclass
class ImuSample:
    stamp: float
    gyro: np.ndarray
    accel: np.ndarray
    orientation: Optional[np.ndarray] = None
    source: int = 1  # 1 = primary (drives the clock), 2 = secondary


@dataclass
class EncoderSample:
    stamp: float
    velocity: np.ndarray  # body (vx, vy)
    yaw_rate: float


@dataclass
class GpsFixSample:
    stamp: float
    lat: float  # rad
    lon: float  # rad
    alt: float
    fix_type: FixType = FixType.GPS
    hdop: float = 1.0
    vdop: float = 1.0
    satellites: int = 8
    err_horz: Optional[float] = None  # 95% CI, m
    err_vert: Optional[float] = None
    covariance: Optional[np.ndarray] = None  # full 3x3 ENU, m^2

    def __post_init__(self):
        if self.hdop is not None and self.hdop <= 0:
            raise ValueError("hdop must be > 0")
        if self.vdop is not None and self.vdop <= 0:
            raise ValueError("vdop must be > 0")


@dataclass
class GpsVelocitySample:
    stamp: float
    velocity_en: np.ndarray  # world (east, north)


@dataclass
class RadarVelocitySample:
    stamp: float
    velocity_body: np.ndarray  # body (forward, lateral)


@dataclass
class VslamPoseSample:
    stamp: float
    position: np.ndarray
    quaternion: np.ndarray
    cov_diag: Optional[np.ndarray] = None  # (px, py, pz, about pose x, y, z)


SensorEvent = Union[
    ImuSample,
    EncoderSample,
    GpsFixSample,
    GpsVelocitySample,
    RadarVelocitySample,
    VslamPoseSample,
]


class StreamFormatError(ValueError):
    """Raised with the offending line number on a malformed stream record."""


def format_row(values: Iterable[float]) -> str:
    """Numbers as text, each the repr of its float, space-separated: the
    form of every numeric column the package writes."""
    return " ".join(repr(float(v)) for v in values)


_KIND_OF_TYPE = {
    EncoderSample: "encoder",
    GpsFixSample: "gps",
    GpsVelocitySample: "gps_vel",
    RadarVelocitySample: "radar",
    VslamPoseSample: "vslam",
}


def event_kind(event: SensorEvent) -> str:
    """The stream kind name of an event; an IMU sample's kind follows its
    source (``imu`` drives the clock, ``imu2`` does not)."""
    if isinstance(event, ImuSample):
        return "imu" if event.source == 1 else "imu2"
    try:
        return _KIND_OF_TYPE[type(event)]
    except KeyError:
        raise TypeError(f"unknown event type {type(event)!r}") from None


def event_to_line(event: SensorEvent) -> str:
    kind = event_kind(event)
    if kind in ("imu", "imu2"):
        cols = list(event.gyro) + list(event.accel)
        if event.orientation is not None:
            cols += list(event.orientation)
    elif kind == "encoder":
        cols = [event.velocity[0], event.velocity[1], event.yaw_rate]
    elif kind == "gps":
        cols = [
            np.degrees(event.lat),
            np.degrees(event.lon),
            event.alt,
            int(event.fix_type),
            -1.0 if event.hdop is None else event.hdop,
            -1.0 if event.vdop is None else event.vdop,
            -1 if event.satellites is None else event.satellites,
            -1.0 if event.err_horz is None else event.err_horz,
            -1.0 if event.err_vert is None else event.err_vert,
        ]
    elif kind == "gps_vel":
        cols = event.velocity_en
    elif kind == "radar":
        cols = event.velocity_body
    else:
        cov = event.cov_diag if event.cov_diag is not None else [-1.0] * 6
        cols = list(event.position) + list(event.quaternion) + list(cov)
    return f"{event.stamp!r} {kind} {format_row(cols)}"


def _parse_floats(parts: list[str], lineno: int) -> list[float]:
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise StreamFormatError(f"line {lineno}: bad number") from exc


def _whole(value: float) -> int:
    """``value`` as an int, which it must equal: no truncation."""
    if not value.is_integer():
        raise ValueError(f"{value} is not a whole number")
    return int(value)


#: the payload column counts each stream kind accepts
_COLUMNS = {"imu": (6, 10), "imu2": (6, 10), "encoder": (3,), "gps": (9,),
            "gps_vel": (2,), "radar": (2,), "vslam": (13,)}


def line_to_event(line: str, lineno: int = 0) -> SensorEvent:
    parts = line.split()
    if len(parts) < 3:
        raise StreamFormatError(f"line {lineno}: too few columns")
    try:
        stamp = float(parts[0])
    except ValueError as exc:
        raise StreamFormatError(f"line {lineno}: bad stamp") from exc
    kind = parts[1]
    vals = _parse_floats(parts[2:], lineno)
    if kind not in _COLUMNS:
        raise StreamFormatError(f"line {lineno}: unknown sensor kind {kind!r}")
    if len(vals) not in _COLUMNS[kind]:
        counts = " or ".join(map(str, _COLUMNS[kind]))
        raise StreamFormatError(f"line {lineno}: {kind} needs {counts} cols")
    if kind in ("imu", "imu2"):
        orient = np.array(vals[6:10]) if len(vals) == 10 else None
        return ImuSample(stamp, np.array(vals[0:3]), np.array(vals[3:6]),
                         orient, source=1 if kind == "imu" else 2)
    if kind == "encoder":
        return EncoderSample(stamp, np.array(vals[0:2]), vals[2])
    if kind == "gps":
        try:
            return GpsFixSample(
                stamp,
                np.radians(vals[0]),
                np.radians(vals[1]),
                vals[2],
                FixType(_whole(vals[3])),
                None if vals[4] < 0 else vals[4],
                None if vals[5] < 0 else vals[5],
                None if vals[6] < 0 else _whole(vals[6]),
                None if vals[7] < 0 else vals[7],
                None if vals[8] < 0 else vals[8],
            )
        except (ValueError, OverflowError) as exc:
            # an unknown fix type, a fractional, NaN or infinite fix type or
            # satellite count, or a DOP <= 0
            raise StreamFormatError(f"line {lineno}: bad gps record: {exc}") \
                from exc
    if kind == "gps_vel":
        return GpsVelocitySample(stamp, np.array(vals))
    if kind == "radar":
        return RadarVelocitySample(stamp, np.array(vals))
    cov = np.array(vals[7:13])
    return VslamPoseSample(stamp, np.array(vals[0:3]), np.array(vals[3:7]),
                           None if np.all(cov < 0) else cov)


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
