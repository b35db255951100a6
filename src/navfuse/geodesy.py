"""WGS84 <-> ECEF <-> local-ENU conversions.

Going through ECEF keeps the local frame free of projection-zone seams: the
tangent frame is anchored at a single reference origin and behaves
continuously for any longitude.  Altitudes are ellipsoidal throughout; no
geoid model is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)


class GeodesyError(ValueError):
    """Raised on out-of-range coordinates or a failed inverse solve."""


@dataclass(frozen=True)
class GeodeticCoord:
    """Latitude/longitude in radians, ellipsoidal altitude in meters."""

    lat: float
    lon: float
    alt: float = 0.0

    def __post_init__(self):
        if not (-np.pi / 2 <= self.lat <= np.pi / 2):
            raise GeodesyError(f"latitude {self.lat} outside [-pi/2, pi/2]")
        if not (-np.pi <= self.lon <= np.pi):
            raise GeodesyError(f"longitude {self.lon} outside [-pi, pi]")

    @classmethod
    def from_degrees(cls, lat_deg: float, lon_deg: float,
                     alt: float = 0.0) -> "GeodeticCoord":
        return cls(np.radians(lat_deg), np.radians(lon_deg), alt)


def geodetic_to_ecef(coord: GeodeticCoord) -> np.ndarray:
    """Closed-form ellipsoidal forward conversion, meters.  One coordinate
    of floats, so plain float math: ``math`` on a scalar costs a fraction
    of a numpy call."""
    sin_lat = math.sin(coord.lat)
    cos_lat = math.cos(coord.lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    x = (n + coord.alt) * cos_lat * math.cos(coord.lon)
    y = (n + coord.alt) * cos_lat * math.sin(coord.lon)
    z = (n * (1.0 - WGS84_E2) + coord.alt) * sin_lat
    return np.array([x, y, z])


def ecef_to_geodetic(ecef: np.ndarray, tol: float = 1e-12,
                     max_iter: int = 20) -> GeodeticCoord:
    """Iterative inverse, converging the latitude to ``tol`` radians."""
    x, y, z = np.asarray(ecef, dtype=float)
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    if p < 1e-9:
        # polar axis: latitude is +-90 deg exactly
        lat = np.pi / 2 if z >= 0 else -np.pi / 2
        return GeodeticCoord(lat, lon, abs(z) - WGS84_B)
    lat = np.arctan2(z, p * (1.0 - WGS84_E2))

    def altitude(lat_val: float, n: float) -> float:
        # pick the better-conditioned expression near poles vs equator
        if abs(lat_val) > np.pi / 4:
            return z / np.sin(lat_val) - n * (1.0 - WGS84_E2)
        return p / np.cos(lat_val) - n

    for _ in range(max_iter):
        sin_lat = np.sin(lat)
        n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
        alt = altitude(lat, n)
        new_lat = np.arctan2(z, p * (1.0 - WGS84_E2 * n / (n + alt)))
        if abs(new_lat - lat) < tol:
            sin_lat = np.sin(new_lat)
            n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
            return GeodeticCoord(new_lat, lon, altitude(new_lat, n))
        lat = new_lat
    raise GeodesyError("ECEF->geodetic iteration did not converge")


def _enu_rotation(coord: GeodeticCoord) -> np.ndarray:
    """Rows are the east/north/up axes expressed in ECEF."""
    sin_lat, cos_lat = np.sin(coord.lat), np.cos(coord.lat)
    sin_lon, cos_lon = np.sin(coord.lon), np.cos(coord.lon)
    return np.array(
        [
            [-sin_lon, cos_lon, 0.0],
            [-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat],
            [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
        ]
    )


@dataclass(frozen=True)
class EnuOrigin:
    """Reference origin of the local tangent frame.

    Set exactly once per session (the first accepted GPS fix); a pipeline
    reset is the only way to re-anchor it.
    """

    geodetic: GeodeticCoord
    ecef: np.ndarray
    rotation: np.ndarray

    @classmethod
    def from_geodetic(cls, coord: GeodeticCoord) -> "EnuOrigin":
        return cls(coord, geodetic_to_ecef(coord), _enu_rotation(coord))


def ecef_to_enu(ecef: np.ndarray, origin: EnuOrigin) -> np.ndarray:
    if origin is None:
        raise GeodesyError("ENU origin not initialized")
    return origin.rotation @ (np.asarray(ecef, dtype=float) - origin.ecef)


def enu_to_ecef(enu: np.ndarray, origin: EnuOrigin) -> np.ndarray:
    if origin is None:
        raise GeodesyError("ENU origin not initialized")
    return origin.rotation.T @ np.asarray(enu, dtype=float) + origin.ecef


def geodetic_to_enu(coord: GeodeticCoord, origin: EnuOrigin) -> np.ndarray:
    return ecef_to_enu(geodetic_to_ecef(coord), origin)
