import numpy as np
import pytest

from navfuse.geodesy import (
    EnuOrigin,
    GeodesyError,
    GeodeticCoord,
    WGS84_A,
    WGS84_B,
    WGS84_E2,
    ecef_to_enu,
    ecef_to_geodetic,
    enu_to_ecef,
    geodetic_to_ecef,
    geodetic_to_enu,
)

from conftest import enu_to_geodetic

ORIGIN = EnuOrigin.from_geodetic(GeodeticCoord.from_degrees(45.0, -75.6, 80.0))


def random_coords(rng, n):
    lats = rng.uniform(-89.9, 89.9, n)
    lons = rng.uniform(-180.0, 180.0, n)
    alts = rng.uniform(-500.0, 9000.0, n)
    return [GeodeticCoord.from_degrees(a, b, c)
            for a, b, c in zip(lats, lons, alts)]


class TestForward:
    def test_equator_prime_meridian_is_semimajor_axis(self):
        ecef = geodetic_to_ecef(GeodeticCoord(0.0, 0.0, 0.0))
        assert np.allclose(ecef, [WGS84_A, 0.0, 0.0], atol=1e-9)

    def test_north_pole_is_semiminor_axis(self):
        ecef = geodetic_to_ecef(GeodeticCoord(np.pi / 2, 0.0, 0.0))
        assert np.allclose(ecef, [0.0, 0.0, WGS84_B], atol=1e-6)

    @pytest.mark.parametrize("lat_deg", [-89.9, -45.0, 0.0, 45.0, 89.9])
    def test_float_math_matches_the_numpy_formula(self, lat_deg):
        """The forward conversion in ``math`` floats against the numpy
        expression it replaced, within 1e-9 m."""
        for lon_deg in np.linspace(-180.0, 180.0, 13):
            for alt in (-100.0, 0.0, 250.0, 10_000.0):
                coord = GeodeticCoord.from_degrees(lat_deg, lon_deg, alt)
                sin_lat, cos_lat = np.sin(coord.lat), np.cos(coord.lat)
                n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
                want = np.array([
                    (n + alt) * cos_lat * np.cos(coord.lon),
                    (n + alt) * cos_lat * np.sin(coord.lon),
                    (n * (1.0 - WGS84_E2) + alt) * sin_lat])
                got = geodetic_to_ecef(coord)
                assert got.shape == (3,) and got.dtype == np.float64
                assert np.max(np.abs(got - want)) <= 1e-9

    def test_range_validation(self):
        with pytest.raises(GeodesyError):
            GeodeticCoord(2.0, 0.0)
        with pytest.raises(GeodesyError):
            GeodeticCoord(0.0, 4.0)


class TestInverse:
    def test_roundtrip_over_domain(self, rng):
        for coord in random_coords(rng, 1000):
            back = ecef_to_geodetic(geodetic_to_ecef(coord))
            # 1e-6 m equivalent error: angles scaled by earth radius
            assert abs(back.lat - coord.lat) * WGS84_A < 1e-6
            assert abs(back.lon - coord.lon) * WGS84_A < 1e-6
            assert abs(back.alt - coord.alt) < 1e-6

    def test_polar_axis_special_case(self):
        coord = ecef_to_geodetic(np.array([0.0, 0.0, WGS84_B + 100.0]))
        assert coord.lat == pytest.approx(np.pi / 2)
        assert coord.alt == pytest.approx(100.0, abs=1e-6)


class TestEnu:
    def test_origin_maps_to_zero(self):
        enu = geodetic_to_enu(ORIGIN.geodetic, ORIGIN)
        assert np.allclose(enu, 0.0, atol=1e-9)

    def test_small_east_offset_at_equator(self):
        origin = EnuOrigin.from_geodetic(GeodeticCoord(0.0, 0.0, 0.0))
        # 100 m east along the equator is a pure longitude change of
        # 100/a radians (tangent-plane oracle)
        coord = GeodeticCoord(0.0, 100.0 / WGS84_A, 0.0)
        enu = geodetic_to_enu(coord, origin)
        assert abs(enu[0] - 100.0) < 1e-3
        assert abs(enu[1]) < 1e-3 and abs(enu[2]) < 1e-3

    def test_enu_roundtrip(self, rng):
        for _ in range(200):
            enu = rng.uniform(-5000, 5000, 3)
            back = ecef_to_enu(enu_to_ecef(enu, ORIGIN), ORIGIN)
            assert np.max(np.abs(back - enu)) < 1e-9

    def test_isometry(self, rng):
        pts = rng.uniform(-3000, 3000, size=(60, 3))
        ecef = np.array([enu_to_ecef(p, ORIGIN) for p in pts])
        for i in range(0, 60, 7):
            for j in range(1, 60, 11):
                d_enu = np.linalg.norm(pts[i] - pts[j])
                d_ecef = np.linalg.norm(ecef[i] - ecef[j])
                if d_enu > 1.0:
                    assert abs(d_enu - d_ecef) / d_enu < 1e-9

    def test_uninitialized_origin_rejected(self):
        with pytest.raises(GeodesyError):
            ecef_to_enu(np.zeros(3), None)

    def test_continuous_across_dateline(self):
        origin = EnuOrigin.from_geodetic(
            GeodeticCoord.from_degrees(10.0, 179.999, 0.0))
        west = geodetic_to_enu(
            GeodeticCoord.from_degrees(10.0, 179.9999, 0.0), origin)
        east = geodetic_to_enu(
            GeodeticCoord.from_degrees(10.0, -179.9999, 0.0), origin)
        # ~22 m apart on the ground despite the longitude wrap
        assert np.linalg.norm(west - east) < 30.0
        assert abs(west[1] - east[1]) < 0.01

    def test_enu_to_geodetic_roundtrip(self, rng):
        enu = np.array([250.0, -120.0, 35.0])
        coord = enu_to_geodetic(enu, ORIGIN)
        back = geodetic_to_enu(coord, ORIGIN)
        assert np.max(np.abs(back - enu)) < 1e-6
