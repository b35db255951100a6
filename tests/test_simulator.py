import io

import numpy as np
import pytest

from navfuse.events import (
    EncoderSample,
    GpsFixSample,
    ImuSample,
    RadarVelocitySample,
    VslamPoseSample,
    event_to_line,
)
from navfuse.geodesy import EnuOrigin, GeodeticCoord, geodetic_to_enu
from navfuse.simulator import (
    GenerationError,
    SimScenario,
    build_truth,
    generate,
)

from conftest import truth_consistency_error


def scenario_dict(**over):
    doc = {
        "seed": 3,
        "duration_s": 20.0,
        "trajectory": {"type": "circle", "radius": 15.0, "speed": 2.0,
                       "accel": 0.5},
        "imu": {"rate_hz": 100.0, "sigma_gyro": 0.002, "sigma_accel": 0.03},
        "encoder": {"enabled": True, "rate_hz": 50.0, "sigma_v": 0.02,
                    "sigma_wz": 0.01},
        "gps": {"enabled": True, "rate_hz": 5.0, "sigma_xy": 1.0,
                "sigma_z": 2.0},
    }
    doc.update(over)
    return doc


class TestTruth:
    def test_consistency_invariant(self):
        truth = build_truth(SimScenario.from_dict(scenario_dict()))
        assert truth_consistency_error(truth) < 0.02

    def test_stationary_scenario_is_motionless(self):
        truth = build_truth(SimScenario.from_dict(
            scenario_dict(trajectory={"type": "static"})))
        assert np.allclose(truth.position, truth.position[0])
        assert np.allclose(truth.omega, 0.0)

    def test_waypoint_legs_visit_points(self):
        doc = scenario_dict(duration_s=120.0, trajectory={
            "type": "waypoints", "points": [[0, 0], [30, 0], [30, 20]],
            "speed": 2.0, "accel": 0.8, "turn_rate": 0.8})
        truth = build_truth(SimScenario.from_dict(doc))
        d_to_corner = np.min(np.linalg.norm(
            truth.position[:, :2] - np.array([30.0, 0.0]), axis=-1))
        d_to_end = np.min(np.linalg.norm(
            truth.position[:, :2] - np.array([30.0, 20.0]), axis=-1))
        assert d_to_corner < 0.1 and d_to_end < 0.1
        assert truth_consistency_error(truth) < 0.02

    def test_figure_eight_flips_turn_direction(self):
        doc = scenario_dict(duration_s=120.0, trajectory={
            "type": "figure_eight", "radius": 10.0, "speed": 2.0,
            "accel": 0.5})
        truth = build_truth(SimScenario.from_dict(doc))
        wz = truth.omega[:, 2]
        assert np.max(wz) > 0.1 and np.min(wz) < -0.1

    def test_infeasible_trajectory_rejected(self):
        with pytest.raises(GenerationError):
            build_truth(SimScenario.from_dict(scenario_dict(
                trajectory={"type": "circle", "radius": -1.0})))
        with pytest.raises(GenerationError):
            build_truth(SimScenario.from_dict(scenario_dict(
                trajectory={"type": "waypoints",
                            "points": [[0, 0], [0, 0]]})))

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(GenerationError, match="unknown scenario"):
            SimScenario.from_dict(scenario_dict(lidar={}))
        # a misspelled section key would otherwise fall back to its default
        with pytest.raises(GenerationError, match=r"'gps'.*'rate'"):
            generate(SimScenario.from_dict({"gps": {"rate": 1.0}}))
        with pytest.raises(GenerationError, match=r"'origin'.*'alt'"):
            generate(SimScenario.from_dict({"origin": {
                "lat_deg": 45.0, "lon_deg": -75.6, "alt": 80.0}}))


class TestStreams:
    def test_reproducible_byte_identical(self):
        scenario = SimScenario.from_dict(scenario_dict())
        _, ev1 = generate(scenario)
        _, ev2 = generate(SimScenario.from_dict(scenario_dict()))
        assert [event_to_line(e) for e in ev1] == \
            [event_to_line(e) for e in ev2]

    def test_seed_changes_noise(self):
        _, ev1 = generate(SimScenario.from_dict(scenario_dict(seed=1)))
        _, ev2 = generate(SimScenario.from_dict(scenario_dict(seed=2)))
        imu1 = next(e for e in ev1 if isinstance(e, ImuSample))
        imu2 = next(e for e in ev2 if isinstance(e, ImuSample))
        assert not np.allclose(imu1.gyro, imu2.gyro)

    def test_stationary_accel_mean_is_gravity(self):
        doc = scenario_dict(duration_s=100.0,
                            trajectory={"type": "static"},
                            gps={"enabled": False})
        _, events = generate(SimScenario.from_dict(doc))
        accels = np.array([e.accel for e in events
                           if isinstance(e, ImuSample)])
        assert np.allclose(accels.mean(axis=0), [0, 0, 9.80665], atol=5e-3)

    def test_gps_noise_statistically_calibrated(self):
        # >= 1e4 samples: empirical sigma within 3% of spec at 0.99
        # confidence (two-sided chi-squared bound on the variance)
        doc = scenario_dict(duration_s=2000.0,
                            trajectory={"type": "static"},
                            imu={"rate_hz": 10.0},
                            encoder={"enabled": False},
                            gps={"enabled": True, "rate_hz": 5.0,
                                 "sigma_xy": 1.0, "sigma_z": 2.0})
        scenario = SimScenario.from_dict(doc)
        truth, events = generate(scenario)
        origin = EnuOrigin.from_geodetic(GeodeticCoord.from_degrees(
            scenario.origin["lat_deg"], scenario.origin["lon_deg"],
            scenario.origin["alt_m"]))
        errs = []
        for e in events:
            if isinstance(e, GpsFixSample):
                enu = geodetic_to_enu(GeodeticCoord(e.lat, e.lon, e.alt),
                                      origin)
                errs.append(enu - truth.position[0])
        errs = np.asarray(errs)
        assert len(errs) >= 10_000
        from scipy.stats import chi2
        n = len(errs)
        var_e = np.mean(errs[:, 0] ** 2)
        lo = chi2.ppf(0.005, n) / n
        hi = chi2.ppf(0.995, n) / n
        assert lo <= var_e <= hi
        assert abs(np.sqrt(var_e) - 1.0) < 0.03

    def test_dropout_window_empty(self):
        doc = scenario_dict(duration_s=60.0)
        doc["gps"]["dropouts"] = [{"start": 20.0, "end": 40.0}]
        _, events = generate(SimScenario.from_dict(doc))
        gps_stamps = [e.stamp for e in events if isinstance(e, GpsFixSample)]
        assert not any(20.0 <= t <= 40.0 for t in gps_stamps)
        assert any(t < 20.0 for t in gps_stamps)
        assert any(t > 40.0 for t in gps_stamps)

    def test_spike_injection(self):
        doc = scenario_dict(duration_s=30.0)
        doc["gps"]["spikes"] = [{"t": 15.0, "offset_m": 500.0,
                                 "direction_deg": 0.0}]
        scenario = SimScenario.from_dict(doc)
        truth, events = generate(scenario)
        origin = EnuOrigin.from_geodetic(GeodeticCoord.from_degrees(
            scenario.origin["lat_deg"], scenario.origin["lon_deg"],
            scenario.origin["alt_m"]))
        offsets = []
        for e in events:
            if isinstance(e, GpsFixSample) and abs(e.stamp - 15.0) < 0.11:
                enu = geodetic_to_enu(GeodeticCoord(e.lat, e.lon, e.alt),
                                      origin)
                idx = int(round(e.stamp * 100))
                offsets.append(np.linalg.norm(
                    enu[:2] - truth.position[idx][:2]))
        assert max(offsets) == pytest.approx(500.0, abs=1.0)

    def test_cluster_injection_count_and_range(self):
        doc = scenario_dict(duration_s=120.0)
        doc["gps"]["dropouts"] = [{"start": 20.0, "end": 80.0}]
        doc["gps"]["clusters"] = [{"start": 80.2, "count": 105,
                                   "rate_hz": 4.4, "offset_m_min": 720.0,
                                   "offset_m_max": 840.0}]
        scenario = SimScenario.from_dict(doc)
        truth, events = generate(scenario)
        origin = EnuOrigin.from_geodetic(GeodeticCoord.from_degrees(
            scenario.origin["lat_deg"], scenario.origin["lon_deg"],
            scenario.origin["alt_m"]))
        far = 0
        for e in events:
            if isinstance(e, GpsFixSample) and 80.0 <= e.stamp <= 105.0:
                enu = geodetic_to_enu(GeodeticCoord(e.lat, e.lon, e.alt),
                                      origin)
                idx = min(int(round(e.stamp * 100)),
                          len(truth.position) - 1)
                dist = np.linalg.norm(enu[:2] - truth.position[idx][:2])
                if dist > 500.0:
                    far += 1
                    assert 715.0 <= dist <= 845.0
        assert far > 90

    def test_vslam_reinit_offset_and_delay_ordering(self):
        doc = scenario_dict(duration_s=30.0)
        doc["vslam"] = {"enabled": True, "rate_hz": 10.0, "delay_s": 0.1,
                        "sigma_pos": 0.02, "sigma_orient": 0.005,
                        "reinits": [{"t": 20.0, "offset": [50.0, 0, 0]}]}
        scenario = SimScenario.from_dict(doc)
        truth, events = generate(scenario)
        arrivals = {}
        last_imu = -1.0
        end = truth.stamps[-1]
        for e in events:
            if isinstance(e, ImuSample):
                last_imu = e.stamp
            if isinstance(e, VslamPoseSample):
                # delayed sensor: appears in the file after newer IMU data
                # (except right at the end of the recording)
                if e.stamp + 0.1 <= end:
                    assert last_imu >= e.stamp + 0.1 - 0.011
                idx = int(round(e.stamp * 100))
                err = np.linalg.norm(e.position[:2]
                                     - truth.position[idx][:2])
                arrivals[round(e.stamp, 2)] = err
        before = [v for t, v in arrivals.items() if t < 19.9]
        after = [v for t, v in arrivals.items() if t > 20.1]
        assert max(before) < 1.0
        assert min(after) > 49.0

    def test_radar_ignores_encoder_slip(self):
        doc = scenario_dict(duration_s=30.0)
        doc["encoder"]["slip"] = [{"start": 10.0, "end": 20.0,
                                   "factor": 1.5}]
        doc["radar"] = {"enabled": True, "rate_hz": 10.0, "sigma": 0.05}
        scenario = SimScenario.from_dict(doc)
        truth, events = generate(scenario)
        enc_mid = [e for e in events if isinstance(e, EncoderSample)
                   and 12.0 < e.stamp < 18.0]
        radar_mid = [e for e in events if isinstance(e, RadarVelocitySample)
                     and 12.0 < e.stamp < 18.0]
        enc_v = np.mean([e.velocity[0] for e in enc_mid])
        radar_v = np.mean([e.velocity_body[0] for e in radar_mid])
        assert enc_v == pytest.approx(3.0, abs=0.1)   # 1.5 * 2.0 true speed
        assert radar_v == pytest.approx(2.0, abs=0.1)

    def test_encoder_reads_yaw_rate_minus_its_bias(self):
        # the convention of core.ENC_YAW_BIAS: an encoder reads omega_z - b
        doc = scenario_dict()
        doc["encoder"]["bias_wz"] = 0.02
        truth, events = generate(SimScenario.from_dict(doc))
        stamps = list(truth.stamps)
        offsets = [e.yaw_rate - truth.omega[stamps.index(e.stamp), 2]
                   for e in events if isinstance(e, EncoderSample)]
        assert truth.encoder_yaw_bias == 0.02
        assert np.mean(offsets) == pytest.approx(-0.02, abs=0.002)
