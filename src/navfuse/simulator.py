"""Deterministic ground-truth trajectories and corrupted sensor streams.

Trajectories are planar with trapezoidal speed and turn-rate profiles, so
the acceleration truth stays bounded.  Every sensor stream draws from its
own counter-based generator keyed by (seed, sensor), which keeps streams
independent: injecting faults into one sensor never shifts another's noise
draws, so A/B scenario comparisons stay paired.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np
import yaml

from .core import GRAVITY, euler_to_quat, quat_rotate_inv
from .events import (
    EncoderSample,
    FixType,
    GpsFixSample,
    GpsVelocitySample,
    ImuSample,
    RadarVelocitySample,
    SensorEvent,
    VslamPoseSample,
)
from .geodesy import EnuOrigin, GeodeticCoord, ecef_to_geodetic, enu_to_ecef


class GenerationError(ValueError):
    """Raised for infeasible trajectories or malformed scenarios."""


_SENSOR_KEYS = {
    "imu": 1,
    "imu_bias": 2,
    "encoder": 3,
    "gps": 4,
    "gps_vel": 5,
    "radar": 6,
    "vslam": 7,
    "faults": 8,
    "imu2": 9,
}

_EVENT_RANK = {
    ImuSample: 0,
    EncoderSample: 1,
    GpsFixSample: 2,
    GpsVelocitySample: 3,
    RadarVelocitySample: 4,
    VslamPoseSample: 5,
}


def _rng(seed: int, sensor: str) -> np.random.Generator:
    key = (int(seed) * 1000003 + _SENSOR_KEYS[sensor]) % (2**63)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class GroundTruth:
    """Dense truth at IMU rate; kinematically consistent by construction."""

    stamps: np.ndarray
    position: np.ndarray       # world ENU (N, 3)
    yaw: np.ndarray
    quaternion: np.ndarray     # (N, 4)
    velocity_body: np.ndarray  # (N, 3)
    omega: np.ndarray          # (N, 3)
    accel_body: np.ndarray     # (N, 3), gravity-free
    gyro_bias: np.ndarray      # (N, 3)
    accel_bias: np.ndarray     # (N, 3)
    encoder_yaw_bias: float    # b: the encoder reads omega_z - b


@dataclass
class SimScenario:
    seed: int = 0
    duration_s: float = 60.0
    origin: dict = field(default_factory=lambda: {
        "lat_deg": 45.0, "lon_deg": -75.6, "alt_m": 80.0})
    trajectory: dict = field(default_factory=lambda: {"type": "static"})
    imu: dict = field(default_factory=dict)
    imu2: dict = field(default_factory=dict)
    encoder: dict = field(default_factory=dict)
    gps: dict = field(default_factory=dict)
    gps_velocity: dict = field(default_factory=dict)
    radar: dict = field(default_factory=dict)
    vslam: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "SimScenario":
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise GenerationError(f"unknown scenario keys: {unknown}")
        return cls(**doc)

    @classmethod
    def from_yaml(cls, path: str) -> "SimScenario":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = yaml.safe_load(fh)
        except (OSError, yaml.YAMLError) as exc:
            raise GenerationError(f"cannot read scenario {path}: {exc}")
        if not isinstance(doc, dict):
            raise GenerationError("scenario document must be a mapping")
        return cls.from_dict(doc)


# ----------------------------------------------------------------------
# speed / turn-rate profiles

def _trapezoid(total_amount: float, peak_rate: float,
               ramp_accel: float) -> tuple[float, callable, callable]:
    """Profile covering ``total_amount`` with ramps of slope ``ramp_accel``
    and a cruise at ``peak_rate``; returns (duration, rate(t), slope(t))."""
    if total_amount <= 0 or peak_rate <= 0 or ramp_accel <= 0:
        raise GenerationError("trapezoid profile needs positive parameters")
    t_ramp = peak_rate / ramp_accel
    ramp_amount = 0.5 * ramp_accel * t_ramp**2
    if 2.0 * ramp_amount >= total_amount:
        peak = np.sqrt(total_amount * ramp_accel)
        t_ramp = peak / ramp_accel
        t_cruise = 0.0
    else:
        peak = peak_rate
        t_cruise = (total_amount - 2.0 * ramp_amount) / peak_rate
    duration = 2.0 * t_ramp + t_cruise

    def rate(t: np.ndarray) -> np.ndarray:
        up = np.clip(t, 0.0, t_ramp) * ramp_accel
        down = np.clip(duration - t, 0.0, t_ramp) * ramp_accel
        return np.minimum(np.minimum(up, down), peak)

    def slope(t: np.ndarray) -> np.ndarray:
        out = np.zeros_like(t)
        out[(t >= 0) & (t < t_ramp)] = ramp_accel
        out[(t > duration - t_ramp) & (t <= duration)] = -ramp_accel
        return out

    return duration, rate, slope


def _phases_for(spec: dict) -> list[tuple[float, callable, callable, callable]]:
    """Each phase: (duration, speed(t), accel(t), yaw_rate(t))."""
    kind = spec.get("type", "static")
    zeros = lambda t: np.zeros_like(t)
    if kind == "static":
        return [(float("inf"), zeros, zeros, zeros)]
    if kind in ("circle", "figure_eight"):
        radius = float(spec.get("radius", 20.0))
        speed = float(spec.get("speed", 2.0))
        accel = float(spec.get("accel", 0.5))
        if radius <= 0 or speed <= 0 or accel <= 0:
            raise GenerationError("circle needs positive radius/speed/accel")
        t_ramp = speed / accel
        direction = 1.0 if spec.get("ccw", True) else -1.0

        def spd(t):
            return np.minimum(t * accel, speed)

        def acc(t):
            return np.where(t < t_ramp, accel, 0.0)

        if kind == "circle":
            def rate(t):
                return direction * spd(t) / radius
            return [(float("inf"), spd, acc, rate)]
        # figure eight: curvature sign flips every full loop
        loop_circumference = 2.0 * np.pi * radius

        def rate_f8(t):
            # arc length travelled, accounting for the initial ramp
            s = np.where(t < t_ramp, 0.5 * accel * t**2,
                         0.5 * accel * t_ramp**2 + speed * (t - t_ramp))
            loop_idx = np.floor(s / loop_circumference).astype(int)
            sign = np.where(loop_idx % 2 == 0, 1.0, -1.0)
            return direction * sign * spd(t) / radius

        return [(float("inf"), spd, acc, rate_f8)]
    if kind == "waypoints":
        points = spec.get("points")
        if not points or len(points) < 2:
            raise GenerationError("waypoints trajectory needs >= 2 points")
        speed = float(spec.get("speed", 2.0))
        accel = float(spec.get("accel", 0.8))
        turn_rate = float(spec.get("turn_rate", 0.8))
        turn_accel = float(spec.get("turn_accel", 1.6))
        loop = bool(spec.get("loop", False))
        pts = [np.asarray(p, dtype=float) for p in points]
        if loop:
            pts = pts + [pts[0]]
        phases = []
        heading = None
        for a, b in zip(pts[:-1], pts[1:]):
            delta = b - a
            dist = float(np.hypot(delta[0], delta[1]))
            if dist < 1e-9:
                raise GenerationError("zero-length waypoint leg")
            leg_heading = float(np.arctan2(delta[1], delta[0]))
            if heading is not None:
                turn = float(np.arctan2(np.sin(leg_heading - heading),
                                        np.cos(leg_heading - heading)))
                if abs(turn) > 1e-9:
                    dur, rate, slope = _trapezoid(abs(turn), turn_rate,
                                                  turn_accel)
                    sign = np.sign(turn)
                    phases.append((
                        dur, lambda t: np.zeros_like(t),
                        lambda t: np.zeros_like(t),
                        (lambda rate, sign: lambda t: sign * rate(t))(rate, sign),
                    ))
            heading = leg_heading
            dur, rate, slope = _trapezoid(dist, speed, accel)
            phases.append((dur, rate, slope, lambda t: np.zeros_like(t)))
        phases.append((float("inf"),
                       lambda t: np.zeros_like(t),
                       lambda t: np.zeros_like(t),
                       lambda t: np.zeros_like(t)))
        return phases
    raise GenerationError(f"unknown trajectory type {kind!r}")


def build_truth(scenario: SimScenario) -> GroundTruth:
    imu_rate = float(scenario.imu.get("rate_hz", 100.0))
    dt = 1.0 / imu_rate
    n = int(round(scenario.duration_s * imu_rate)) + 1
    stamps = np.arange(n) * dt

    phases = _phases_for(scenario.trajectory)
    speed = np.zeros(n)
    accel_long = np.zeros(n)
    yaw_rate = np.zeros(n)
    start = 0.0
    remaining = np.arange(n, dtype=float) * dt
    idx0 = 0
    for dur, f_speed, f_accel, f_rate in phases:
        if idx0 >= n:
            break
        t_local = stamps[idx0:] - start
        take = t_local <= dur if np.isfinite(dur) else np.ones_like(t_local,
                                                                    dtype=bool)
        count = int(np.sum(take)) if np.isfinite(dur) else n - idx0
        seg = t_local[:count]
        speed[idx0:idx0 + count] = f_speed(seg)
        accel_long[idx0:idx0 + count] = f_accel(seg)
        yaw_rate[idx0:idx0 + count] = f_rate(seg)
        idx0 += count
        start += dur

    # feasibility: the sampled speed must not jump faster than the profiles
    max_jump = np.max(np.abs(np.diff(speed))) if n > 1 else 0.0
    accel_bound = max(
        float(scenario.trajectory.get("accel", 1.0)), 1.0
    )
    if max_jump > 2.0 * accel_bound * dt + 1e-9:
        raise GenerationError("speed discontinuity in trajectory profile")

    yaw0 = float(scenario.trajectory.get("yaw0", 0.0))
    yaw = yaw0 + np.concatenate(
        [[0.0], np.cumsum(0.5 * (yaw_rate[1:] + yaw_rate[:-1]) * dt)])
    vel_world = np.stack(
        [speed * np.cos(yaw), speed * np.sin(yaw), np.zeros(n)], axis=-1)
    position = np.concatenate(
        [np.zeros((1, 3)),
         np.cumsum(0.5 * (vel_world[1:] + vel_world[:-1]) * dt, axis=0)])
    start_xy = np.asarray(scenario.trajectory.get("start", [0.0, 0.0]),
                          dtype=float)
    position[:, 0] += start_xy[0]
    position[:, 1] += start_xy[1]

    quaternion = np.stack(
        [np.cos(yaw / 2), np.zeros(n), np.zeros(n), np.sin(yaw / 2)], axis=-1)
    velocity_body = np.stack([speed, np.zeros(n), np.zeros(n)], axis=-1)
    omega = np.stack([np.zeros(n), np.zeros(n), yaw_rate], axis=-1)
    accel_body = np.stack([accel_long, speed * yaw_rate, np.zeros(n)],
                          axis=-1)

    bias_rng = _rng(scenario.seed, "imu_bias")
    bias_gyro0 = np.asarray(scenario.imu.get("bias_gyro", [0.0, 0.0, 0.0]),
                            dtype=float)
    bias_accel0 = np.asarray(scenario.imu.get("bias_accel", [0.0, 0.0, 0.0]),
                             dtype=float)
    walk_g = float(scenario.imu.get("gyro_bias_walk", 0.0))
    walk_a = float(scenario.imu.get("accel_bias_walk", 0.0))
    gyro_bias = np.tile(bias_gyro0, (n, 1))
    accel_bias = np.tile(bias_accel0, (n, 1))
    if walk_g > 0:
        gyro_bias = gyro_bias + np.cumsum(
            bias_rng.normal(0.0, walk_g * np.sqrt(dt), size=(n, 3)), axis=0)
    if walk_a > 0:
        accel_bias = accel_bias + np.cumsum(
            bias_rng.normal(0.0, walk_a * np.sqrt(dt), size=(n, 3)), axis=0)

    return GroundTruth(
        stamps=stamps,
        position=position,
        yaw=yaw,
        quaternion=quaternion,
        velocity_body=velocity_body,
        omega=omega,
        accel_body=accel_body,
        gyro_bias=gyro_bias,
        accel_bias=accel_bias,
        encoder_yaw_bias=float(scenario.encoder.get("bias_wz", 0.0)),
    )


def _sensor_indices(stamps: np.ndarray, rate: float,
                    imu_rate: float) -> np.ndarray:
    stride = max(1, int(round(imu_rate / rate)))
    return np.arange(0, len(stamps), stride)


def _in_windows(t: float, windows: Iterable[dict]) -> bool:
    return any(w["start"] <= t <= w["end"] for w in windows)


def generate(scenario: SimScenario) -> tuple[GroundTruth, list[SensorEvent]]:
    """Build truth and the full, arrival-ordered sensor event list."""
    truth = build_truth(scenario)
    imu_rate = float(scenario.imu.get("rate_hz", 100.0))
    n = len(truth.stamps)
    events: list[SensorEvent] = []

    # --- IMU ----------------------------------------------------------
    imu_rng = _rng(scenario.seed, "imu")
    sg = float(scenario.imu.get("sigma_gyro", 0.002))
    sa = float(scenario.imu.get("sigma_accel", 0.03))
    so = float(scenario.imu.get("sigma_orient", 0.01))
    with_orient = bool(scenario.imu.get("orientation", True))
    bursts = scenario.imu.get("az_bursts", [])
    gyro_noise = imu_rng.normal(0.0, sg, size=(n, 3))
    accel_noise = imu_rng.normal(0.0, sa, size=(n, 3))
    orient_noise = imu_rng.normal(0.0, so, size=(n, 3))
    grav_body = quat_rotate_inv(truth.quaternion, GRAVITY)
    for i in range(n):
        t = float(truth.stamps[i])
        gyro = truth.omega[i] + truth.gyro_bias[i] + gyro_noise[i]
        accel = (truth.accel_body[i] + grav_body[i] + truth.accel_bias[i]
                 + accel_noise[i])
        for b in bursts:
            if b["start"] <= t <= b["end"]:
                accel = accel + np.array([0.0, 0.0, float(b["amplitude"])])
        orient = None
        if with_orient:
            orient = euler_to_quat(orient_noise[i, 0], orient_noise[i, 1],
                                   truth.yaw[i] + orient_noise[i, 2])
        events.append(ImuSample(t, gyro, accel, orient, source=1))

    # --- optional secondary IMU ----------------------------------------
    if scenario.imu2.get("enabled", False):
        rng2 = _rng(scenario.seed, "imu2")
        rate2 = float(scenario.imu2.get("rate_hz", imu_rate))
        idx2 = _sensor_indices(truth.stamps, rate2, imu_rate)
        sg2 = float(scenario.imu2.get("sigma_gyro", sg))
        sa2 = float(scenario.imu2.get("sigma_accel", sa))
        g2 = rng2.normal(0.0, sg2, size=(len(idx2), 3))
        a2 = rng2.normal(0.0, sa2, size=(len(idx2), 3))
        for k, i in enumerate(idx2):
            events.append(ImuSample(
                float(truth.stamps[i]),
                truth.omega[i] + truth.gyro_bias[i] + g2[k],
                truth.accel_body[i] + grav_body[i] + truth.accel_bias[i] + a2[k],
                None, source=2))

    # --- wheel encoders -------------------------------------------------
    if scenario.encoder.get("enabled", True):
        enc_rng = _rng(scenario.seed, "encoder")
        rate = float(scenario.encoder.get("rate_hz", imu_rate))
        idx = _sensor_indices(truth.stamps, rate, imu_rate)
        sv = float(scenario.encoder.get("sigma_v", 0.02))
        sw = float(scenario.encoder.get("sigma_wz", 0.01))
        slip = scenario.encoder.get("slip", [])
        vn = enc_rng.normal(0.0, sv, size=(len(idx), 2))
        wn = enc_rng.normal(0.0, sw, size=len(idx))
        for k, i in enumerate(idx):
            t = float(truth.stamps[i])
            vx = truth.velocity_body[i, 0]
            for s in slip:
                if s["start"] <= t <= s["end"]:
                    vx = vx * float(s["factor"])
            events.append(EncoderSample(
                t, np.array([vx + vn[k, 0], vn[k, 1]]),
                float(truth.omega[i, 2] - truth.encoder_yaw_bias + wn[k])))

    # --- GPS fixes -------------------------------------------------------
    origin = EnuOrigin.from_geodetic(GeodeticCoord.from_degrees(
        scenario.origin["lat_deg"], scenario.origin["lon_deg"],
        scenario.origin.get("alt_m", 0.0)))
    gps_spec = scenario.gps
    if gps_spec.get("enabled", True):
        gps_rng = _rng(scenario.seed, "gps")
        fault_rng = _rng(scenario.seed, "faults")
        rate = float(gps_spec.get("rate_hz", 5.0))
        idx = _sensor_indices(truth.stamps, rate, imu_rate)
        sxy = float(gps_spec.get("sigma_xy", 1.0))
        sz = float(gps_spec.get("sigma_z", 2.0))
        hdop_default = float(gps_spec.get("hdop", 1.0))
        vdop_default = float(gps_spec.get("vdop", 1.0))
        fix_type = FixType(int(gps_spec.get("fix_type", int(FixType.RTK_FLOAT))))
        satellites = int(gps_spec.get("satellites", 9))
        dropouts = gps_spec.get("dropouts", [])
        spikes = gps_spec.get("spikes", [])
        clusters = gps_spec.get("clusters", [])
        hdop_windows = gps_spec.get("hdop_windows", [])
        noise = gps_rng.normal(0.0, 1.0, size=(len(idx), 3))
        for k, i in enumerate(idx):
            t = float(truth.stamps[i])
            if _in_windows(t, dropouts):
                continue
            hdop = hdop_default
            for w in hdop_windows:
                if w["start"] <= t <= w["end"]:
                    hdop = float(w["value"])
            enu = truth.position[i] + noise[k] * np.array(
                [sxy * hdop, sxy * hdop, sz * vdop_default])
            for spike in spikes:
                if abs(t - float(spike["t"])) < 0.5 / rate:
                    ang = np.radians(float(spike.get("direction_deg", 0.0)))
                    enu = truth.position[i] + float(spike["offset_m"]) * \
                        np.array([np.cos(ang), np.sin(ang), 0.0])
            for cl in clusters:
                start = float(cl["start"])
                count = int(cl["count"])
                cl_rate = float(cl.get("rate_hz", rate))
                end = start + count / cl_rate
                if start <= t < end:
                    ang = np.radians(float(cl.get("direction_deg", 45.0)))
                    lo = float(cl.get("offset_m_min", 720.0))
                    hi = float(cl.get("offset_m_max", 840.0))
                    dist = fault_rng.uniform(lo, hi)
                    enu = truth.position[i] + dist * np.array(
                        [np.cos(ang), np.sin(ang), 0.0])
            geo = ecef_to_geodetic(enu_to_ecef(enu, origin))
            events.append(GpsFixSample(
                t, geo.lat, geo.lon, geo.alt, fix_type, hdop, vdop_default,
                satellites))

    # --- GPS velocity ----------------------------------------------------
    if scenario.gps_velocity.get("enabled", False):
        rng = _rng(scenario.seed, "gps_vel")
        rate = float(scenario.gps_velocity.get("rate_hz", 5.0))
        idx = _sensor_indices(truth.stamps, rate, imu_rate)
        sv = float(scenario.gps_velocity.get("sigma", 0.2))
        vel_world = (truth.velocity_body[:, 0:1]
                     * np.stack([np.cos(truth.yaw), np.sin(truth.yaw)],
                                axis=-1))
        noise = rng.normal(0.0, sv, size=(len(idx), 2))
        for k, i in enumerate(idx):
            events.append(GpsVelocitySample(
                float(truth.stamps[i]), vel_world[i] + noise[k]))

    # --- radar Doppler ----------------------------------------------------
    if scenario.radar.get("enabled", False):
        rng = _rng(scenario.seed, "radar")
        rate = float(scenario.radar.get("rate_hz", 10.0))
        idx = _sensor_indices(truth.stamps, rate, imu_rate)
        sv = float(scenario.radar.get("sigma", 0.1))
        noise = rng.normal(0.0, sv, size=(len(idx), 2))
        for k, i in enumerate(idx):
            events.append(RadarVelocitySample(
                float(truth.stamps[i]),
                truth.velocity_body[i, :2] + noise[k]))

    # --- VSLAM pose --------------------------------------------------------
    if scenario.vslam.get("enabled", False):
        rng = _rng(scenario.seed, "vslam")
        rate = float(scenario.vslam.get("rate_hz", 10.0))
        idx = _sensor_indices(truth.stamps, rate, imu_rate)
        sp = float(scenario.vslam.get("sigma_pos", 0.05))
        so_v = float(scenario.vslam.get("sigma_orient", 0.005))
        reinits = scenario.vslam.get("reinits", [])
        pn = rng.normal(0.0, sp, size=(len(idx), 3))
        on = rng.normal(0.0, so_v, size=(len(idx), 3))
        for k, i in enumerate(idx):
            t = float(truth.stamps[i])
            offset = np.zeros(3)
            for r in reinits:
                if t >= float(r["t"]):
                    offset = offset + np.asarray(r["offset"], dtype=float)
            pos = truth.position[i] + offset + pn[k]
            quat = euler_to_quat(on[k, 0], on[k, 1], truth.yaw[i] + on[k, 2])
            events.append(VslamPoseSample(t, pos, quat))

    # --- merge by arrival time ---------------------------------------------
    delays = {
        GpsFixSample: float(scenario.gps.get("delay_s", 0.0)),
        VslamPoseSample: float(scenario.vslam.get("delay_s", 0.0)),
        GpsVelocitySample: float(scenario.gps_velocity.get("delay_s", 0.0)),
    }

    def sort_key(ev: SensorEvent):
        delay = delays.get(type(ev), 0.0)
        return (ev.stamp + delay, _EVENT_RANK[type(ev)], ev.stamp)

    events.sort(key=sort_key)
    return truth, events
