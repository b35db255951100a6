"""Deterministic ground-truth trajectories and corrupted sensor streams.

Trajectories are planar with trapezoidal speed and turn-rate profiles, so
the acceleration truth stays bounded.  Every sensor stream draws from its
own counter-based generator keyed by (seed, sensor), which keeps streams
independent: injecting faults into one sensor never shifts another's noise
draws, so A/B scenario comparisons stay paired.

``SECTIONS`` is the scenario schema: a row per sensor section with its
generator key, every key it reads with its default, and its draw function;
a row's position breaks ties in arrival time.  ``TRAJECTORIES`` declares
each trajectory type's keys, and ``ENTRIES`` the keys of each fault list's
entries, both with their defaults.  A key that a section, the trajectory,
a fault-list entry or the origin (``lat_deg``, ``lon_deg``, ``alt_m``)
does not declare raises ``GenerationError``, and so does a missing entry
key without a default, a ``rate_hz`` or ``duration_s`` that is not
positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

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


#: the generators that belong to no section: the IMU bias walks (drawn
#: with the truth) and the GPS cluster offsets
_IMU_BIAS, _FAULTS = 2, 8


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        key=(int(seed) * 1000003 + key) % (2**63)))


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


#: standing still from here on
_STILL = (float("inf"), np.zeros_like, np.zeros_like, np.zeros_like)


def _phases_for(spec: dict) -> list[tuple[float, callable, callable, callable]]:
    """Each phase: (duration, speed(t), accel(t), yaw_rate(t)), from a
    trajectory with every key of its type (``TRAJECTORIES``)."""
    kind = spec["type"]
    if kind == "static":
        return [_STILL]
    if kind in ("circle", "figure_eight"):
        radius = float(spec["radius"])
        speed = float(spec["speed"])
        accel = float(spec["accel"])
        if radius <= 0 or speed <= 0 or accel <= 0:
            raise GenerationError("circle needs positive radius/speed/accel")
        t_ramp = speed / accel
        direction = 1.0 if spec["ccw"] else -1.0

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
        points = spec["points"]
        if not points or len(points) < 2:
            raise GenerationError("waypoints trajectory needs >= 2 points")
        speed = float(spec["speed"])
        accel = float(spec["accel"])
        turn_rate = float(spec["turn_rate"])
        turn_accel = float(spec["turn_accel"])
        pts = [np.asarray(p, dtype=float) for p in points]
        if spec["loop"]:
            pts.append(pts[0])
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
                    dur, rate, _ = _trapezoid(abs(turn), turn_rate, turn_accel)
                    sign = np.sign(turn)
                    phases.append((dur, np.zeros_like, np.zeros_like,
                                   lambda t, r=rate, s=sign: s * r(t)))
            heading = leg_heading
            dur, rate, slope = _trapezoid(dist, speed, accel)
            phases.append((dur, rate, slope, np.zeros_like))
        phases.append(_STILL)
        return phases


def build_truth(scenario: SimScenario) -> GroundTruth:
    return _truth(scenario, _resolve(scenario))


def _truth(scenario: SimScenario, sections: dict[str, dict]) -> GroundTruth:
    """The ground truth of ``scenario``, whose ``sections`` are resolved
    (``_resolve``)."""
    imu, trajectory = sections["imu"], sections["trajectory"]
    dt = 1.0 / imu["rate_hz"]
    n = int(round(scenario.duration_s * imu["rate_hz"])) + 1
    stamps = np.arange(n) * dt

    phases = _phases_for(trajectory)
    speed, accel_long, yaw_rate, zero = np.zeros((4, n))
    start, idx0 = 0.0, 0
    for dur, f_speed, f_accel, f_rate in phases:
        if idx0 >= n:
            break
        t_local = stamps[idx0:] - start
        seg = t_local[:np.count_nonzero(t_local <= dur)]
        part = slice(idx0, idx0 + len(seg))
        speed[part], accel_long[part], yaw_rate[part] = (
            f_speed(seg), f_accel(seg), f_rate(seg))
        idx0 += len(seg)
        start += dur

    # feasibility: the sampled speed must not jump faster than the profiles
    max_jump = np.max(np.abs(np.diff(speed))) if n > 1 else 0.0
    accel_bound = max(float(trajectory.get("accel", 1.0)), 1.0)
    if max_jump > 2.0 * accel_bound * dt + 1e-9:
        raise GenerationError("speed discontinuity in trajectory profile")

    yaw = float(trajectory["yaw0"]) + np.concatenate(
        [[0.0], np.cumsum(0.5 * (yaw_rate[1:] + yaw_rate[:-1]) * dt)])
    vel_world = np.stack(
        [speed * np.cos(yaw), speed * np.sin(yaw), zero], axis=-1)
    position = np.concatenate(
        [np.zeros((1, 3)),
         np.cumsum(0.5 * (vel_world[1:] + vel_world[:-1]) * dt, axis=0)])
    start_xy = np.asarray(trajectory["start"], dtype=float)
    position[:, 0] += start_xy[0]
    position[:, 1] += start_xy[1]

    quaternion = np.stack([np.cos(yaw / 2), zero, zero, np.sin(yaw / 2)],
                          axis=-1)
    velocity_body = np.stack([speed, zero, zero], axis=-1)
    omega = np.stack([zero, zero, yaw_rate], axis=-1)
    accel_body = np.stack([accel_long, speed * yaw_rate, zero], axis=-1)

    bias_rng = _rng(scenario.seed, _IMU_BIAS)
    gyro_bias = np.tile(np.asarray(imu["bias_gyro"], dtype=float), (n, 1))
    accel_bias = np.tile(np.asarray(imu["bias_accel"], dtype=float), (n, 1))
    if imu["gyro_bias_walk"] > 0:
        gyro_bias = gyro_bias + np.cumsum(bias_rng.normal(
            0.0, imu["gyro_bias_walk"] * np.sqrt(dt), size=(n, 3)), axis=0)
    if imu["accel_bias_walk"] > 0:
        accel_bias = accel_bias + np.cumsum(bias_rng.normal(
            0.0, imu["accel_bias_walk"] * np.sqrt(dt), size=(n, 3)), axis=0)

    return GroundTruth(stamps, position, yaw, quaternion, velocity_body, omega,
                       accel_body, gyro_bias, accel_bias,
                       sections["encoder"]["bias_wz"])


# ----------------------------------------------------------------------
# sensor sections

def _windows(stamps: np.ndarray, windows: list) -> list:
    """(mask of the stamps it covers, ends included; window) per window."""
    return [((w["start"] <= stamps) & (stamps <= w["end"]), w)
            for w in windows]


def _draw_imu(rng, spec, idx, truth, scenario):
    """Either IMU.  The primary (declaring ``orientation``) draws orientation
    noise for every sample, orientation or not, and adds its ``az_bursts``."""
    shape = (len(idx), 3)
    gyro = truth.omega[idx] + truth.gyro_bias[idx] + rng.normal(
        0.0, spec["sigma_gyro"], size=shape)
    force = (truth.accel_body + quat_rotate_inv(truth.quaternion, GRAVITY)
             + truth.accel_bias)
    accel = force[idx] + rng.normal(0.0, spec["sigma_accel"], size=shape)
    if "orientation" not in spec:
        return [ImuSample(float(truth.stamps[i]), gyro[k], accel[k], None,
                          source=2) for k, i in enumerate(idx)]
    orient = rng.normal(0.0, spec["sigma_orient"], size=shape)
    for inside, burst in _windows(truth.stamps[idx], spec["az_bursts"]):
        accel[inside] += np.array([0.0, 0.0, float(burst["amplitude"])])
    return [ImuSample(float(truth.stamps[i]), gyro[k], accel[k],
                      euler_to_quat(orient[k, 0], orient[k, 1],
                                    truth.yaw[i] + orient[k, 2])
                      if spec["orientation"] else None, source=1)
            for k, i in enumerate(idx)]


def _draw_encoder(rng, spec, idx, truth, scenario):
    vn = rng.normal(0.0, spec["sigma_v"], size=(len(idx), 2))
    wn = rng.normal(0.0, spec["sigma_wz"], size=len(idx))
    vx = truth.velocity_body[idx, 0]
    for inside, slip in _windows(truth.stamps[idx], spec["slip"]):
        vx[inside] *= float(slip["factor"])
    velocity = np.stack([vx + vn[:, 0], vn[:, 1]], axis=-1)
    yaw_rate = truth.omega[idx, 2] - truth.encoder_yaw_bias + wn
    return [EncoderSample(float(truth.stamps[i]), velocity[k],
                          float(yaw_rate[k])) for k, i in enumerate(idx)]


def _heading(direction_deg) -> np.ndarray:
    ang = np.radians(float(direction_deg))
    return np.array([np.cos(ang), np.sin(ang), 0.0])


def _draw_gps(rng, spec, idx, truth, scenario):
    """Noise is drawn at every stride index, so a dropout shifts no later
    noise; a spike or cluster replaces a fix, cluster offsets in fix order."""
    place = scenario.origin
    origin = EnuOrigin.from_geodetic(GeodeticCoord.from_degrees(
        place["lat_deg"], place["lon_deg"], place.get("alt_m", 0.0)))
    faults = _rng(scenario.seed, _FAULTS)
    rate, vdop, stamps = spec["rate_hz"], spec["vdop"], truth.stamps[idx]
    fix_type = FixType(spec["fix_type"])
    noise = rng.normal(0.0, 1.0, size=(len(idx), 3))
    hdop = np.full(len(idx), spec["hdop"])
    for inside, window in _windows(stamps, spec["hdop_windows"]):
        hdop[inside] = float(window["value"])
    dropouts = _windows(stamps, spec["dropouts"])
    events = []
    for k, i in enumerate(idx):
        t = float(stamps[k])
        if any(inside[k] for inside, _ in dropouts):
            continue
        sxy = spec["sigma_xy"] * hdop[k]
        enu = truth.position[i] + noise[k] * np.array(
            [sxy, sxy, spec["sigma_z"] * vdop])
        for spike in spec["spikes"]:
            if abs(t - float(spike["t"])) < 0.5 / rate:
                enu = truth.position[i] + float(spike["offset_m"]) * \
                    _heading(spike["direction_deg"])
        for cl in spec["clusters"]:
            start, cl_rate = float(cl["start"]), float(cl["rate_hz"])
            if start <= t < start + int(cl["count"]) / cl_rate:
                enu = truth.position[i] + faults.uniform(
                    float(cl["offset_m_min"]), float(cl["offset_m_max"])
                ) * _heading(cl["direction_deg"])
        geo = ecef_to_geodetic(enu_to_ecef(enu, origin))
        events.append(GpsFixSample(t, geo.lat, geo.lon, geo.alt, fix_type,
                                   float(hdop[k]), vdop, spec["satellites"]))
    return events


def _draw_gps_velocity(rng, spec, idx, truth, scenario):
    vel_world = (truth.velocity_body[:, 0:1]
                 * np.stack([np.cos(truth.yaw), np.sin(truth.yaw)], axis=-1))
    velocity = vel_world[idx] + rng.normal(0.0, spec["sigma"],
                                           size=(len(idx), 2))
    return [GpsVelocitySample(float(truth.stamps[i]), velocity[k])
            for k, i in enumerate(idx)]


def _draw_radar(rng, spec, idx, truth, scenario):
    velocity = truth.velocity_body[idx, :2] + rng.normal(
        0.0, spec["sigma"], size=(len(idx), 2))
    return [RadarVelocitySample(float(truth.stamps[i]), velocity[k])
            for k, i in enumerate(idx)]


def _draw_vslam(rng, spec, idx, truth, scenario):
    pn = rng.normal(0.0, spec["sigma_pos"], size=(len(idx), 3))
    on = rng.normal(0.0, spec["sigma_orient"], size=(len(idx), 3))
    offset = np.zeros((len(idx), 3))
    for reinit in spec["reinits"]:
        offset[truth.stamps[idx] >= float(reinit["t"])] += np.asarray(
            reinit["offset"], dtype=float)
    position = truth.position[idx] + offset + pn
    return [VslamPoseSample(float(truth.stamps[i]), position[k], euler_to_quat(
        on[k, 0], on[k, 1], truth.yaw[i] + on[k, 2]))
        for k, i in enumerate(idx)]


class Section(NamedTuple):
    """One row of the scenario schema.  Each given value is converted to its
    default's type; a default of None takes the ``imu`` section's value."""

    generator: int  # the key of the section's noise generator
    defaults: dict
    #: (generator, resolved section, truth indices, truth, scenario)
    draw: Callable[..., list[SensorEvent]]


SECTIONS: dict[str, Section] = {
    "imu": Section(1, {
        "rate_hz": 100.0, "sigma_gyro": 0.002, "sigma_accel": 0.03,
        "sigma_orient": 0.01, "orientation": True, "az_bursts": [],
        "bias_gyro": [0.0, 0.0, 0.0], "bias_accel": [0.0, 0.0, 0.0],
        "gyro_bias_walk": 0.0, "accel_bias_walk": 0.0}, _draw_imu),
    "imu2": Section(9, {"enabled": False, "rate_hz": None,
                        "sigma_gyro": None, "sigma_accel": None}, _draw_imu),
    "encoder": Section(3, {"enabled": True, "rate_hz": None, "sigma_v": 0.02,
                           "sigma_wz": 0.01, "bias_wz": 0.0, "slip": []},
                       _draw_encoder),
    "gps": Section(4, {
        "enabled": True, "rate_hz": 5.0, "delay_s": 0.0, "sigma_xy": 1.0,
        "sigma_z": 2.0, "hdop": 1.0, "vdop": 1.0,
        "fix_type": int(FixType.RTK_FLOAT), "satellites": 9, "dropouts": [],
        "hdop_windows": [], "spikes": [], "clusters": []}, _draw_gps),
    "gps_velocity": Section(5, {"enabled": False, "rate_hz": 5.0,
                                "delay_s": 0.0, "sigma": 0.2},
                            _draw_gps_velocity),
    "radar": Section(6, {"enabled": False, "rate_hz": 10.0, "sigma": 0.1},
                     _draw_radar),
    "vslam": Section(7, {"enabled": False, "rate_hz": 10.0, "delay_s": 0.0,
                         "sigma_pos": 0.05, "sigma_orient": 0.005,
                         "reinits": []}, _draw_vslam),
}


#: each trajectory type's keys with their defaults, besides ``type`` and
#: ``_POSE``; ``points`` has none, and ``static`` takes no other
TRAJECTORIES: dict[str, dict] = {
    "static": {},
    "circle": {"radius": 20.0, "speed": 2.0, "accel": 0.5, "ccw": True},
    "figure_eight": {"radius": 20.0, "speed": 2.0, "accel": 0.5,
                     "ccw": True},
    "waypoints": {"points": None, "speed": 2.0, "accel": 0.8,
                  "turn_rate": 0.8, "turn_accel": 1.6, "loop": False},
}
#: the keys every trajectory type takes: the initial yaw and the start
_POSE = {"yaw0": 0.0, "start": [0.0, 0.0]}

#: per fault list, the keys its entries must give, and those with a
#: default; a default of None takes the section's value of that key
ENTRIES: dict[str, tuple[tuple[str, ...], dict]] = {
    "az_bursts": (("start", "end", "amplitude"), {}),
    "slip": (("start", "end", "factor"), {}),
    "dropouts": (("start", "end"), {}),
    "hdop_windows": (("start", "end", "value"), {}),
    "spikes": (("t", "offset_m"), {"direction_deg": 0.0}),
    "clusters": (("start", "count"), {
        "rate_hz": None, "offset_m_min": 720.0, "offset_m_max": 840.0,
        "direction_deg": 45.0}),
    "reinits": (("t", "offset"), {}),
}


def _check_keys(name: str, given, declared) -> None:
    unknown = sorted(set(given) - set(declared), key=str)
    if unknown:
        raise GenerationError(f"unknown scenario keys in {name!r}: {unknown}")


def _positive(name: str, key: str, value) -> None:
    if not value > 0:  # NaN too
        raise GenerationError(f"{name!r}: {key} must be > 0, not {value!r}")


def _entries(name: str, spec: dict, key: str) -> list[dict]:
    """The entries of ``spec``'s fault list ``key``, each with every key of
    ``ENTRIES[key]``, given or default."""
    required, defaults = ENTRIES[key]
    entries = []
    for i, entry in enumerate(spec[key]):
        where = f"{name}.{key}[{i}]"
        if not isinstance(entry, dict):
            raise GenerationError(f"{where!r} must be a mapping")
        _check_keys(where, entry, required + tuple(defaults))
        missing = [req for req in required if req not in entry]
        if missing:
            raise GenerationError(f"missing scenario keys in {where!r}: "
                                  f"{missing}")
        resolved = {k: spec[k] if default is None else default
                    for k, default in defaults.items()}
        resolved.update(entry)
        if "rate_hz" in resolved:
            _positive(where, "rate_hz", resolved["rate_hz"])
        entries.append(resolved)
    return entries


def _resolve(scenario: SimScenario) -> dict[str, dict]:
    """Each section's and the trajectory's declared keys, given or default,
    each fault-list entry's too (``_entries``); refuses any other key, and
    a ``rate_hz`` or ``duration_s`` that is not positive."""
    _check_keys("origin", scenario.origin, ("lat_deg", "lon_deg", "alt_m"))
    _positive("scenario", "duration_s", scenario.duration_s)
    given = scenario.trajectory
    kind = given.get("type", "static")
    if kind not in TRAJECTORIES:
        raise GenerationError(f"unknown trajectory type {kind!r}")
    declared = {"type": kind, **_POSE, **TRAJECTORIES[kind]}
    _check_keys("trajectory", given, declared)
    resolved: dict[str, dict] = {"trajectory": {**declared, **given}}
    for name, section in SECTIONS.items():
        given = getattr(scenario, name)
        _check_keys(name, given, section.defaults)
        resolved[name] = spec = {}
        for key, default in section.defaults.items():
            if default is None:
                default = resolved["imu"][key]
            spec[key] = type(default)(given.get(key, default))
        _positive(name, "rate_hz", spec["rate_hz"])
        for key in ENTRIES.keys() & spec.keys():
            spec[key] = _entries(name, spec, key)
    return resolved


def generate(scenario: SimScenario) -> tuple[GroundTruth, list[SensorEvent]]:
    """Build truth and the full, arrival-ordered sensor event list."""
    sections = _resolve(scenario)
    truth = _truth(scenario, sections)
    imu_rate, keyed = sections["imu"]["rate_hz"], []
    for rank, (name, section) in enumerate(SECTIONS.items()):
        spec = sections[name]
        if not spec.get("enabled", True):
            continue
        stride = max(1, int(round(imu_rate / spec["rate_hz"])))
        events = section.draw(_rng(scenario.seed, section.generator), spec,
                              np.arange(0, len(truth.stamps), stride), truth,
                              scenario)
        delay = spec.get("delay_s", 0.0)
        keyed += [((ev.stamp + delay, rank, ev.stamp), ev) for ev in events]
    keyed.sort(key=lambda pair: pair[0])
    return truth, [ev for _, ev in keyed]
