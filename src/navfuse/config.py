"""Namespaced pipeline configuration with strict validation.

Configuration documents are YAML mappings whose nested keys flatten to the
dotted names below.  Unknown keys are rejected at configure time; every
value is type-checked against its default.  A stable hash of the resolved
configuration guards checkpoint compatibility.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Mapping, Optional


class ConfigError(ValueError):
    """Raised on unknown keys, type mismatches, or unreadable documents."""


# default, per namespaced key; the value's type is also its schema
DEFAULTS: dict[str, Any] = {
    # sigma-point spread and scaling
    "ukf.alpha": 0.1,
    "ukf.beta": 2.0,
    "ukf.kappa": 0.0,
    # continuous-time process noise intensities
    "ukf.q_position": 1e-4,
    "ukf.q_orientation": 1e-7,
    "ukf.q_velocity": 1e-3,
    "ukf.q_omega": 5e-2,
    "ukf.q_accel": 5e-1,
    "ukf.q_gyro_bias": 1e-9,
    "ukf.q_accel_bias": 1e-8,
    "ukf.q_ewz": 1e-11,
    # initial covariance diagonals
    "init.position_var": 1.0,
    "init.orientation_var": 0.1,
    "init.velocity_var": 0.25,
    "init.omega_var": 0.1,
    "init.accel_var": 0.5,
    "init.gyro_bias_var": 1e-4,
    "init.accel_bias_var": 1e-4,
    "init.ewz_var": 1e-4,
    # primary IMU
    "imu.sigma_gyro": 0.005,
    "imu.sigma_accel": 0.05,
    "imu.sigma_orient": 0.02,
    "imu.use_orientation": True,
    "imu.has_magnetometer": False,
    # optional secondary IMU (measurement-only, never drives the clock)
    "imu2.enabled": False,
    "imu2.sigma_gyro": 0.005,
    "imu2.sigma_accel": 0.05,
    "imu2.sigma_orient": 0.02,
    "imu2.use_orientation": True,
    "imu2.has_magnetometer": False,
    # wheel encoders
    "encoder.enabled": True,
    "encoder.sigma_vx": 0.03,
    "encoder.sigma_vy": 0.03,
    "encoder.sigma_wz": 0.02,
    "encoder.vz_sigma": 0.05,
    # GNSS
    "gnss.enabled": True,
    "gnss.sigma_xy": 1.0,
    "gnss.sigma_z": 2.0,
    "gnss.min_fix_type": 1,
    "gnss.max_hdop": 10.0,
    "gnss.min_satellites": 4,
    "gnss.heading_enabled": True,
    "gnss.heading_min_speed": 0.5,
    "gnss.heading_min_baseline": 2.0,
    "gnss.heading_sigma_floor": 0.05,
    "gnss.velocity_enabled": False,
    "gnss.velocity_sigma": 0.3,
    # radar Doppler ego-velocity
    "radar.enabled": False,
    "radar.sigma": 0.1,
    # VSLAM pose
    "vslam.enabled": False,
    "vslam.reinit_n": 10,
    "vslam.sigma_pos": 0.05,
    "vslam.sigma_orient": 0.01,
    "vslam.pos_floor": 0.01,
    "vslam.orient_floor": 0.001,
    "vslam.singularity_deg": 1.0,
    # chi-squared gates on the squared Mahalanobis distance, each the
    # chi2(dof, p) quantile named; a gate must be > 0.  Three are shared:
    # imu by imu_raw (6 dof) and orientation (2-3), encoder by encoder_vz
    # (1) and radar (2), gps_pos by GPS velocity (2).  The encoder and
    # encoder_vz rows fuse in one update, and so do imu_raw and orientation,
    # but each is gated on its own d2 given the accepted rows before it
    # (ukf.update), so each keeps its gate
    "gates.imu": 15.09,      # chi2(5, 0.99)
    "gates.encoder": 11.34,  # chi2(3, 0.99)
    "gates.gps_pos": 16.27,  # chi2(3, 0.999)
    "gates.heading": 10.83,  # chi2(1, 0.999)
    "gates.vslam": 22.46,    # chi2(6, 0.999)
    "gates.zupt": 16.27,     # chi2(3, 0.999)
    # adaptive measurement noise
    "adaptive.gnss": True,
    "adaptive.encoder": False,
    "adaptive.vz": True,
    "adaptive.window": 50,
    "adaptive.alpha": 0.01,
    # per-path noise floors (sigma) on the diagonal of the path's R, which
    # bound it whether or not the path adapts; a floor <= 0 floors its axes
    # at the configured R
    "adaptive.gnss_floor_xy": 0.0,
    "adaptive.gnss_floor_z": 0.0,
    "adaptive.encoder_floor": 0.0,
    # zero-velocity updates
    "zupt.enabled": True,
    "zupt.speed_threshold": 0.05,
    "zupt.rate_threshold": 0.05,
    "zupt.sigma": 0.01,
    "zupt.hysteresis": 1.5,
    # coast mode (GPS absence)
    "coast.enter_s": 5.0,
    "coast.position_inflation": 10.0,
    "coast.encoder_wz_factor": 0.5,
    "coast.gate_relax": 2.0,
    # retrodiction ring
    "retro.enabled": True,
    "retro.capacity": 100,
    # feature toggles for ablations
    "features.bias_states": True,
    "features.b_ewz": True,
}


def _flatten(mapping: Mapping, prefix: str = "") -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in mapping.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def _coerce(key: str, value: Any, default: Any) -> Any:
    """``value`` as the type of ``default``; a number must be finite, as
    NaN or inf would silently gate a sensor's every update."""
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{key}: expected bool, got {value!r}")
    expected = "int" if isinstance(default, int) else "number"
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max  # NaN, inf, 10**400
            or expected == "int" and value != int(value)):
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")
    return int(value) if expected == "int" else float(value)


class PipelineConfig:
    """Validated, immutable view of the full parameter set."""

    def __init__(self, overrides: Optional[Mapping] = None):
        values = dict(DEFAULTS)
        if overrides:
            flat = _flatten(overrides)
            unknown = sorted(set(flat) - set(DEFAULTS))
            if unknown:
                raise ConfigError(f"unknown configuration keys: {unknown}")
            for key, value in flat.items():
                values[key] = _coerce(key, value, DEFAULTS[key])
        self._values = values

    @classmethod
    def from_yaml(cls, path: str) -> "PipelineConfig":
        import yaml  # here, to keep it off the import of the pipeline

        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = yaml.safe_load(fh)
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if doc is None:
            doc = {}
        if not isinstance(doc, Mapping):
            raise ConfigError("config document must be a mapping")
        return cls(doc)

    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[key]
        except KeyError as exc:
            raise ConfigError(f"unknown configuration key: {key}") from exc

    def with_overrides(self, overrides: Mapping[str, Any]) -> "PipelineConfig":
        return PipelineConfig({**self._values, **overrides})

    def hash(self) -> str:
        canonical = json.dumps(self._values, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: ablation switch -> configuration overrides applied by the CLI
ABLATION_OVERRIDES: dict[str, dict[str, Any]] = {
    "bias_states": {"features.bias_states": False},
    "b_ewz": {"features.b_ewz": False},
    "adaptive": {
        "adaptive.gnss": False,
        "adaptive.encoder": False,
        "adaptive.vz": False,
    },
    "retrodiction": {"retro.enabled": False},
    "zupt": {"zupt.enabled": False},
    "gnss": {"gnss.enabled": False},
}
