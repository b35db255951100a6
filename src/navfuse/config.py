"""Namespaced pipeline configuration with strict validation.

Configuration documents are YAML mappings whose nested keys flatten to the
dotted names of ``SECTIONS``, the schema: each key once, with its default
and its ``Range``, one of five forms: positive, non-negative, a probability
in (0, 1], an int >= 1 or a closed interval, none past ``BIG``, so that
the square or product of two settings is finite; ``SIGMA`` and the UKF
ranges keep a sigma's square and the spread alpha^2 (n + kappa) positive.
An unknown key, a value not of its default's type or out of its range is
a ``ConfigError`` naming the key, so a configuration in range always builds
a pipeline and no component checks a setting again.  A stable hash of the
resolved values guards checkpoint compatibility.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple, Optional

from .events import FixType


class ConfigError(ValueError):
    """Raised on unknown keys, type mismatches, values out of range, or
    unreadable documents."""


BIG = 1e150


class Range(NamedTuple):
    """[low, high], or (low, high] when ``open_low``."""

    low: float
    high: float = BIG
    open_low: bool = False

    def __contains__(self, value) -> bool:
        return (self.low < value <= self.high
                or value == self.low and not self.open_low)

    def __str__(self) -> str:
        bracket = "(" if self.open_low else "["
        return f"{bracket}{self.low:g}, {self.high:g}]"


POSITIVE = Range(0.0, open_low=True)
NON_NEGATIVE = Range(0.0)
PROBABILITY = Range(0.0, 1.0, open_low=True)
COUNT = Range(1)  # with an int default: an int >= 1
SIGMA = Range(1.0 / BIG)  # its square is a finite, normal float
FLAG = (False, True)

#: per section, each key's (default, range), the value of the default's type
SECTIONS: dict[str, dict[str, tuple[Any, Any]]] = {
    # sigma-point scaling, 1e-4 <= alpha (Wan & van der Merwe), beta <=
    # 1e3 (2 is optimal for a Gaussian; the centre weight Wc0 grows with
    # beta, and at 1e50 a run at rest fails to factor P within ten IMU
    # steps) and n + kappa >= 1 for n = 23 states, then process noise
    # intensities
    "ukf": {"alpha": (0.1, Range(1e-4, 1.0)), "beta": (2.0, Range(0.0, 1e3)),
            "kappa": (0.0, Range(-22.0)),
            "q_position": (1e-4, NON_NEGATIVE),
            "q_orientation": (1e-7, NON_NEGATIVE),
            "q_velocity": (1e-3, NON_NEGATIVE),
            "q_omega": (5e-2, NON_NEGATIVE),
            "q_accel": (5e-1, NON_NEGATIVE),
            "q_gyro_bias": (1e-9, NON_NEGATIVE),
            "q_accel_bias": (1e-8, NON_NEGATIVE),
            "q_ewz": (1e-11, NON_NEGATIVE)},
    # initial covariance diagonals, positive so that P0 factors
    "init": {"position_var": (1.0, POSITIVE),
             "orientation_var": (0.1, POSITIVE),
             "velocity_var": (0.25, POSITIVE),
             "omega_var": (0.1, POSITIVE),
             "accel_var": (0.5, POSITIVE),
             "gyro_bias_var": (1e-4, POSITIVE),
             "accel_bias_var": (1e-4, POSITIVE),
             "ewz_var": (1e-4, POSITIVE)},
    # primary IMU
    "imu": {"sigma_gyro": (0.005, SIGMA), "sigma_accel": (0.05, SIGMA),
            "sigma_orient": (0.02, SIGMA),
            "use_orientation": (True, FLAG),
            "has_magnetometer": (False, FLAG)},
    # optional secondary IMU (measurement-only, never drives the clock)
    "imu2": {"enabled": (False, FLAG),
             "sigma_gyro": (0.005, SIGMA), "sigma_accel": (0.05, SIGMA),
             "sigma_orient": (0.02, SIGMA),
             "use_orientation": (True, FLAG),
             "has_magnetometer": (False, FLAG)},
    # wheel encoders
    "encoder": {"enabled": (True, FLAG),
                "sigma_vx": (0.03, SIGMA), "sigma_vy": (0.03, SIGMA),
                "sigma_wz": (0.02, SIGMA),
                "vz_sigma": (0.05, SIGMA)},
    # GNSS; a heading chord of no length has no course
    "gnss": {"enabled": (True, FLAG),
             "sigma_xy": (1.0, SIGMA), "sigma_z": (2.0, SIGMA),
             "min_fix_type": (1, Range(min(FixType), max(FixType))),
             "max_hdop": (10.0, POSITIVE),
             "min_satellites": (4, NON_NEGATIVE),
             "heading_enabled": (True, FLAG),
             "heading_min_speed": (0.5, NON_NEGATIVE),
             "heading_min_baseline": (2.0, POSITIVE),
             "heading_sigma_floor": (0.05, SIGMA),
             "velocity_enabled": (False, FLAG),
             "velocity_sigma": (0.3, SIGMA)},
    # radar Doppler ego-velocity
    "radar": {"enabled": (False, FLAG), "sigma": (0.1, SIGMA)},
    # VSLAM pose
    "vslam": {"enabled": (False, FLAG), "reinit_n": (10, COUNT),
              "sigma_pos": (0.05, SIGMA), "sigma_orient": (0.01, SIGMA),
              "pos_floor": (0.01, NON_NEGATIVE),
              "orient_floor": (0.001, NON_NEGATIVE)},
    # the chi-squared gates on the squared Mahalanobis distance: each path's
    # (its block's in a stack, gated on its own d2 given the accepted rows
    # before it, ukf.update) is chi2(dim, false_alarm), the d2 a consistent
    # update exceeds with this probability, at the path's own dof
    # (measurements.MeasurementModel)
    "gates": {"false_alarm": (0.001, PROBABILITY)},
    # adaptive measurement noise (a window is shifted on every innovation),
    # then per-path noise floors (sigma) on the diagonal of the path's R,
    # whether or not it adapts: one whose square is 0 is the configured R
    "adaptive": {"gnss": (True, FLAG), "encoder": (False, FLAG),
                 "vz": (True, FLAG),
                 "window": (50, Range(1, 10_000)),
                 "alpha": (0.01, PROBABILITY),
                 "gnss_floor_xy": (0.0, NON_NEGATIVE),
                 "gnss_floor_z": (0.0, NON_NEGATIVE),
                 "encoder_floor": (0.0, NON_NEGATIVE)},
    # zero-velocity updates, released at the thresholds times hysteresis
    "zupt": {"enabled": (True, FLAG),
             "speed_threshold": (0.05, NON_NEGATIVE),
             "rate_threshold": (0.05, NON_NEGATIVE),
             "sigma": (0.01, SIGMA),
             "hysteresis": (1.5, Range(1.0))},
    # coast mode (GPS absence)
    "coast": {"enter_s": (5.0, POSITIVE),
              "position_inflation": (10.0, Range(1.0)),
              "encoder_wz_factor": (0.5, PROBABILITY),
              "gate_relax": (2.0, Range(1.0))},
    # retrodiction ring
    "retro": {"enabled": (True, FLAG), "capacity": (100, COUNT)},
    # feature toggles for ablations
    "features": {"bias_states": (True, FLAG), "b_ewz": (True, FLAG)},
}

#: default, per namespaced key
DEFAULTS: dict[str, Any] = {f"{section}.{key}": default
                            for section, keys in SECTIONS.items()
                            for key, (default, _) in keys.items()}
_TYPE_NAMES = {bool: "bool", int: "int", float: "number"}


def _flatten(mapping: Mapping, prefix: str = "") -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in mapping.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def _coerce(key: str, value: Any) -> Any:
    """``value`` as the type of the key's default, which it must have (an
    int's may be a whole float), if it lies in the key's range; so a number
    is finite, as NaN or inf would silently gate a sensor's every update."""
    section, _, name = key.partition(".")
    default, accepted = SECTIONS[section][name]
    kind = type(default)
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float))
            or value not in accepted  # NaN, inf, 10**400
            or kind is int and value != int(value)):
        raise ConfigError(f"{key}: expected {_TYPE_NAMES[kind]} in "
                          f"{accepted}, got {value!r}")
    return kind(value)


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
                values[key] = _coerce(key, value)
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
        # here, as only checkpoints hash: keeps them off the ingest imports
        import hashlib
        import json
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
