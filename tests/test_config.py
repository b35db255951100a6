import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navfuse.config import (ABLATION_OVERRIDES, DEFAULTS, FLAG, SECTIONS,
                            ConfigError, PipelineConfig, Range)
from navfuse.core import GRAVITY
from navfuse.events import ImuSample
from navfuse.pipeline import FusionPipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"
RANGES = {f"{section}.{key}": accepted
          for section, keys in SECTIONS.items()
          for key, (_, accepted) in keys.items()}
NUMBERS = sorted(key for key, value in DEFAULTS.items()
                 if not isinstance(value, bool))


def edges(key):
    """The lowest and the highest value the key accepts."""
    accepted = RANGES[key]
    if isinstance(DEFAULTS[key], int):
        return [int(accepted.low), int(accepted.high)]
    low = (math.nextafter(accepted.low, math.inf) if accepted.open_low
           else accepted.low)
    return [low, accepted.high]


def outside(key):
    """The values next to the key's range, below and above it."""
    low, high = edges(key)
    if isinstance(DEFAULTS[key], int):
        return [low - 1, high + 1]
    return [math.nextafter(low, -math.inf), math.nextafter(high, math.inf)]


def in_range(key):
    """Any value the key accepts, its edges among the likeliest."""
    if isinstance(DEFAULTS[key], bool):
        return st.booleans()
    low, high = edges(key)
    inner = (st.integers(low, high) if isinstance(DEFAULTS[key], int)
             else st.floats(low, high))
    return st.one_of(st.sampled_from([low, high]), inner)


class TestValidation:
    def test_defaults_available(self):
        cfg = PipelineConfig()
        assert cfg["ukf.alpha"] == 0.1
        assert cfg["gates.gps_pos"] == 16.27
        assert cfg["vslam.reinit_n"] == 10

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            PipelineConfig({"ukf.alhpa": 0.2})

    def test_nested_document_flattens(self):
        cfg = PipelineConfig({"ukf": {"alpha": 0.2}, "zupt": {"sigma": 0.02}})
        assert cfg["ukf.alpha"] == 0.2
        assert cfg["zupt.sigma"] == 0.02

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="expected number"):
            PipelineConfig({"ukf.alpha": "fast"})
        with pytest.raises(ConfigError, match="expected bool"):
            PipelineConfig({"zupt.enabled": 1})
        with pytest.raises(ConfigError, match="expected int"):
            PipelineConfig({"vslam.reinit_n": 10.5})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["gnss.sigma_xy", "vslam.reinit_n"])
    def test_nonfinite_number_rejected(self, key, value):
        with pytest.raises(ConfigError, match="expected"):
            PipelineConfig({key: value})

    def test_int_accepts_whole_float(self):
        assert PipelineConfig({"vslam.reinit_n": 12.0})["vslam.reinit_n"] == 12

    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("ukf:\n  alpha: 0.3\ngates:\n  gps_pos: 20.0\n")
        cfg = PipelineConfig.from_yaml(str(path))
        assert cfg["ukf.alpha"] == 0.3
        assert cfg["gates.gps_pos"] == 20.0

    def test_bad_yaml_reports_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("ukf: [unclosed\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_yaml(str(path))


class TestHashAndOverrides:
    def test_hash_stable_and_sensitive(self):
        a = PipelineConfig()
        b = PipelineConfig()
        c = PipelineConfig({"ukf.alpha": 0.2})
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_with_overrides_does_not_mutate(self):
        a = PipelineConfig()
        b = a.with_overrides({"zupt.enabled": False})
        assert a["zupt.enabled"] is True
        assert b["zupt.enabled"] is False

    def test_every_ablation_maps_to_known_keys(self):
        cfg = PipelineConfig()
        for name, overrides in ABLATION_OVERRIDES.items():
            out = cfg.with_overrides(overrides)
            for key, value in overrides.items():
                assert out[key] == value
            # an ablation that leaves the configuration as it was does nothing
            assert out.hash() != cfg.hash(), name


class TestRanges:
    def test_every_key_declares_its_range_and_its_default_lies_in_it(self):
        assert len(DEFAULTS) == 82
        for key, default in DEFAULTS.items():
            accepted = RANGES[key]
            assert accepted is FLAG if isinstance(default, bool) else (
                isinstance(accepted, Range)), key
            assert default in accepted, key

    @pytest.mark.parametrize("key", NUMBERS)
    def test_value_just_outside_the_range_is_refused_by_key(self, key):
        for value in outside(key):
            with pytest.raises(ConfigError,
                               match=f"^{re.escape(key)}: expected"):
                PipelineConfig({key: value})

    @pytest.mark.parametrize("end", [0, 1], ids=["low", "high"])
    def test_every_key_at_one_end_builds(self, end):
        FusionPipeline(PipelineConfig({key: edges(key)[end]
                                       for key in NUMBERS}))

    @pytest.mark.parametrize("end", [0, 1], ids=["low", "high"])
    @pytest.mark.parametrize("key", NUMBERS)
    def test_key_at_each_end_runs_imu_steps_at_rest(self, key, end):
        """Each key alone at an edge fuses two IMU samples at rest, the
        second one predict and one update, to a finite state and
        covariance.  Mixes of extreme keys are out of scope."""
        pipe = FusionPipeline(PipelineConfig({key: edges(key)[end]}))
        for stamp in (0.0, 0.01):
            report = pipe.ingest(ImuSample(stamp, np.zeros(3), GRAVITY.copy(),
                                           np.array([1.0, 0.0, 0.0, 0.0])))
            assert report.dropped is None
            assert np.isfinite(pipe.x).all() and np.isfinite(pipe.cov).all()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.fixed_dictionaries({key: in_range(key) for key in DEFAULTS}))
    def test_configuration_in_range_always_builds(self, values):
        FusionPipeline(PipelineConfig(values))

    def test_workloads_and_ablations_build(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        configs = [PipelineConfig(w.config)
                   for w in workloads.WORKLOADS.values()]
        configs += [PipelineConfig().with_overrides(overrides)
                    for overrides in ABLATION_OVERRIDES.values()]
        for config in configs:
            FusionPipeline(config)
