import pytest

from navfuse.config import ABLATION_OVERRIDES, ConfigError, PipelineConfig


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
