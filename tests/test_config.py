import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsr3d import VsrError
from vsr3d.config import PipelineConfig

FIELDS = [f.name for f in dataclasses.fields(PipelineConfig)]
INT_FIELDS = [f.name for f in dataclasses.fields(PipelineConfig) if f.type == "int"]
FLOAT_FIELDS = [f.name for f in dataclasses.fields(PipelineConfig) if f.type == "float"]

json_scalars = st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=4),
                         st.none(), st.sampled_from([0, 1, 2, 3, 0.5, 1.5, 2.0, -1, "lum"]))
json_values = st.one_of(json_scalars, st.lists(json_scalars, max_size=3))


class TestDefaults:
    def test_published_operating_point(self):
        cfg = PipelineConfig()
        assert cfg.channel == "red"
        assert cfg.delta_t_ms == 30.0
        assert cfg.uniform_length == 10
        assert cfg.mask_size == 3
        assert (cfg.min_duration, cfg.max_duration) == (1, 25)
        assert (cfg.biphone_min_duration, cfg.biphone_max_duration) == (2, 37)
        assert 64.0 in cfg.c_grid
        assert 2.0**-7 in cfg.gamma_grid

    def test_duration_bounds_per_kind(self):
        cfg = PipelineConfig()
        assert cfg.duration_bounds("phoneme") == (1, 25)
        assert cfg.duration_bounds("viseme") == (1, 25)
        assert cfg.duration_bounds("biphone") == (2, 37)
        assert cfg.duration_bounds("bi-viseme") == (2, 37)
        with pytest.raises(VsrError):
            cfg.duration_bounds("word")


class TestRoundTrip:
    def test_every_default_overridable_and_round_trips(self, tmp_path):
        overrides = {
            "channel": "lum", "delta_t_ms": 0.0, "uniform_length": 8, "mask_size": 2,
            "min_duration": 3, "max_duration": 12, "biphone_min_duration": 6,
            "biphone_max_duration": 24, "roi_width": 32, "roi_height": 24, "fps": 30.0,
            "c_grid": [2.0, 8.0], "gamma_grid": [0.25], "svm_tolerance": 1e-4,
            "svm_max_passes": 50, "cv_fraction": 0.25,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(overrides))
        cfg = PipelineConfig.load(path)
        echoed = json.loads(cfg.to_json())
        for key, value in overrides.items():
            assert echoed[key] == value, key
        again = PipelineConfig.from_dict(echoed)
        assert again == cfg

    def test_config_echo_lands_in_model_file(self, tmp_path):
        import numpy as np

        from vsr3d.pipeline import train_from_features
        from vsr3d.svm import save_model

        cfg = PipelineConfig(channel="lum", delta_t_ms=10.0, uniform_length=6,
                             mask_size=2, c_grid=(8.0,), gamma_grid=(0.5,))
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(0, 0.2, (8, 5)), rng.normal(2, 0.2, (8, 5))])
        labels = ["a"] * 8 + ["b"] * 8
        model, _ = train_from_features(x, labels, cfg)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["config"] == {"channel": "lum", "deltaTms": 10.0, "l": 6, "s": 2,
                                 "C": 8.0, "gamma": 0.5}

    def test_unknown_keys_rejected(self):
        with pytest.raises(VsrError):
            PipelineConfig.from_dict({"not_a_key": 1})

    def test_invalid_values_rejected(self):
        with pytest.raises(VsrError):
            PipelineConfig(channel="sepia")
        with pytest.raises(VsrError):
            PipelineConfig(min_duration=5, max_duration=3)
        with pytest.raises(VsrError):
            PipelineConfig(fps=0.0)
        with pytest.raises(VsrError):
            PipelineConfig(cv_fraction=1.5)
        # a biphone segment splits into two non-empty halves
        with pytest.raises(VsrError, match="2 <= biphone_min_duration"):
            PipelineConfig(biphone_min_duration=1)

    def test_fps_at_most_1000(self):
        """Transcripts count whole milliseconds, so a frame must last at
        least one."""
        assert PipelineConfig(fps=1000).fps == 1000.0
        with pytest.raises(VsrError, match="fps must be at most 1000"):
            PipelineConfig(fps=1000.5)

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        with pytest.raises(VsrError):
            PipelineConfig.load(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1,2]")
        with pytest.raises(VsrError):
            PipelineConfig.load(arr)


class TestValidation:
    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(FIELDS), value=json_values)
    def test_any_json_value_is_rejected_or_normalized(self, field, value):
        try:
            cfg = PipelineConfig.from_dict({field: value})
        except VsrError:
            return
        for name in INT_FIELDS:
            assert type(getattr(cfg, name)) is int, name
        for name in FLOAT_FIELDS:
            v = getattr(cfg, name)
            assert type(v) is float and math.isfinite(v), name
        for grid in (cfg.c_grid, cfg.gamma_grid):
            assert type(grid) is tuple and grid
            assert all(type(v) is float and math.isfinite(v) and v > 0 for v in grid)
        assert PipelineConfig.from_dict(json.loads(cfg.to_json())) == cfg

    @pytest.mark.parametrize("field, value", [
        ("c_grid", [1.0, math.inf]), ("gamma_grid", []), ("gamma_grid", [True]),
        ("fps", True), ("mask_size", "3"), ("roi_height", 0), ("svm_tolerance", 0.0),
        ("delta_t_ms", math.inf), ("uniform_length", None),
    ])
    def test_bad_value_names_its_key(self, field, value):
        with pytest.raises(VsrError, match=field):
            PipelineConfig.from_dict({field: value})
