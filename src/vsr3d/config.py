"""Pipeline configuration with the optimized operating point as defaults.

Config files are JSON objects whose keys match the PipelineConfig field
names; unknown keys are rejected. CLI flags override file values.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from . import VsrError

CHANNEL_NAMES = ("lum", "u", "ulum", "pseudo_hue", "red", "green", "blue")


@dataclass
class PipelineConfig:
    channel: str = "red"
    delta_t_ms: float = 30.0
    uniform_length: int = 10
    mask_size: int = 3
    min_duration: int = 1           # frames, phonemes/visemes (40 ms at 25 fps)
    max_duration: int = 25          # frames (250 ms)
    biphone_min_duration: int = 2   # frames (80 ms)
    biphone_max_duration: int = 37  # frames (370 ms)
    roi_width: int = 64
    roi_height: int = 48
    fps: float = 25.0
    c_grid: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0, 256.0)
    gamma_grid: tuple[float, ...] = (2.0**-9, 2.0**-7, 2.0**-5, 2.0**-3)
    svm_tolerance: float = 1e-3     # KKT gap at which SMO stops
    svm_max_passes: int = 200       # SMO budget: svm_max_passes * n pair updates
    cv_fraction: float = 0.2

    def __post_init__(self):
        if self.channel not in CHANNEL_NAMES:
            raise VsrError(f"unknown channel {self.channel!r}; choose from {CHANNEL_NAMES}")
        if self.fps <= 0:
            raise VsrError("fps must be positive")
        if not (1 <= self.min_duration <= self.max_duration):
            raise VsrError("need 1 <= min_duration <= max_duration")
        if not (1 <= self.biphone_min_duration <= self.biphone_max_duration):
            raise VsrError("need 1 <= biphone_min_duration <= biphone_max_duration")
        if self.uniform_length < 2:
            raise VsrError("uniform_length must be >= 2")
        if self.mask_size < 1:
            raise VsrError("mask_size must be >= 1")
        if not self.c_grid or not self.gamma_grid:
            raise VsrError("hyperparameter grids must be non-empty")
        if not 0.0 < self.cv_fraction < 1.0:
            raise VsrError("cv_fraction must be in (0, 1)")

    def duration_bounds(self, kind: str) -> tuple[int, int]:
        if kind in ("phoneme", "viseme"):
            return self.min_duration, self.max_duration
        if kind in ("biphone", "bi-viseme"):
            return self.biphone_min_duration, self.biphone_max_duration
        raise VsrError(f"unknown sample kind {kind!r}")

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["c_grid"] = list(self.c_grid)
        d["gamma_grid"] = list(self.gamma_grid)
        return json.dumps(d, indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(d) - known
        if bad:
            raise VsrError(f"unknown config keys: {sorted(bad)}")
        clean = dict(d)
        for k in ("c_grid", "gamma_grid"):
            if k in clean:
                grid = clean[k]
                if not isinstance(grid, (list, tuple)) or any(type(v) not in (int, float)
                                                              for v in grid):
                    raise VsrError(f"{k} must be a list of numbers, got {grid!r}")
                clean[k] = tuple(float(v) for v in grid)
        try:
            return cls(**clean)
        except TypeError as e:
            raise VsrError(f"malformed config: {e}") from e

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
        except json.JSONDecodeError as e:
            raise VsrError(f"malformed config file {path}: {e}") from e
        if not isinstance(d, dict):
            raise VsrError(f"config file {path} must hold a JSON object")
        return cls.from_dict(d)
