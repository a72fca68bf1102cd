"""Pipeline configuration with the optimized operating point as defaults.

Config files are JSON objects whose keys match the PipelineConfig field
names; unknown keys are rejected. CLI flags override file values. Every
value is checked once, by its declared type and range (ints integral,
floats finite, grid entries positive, bools never numbers); a bad one
raises VsrError naming its key.  A model's feature echo, its record of the
feature settings it was trained with, is written and read back here.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

from . import VsrError

CHANNEL_NAMES = ("lum", "u", "ulum", "pseudo_hue", "red", "green", "blue")

# model-file key -> PipelineConfig field of the feature echo
FEATURE_ECHO = {"channel": "channel", "deltaTms": "delta_t_ms", "l": "uniform_length",
                "s": "mask_size"}


def parse_json(text: str, where: str):
    """The value of a JSON text.  Text that is not JSON (the error's cause
    is then a `json.JSONDecodeError`), an integer too long to convert, or
    nesting too deep to parse raises a one-line `VsrError` that begins with
    `where`."""
    try:
        return json.loads(text)
    except RecursionError:
        raise VsrError(f"{where}: JSON nested too deeply to read") from None
    except ValueError as e:
        raise VsrError(f"{where}: {e}") from e


def read_json(path, what: str):
    """`parse_json` of a UTF-8 file; errors begin 'malformed {what} file
    {path}'."""
    where = f"malformed {what} file {path}"
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise VsrError(f"{where}: byte {e.start} is not UTF-8") from None
    return parse_json(text, where)


def _finite(value) -> float | None:
    """value as a finite float, or None; bools are not numbers."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return float(value) if ok and abs(value) <= sys.float_info.max else None


def _as_float(name: str, value) -> float:
    if (v := _finite(value)) is None:
        raise VsrError(f"{name} must be a finite number, got {value!r}")
    return v


def _as_int(name: str, value) -> int:
    if (v := _finite(value)) is None or not v.is_integer():
        raise VsrError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_grid(name: str, value) -> tuple[float, ...]:
    grid = tuple(map(_finite, value)) if isinstance(value, (list, tuple)) else ()
    if not grid or not all(v is not None and v > 0 for v in grid):
        raise VsrError(f"{name} must be a non-empty list of positive numbers, got {value!r}")
    return grid


# declared field type (a string: annotations are postponed) -> checked value
_CONVERT = {"int": _as_int, "float": _as_float, "tuple[float, ...]": _as_grid,
            "str": lambda name, value: value}


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
        for f in dataclasses.fields(self):
            setattr(self, f.name, _CONVERT[f.type](f.name, getattr(self, f.name)))
        if self.channel not in CHANNEL_NAMES:
            raise VsrError(f"unknown channel {self.channel!r}; choose from {CHANNEL_NAMES}")
        for name in ("fps", "svm_tolerance"):
            if getattr(self, name) <= 0:
                raise VsrError(f"{name} must be positive, got {getattr(self, name)}")
        # transcripts count whole milliseconds, so a frame shorter than 1 ms
        # can round to an entry whose start equals its end
        if self.fps > 1000:
            raise VsrError(f"fps must be at most 1000 (transcripts count whole milliseconds), "
                           f"got {self.fps}")
        for name, lo in (("delta_t_ms", 0), ("uniform_length", 2), ("mask_size", 1),
                         ("roi_width", 1), ("roi_height", 1), ("svm_max_passes", 1)):
            if getattr(self, name) < lo:
                raise VsrError(f"{name} must be >= {lo}, got {getattr(self, name)}")
        if not (1 <= self.min_duration <= self.max_duration):
            raise VsrError("need 1 <= min_duration <= max_duration")
        # a biphone segment splits into two non-empty halves
        if not (2 <= self.biphone_min_duration <= self.biphone_max_duration):
            raise VsrError("need 2 <= biphone_min_duration <= biphone_max_duration")
        if not 0.0 < self.cv_fraction < 1.0:
            raise VsrError("cv_fraction must be in (0, 1)")

    def duration_bounds(self, kind: str) -> tuple[int, int]:
        if kind in ("phoneme", "viseme"):
            return self.min_duration, self.max_duration
        if kind in ("biphone", "bi-viseme"):
            return self.biphone_min_duration, self.biphone_max_duration
        raise VsrError(f"unknown sample kind {kind!r}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(d) - known
        if bad:
            raise VsrError(f"unknown config keys: {sorted(bad)}")
        return cls(**d)

    def feature_echo(self) -> dict:
        """The feature settings a trained model records, under its file's keys."""
        return {key: getattr(self, name) for key, name in FEATURE_ECHO.items()}

    @classmethod
    def from_feature_echo(cls, echo) -> "PipelineConfig":
        """A checked config holding a model's recorded feature settings; keys
        the echo leaves out keep their defaults."""
        if not isinstance(echo, dict):
            raise VsrError("config must be a JSON object")
        try:
            return cls(**{name: echo[key] for key, name in FEATURE_ECHO.items() if key in echo})
        except VsrError as e:
            raise VsrError(f"config: {e}") from None

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        d = read_json(path, "config")
        if not isinstance(d, dict):
            raise VsrError(f"config file {path} must hold a JSON object")
        return cls.from_dict(d)
