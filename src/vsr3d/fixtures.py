"""Deterministic synthetic face-video corpus with exact ground truth.

Every random quantity is drawn from a splitmix64 stream:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z = z ^ (z >> 31)

Uniform doubles take the top 53 bits of z; Gaussians come from Box-Muller on
consecutive uniform pairs.  Streams are keyed by (seed, purpose, sentence,
frame), so corpora are bit-identical across runs, platforms, and thread
counts.

A rendered face is a mirror-symmetric oval of pink-noise skin on a shaded
backdrop, with two dark eyes and a mouth: a dark inner ellipse surrounded by
a red lip ring (strong u*lum contrast at the inner lower lip, as the
segmentation gradients expect).  Each transcript unit is one mouth gesture
whose direction and shape come from the active class's motion triple.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import VsrError
from .config import PipelineConfig
from .formats import write_groundtruth_csv, write_transcript, write_video_dir
from .segmentation import VideoSequence, box_filter

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, *keys: int) -> int:
    """Fold integer keys into a child seed, one splitmix round per key."""
    state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for k in keys:
            state = _mix((state + _GOLDEN) ^ np.uint64(k & 0xFFFFFFFFFFFFFFFF))
    return int(state)


def uniform_array(seed: int, count: int) -> np.ndarray:
    """count doubles in [0, 1) from the splitmix64 stream of seed."""
    idx = (np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN) + np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        z = _mix(idx)
    return (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def gaussian_array(seed: int, count: int) -> np.ndarray:
    u = uniform_array(seed, 2 * count)
    u1 = np.maximum(u[:count], 1e-300)
    u2 = u[count:]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


class Rng:
    """Scalar convenience wrapper over the splitmix64 stream."""

    def __init__(self, seed: int):
        self.state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def next_u64(self) -> int:
        with np.errstate(over="ignore"):
            self.state = self.state + _GOLDEN
            return int(_mix(self.state))

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise VsrError("empty randint range")
        return lo + int(self.uniform() * (hi - lo + 1))


def default_motions(class_count: int) -> list[tuple[float, float, float]]:
    """Well-separated (open amplitude px, width amplitude px, period frames)
    triples.  Gesture directions fan across the (widen, open) plane, from
    smile-like widening through jaw opening to pucker-like narrowing, with a
    distinct gesture-shape period per class."""
    motions = []
    for k in range(class_count):
        theta = math.radians(15.0 + (150.0 * k / max(class_count - 1, 1)))
        # widening amplitudes stay small enough for the corner tracker to
        # follow (sigma = 2 px between frames); opening carries the rest
        motions.append((round(11.0 * math.sin(theta), 3), round(6.5 * math.cos(theta), 3),
                        4.0 + 3.5 * k))
    return motions


@dataclass
class SynthConfig:
    seed: int = 1
    class_count: int = 3
    sentence_length: int = 5
    fps: float = 25.0
    frame_width: int = 160
    frame_height: int = 120
    noise_sigma: float = 4.0 / 255.0
    motions: list[tuple[float, float, float]] = field(default_factory=list)
    min_unit_frames: int = 3
    max_unit_frames: int = 12

    def __post_init__(self):
        if not 2 <= self.class_count <= 8:
            raise VsrError("class_count must be between 2 and 8")
        for name in ("sentence_length", "frame_width", "frame_height"):
            if getattr(self, name) < 1:
                raise VsrError(f"{name} must be at least 1")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise VsrError("noise_sigma must be finite and at least 0")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise VsrError("fps must be finite and positive")
        if not 1 <= self.min_unit_frames <= self.max_unit_frames:
            raise VsrError("min_unit_frames and max_unit_frames must satisfy "
                           "1 <= min_unit_frames <= max_unit_frames")
        if not self.motions:
            self.motions = default_motions(self.class_count)
        if len(self.motions) != self.class_count:
            raise VsrError("need one motion triple per class")
        if len(set(self.motions)) != self.class_count:
            raise VsrError("motion triples must be distinct")

    def label(self, class_index: int) -> str:
        return f"C{class_index}"

    def pipeline_config(self) -> PipelineConfig:
        """The operating point matched to this corpus, the way the published
        defaults were matched to their recordings: windows as long as its
        units, biphones twice that, no audio-visual lag, its frame rate, and
        one pinned SVM point."""
        return PipelineConfig(delta_t_ms=0.0, fps=self.fps,
                              min_duration=self.min_unit_frames,
                              max_duration=self.max_unit_frames,
                              biphone_min_duration=2 * self.min_unit_frames,
                              biphone_max_duration=2 * self.max_unit_frames,
                              c_grid=(64.0,), gamma_grid=(2.0**-3,))


@dataclass
class FrameTruth:
    sym_col: float
    sym_angle: float
    lip_row: float
    left: tuple[float, float]    # (row, col)
    right: tuple[float, float]


@dataclass
class SynthGroundTruth:
    frames: list[FrameTruth]
    transcript_rows: list[tuple[str, int, int]]  # (label, start_ms, end_ms)


# face geometry in face-local units (x: signed distance from the symmetry
# line, y: along the line, both in pixels)
_MOUTH_Y = 26.0
_MOUTH_HALF_WIDTH = 18.0
_MOUTH_HALF_HEIGHT = 3.5
_LIP_RING = 1.6          # lip ring outer radius in mouth-ellipse units
_EYE_Y = -22.0
_EYE_X = 24.0
_EYE_R = 6.0
_FACE_RX = 50.0          # face oval half-axes
_FACE_RY = 56.0
_FACE_CY = 4.0           # oval center sits slightly below the anchor
_SKIN_RGB = np.array([205.0, 155.0, 135.0])
_LIP_RGB = np.array([185.0, 60.0, 55.0])
_MOUTH_RGB = np.array([35.0, 12.0, 12.0])
_EYE_RGB = np.array([55.0, 40.0, 35.0])
_BG_RGB = np.array([70.0, 62.0, 58.0])
_SKIN_NOISE_AMPLITUDE = 0.15


def _smoothstep(x: np.ndarray, edge: float, width: float) -> np.ndarray:
    """0 well below edge, 1 well above, smooth over +-width."""
    t = np.clip((x - edge) / (2.0 * width) + 0.5, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def make_skin_noise(seed: int, height: int, width: int) -> np.ndarray:
    """Low-frequency multiplicative skin texture in [-amp, +amp]."""
    raw = uniform_array(seed, height * width).reshape(height, width) - 0.5
    for _ in range(2):
        raw = box_filter(raw, 5)
    peak = np.abs(raw).max()
    if peak > 0:
        raw = raw / peak
    return raw * _SKIN_NOISE_AMPLITUDE


def mouth_size(motion: tuple[float, float, float], t_local: int,
               duration: int) -> tuple[float, float]:
    """(half_width, half_height) of the inner mouth ellipse at a frame.

    A unit is one gesture: the mouth rises from rest and settles back within
    the unit, so units join smoothly and any window straddling a boundary
    sees a fall-then-rise valley that no class produces.  The class's period
    entry shapes the gesture (broad plateau for short periods, peaky for
    long ones); the amplitude pair sets its direction in (width, opening)
    space.
    """
    open_amp, width_amp, period = motion
    env = math.sin(math.pi * (t_local + 0.5) / duration) ** (period / 7.5)
    return _MOUTH_HALF_WIDTH + width_amp * env, _MOUTH_HALF_HEIGHT + open_amp * env


def synth_face_frame(cfg: SynthConfig, class_index: int, t_local: int,
                     unit_duration: int, sym_col: float, sym_angle: float,
                     skin_noise: np.ndarray, noise_seed: int,
                     anchor_row: float | None = None):
    """Render one frame plus its ground truth.

    The face is anchored at (anchor_row, sym_col) and tilted by sym_angle
    degrees; t_local counts frames since the current unit started and
    unit_duration is the unit's total length.
    """
    h, w = cfg.frame_height, cfg.frame_width
    if anchor_row is None:
        anchor_row = (h - 1) / 2.0
    theta = math.radians(sym_angle)
    along = np.array([math.cos(theta), math.sin(theta)])  # (drow, dcol)
    perp = np.array([-math.sin(theta), math.cos(theta)])
    rr, cc = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    dr = rr - anchor_row
    dc = cc - sym_col
    x = dr * perp[0] + dc * perp[1]   # signed distance from the symmetry line
    y = dr * along[0] + dc * along[1]

    nh, nw = skin_noise.shape
    n_rows = np.clip(y + nh / 2.0, 0, nh - 1)
    n_cols = np.clip(np.abs(x), 0, nw - 1)
    r0 = np.floor(n_rows).astype(np.intp)
    c0 = np.floor(n_cols).astype(np.intp)
    r1 = np.minimum(r0 + 1, nh - 1)
    c1 = np.minimum(c0 + 1, nw - 1)
    fr = n_rows - r0
    fc = n_cols - c0
    noise_val = (skin_noise[r0, c0] * (1 - fr) * (1 - fc) + skin_noise[r0, c1] * (1 - fr) * fc
                 + skin_noise[r1, c0] * fr * (1 - fc) + skin_noise[r1, c1] * fr * fc)

    # shading falls off with |x| and never flattens out, so it is symmetric
    # about the true axis and about no other line; the face oval adds a
    # strong boundary
    abs_x = np.abs(x)
    bg_shade = 1.0 - abs_x / 240.0
    skin_shade = 1.0 - 0.25 * np.minimum(abs_x, 60.0) / 60.0
    rho_face = np.sqrt((x / _FACE_RX) ** 2 + ((y - _FACE_CY) / _FACE_RY) ** 2)
    face_out = _smoothstep(rho_face, 1.0, 0.03)
    img = ((_SKIN_RGB * skin_shade[..., None]) * (1.0 - face_out[..., None])
           + (_BG_RGB * bg_shade[..., None]) * face_out[..., None])
    img = img * (1.0 + noise_val[..., None])

    half_w, half_h = mouth_size(cfg.motions[class_index], t_local, unit_duration)
    rho = np.sqrt((x / half_w) ** 2 + ((y - _MOUTH_Y) / half_h) ** 2)
    lip_out = _smoothstep(rho, _LIP_RING, 0.08)
    img = _LIP_RGB * (1.0 - lip_out[..., None]) + img * lip_out[..., None]
    mouth_out = _smoothstep(rho, 1.0, 0.08)
    # radial shading keeps the cavity floor strictly darkest at the center
    cavity = _MOUTH_RGB[None, None, :] * (0.85 + 0.15 * np.clip(rho, 0.0, 1.0))[..., None]
    img = cavity * (1.0 - mouth_out[..., None]) + img * mouth_out[..., None]

    for ex in (-_EYE_X, _EYE_X):
        re = np.sqrt((x - ex) ** 2 + (y - _EYE_Y) ** 2) / _EYE_R
        eye_out = _smoothstep(re, 1.0, 0.15)
        img = _EYE_RGB * (1.0 - eye_out[..., None]) + img * eye_out[..., None]

    if cfg.noise_sigma > 0:
        noise = gaussian_array(noise_seed, h * w * 3).reshape(h, w, 3)
        img = img + cfg.noise_sigma * 255.0 * noise
    frame = np.clip(np.rint(img), 0, 255).astype(np.uint8)

    anchor = np.array([anchor_row, sym_col])
    lip_point = anchor + (_MOUTH_Y + half_h) * along
    left = anchor + _MOUTH_Y * along - half_w * perp
    right = anchor + _MOUTH_Y * along + half_w * perp
    truth = FrameTruth(
        sym_col=sym_col,
        sym_angle=sym_angle,
        lip_row=float(lip_point[0]),
        left=(float(left[0]), float(left[1])),
        right=(float(right[0]), float(right[1])),
    )
    return frame, truth


def synth_sentence(cfg: SynthConfig, units: list[tuple[int, int]], sym_col: float,
                   sym_angle: float, sentence_seed: int, anchor_row: float | None = None):
    """Render a unit sequence [(class_index, duration_frames), ...].

    Returns (VideoSequence, SynthGroundTruth).
    """
    skin = make_skin_noise(derive_seed(sentence_seed, 1), cfg.frame_height, cfg.frame_width)
    frames, truths, rows = [], [], []
    t_global = 0
    ms_per_frame = 1000.0 / cfg.fps
    for class_index, duration in units:
        start_ms = int(round(t_global * ms_per_frame))
        end_ms = int(round((t_global + duration) * ms_per_frame))
        rows.append((cfg.label(class_index), start_ms, end_ms))
        for t_local in range(duration):
            noise_seed = derive_seed(sentence_seed, 2, t_global)
            frame, truth = synth_face_frame(cfg, class_index, t_local, duration,
                                            sym_col, sym_angle, skin, noise_seed,
                                            anchor_row)
            frames.append(frame)
            truths.append(truth)
            t_global += 1
    video = VideoSequence(frames=np.stack(frames), fps=cfg.fps)
    return video, SynthGroundTruth(frames=truths, transcript_rows=rows)


def random_units(cfg: SynthConfig, rng: Rng) -> list[tuple[int, int]]:
    return [
        (rng.randint(0, cfg.class_count - 1),
         rng.randint(cfg.min_unit_frames, cfg.max_unit_frames))
        for _ in range(cfg.sentence_length)
    ]


def corpus_sentence(cfg: SynthConfig, i: int):
    """(VideoSequence, SynthGroundTruth) of sentence i of the `synth_corpus`
    of cfg: units, symmetry column and tilt from the sentence's stream."""
    rng = Rng(derive_seed(cfg.seed, 0, i))
    units = random_units(cfg, rng)
    sym_col = (cfg.frame_width - 1) / 2.0 + rng.randint(-8, 8)
    sym_angle = float(rng.randint(-3, 3))
    return synth_sentence(cfg, units, sym_col, sym_angle, derive_seed(cfg.seed, 3, i))


def pmap(fn, items, threads: int = 1) -> list:
    """Order-preserving map, optionally over a thread pool.

    Results are assembled in input order, so the output is identical for any
    thread count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def synth_corpus(cfg: SynthConfig, sentences: int, out_dir, threads: int = 1):
    """Write `sentences` video directories (PPM frames + manifest +
    transcript + groundtruth.csv) under out_dir; returns the directory paths.
    """
    if sentences < 1:
        raise VsrError("need at least one sentence")
    if threads < 1:
        raise VsrError(f"threads must be at least 1, got {threads}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def build(i: int):
        video, truth = corpus_sentence(cfg, i)
        sent_dir = out_dir / f"sent_{i:03d}"
        write_video_dir(video, sent_dir)
        write_transcript(truth.transcript_rows, sent_dir / "transcript.txt")
        write_groundtruth_csv(truth, sent_dir / "groundtruth.csv")
        return sent_dir

    return pmap(build, range(sentences), threads)
