"""Spatio-temporal features: every feasible subsequence of a mouth-window
volume is resampled to a uniform length, transformed with an orthonormal
3D-DCT, and reduced to the low-frequency pyramid-mask amplitudes plus the
original subsequence length.

Windows travel as (m, 2) integer arrays of (start, duration) rows, such as
`enumerate_subsequences` builds.  `featurize_many` computes them separably:
every step before the mask is linear, so each frame is projected once onto
the first s rows of the y- and x-DCT bases, and a fixed (s x d) matrix per
duration d does the resampling and the time DCT of every window of that
duration.  The per-window path (resample, `dct3`, mask) that it must match
lives in `tests/oracles.py` as the test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import VsrError
from .segmentation import RoiVolume

# joins the two labels of a biphone or bi-viseme sample, "A+B"
COMPOSITE_SEPARATOR = "+"


def check_label(label, where: str, unit: bool = False) -> str:
    """Returns a class label that every transcript and feature CSV can carry:
    a non-empty str of printable ASCII without spaces or "," (the CSV
    delimiter).  A unit label, as transcripts hold, is also not composite:
    it has no COMPOSITE_SEPARATOR.  Raises VsrError prefixed with `where`."""
    banned = "," + COMPOSITE_SEPARATOR if unit else ","
    if not (isinstance(label, str) and label and label.isascii() and label.isprintable()
            and not any(ch in label for ch in " " + banned)):
        raise VsrError(f"{where}: label {label!r} must be non-empty printable ASCII without "
                       + " or ".join(["spaces", *map(repr, banned)]))
    return label


@dataclass
class StandardizationStats:
    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class TranscriptEntry:
    label: str
    start_ms: int
    end_ms: int


@dataclass
class Transcript:
    entries: list[TranscriptEntry]

    def __post_init__(self):
        prev_end = None
        for e in self.entries:
            if e.start_ms >= e.end_ms:
                raise VsrError(f"transcript entry {e.label} has start >= end")
            if prev_end is not None and e.start_ms < prev_end:
                raise VsrError(f"transcript entries overlap at {e.label}")
            prev_end = e.end_ms


def time_shift(volume: np.ndarray, delta_t_ms: float, fps: float) -> np.ndarray:
    """Delay the volume by delta_t_ms: output frame t samples the input at
    continuous time t - delta_t_ms*fps/1000, linearly interpolated and
    clamped at the sequence boundaries.  A shift of whole frames (every
    sample time an integer) is a frame gather."""
    if delta_t_ms < 0:
        raise VsrError("delta_t_ms must be non-negative")
    volume = np.asarray(volume, dtype=float)
    n = volume.shape[0]
    shift = delta_t_ms * fps / 1000.0
    tau = np.clip(np.arange(n, dtype=float) - shift, 0.0, n - 1.0)
    lo = np.floor(tau).astype(np.intp)
    frac = tau - lo
    if not frac.any():
        return volume[lo]
    hi = np.minimum(lo + 1, n - 1)
    frac = frac.reshape((n,) + (1,) * (volume.ndim - 1))
    return volume[lo] * (1.0 - frac) + volume[hi] * frac


def subtract_sequence_mean(volume: np.ndarray) -> np.ndarray:
    volume = np.asarray(volume, dtype=float)
    if volume.shape[0] < 1:
        raise VsrError("empty volume")
    return volume - volume.mean(axis=0)


def enumerate_subsequences(frame_count: int, durations) -> np.ndarray:
    """Every window of one of the given ascending durations that fits in
    frame_count frames, as an (m, 2) array of (start, duration) rows ordered
    by start then duration."""
    durations = np.asarray(durations, dtype=np.intp)
    if (durations < 1).any() or (np.diff(durations) <= 0).any():
        raise VsrError("durations must be ascending and >= 1")
    starts, which = np.nonzero(np.arange(frame_count)[:, None] + durations <= frame_count)
    return np.stack([starts, durations[which]], axis=1)


def resample_to_length(subvolume: np.ndarray, length: int = 10) -> np.ndarray:
    """Per-pixel linear interpolation mapping [0, d-1] onto [0, length-1];
    a single frame is replicated."""
    subvolume = np.asarray(subvolume, dtype=float)
    d = subvolume.shape[0]
    if d < 1:
        raise VsrError("empty subsequence")
    if length < 2:
        raise VsrError("target length must be >= 2")
    if d == 1:
        return np.repeat(subvolume, length, axis=0)
    if d == length:
        return subvolume.copy()
    tau = np.arange(length, dtype=float) * (d - 1) / (length - 1)
    lo = np.minimum(np.floor(tau).astype(np.intp), d - 2)
    frac = (tau - lo).reshape((length,) + (1,) * (subvolume.ndim - 1))
    return subvolume[lo] * (1.0 - frac) + subvolume[lo + 1] * frac


def dct3(volume: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT along every axis (energy preserving)."""
    volume = np.asarray(volume, dtype=float)
    if volume.ndim != 3 or min(volume.shape) < 1:
        raise VsrError("dct3 expects a non-empty 3D volume")
    n, h, w = volume.shape
    planes = _dct_matrix(h) @ volume @ _dct_matrix(w).T
    return (_dct_matrix(n) @ planes.reshape(n, h * w)).reshape(n, h, w)


def pyramid_mask_indices(s: int) -> list[tuple[int, int, int]]:
    """(i, j, k) triples with i+j+k <= s-1 in lexicographic order; there are
    s(s+1)(s+2)/6 of them."""
    return [
        (i, j, k)
        for i in range(s)
        for j in range(s - i)
        for k in range(s - i - j)
    ]


def feature_dimension(s: int) -> int:
    return s * (s + 1) * (s + 2) // 6 + 1


def preprocess_volume(roi: RoiVolume, channel: str, delta_t_ms: float, fps: float) -> np.ndarray:
    """Shared sequence-level preparation: channel selection, time shift,
    per-pixel sequence-mean subtraction."""
    vol = roi.plane(channel)
    if not np.isfinite(vol).all():
        raise VsrError(f"ROI channel {channel!r} holds non-finite values")
    return subtract_sequence_mean(time_shift(vol, delta_t_ms, fps))


def _check_window(start, duration, frame_count: int):
    if start < 0 or duration < 1:
        raise VsrError(f"bad subsequence ({start}, {duration})")
    if start + duration > frame_count:
        raise VsrError(f"subsequence ({start}, {duration}) exceeds volume")


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT as an (n, n) matrix, so `_dct_matrix(n) @ x`
    transforms x along its first axis (Ahmed, Natarajan & Rao 1974): entry
    (k, i) is sqrt(2/n) cos(pi k (2i + 1) / 2n), with row 0 scaled by
    1/sqrt(2).  The phase k (2i + 1) is reduced mod 4n in integers first, so
    every cosine is taken of an angle in [0, 2 pi)."""
    phase = np.outer(np.arange(n), 2 * np.arange(n) + 1) % (4 * n)
    out = np.cos(np.pi * phase / (2 * n)) * math.sqrt(2.0 / n)
    out[0] *= math.sqrt(0.5)
    return out


def featurize_many(roi: RoiVolume, channel: str, delta_t_ms: float, fps: float,
                   spans, length: int = 10, s: int = 3) -> np.ndarray:
    """Feature matrix of the windows in an (m, 2) array of (start, duration)
    rows, one feature row per window in the same order.

    Computed separably: resampling and the 3D-DCT are linear, so each frame
    is projected once onto the first s y- and x-DCT rows, and each window is
    finished along time by the (s, d) matrix `DCT_L[:s] @ Resample(d -> L)`
    of its duration d.
    """
    prepared = preprocess_volume(roi, channel, delta_t_ms, fps)
    k = feature_dimension(s)
    spans = np.asarray(spans, dtype=np.intp)
    if not spans.size:
        return np.zeros((0, k))
    n, h, w = prepared.shape
    starts, durations = spans.T
    if length < 2:
        raise VsrError("target length must be >= 2")
    if s < 1:
        raise VsrError("mask size must be >= 1")
    if s > min(length, h, w):
        raise VsrError(f"mask size {s} exceeds a coefficient dimension {(length, h, w)}")
    bad = np.flatnonzero((starts < 0) | (durations < 1) | (starts + durations > n))
    if bad.size:
        _check_window(starts[bad[0]], durations[bad[0]], n)

    # projected[t, j * s + i]: y-frequency j, x-frequency i of frame t
    projected = (_dct_matrix(h)[:s] @ prepared @ _dct_matrix(w)[:s].T).reshape(n, s * s)
    # pyramid triple (i, j, k) = (x, y, t frequency) in a (j * s + i, k) block
    picks = [(j * s + i) * s + kt for (i, j, kt) in pyramid_mask_indices(s)]
    dct_t = _dct_matrix(length)[:s]
    out = np.empty((len(spans), k))
    out[:, -1] = durations
    for d in np.unique(durations):
        rows = np.flatnonzero(durations == d)
        time_map = dct_t @ resample_to_length(np.eye(d), length)          # (s, d)
        windows = np.lib.stride_tricks.sliding_window_view(projected, d, axis=0)
        coeffs = windows[starts[rows]] @ time_map.T                       # (m, s*s, s)
        out[rows, :-1] = coeffs.reshape(len(rows), s * s * s)[:, picks]
    return out


def fit_standardization(train_matrix: np.ndarray) -> StandardizationStats:
    """Per-dimension population mean/stddev; zero-variance dimensions get
    stddev 1 so they standardize to 0."""
    x = np.asarray(train_matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise VsrError("standardization needs at least 2 training vectors")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return StandardizationStats(mean=mean, std=std)


def standardize(vectors: np.ndarray, stats: StandardizationStats) -> np.ndarray:
    x = np.asarray(vectors, dtype=float)
    if x.shape[-1] != stats.mean.shape[0]:
        raise VsrError("feature dimension does not match standardization stats")
    return (x - stats.mean) / stats.std


def transcript_to_frames(entry_start_ms: float, entry_end_ms: float, fps: float,
                         frame_count: int) -> tuple[int, int]:
    """Frame interval of a transcript entry: floor/ceil of the millisecond
    times, clamped into the sequence with a minimum duration of one frame."""
    start = int(math.floor(entry_start_ms * fps / 1000.0))
    end = int(math.ceil(entry_end_ms * fps / 1000.0))
    if start >= frame_count:
        raise VsrError(f"transcript entry at {entry_start_ms} ms is beyond the video")
    end = min(end, frame_count)
    duration = max(1, end - start)
    if start + duration > frame_count:
        duration = frame_count - start
    return start, duration


def extract_labeled_samples(roi: RoiVolume, transcript: Transcript, kind: str, cfg):
    """Labeled feature samples for one video.

    kind selects the class inventory: phoneme/viseme samples span one
    transcript entry, biphone/bi-viseme samples span two consecutive entries
    with a composite "A+B" label.  Viseme kinds pass labels through the
    Jeffers map, dropping HH entries.  Returns (X, labels, spans), spans an
    (m, 2) array of the samples' (start, duration) windows.
    """
    from .evaluation import to_viseme

    if kind not in ("phoneme", "viseme", "biphone", "bi-viseme"):
        raise VsrError(f"unknown sample kind {kind!r}")
    entries = transcript.entries
    if kind in ("viseme", "bi-viseme"):
        entries = [TranscriptEntry(v, e.start_ms, e.end_ms)
                   for e in entries if (v := to_viseme(e.label)) is not None]
    n = roi.frame_count
    frames = np.array([transcript_to_frames(e.start_ms, e.end_ms, cfg.fps, n) for e in entries],
                      dtype=np.intp).reshape(-1, 2)
    if kind in ("phoneme", "viseme"):
        spans, labels = frames, [e.label for e in entries]
    else:  # from the start of one entry to the end of the next
        starts, ends = frames[:-1, 0], frames[1:].sum(axis=1)
        spans = np.stack([starts, ends - starts], axis=1)
        labels = [a.label + COMPOSITE_SEPARATOR + b.label for a, b in zip(entries, entries[1:])]
    if not spans.size:
        return np.zeros((0, feature_dimension(cfg.mask_size))), [], spans
    x = featurize_many(roi, cfg.channel, cfg.delta_t_ms, cfg.fps, spans,
                       cfg.uniform_length, cfg.mask_size)
    return x, labels, spans
