"""Spatio-temporal features: every feasible subsequence of a mouth-window
volume is resampled to a uniform length, transformed with an orthonormal
3D-DCT, and reduced to the low-frequency pyramid-mask amplitudes plus the
original subsequence length.

Windows travel as (m, 2) integer arrays of (start, duration) rows, such as
`enumerate_subsequences` builds.  `featurize_many` computes them in
coefficient space: every step before the mask is linear, so each raw frame
is projected once onto the first s rows of the y- and x-DCT bases, the time
shift and the sequence mean act on those projections, and one stack of
(s x d) maps, one per duration d, does the resampling and the time DCT of
every window.  The pixel-space path (shift, centre, resample, a whole 3D-DCT,
mask, one window at a time) that it must match lives in `tests/oracles.py`
as the test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    """Delay an array of frames (time on the first axis) by delta_t_ms:
    output frame t samples the input at continuous time
    t - delta_t_ms*fps/1000, linearly interpolated and clamped at the
    sequence boundaries.  On finite data a shift of whole frames (weights 1
    and 0) gives the frame gather's values, up to the sign of a zero."""
    if delta_t_ms < 0:
        raise VsrError("delta_t_ms must be non-negative")
    volume = np.asarray(volume, dtype=float)
    n = volume.shape[0]
    shift = delta_t_ms * fps / 1000.0
    tau = np.clip(np.arange(n, dtype=float) - shift, 0.0, n - 1.0)
    lo = np.floor(tau).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    frac = (tau - lo).reshape((n,) + (1,) * (volume.ndim - 1))
    return volume[lo] * (1.0 - frac) + volume[hi] * frac


def subtract_sequence_mean(volume: np.ndarray) -> np.ndarray:
    """Subtract from each value its mean over the frames (the first axis)."""
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


def _check_window(start, duration, frame_count: int):
    if start < 0 or duration < 1:
        raise VsrError(f"bad subsequence ({start}, {duration})")
    if start + duration > frame_count:
        raise VsrError(f"subsequence ({start}, {duration}) exceeds volume")


@lru_cache(maxsize=64)
def _dct_matrix(n: int, rows: int | None = None) -> np.ndarray:
    """Orthonormal type-II DCT as an (n, n) matrix, so `_dct_matrix(n) @ x`
    transforms x along its first axis (Ahmed, Natarajan & Rao 1974): entry
    (k, i) is sqrt(2/n) cos(pi k (2i + 1) / 2n), with row 0 scaled by
    1/sqrt(2).  The phase k (2i + 1) is reduced mod 4n in integers first, so
    every cosine is taken of an angle in [0, 2 pi).  n = 0 gives the empty
    matrix, so a plane without rows or columns projects to nothing, and
    `featurize_many` reports the mask size that does not fit it.  With
    `rows`, only the rows `[:rows]` would keep are computed, each entry by
    the same formula.  Cached by its arguments, as a read-only array."""
    phase = np.outer(np.arange(n)[:rows], 2 * np.arange(n) + 1) % (4 * n)
    out = np.cos(np.pi * phase / (2 * n)) * math.sqrt(2.0 / max(n, 1))
    out[:1] *= math.sqrt(0.5)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _time_maps(durations: tuple[int, ...], length: int, s: int) -> np.ndarray:
    """The maps `DCT_L[:s] @ Resample(d -> L)` of the given ascending
    durations d, stacked as a (len(durations) * s, max duration) array: rows
    u * s to u * s + s - 1 belong to durations[u], zero from column d on.
    Cached by its arguments, as a read-only array (only decode repeats
    them).  Maps keyed per duration would change bits: of the 76 in 3-12,
    6-24, 3-24 and 1-25, d = 1 of 1-25 differs from its rows of the stack.

    Resample(d -> L) interpolates linearly, mapping frames [0, d-1] onto
    [0, L-1] (a single frame is replicated): output frame l takes each input
    frame i with the hat weight max(0, 1 - |tau - i|), tau = l (d-1)/(L-1).
    """
    d = np.array(durations)[:, None]
    tau = np.arange(length) * (d - 1) / (length - 1)                  # (durations, L)
    resample = np.maximum(0.0, 1.0 - np.abs(tau[..., None] - np.arange(d.max())))
    out = (_dct_matrix(length, s) @ resample).reshape(-1, d.max())
    out.flags.writeable = False
    return out


def featurize_many(roi: RoiVolume, channel: str, delta_t_ms: float, fps: float,
                   spans, length: int = 10, s: int = 3) -> np.ndarray:
    """Feature matrix of the windows in an (m, 2) array of (start, duration)
    rows, one feature row per window in the same order.

    Computed in coefficient space.  The time shift, the per-pixel sequence
    mean, resampling and the 3D-DCT are all linear, so each frame is first
    projected onto the first s y- and x-DCT rows; the shift and the mean act
    on those (T, s, s) projections.  One product with the `_time_maps` stack
    then finishes a window at every start for every duration asked for, and
    one gather takes the windows and the pyramid triples from it.
    """
    plane = roi.plane(channel)
    if not np.isfinite(plane).all():
        raise VsrError(f"ROI channel {channel!r} holds non-finite values")
    n, h, w = plane.shape
    # coeffs[t, j, i]: y-frequency j, x-frequency i of frame t, from the plane
    # widened to float64.  A per-pixel constant leaves with the sequence mean,
    # so the first frame's coefficients go first: the mean is then taken of
    # the frames' changes, and its roundoff has their size, not the image's.
    coeffs = _dct_matrix(h, s) @ np.asarray(plane, dtype=float) @ _dct_matrix(w, s).T
    coeffs = subtract_sequence_mean(time_shift(coeffs - coeffs[:1], delta_t_ms, fps))
    k = feature_dimension(s)
    spans = np.asarray(spans, dtype=np.intp)
    if not spans.size:
        return np.zeros((0, k))
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

    lengths, which = np.unique(durations, return_inverse=True)
    dmax = int(lengths[-1])
    # padded[j * s + i, t]: coefficient (j, i) of frame t, zero past the last frame
    padded = np.zeros((s * s, n + dmax - 1))
    padded[:, :n] = coeffs.reshape(n, s * s).T
    windows = np.lib.stride_tricks.sliding_window_view(padded, dmax, axis=1)
    # finished[j * s + i, t, u * s + kt]: x, y, t frequency (i, j, kt) of the
    # window of duration lengths[u] that starts at frame t
    finished = windows.reshape(s * s * n, dmax) @ _time_maps(tuple(lengths.tolist()), length, s).T
    cells = (starts * len(lengths) + which) * s
    offsets = [(j * s + i) * n * finished.shape[1] + kt for i, j, kt in pyramid_mask_indices(s)]
    out = np.empty((len(spans), k))
    out[:, :-1] = finished.take(cells[:, None] + offsets)
    out[:, -1] = durations
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
