"""Continuous sequence decoding.

The paper's duration-constrained HMM has one start state per (class,
duration) pair, weighted by the calibrated window probability raised to the
duration-th power, and countdown states that enforce the exact duration.
Its most likely path is found here without building the machine, as the
equivalent semi-Markov (segment-level) Viterbi over end frames e.  Each
window first takes its best class, so the DP runs over durations only:

    best[e] = max over d of best[e - d] + max over c of log(p_c(e - d, d) ** d)

Ties go to the smallest duration among the best scores, then to the class
of largest weight, the lowest index among exactly equal weights.  Every
class inventory (phonemes, biphones) reads one probability grid, built from
one featurization of the union of their windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from . import VsrError
from .config import PipelineConfig
from .features import COMPOSITE_SEPARATOR, enumerate_subsequences, featurize_many
from .segmentation import RoiVolume
from .svm import MultiClassModel, predict_probability_matrix

PROB_FLOOR = 1e-12
PROB_CEIL = 1.0 - 1e-12


@dataclass
class ProbabilityGrid:
    """Per-class calibrated probability for each (start, duration) cell.

    probs[c] has shape (frame_count, dmax[c] - dmin[c] + 1); cells whose
    window does not fit in the sequence hold -1.
    """

    class_labels: list[str]
    dmin: np.ndarray
    dmax: np.ndarray
    frame_count: int
    probs: list[np.ndarray]


def _feature_echo(model: MultiClassModel) -> tuple:
    """(channel, delta_t_ms, uniform_length, mask_size) a model was trained on."""
    cfg = PipelineConfig.from_feature_echo(model.config)
    return cfg.channel, cfg.delta_t_ms, cfg.uniform_length, cfg.mask_size


def build_probability_grid(roi: RoiVolume, inventories, fps: float) -> ProbabilityGrid:
    """Classify every feasible subsequence window with every class model.

    inventories: (model, min_duration, max_duration) per class inventory, in
    class order.  Windows are featurized once per distinct feature config
    echo of the models, over the union of their duration ranges; each model
    predicts only the rows inside its own range, ordered by start then
    duration.  Probabilities are clamped to [1e-12, 1 - 1e-12].
    """
    if not inventories:
        raise VsrError("need at least one class inventory")
    models, lows, highs = zip(*inventories)
    labels = [lab for model in models for lab in model.class_labels]
    if len(set(labels)) != len(labels):
        raise VsrError("duplicate class labels across inventories")
    if not all(1 <= lo <= hi for lo, hi in zip(lows, highs)):
        raise VsrError("need 1 <= min_dur <= max_dur")
    n = roi.frame_count
    sizes = [len(model.class_labels) for model in models]
    blocks = [np.full((k, n, hi - lo + 1), -1.0) for k, lo, hi in zip(sizes, lows, highs)]
    by_echo = {}
    for i, model in enumerate(models):
        by_echo.setdefault(_feature_echo(model), []).append(i)
    for (channel, delta_t, length, s), members in by_echo.items():
        durations = np.unique(np.concatenate([np.arange(lows[i], highs[i] + 1) for i in members]))
        spans = enumerate_subsequences(n, durations)
        if not spans.size:
            continue
        x = featurize_many(roi, channel, delta_t, fps, spans, length, s)
        starts, durs = spans.T
        for i in members:
            rows = np.flatnonzero((durs >= lows[i]) & (durs <= highs[i]))
            p = np.clip(predict_probability_matrix(models[i], x[rows]), PROB_FLOOR, PROB_CEIL)
            blocks[i][:, starts[rows], durs[rows] - lows[i]] = p.T
    return ProbabilityGrid(
        class_labels=labels,
        dmin=np.repeat(lows, sizes),
        dmax=np.repeat(highs, sizes),
        frame_count=n,
        probs=[p for block in blocks for p in block],
    )


def segment_log_weights(grid: ProbabilityGrid) -> np.ndarray:
    """logw[d - 1, c, start] = log(p_c(start, d) ** d), of shape (max dmax,
    classes, frames); -inf where c's bounds exclude d or its cell holds -1.
    The power is taken once per duration, with the scalar exponent d.
    """
    lo = np.asarray(grid.dmin, dtype=int)
    hi = np.asarray(grid.dmax, dtype=int)
    if not grid.class_labels:
        raise VsrError("need at least one class")
    for lab, a, b in zip(grid.class_labels, lo, hi):
        if not 1 <= a <= b:
            raise VsrError(f"class {lab!r} has invalid duration bounds [{a}, {b}]")
    # weights[d - 1, c] is column d of class c, 0 where its bounds exclude d
    weights = np.zeros((int(hi.max()), len(lo), grid.frame_count))
    for c, cells in enumerate(grid.probs):
        weights[lo[c] - 1:hi[c], c] = np.where(cells >= 0, cells, 0.0).T
    for d in range(1, len(weights) + 1):
        weights[d - 1] = weights[d - 1] ** d
    with np.errstate(divide="ignore"):
        # log(p**d), not d*log(p): its rounding and its underflow to 0 decide
        # exact ties and which long segments are infeasible
        return np.log(weights)


def decode_sequence(grid: ProbabilityGrid):
    """Most likely exact tiling of [0, frame_count) into labeled segments.

    Each window (start, d) takes the class of largest `segment_log_weights`
    weight, the lowest index among exactly equal weights; then best[e] = max
    over d <= e of best[e - d] + that weight, ties to the smallest d.
    Rounding is monotone, so the class reduction leaves every best[e] as a
    max over all (d, c) pairs would give it.
    Returns (label, start, duration) entries in frame order.
    """
    logw = segment_log_weights(grid)
    classes = logw.argmax(axis=1)                        # (durations, frames)
    weights = logw.max(axis=1)
    n = grid.frame_count
    best = np.full(n + 1, -np.inf)
    best[0] = 0.0
    back = np.zeros(n + 1, dtype=np.intp)
    for e in range(1, n + 1):
        d = np.arange(1, min(e, len(weights)) + 1)
        scores = best[e - d] + weights[d - 1, e - d]
        back[e] = np.argmax(scores) + 1
        best[e] = scores[back[e] - 1]
    if n < 1 or not np.isfinite(best[n]):
        raise VsrError("no feasible tiling of the sequence (all weights vanish)")
    entries = []
    while n > 0:
        d = int(back[n])
        n -= d
        entries.append((grid.class_labels[classes[d - 1, n]], n, d))
    return entries[::-1]


def expand_biphones(entries):
    """Split composite "A+B" segments into two: the first part gets
    ceil(d/2) frames, the second the rest.  Single-unit entries pass
    through unchanged."""
    out = []
    for label, start, dur in entries:
        if COMPOSITE_SEPARATOR not in label:
            out.append((label, start, dur))
            continue
        parts = label.split(COMPOSITE_SEPARATOR)
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise VsrError(f"malformed composite label {label!r}")
        if dur < 2:
            raise VsrError(f"composite segment {label!r} too short to split (duration {dur})")
        first = ceil(dur / 2)
        out.append((parts[0], start, first))
        out.append((parts[1], start + first, dur - first))
    return out


def entries_to_transcript(entries, fps: float):
    """(label, start_frame, duration) -> (label, start_ms, end_ms) rows."""
    rows = []
    for label, start, dur in entries:
        rows.append((label, int(round(start * 1000.0 / fps)),
                     int(round((start + dur) * 1000.0 / fps))))
    return rows
