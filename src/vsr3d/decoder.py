"""Continuous sequence decoding.

The paper's duration-constrained HMM has one start state per (class,
duration) pair, weighted by the calibrated window probability raised to the
duration-th power, and countdown states that enforce the exact duration.
Its most likely path is found here without building the machine, as the
equivalent semi-Markov (segment-level) Viterbi over end frames e.  Each
window first takes its most probable class, so the DP runs over durations
only:

    best[e] = max over d of best[e - d] + d * log(max over c of p_c(e - d, d))

Sums within a few ulps per segment of the maximum count as tied, and the
smallest such d wins, so tilings that tie in real arithmetic (a segment and
the same segment split in two, at one probability) decode the same whatever
their rounding.  Every class inventory (phonemes, biphones) reads one
probability grid, built from one featurization of the union of their
windows.
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
# A score at end frame e sums at most e segment weights, so sums that tie in
# real arithmetic differ by a few ulps per segment; within TIE_ULPS * e ulps
# of |score| they count as tied.
TIE_ULPS = 4


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


def decode_sequence(grid: ProbabilityGrid):
    """Most likely exact tiling of [0, frame_count) into labeled segments.

    Each window (start, d) takes the class of largest probability among the
    classes whose bounds hold d, the lowest index among equal ones, and
    weighs d * log p of it (-inf for a -1 or 0 cell).  Then best[e] is the
    score of the smallest d <= e whose best[e - d] + weight is within
    TIE_ULPS * e * eps * |max| of the largest such sum.
    Returns (label, start, duration) entries in frame order.
    """
    lo = np.asarray(grid.dmin, dtype=int)
    hi = np.asarray(grid.dmax, dtype=int)
    if not grid.class_labels:
        raise VsrError("need at least one class")
    for lab, a, b in zip(grid.class_labels, lo, hi):
        if not 1 <= a <= b:
            raise VsrError(f"class {lab!r} has invalid duration bounds [{a}, {b}]")
    # cells[d - 1, c] is column d of class c, -1 where its bounds exclude d
    cells = np.full((int(hi.max()), len(lo), grid.frame_count), -1.0)
    for c, probs in enumerate(grid.probs):
        cells[lo[c] - 1:hi[c], c] = probs.T
    classes = cells.argmax(axis=1)                       # (durations, frames)
    with np.errstate(divide="ignore"):
        top = np.log(np.maximum(cells.max(axis=1), 0.0))
    weights = np.arange(1, len(cells) + 1)[:, None] * top
    n = grid.frame_count
    tie = TIE_ULPS * np.finfo(float).eps
    best = np.full(n + 1, -np.inf)
    best[0] = 0.0
    back = np.zeros(n + 1, dtype=np.intp)
    for e in range(1, n + 1):
        d = np.arange(1, min(e, len(weights)) + 1)
        scores = best[e - d] + weights[d - 1, e - d]
        high = scores.max()
        back[e] = np.argmax(scores >= high - tie * e * abs(high)) + 1
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
