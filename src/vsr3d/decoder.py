"""Continuous sequence decoding.

The paper's duration-constrained HMM has one start state per (class,
duration) pair, weighted by the calibrated window probability raised to the
duration-th power, and countdown states that enforce the exact duration.
Its most likely path is found here without building the machine, as the
equivalent semi-Markov (segment-level) Viterbi over end frames e.  Only a
window's best probability over the classes enters the DP, so it runs over
durations only:

    best[e] = max over d of best[e - d] + d * log(max over c of p_c(e - d, d))

and only the segments of the returned path are given a class, the lowest
index among those that reach the window's best.  Sums within a few ulps per
segment of the maximum count as tied, and the smallest such d wins, so
tilings that tie in real arithmetic (a segment and the same segment split in
two, at one probability) decode the same whatever their rounding.

So the decoder reads a WindowTable: each window's best probability and its
lowest class.  `best_window_table` fills it straight from the class models,
mostly with one sigmoid per window (`svm.predict_best_probability`), and
`decode_sequence` derives it from a full per-class ProbabilityGrid (as
`.grd1` files hold it); both merge classes by one rule, `_keep_best`, into
the same table bit for bit, and `decode_windows` decodes it.  Every class
inventory (phonemes, biphones) is scored from one featurization of the
union of their windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from operator import add

import numpy as np

from . import VsrError
from .features import COMPOSITE_SEPARATOR, enumerate_subsequences, featurize_many
from .segmentation import RoiVolume
from .svm import (PROB_CEIL, PROB_FLOOR, MultiClassModel, predict_best_probability,
                  predict_probability_matrix)

# A score at end frame e sums at most e segment weights, so sums that tie in
# real arithmetic differ by a few ulps per segment: of |score| from rounding
# the sums, and of 1 from the weights d * log p, since a few ulps of p move
# log p by a few eps whatever p is.  Within TIE_ULPS * e * eps * (|score| + 1)
# they count as tied.
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


@dataclass
class WindowTable:
    """Each window's best probability over the classes whose duration
    bounds hold it, and the lowest class index that reaches it.

    prob[d - 1, start] and best[d - 1, start] describe window (start, d),
    for d up to the largest bound; a window no class scores (it does not
    fit, or no bounds hold d) has probability 0.
    """

    class_labels: list[str]
    frame_count: int
    dmin: int           # the smallest duration bound
    prob: np.ndarray    # (width, frame_count) float
    best: np.ndarray    # (width, frame_count) class index


def _keep_best(table: WindowTable, cells, p, c):
    """Offers the table's windows `cells` (an index of its arrays) the
    probabilities p of classes c: a window takes them where p beats its
    probability, so on a tie the class offered first keeps it."""
    old = table.prob[cells]
    table.best[cells] = np.where(p > old, c, table.best[cells])
    table.prob[cells] = np.maximum(old, p)


def _checked_inventories(inventories):
    """(models, lows, highs, labels) of (model, min_duration, max_duration)
    class inventories whose labels are distinct and bounds valid."""
    if not inventories:
        raise VsrError("need at least one class inventory")
    models, lows, highs = zip(*inventories)
    labels = [lab for model in models for lab in model.class_labels]
    if len(set(labels)) != len(labels):
        raise VsrError("duplicate class labels across inventories")
    if not all(1 <= lo <= hi for lo, hi in zip(lows, highs)):
        raise VsrError("need 1 <= min_dur <= max_dur")
    return models, lows, highs, labels


def _featurized(roi: RoiVolume, models, lows, highs, fps: float):
    """Yields (i, starts, durations, x) for each model i that has windows:
    the windows in its duration range and their feature rows.  Windows are
    featurized once per distinct feature settings of the models, over the
    union of their duration ranges, ordered by start then duration."""
    by_settings = {}
    for i, model in enumerate(models):
        by_settings.setdefault(model.feature_settings, []).append(i)
    for (channel, delta_t, length, s), members in by_settings.items():
        durations = np.unique(np.concatenate([np.arange(lows[i], highs[i] + 1) for i in members]))
        spans = enumerate_subsequences(roi.frame_count, durations)
        if not spans.size:
            continue
        x = featurize_many(roi, channel, delta_t, fps, spans, length, s)
        starts, durs = spans.T
        for i in members:
            rows = np.flatnonzero((durs >= lows[i]) & (durs <= highs[i]))
            yield i, starts[rows], durs[rows], x[rows]


def build_probability_grid(roi: RoiVolume, inventories, fps: float) -> ProbabilityGrid:
    """Classify every feasible subsequence window with every class model.

    inventories: (model, min_duration, max_duration) per class inventory, in
    class order.  Windows are featurized once per distinct feature settings
    of the models, over the union of their duration ranges; each model
    predicts only the rows inside its own range, ordered by start then
    duration.  Probabilities are clamped to [1e-12, 1 - 1e-12].
    """
    models, lows, highs, labels = _checked_inventories(inventories)
    n = roi.frame_count
    sizes = [len(model.class_labels) for model in models]
    blocks = [np.full((k, n, hi - lo + 1), -1.0) for k, lo, hi in zip(sizes, lows, highs)]
    for i, starts, durs, x in _featurized(roi, models, lows, highs, fps):
        p = np.clip(predict_probability_matrix(models[i], x), PROB_FLOOR, PROB_CEIL)
        blocks[i][:, starts, durs - lows[i]] = p.T
    return ProbabilityGrid(
        class_labels=labels,
        dmin=np.repeat(lows, sizes),
        dmax=np.repeat(highs, sizes),
        frame_count=n,
        probs=[p for block in blocks for p in block],
    )


def best_window_table(roi: RoiVolume, inventories, fps: float) -> WindowTable:
    """The WindowTable of the grid `build_probability_grid` would build from
    the same arguments, bit for bit, without the grid: each model gives each
    of its windows only its best clipped probability and class
    (`predict_best_probability`), and a window two inventories score keeps
    the earlier one's class on a tie."""
    models, lows, highs, labels = _checked_inventories(inventories)
    n = roi.frame_count
    table = WindowTable(labels, n, min(lows), np.zeros((max(highs), n)),
                        np.zeros((max(highs), n), dtype=np.intp))
    offsets = np.cumsum([0] + [len(model.class_labels) for model in models])
    scored = {i: (starts, durs, x)
              for i, starts, durs, x in _featurized(roi, models, lows, highs, fps)}
    for i in sorted(scored):   # inventory order, which the tie rule needs
        starts, durs, x = scored[i]
        p, c = predict_best_probability(models[i], x)
        _keep_best(table, (durs - 1, starts), p, offsets[i] + c)
    return table


def decode_sequence(grid: ProbabilityGrid):
    """Most likely exact tiling of [0, frame_count) into labeled segments
    (`decode_windows` of the grid's WindowTable: each window's largest
    probability among the classes whose bounds hold its duration, the
    running maximum over the class planes, with -1 cells as 0).
    Returns (label, start, duration) entries in frame order.
    """
    lo = np.asarray(grid.dmin, dtype=int)
    hi = np.asarray(grid.dmax, dtype=int)
    if not grid.class_labels:
        raise VsrError("need at least one class")
    for lab, a, b in zip(grid.class_labels, lo, hi):
        if not 1 <= a <= b:
            raise VsrError(f"class {lab!r} has invalid duration bounds [{a}, {b}]")
    n, width = grid.frame_count, int(hi.max())
    table = WindowTable(list(grid.class_labels), n, int(lo.min()), np.zeros((width, n)),
                        np.zeros((width, n), dtype=np.intp))
    for c, (p, a, b) in enumerate(zip(grid.probs, lo, hi)):
        _keep_best(table, slice(a - 1, b), p.T, c)
    return decode_windows(table)


def decode_windows(table: WindowTable):
    """Most likely exact tiling of [0, frame_count) into labeled segments.

    Each window (start, d) weighs d * log p of its best probability p (-inf
    for 0).  Then best[e] is the score of the smallest d <= e whose
    best[e - d] + weight is within TIE_ULPS * e * eps * (|max| + 1) of the
    largest such sum.  Each returned segment takes its window's class.
    Returns (label, start, duration) entries in frame order.
    """
    n = table.frame_count
    width = len(table.prob)
    with np.errstate(divide="ignore"):
        weights = np.arange(1, width + 1)[:, None] * np.log(table.prob)
    # ending[e - 1][d - 1] is the weight of the segment of d frames ending
    # at frame e (start e - d >= 0; the rest are never read)
    ends = np.arange(1, n + 1)[:, None]
    durations = np.arange(1, width + 1)
    ending = weights[durations - 1, np.maximum(ends - durations, 0)].tolist()
    tie = TIE_ULPS * float(np.finfo(float).eps)
    best = [0.0]
    back = [0]
    for e in range(1, n + 1):
        # best[e - d] + weight for d = 1, 2, ... up to min(e, width)
        scores = list(map(add, best[:-width - 1:-1], ending[e - 1]))
        high = max(scores)
        cut = high - tie * e * (abs(high) + 1.0)
        for d, score in enumerate(scores, 1):
            if score >= cut:
                break
        back.append(d)
        best.append(score)
    if n < 1 or not np.isfinite(best[n]):
        raise VsrError(f"no feasible tiling of the sequence (length {n}) by windows of "
                       f"{table.dmin} to {width} frames")
    entries = []
    while n > 0:
        d = back[n]
        n -= d
        entries.append((table.class_labels[table.best[d - 1, n]], n, d))
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
