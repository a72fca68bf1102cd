"""Continuous sequence decoding.

The paper's duration-constrained HMM has one start state per (class,
duration) pair, weighted by the calibrated window probability raised to the
duration-th power, and countdown states that enforce the exact duration.
Its most likely path is found here without building the machine, as the
equivalent semi-Markov (segment-level) Viterbi over end frames e:

    best[e] = max over (d, c) of best[e - d] + log(p_c(e - d, d) ** d)

in O(frames x sum of per-class duration counts) time.  Ties go to the
smallest duration, then the smallest class index: the path a state-level
Viterbi over the machine picks when it breaks ties toward the lowest state
index.  `viterbi_generic` is the plain HMM Viterbi the segmentation
trackers use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from . import VsrError
from .features import enumerate_subsequences, featurize_many
from .segmentation import RoiVolume
from .svm import MultiClassModel, predict_probability_matrix

PROB_FLOOR = 1e-12
PROB_CEIL = 1.0 - 1e-12


def viterbi_generic(priors, transitions, observations):
    """Most likely state path under unnormalized non-negative weights.

    priors: (n,), transitions: (n, n) with 0 meaning "no edge",
    observations: (steps, n).  Scores are accumulated in log space
    (log 0 = -inf); ties resolve to the smallest state index.  Returns
    (path, log_score); raises if no positive-weight path exists.
    """
    priors = np.asarray(priors, dtype=float)
    transitions = np.asarray(transitions, dtype=float)
    observations = np.asarray(observations, dtype=float)
    if observations.ndim != 2 or observations.shape[0] < 1:
        raise VsrError("observations must be (steps, states) with at least one step")
    n_steps, n_states = observations.shape
    if priors.shape != (n_states,) or transitions.shape != (n_states, n_states):
        raise VsrError("inconsistent HMM dimensions")
    if (priors < 0).any() or (transitions < 0).any() or (observations < 0).any():
        raise VsrError("weights must be non-negative")
    with np.errstate(divide="ignore"):
        log_prior = np.log(priors)
        log_trans = np.log(transitions)
        log_obs = np.log(observations)
    delta = log_prior + log_obs[0]
    back = np.zeros((n_steps, n_states), dtype=np.intp)
    for t in range(1, n_steps):
        scores = delta[:, None] + log_trans
        best_prev = np.argmax(scores, axis=0)          # first max = smallest index
        delta = scores[best_prev, np.arange(n_states)] + log_obs[t]
        back[t] = best_prev
    final = int(np.argmax(delta))
    best = float(delta[final])
    if not np.isfinite(best):
        raise VsrError("no feasible state path (all weights vanish)")
    path = np.empty(n_steps, dtype=np.intp)
    path[-1] = final
    for t in range(n_steps - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, best


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

    def prob(self, c: int, start: int, duration: int) -> float:
        if not self.dmin[c] <= duration <= self.dmax[c]:
            return -1.0
        return float(self.probs[c][start, duration - self.dmin[c]])


def build_probability_grid(model: MultiClassModel, roi: RoiVolume,
                           min_duration: int, max_duration: int,
                           fps: float) -> ProbabilityGrid:
    """Classify every feasible subsequence window with every class model.

    Feature extraction parameters come from the model's config echo.
    Probabilities are clamped to [1e-12, 1 - 1e-12].
    """
    cfgd = model.config
    channel = cfgd.get("channel", "red")
    delta_t = float(cfgd.get("deltaTms", 30.0))
    length = int(cfgd.get("l", 10))
    s = int(cfgd.get("s", 3))
    n = roi.frame_count
    specs = enumerate_subsequences(n, min_duration, max_duration)
    n_classes = len(model.class_labels)
    span = max_duration - min_duration + 1
    probs = np.full((n_classes, n, span), -1.0)
    if specs:
        x = featurize_many(roi, channel, delta_t, fps, specs, length, s)
        p = np.clip(predict_probability_matrix(model, x), PROB_FLOOR, PROB_CEIL)
        starts = np.array([sp.start for sp in specs])
        offsets = np.array([sp.duration for sp in specs]) - min_duration
        probs[:, starts, offsets] = p.T
    return ProbabilityGrid(
        class_labels=list(model.class_labels),
        dmin=np.full(n_classes, min_duration, dtype=int),
        dmax=np.full(n_classes, max_duration, dtype=int),
        frame_count=n,
        probs=list(probs),
    )


def merge_grids(grids: list[ProbabilityGrid]) -> ProbabilityGrid:
    """Concatenate the class axes of grids over the same frame range (used to
    decode phonemes and biphones in one pass)."""
    if not grids:
        raise VsrError("no grids to merge")
    n = grids[0].frame_count
    if any(g.frame_count != n for g in grids):
        raise VsrError("grids cover different frame counts")
    labels = [lab for g in grids for lab in g.class_labels]
    if len(set(labels)) != len(labels):
        raise VsrError("duplicate class labels across grids")
    return ProbabilityGrid(
        class_labels=labels,
        dmin=np.concatenate([g.dmin for g in grids]),
        dmax=np.concatenate([g.dmax for g in grids]),
        frame_count=n,
        probs=[p for g in grids for p in g.probs],
    )


def decode_sequence(grid: ProbabilityGrid):
    """Most likely exact tiling of [0, frame_count) into labeled segments.

    Segment-level Viterbi: best[e] = max over (duration d, class c) of
    best[e - d] + log(p_c(e - d, d) ** d), where a cell holding -1 weighs 0.
    Ties go to the smallest duration, then the smallest class index.
    Returns (label, start, duration) entries in frame order.
    """
    lo = np.asarray(grid.dmin, dtype=int)
    hi = np.asarray(grid.dmax, dtype=int)
    if not grid.class_labels:
        raise VsrError("need at least one class")
    for lab, a, b in zip(grid.class_labels, lo, hi):
        if not 1 <= a <= b:
            raise VsrError(f"class {lab!r} has invalid duration bounds [{a}, {b}]")
    # (d, c) order makes the first argmax the tie rule
    pairs = [(d, c) for d in range(1, int(hi.max()) + 1)
             for c in range(len(lo)) if lo[c] <= d <= hi[c]]
    durations = np.array([d for d, _ in pairs])
    weights = []
    for d, c in pairs:
        cells = grid.probs[c][:, d - lo[c]]
        weights.append(np.where(cells >= 0, cells, 0.0) ** d)
    with np.errstate(divide="ignore"):
        # log(p**d), not d*log(p): its rounding and its underflow to 0 decide
        # exact ties and which long segments are infeasible
        logw = np.log(np.stack(weights))                  # (pairs, frames)
    n = grid.frame_count
    best = np.full(n + 1, -np.inf)
    best[0] = 0.0
    back = np.zeros(n + 1, dtype=np.intp)
    for e in range(1, n + 1):
        k = np.searchsorted(durations, e, side="right")  # pairs with d <= e
        if k == 0:
            continue
        starts = e - durations[:k]
        scores = best[starts] + logw[np.arange(k), starts]
        back[e] = np.argmax(scores)
        best[e] = scores[back[e]]
    if n < 1 or not np.isfinite(best[n]):
        raise VsrError("no feasible tiling of the sequence (all weights vanish)")
    entries = []
    while n > 0:
        d, c = pairs[back[n]]
        n -= d
        entries.append((grid.class_labels[c], n, d))
    return entries[::-1]


def expand_biphones(entries, separator: str = "+"):
    """Split composite "A+B" segments into two: the first part gets
    ceil(d/2) frames, the second the rest.  Single-unit entries pass
    through unchanged."""
    out = []
    for label, start, dur in entries:
        if separator not in label:
            out.append((label, start, dur))
            continue
        parts = label.split(separator)
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
