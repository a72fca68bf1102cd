"""Slow reference implementations the tests compare the package against.

Nothing in `src/`, `scripts/` or `perfbench/` calls these: the scalar RBF
kernel and decision value, the kernel matrix written as one expression
(three matrix-sized temporaries), which the in-place
`vsr3d.svm.rbf_kernel_matrix` must reproduce bit for bit, the per-class
probability path, the dual
objective, and the one-problem SMO loop that the lockstep solver in
`vsr3d.svm` must reproduce bit for bit; the symmetry search that samples
every candidate term of a window from the whole image, and the per-frame
line tracking that converts each whole frame to luminance for it, which the
plans of `vsr3d.segmentation` must reproduce bit for bit; the segmentation
path that computes all seven colour planes over every cropped frame and
resamples them all, which the footprint path of `vsr3d.segmentation` must
reproduce bit for bit;
the crop grid written out row by row and column by column, which
`vsr3d.segmentation.crop_grid` must reproduce bit for bit;
the segment weights d * log p built one (duration, class) pair at a time,
and the segment-level Viterbi over every pair with the decoder's tie rule,
whose entries `vsr3d.decoder` must reproduce; the grid cell lookup of the brute-force decoding
tests; the per-window 3D-DCT featurizer (resample, `dct3`, pyramid mask),
which the separable `vsr3d.features.featurize_many` must match within
1e-12; and the inverse 3D-DCT and ground-truth CSV reader of the feature and
fixture tests.  `roi_volume` and `roi_planes` build a RoiVolume from
given planes and stack a volume's planes, for the tests that need either.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np
import scipy.fft

import vsr3d.segmentation
from vsr3d import VsrError
from vsr3d.config import CHANNEL_NAMES
from vsr3d.decoder import TIE_ULPS
from vsr3d.features import (_check_window, dct3, preprocess_volume, pyramid_mask_indices,
                            resample_to_length)
from vsr3d.segmentation import (_D65_UN, _RGB_TO_XYZ, CROP_HALF_WIDTH, REFINE_ANGLES,
                                REFINE_COLS, MouthKeypoints, RoiVolume, SymmetryLine,
                                VideoSequence, box_filter, build_min_luminance_line,
                                detect_inner_lower_lip, detect_mouth_corners, luminance)
from vsr3d.svm import (BinarySvmModel, MultiClassModel, _sigmoid_of_negative,
                       predict_probability_matrix, rbf_kernel_matrix)


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise VsrError(f"kernel dimension mismatch: {x.shape} vs {y.shape}")
    d = x - y
    return math.exp(-gamma * float(d @ d))


def rbf_kernel_expression(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for all pairs, as one expression."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


def decision_value(model: BinarySvmModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.support_vectors.shape[1]:
        raise VsrError("feature dimension does not match the model")
    k = rbf_kernel_matrix(model.support_vectors, x[None, :], model.gamma)[:, 0]
    return float(model.dual_coef @ k + model.bias)


def platt_probability(model: BinarySvmModel, score) -> np.ndarray:
    return _sigmoid_of_negative(model.platt_a * np.asarray(score, dtype=float) + model.platt_b)


def predict_probabilities(model: MultiClassModel, x: np.ndarray) -> np.ndarray:
    """Independent one-vs-rest calibrated probability per class for one
    vector (deliberately not normalized to sum 1)."""
    return predict_probability_matrix(model, np.asarray(x, dtype=float)[None])[0]


def dual_objective(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ kernel @ ay)


class OneProblemSmo:
    """SMO for one problem on its own kernel matrix, one pair update per
    loop pass: the WSS2 loop (Fan, Chen & Lin 2005) with the tie rule, stop
    rule, budget warning and bias of `vsr3d.svm._SmoState`, which solves
    many problems in lockstep and must match this loop problem by problem.
    """

    def __init__(self, kernel: np.ndarray, y: np.ndarray, c: float, tol: float):
        self.K = kernel
        self.y = y.astype(float)
        self.C = float(c)
        self.tol = float(tol)
        self.alpha = np.zeros(len(y))
        self.v = self.y.copy()  # -y * G with all-zero alphas
        self.b = 0.0
        self.gap = math.inf
        self.iterations = 0

    def run(self, max_iter: int):
        K, y, C, alpha, v = self.K, self.y, self.C, self.alpha, self.v
        diag = np.diag(K)
        pos = y > 0
        tie = 1e-6 * self.tol
        while True:
            up = np.where(pos, alpha < C, alpha > 0.0)
            low = np.where(pos, alpha > 0.0, alpha < C)
            v_up = np.where(up, v, -np.inf)
            v_max, v_min = v_up.max(), np.where(low, v, np.inf).min()
            i = int(np.argmax(v_up >= v_max - tie))
            self.gap = float(v_max - v_min)
            if self.gap <= self.tol or self.iterations >= max_iter:
                break
            b = v[i] - v
            a = np.maximum(diag[i] + diag - 2.0 * K[i], 1e-12)
            j = int(np.argmax(np.where(low & (b > 0.0), b * b / a, -np.inf)))
            lim_i = C - alpha[i] if pos[i] else alpha[i]
            lim_j = alpha[j] if pos[j] else C - alpha[j]
            t = min(b[j] / a[j], lim_i, lim_j)
            new_i = (C if pos[i] else 0.0) if t == lim_i else alpha[i] + y[i] * t
            new_j = (0.0 if pos[j] else C) if t == lim_j else alpha[j] - y[j] * t
            v -= y[i] * (new_i - alpha[i]) * K[:, i] + y[j] * (new_j - alpha[j]) * K[:, j]
            alpha[i], alpha[j] = new_i, new_j
            self.iterations += 1
        if self.gap > self.tol:
            warnings.warn(f"SMO stopped at its budget of {self.iterations} pair updates "
                          f"with KKT gap {self.gap:.3g} > tolerance {self.tol:g}",
                          RuntimeWarning, stacklevel=2)
        free = (alpha > 0.0) & (alpha < C)
        self.b = float(v[free].mean()) if free.any() else 0.5 * float(v_max + v_min)


def pyramid_extract(coeffs: np.ndarray, s: int = 3) -> np.ndarray:
    """Low-frequency amplitudes under the pyramid mask.

    The index triple is (x-frequency, y-frequency, t-frequency); coefficient
    volumes are laid out (t, y, x).
    """
    if s < 1:
        raise VsrError("mask size must be >= 1")
    t_dim, y_dim, x_dim = coeffs.shape
    if s > min(t_dim, y_dim, x_dim):
        raise VsrError(f"mask size {s} exceeds a coefficient dimension {coeffs.shape}")
    return np.array([coeffs[k, j, i] for (i, j, k) in pyramid_mask_indices(s)])


def featurize_prepared(prepared: np.ndarray, start: int, duration: int, length: int, s: int):
    """One window of a `preprocess_volume` result: checked, resampled to
    `length` frames, transformed whole by `dct3` and masked, plus its
    duration."""
    _check_window(start, duration, prepared.shape[0])
    sub = prepared[start:start + duration]
    coeffs = dct3(resample_to_length(sub, length))
    return np.concatenate([pyramid_extract(coeffs, s), [float(duration)]])


def featurize(roi: RoiVolume, channel: str, delta_t_ms: float, fps: float,
              start: int, duration: int, length: int = 10, s: int = 3) -> np.ndarray:
    """Feature vector of one subsequence: pyramid-mask DCT amplitudes of the
    length-normalized window plus the original duration in frames."""
    return featurize_prepared(preprocess_volume(roi, channel, delta_t_ms, fps), start, duration,
                              length, s)


def idct3(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of `vsr3d.features.dct3`."""
    return scipy.fft.idctn(np.asarray(coeffs, dtype=float), type=2, norm="ortho")


def read_groundtruth_csv(path):
    """The CSV `vsr3d.formats.write_groundtruth_csv` writes, as arrays
    (sym_col, sym_angle, lip_row, left, right)."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    vals = np.array([[float(v) for v in r[1:]] for r in rows])
    return vals[:, 0], vals[:, 1], vals[:, 2], vals[:, 3:5], vals[:, 5:7]


# ---- symmetry search over whole images, one frame at a time ----------------

def stacked_bilinear_sample(image: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample the last two axes of `image` with bilinear interpolation;
    coordinates are clamped to the image rectangle first (edge replication
    outside).  A (k, H, W) image gives k planes of values, in a leading
    axis.  Each corner of a plane is one flat `np.take` over the whole
    image."""
    h, w = image.shape[-2:]
    rows = np.clip(rows, 0.0, h - 1.0)
    cols = np.clip(cols, 0.0, w - 1.0)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1, c1 = np.minimum(r0 + 1, h - 1), np.minimum(c0 + 1, w - 1)
    fr, fc = rows - r0, cols - c0
    corners = [r * w + c for r in (r0, r1) for c in (c0, c1)]
    planes = image.reshape(-1, h * w)
    shape = corners[0].shape
    out = np.empty((len(planes),) + shape)
    for k, plane in enumerate(planes):
        v00, v01, v10, v11 = (np.take(plane, i) for i in corners)
        top = v00 * (1 - fc) + v01 * fc
        bot = v10 * (1 - fc) + v11 * fc
        out[k] = top * (1 - fr) + bot * fr
    return out.reshape(image.shape[:-2] + shape)


def symmetry_costs(image: np.ndarray, columns, angles, band: int = 5) -> np.ndarray:
    """`vsr3d.segmentation.symmetry_costs` computed in one pass: every term
    of every candidate is sampled from the whole image, and each
    candidate's valid terms are then compacted and summed."""
    image = np.asarray(image, dtype=float)
    h, w = image.shape
    sin_t, cos_t, tan_t = (np.array([[[f(math.radians(a))]] for a in angles])
                           for f in (math.sin, math.cos, math.tan))
    c_row = (h - 1) / 2.0
    rows = np.arange(h, dtype=float)[:, None]
    line_cols = np.asarray(columns, dtype=float)[:, None, None, None] + (rows - c_row) * tan_t
    offs = np.arange(1, band + 1) - 0.5
    lr = rows + offs * sin_t
    lc = line_cols - offs * cos_t
    rr = rows - offs * sin_t
    rc = line_cols + offs * cos_t
    inside = (
        (lr >= 0) & (lr <= h - 1) & (lc >= 0) & (lc <= w - 1)
        & (rr >= 0) & (rr <= h - 1) & (rc >= 0) & (rc <= w - 1)
    )
    sq = ((stacked_bilinear_sample(image, lr, lc) - stacked_bilinear_sample(image, rr, rc)) ** 2
          ).reshape(-1, h, band)
    valid = inside.all(axis=-1).reshape(-1, h)
    n_valid = valid.sum(axis=1)
    costs = np.full(len(n_valid), np.inf)
    for n in np.unique(n_valid[n_valid >= 0.25 * h]):
        same = n_valid == n
        costs[same] = sq[same[:, None] & valid].reshape(same.sum(), -1).sum(axis=1) * (h / n)
    return costs.reshape(line_cols.shape[:2])


def find_symmetry_lines(video):
    """The symmetry lines of a video and the (5, 3) refine costs of frames
    1.., each frame converted to luminance whole and searched with one
    `symmetry_costs` call; frame 0 is the package's pyramid search."""
    lines = vsr3d.segmentation.find_symmetry_lines(VideoSequence(video.frames[:1], video.fps))
    costs = []
    for t in range(1, video.frame_count):
        gray = luminance(video.frames[t].astype(float))
        columns = [lines[-1].column + d for d in REFINE_COLS]
        angles = [lines[-1].angle_deg + a for a in REFINE_ANGLES]
        costs.append(symmetry_costs(gray, columns, angles))
        i, j = np.unravel_index(np.argmin(costs[-1]), costs[-1].shape)
        if not math.isfinite(costs[-1][i, j]):
            raise VsrError("no usable symmetry line (all candidates degenerate)")
        lines.append(SymmetryLine(float(columns[i]), float(angles[j])))
    return lines, costs


# ---- segmentation with all seven planes over every cropped frame ----------

def bilinear_sample(image: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bilinear sampling by 2-D fancy indexing, coordinates clamped to the
    image rectangle; an (H, W, k) image gives k values per point."""
    h, w = image.shape[:2]
    rows = np.clip(rows, 0.0, h - 1.0)
    cols = np.clip(cols, 0.0, w - 1.0)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = rows - r0
    fc = cols - c0
    if image.ndim == 3:
        fr = fr[..., None]
        fc = fc[..., None]
    top = image[r0, c0] * (1 - fc) + image[r0, c1] * fc
    bot = image[r1, c0] * (1 - fc) + image[r1, c1] * fc
    return top * (1 - fr) + bot * fr


def crop_grid(line: SymmetryLine, height: int):
    """Sampling grid (rows, cols) of the rotated, line-centered crop, from
    the row offsets t and column offsets k of the crop's pixels."""
    theta = math.radians(line.angle_deg)
    along = (math.cos(theta), math.sin(theta))     # (drow, dcol) down the line
    perp = (-math.sin(theta), math.cos(theta))     # unit normal, to the right
    c_row = (height - 1) / 2.0
    t = np.arange(height, dtype=float) - c_row
    k = np.arange(-CROP_HALF_WIDTH, CROP_HALF_WIDTH + 1, dtype=float)
    rows = c_row + t[:, None] * along[0] + k[None, :] * perp[0]
    cols = line.column + t[:, None] * along[1] + k[None, :] * perp[1]
    return rows, cols


def compute_channels(rgb01: np.ndarray) -> np.ndarray:
    """Colour planes of one frame, (7, H, W) in CHANNEL_NAMES order; rgb01 is
    (H, W, 3) scaled to [0, 1]."""
    r, g, b = rgb01[..., 0], rgb01[..., 1], rgb01[..., 2]
    lum_raw = 0.299 * r + 0.587 * g + 0.114 * b
    lo, hi = lum_raw.min(), lum_raw.max()
    lum = (lum_raw - lo) / (hi - lo) if hi > lo else np.zeros_like(lum_raw)

    xyz = rgb01 @ _RGB_TO_XYZ.T
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    denom = x + 15.0 * y + 3.0 * z
    with np.errstate(divide="ignore", invalid="ignore"):
        u_prime = np.where(denom > 0, 4.0 * x / np.where(denom > 0, denom, 1.0), _D65_UN)
    yr = y
    lstar = np.where(yr > (6.0 / 29.0) ** 3, 116.0 * np.cbrt(yr) - 16.0, (29.0 / 3.0) ** 3 * yr)
    u = 13.0 * lstar * (u_prime - _D65_UN) / 255.0

    rg = r + g
    pseudo_hue = np.where(rg > 0, r / np.where(rg > 0, rg, 1.0), 0.5)
    return np.stack([lum, u, u * lum, pseudo_hue, r, g, b])


def prepare_frames(video, lines) -> np.ndarray:
    """The (7, T, H, 101) colour planes of every rotated, cropped frame."""
    planes = np.empty((len(CHANNEL_NAMES), video.frame_count, video.height,
                       2 * CROP_HALF_WIDTH + 1))
    for t, line in enumerate(lines):
        rows, cols = crop_grid(line, video.height)
        planes[:, t] = compute_channels(
            bilinear_sample(video.frames[t].astype(float) / 255.0, rows, cols))
    return planes


def extract_roi(planes: np.ndarray, keypoints: MouthKeypoints,
                roi_width: int = 64, roi_height: int = 48) -> RoiVolume:
    """All seven planes resampled into the mouth window, one frame at a time."""
    if keypoints.frame_count != planes.shape[1]:
        raise VsrError("keypoints do not match frame count")
    d = keypoints.right - keypoints.left
    dists = np.hypot(d[:, 0], d[:, 1])
    max_dist = float(dists.max())
    if max_dist <= 0:
        raise VsrError("zero mouth width in every frame; cannot normalize ROI")
    scale = 0.75 * roi_width / max_dist
    cy, cx = (roi_height - 1) / 2.0, (roi_width - 1) / 2.0
    gy, gx = np.meshgrid(np.arange(roi_height, dtype=float) - cy,
                         np.arange(roi_width, dtype=float) - cx, indexing="ij")
    data = np.empty((len(planes), planes.shape[1], roi_height, roi_width))
    for t in range(planes.shape[1]):
        mid = (keypoints.left[t] + keypoints.right[t]) / 2.0
        if dists[t] > 0:
            ux = d[t, 1] / dists[t]
            uy = d[t, 0] / dists[t]
        else:
            ux, uy = 1.0, 0.0
        rows = mid[0] + (gx * uy + gy * ux) / scale
        cols = mid[1] + (gx * ux - gy * uy) / scale
        sampled = bilinear_sample(np.moveaxis(planes[:, t], 0, -1), rows, cols)
        data[:, t] = np.moveaxis(sampled, -1, 0)
    return roi_volume(data)


def roi_volume(planes) -> RoiVolume:
    """A RoiVolume holding given planes: a (7, frames, H, W) stack in
    `CHANNEL_NAMES` order, or one (frames, H, W) plane that serves as every
    channel."""
    planes = np.asarray(planes)
    if planes.ndim == 3:
        planes = np.broadcast_to(planes, (len(CHANNEL_NAMES),) + planes.shape)
    return RoiVolume(planes.shape[1:],
                     lambda names: [planes[CHANNEL_NAMES.index(name)] for name in names])


def roi_planes(roi: RoiVolume) -> np.ndarray:
    """Every plane of a volume, stacked in `CHANNEL_NAMES` order."""
    return np.stack([roi.plane(name) for name in CHANNEL_NAMES])


def segment_video(video, roi_width: int = 64, roi_height: int = 48):
    """Keypoints and ROI of the seven-plane path, as (keypoints, roi)."""
    lines, _ = find_symmetry_lines(video)
    planes = prepare_frames(video, lines)
    ulum = planes[CHANNEL_NAMES.index("ulum")]
    lip_rows = detect_inner_lower_lip(ulum[:, :, ulum.shape[-1] // 2])
    smooth = box_filter(planes[CHANNEL_NAMES.index("lum")], 3)
    lum_lines = build_min_luminance_line(smooth, lip_rows)
    left, right = detect_mouth_corners(smooth, lum_lines)
    keypoints = MouthKeypoints(lip_rows=lip_rows, left=left, right=right, lum_lines=lum_lines)
    return keypoints, extract_roi(planes, keypoints, roi_width, roi_height)


def prob(grid, c: int, start: int, duration: int) -> float:
    """Cell (start, duration) of class c in a ProbabilityGrid; -1 outside
    the class's duration bounds or where no window fits."""
    if not grid.dmin[c] <= duration <= grid.dmax[c]:
        return -1.0
    return float(grid.probs[c][start, duration - grid.dmin[c]])


def pair_log_weights(grid):
    """The (d, c) pairs of a grid in (d, c) order and their (pairs, frames)
    log-weights d * log p, -inf for a -1 or 0 cell."""
    lo, hi = np.asarray(grid.dmin, dtype=int), np.asarray(grid.dmax, dtype=int)
    pairs = [(d, c) for d in range(1, int(hi.max()) + 1)
             for c in range(len(lo)) if lo[c] <= d <= hi[c]]
    weights = []
    for d, c in pairs:
        cells = grid.probs[c][:, d - lo[c]]
        with np.errstate(divide="ignore"):
            weights.append(d * np.log(np.where(cells >= 0, cells, 0.0)))
    return pairs, np.stack(weights)


def decode_sequence(grid):
    """Segment-level Viterbi over `pair_log_weights`.  At end frame e every
    pair whose score is within TIE_ULPS * e ulps of |max| counts as tied; the
    smallest tied duration wins, and among its pairs the largest score, the
    first such pair.  None when no tiling is feasible."""
    pairs, logw = pair_log_weights(grid)
    durations = np.array([d for d, _ in pairs])
    n = grid.frame_count
    best = np.full(n + 1, -np.inf)
    best[0] = 0.0
    back = np.zeros(n + 1, dtype=np.intp)
    for e in range(1, n + 1):
        k = np.searchsorted(durations, e, side="right")
        if k == 0:
            continue
        starts = e - durations[:k]
        scores = best[starts] + logw[np.arange(k), starts]
        high = scores.max()
        tied = scores >= high - TIE_ULPS * e * np.finfo(float).eps * abs(high)
        shortest = durations[:k] == durations[:k][tied].min()
        back[e] = np.argmax(np.where(shortest, scores, -np.inf))
        best[e] = scores[back[e]]
    if n < 1 or not np.isfinite(best[n]):
        return None
    entries = []
    while n > 0:
        d, c = pairs[back[n]]
        n -= d
        entries.append((grid.class_labels[c], n, d))
    return entries[::-1]
