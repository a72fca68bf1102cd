"""Mouth-region segmentation.

Finds the facial symmetry line coarse-to-fine over an image pyramid; tracks
the inner-lower-lip row and the mouth corners of the whole video at once
with Gaussian-transition HMMs, each decoded by the plain Viterbi
`viterbi_generic`; and resamples a rotation/position/scale-normalized mouth
window from every frame.  Tracking reads one plane of the crop, its
luminance (each frame's raw BT.601 luma sampled and rescaled to [0, 1]),
and u*lum on the symmetry column, whose RGB alone is sampled for it.  The
lum-line and corner trackers smooth that luminance (`box_filter(lum, 3)`)
only at the points they compare.  Once the corners are known, the window
keeps its geometry and the luminance of its footprint in the crop.  Its
volume (`RoiVolume`) always has the seven planes of `CHANNEL_NAMES` and
makes each one (`color_plane`, the one formula) when it is first asked for,
frame by frame: the frame's footprint RGB is sampled for only the channels
the planes read, and resampled with the frame's own taps.

Bilinear sampling is written once: a `_Taps` plan (`_box_taps`) holds the
pixel box its taps read, the corner indices in that box and the weights,
and its `sample` blends the box's pixels of one image or a stack of planes.
A plan depends only on the geometry, so searches and crops reuse one per
distinct line (`_SymmetryPlan` adds a search window's valid terms) and
convert only the pixels of its box.

Coordinates: (row, col) with row increasing downward.  A symmetry line is
anchored at the vertical image center; positive angles tilt it clockwise.
The line column at row r is column + (r - center_row) * tan(angle).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import VsrError
from .config import CHANNEL_NAMES

CROP_HALF_WIDTH = 50           # columns kept on either side of the symmetry line
CROP_WIDTH = 2 * CROP_HALF_WIDTH + 1
MIN_PYRAMID_WIDTH = 20
PYRAMID_RATIO = 0.75
COARSE_ANGLES = range(-10, 11)  # degrees searched exhaustively at the top level
REFINE_COLS = (-2, -1, 0, 1, 2)
REFINE_ANGLES = (-1, 0, 1)
LIP_TRACK_SIGMA = 8.0
CORNER_TRACK_SIGMA = 2.0
LUM_LINE_LENGTH = 81
LIP_SEED_RANGE = (-8, 4)       # rows searched around the lip row for the line seed
PLAN_CACHE_SIZE = 4            # sampling plans one call keeps; the least recently used goes

# sRGB -> XYZ (D65); rows sum to the D65 white point, so gray maps to u* = 0.
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_WHITE = _RGB_TO_XYZ.sum(axis=1)
_D65_UN = 4.0 * _WHITE[0] / (_WHITE[0] + 15.0 * _WHITE[1] + 3.0 * _WHITE[2])


@dataclass(frozen=True)
class SymmetryLine:
    column: float
    angle_deg: float


@dataclass
class VideoSequence:
    """Ordered RGB frames, shape (frames, height, width, 3) uint8."""

    frames: np.ndarray
    fps: float = 25.0

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 4 or self.frames.shape[-1] != 3:
            raise VsrError("video frames must have shape (T, H, W, 3)")
        if self.frames.shape[0] < 1:
            raise VsrError("video must contain at least one frame")
        if self.fps <= 0:
            raise VsrError("fps must be positive")

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


@dataclass
class MouthKeypoints:
    """Per-frame mouth keypoints in cropped-frame coordinates."""

    lip_rows: np.ndarray        # (T,)
    left: np.ndarray            # (T, 2) (row, col)
    right: np.ndarray           # (T, 2)
    lum_lines: np.ndarray       # (T, 81, 2) int (row, col)

    @property
    def frame_count(self) -> int:
        return len(self.lip_rows)


class RoiVolume:
    """Normalized mouth window: one (frames, H, W) plane per name in
    `CHANNEL_NAMES`.

    A volume keeps the planes it has made, and `make_planes(names)`, which
    returns the named missing planes in order; `plane` makes one plane on
    first use, `planes` every missing one in a single call.  `extract_roi`
    builds one whose `make_planes` computes the channels over the window's
    footprint in the cropped frames and resamples them; `read_roi` one whose
    `make_planes` reads the planes' bytes from the `.vsr1` file.
    """

    def __init__(self, shape, make_planes):
        self.shape = tuple(shape)
        self._make_planes = make_planes
        self._planes = {}

    @property
    def frame_count(self) -> int:
        return self.shape[0]

    @property
    def height(self) -> int:
        return self.shape[1]

    @property
    def width(self) -> int:
        return self.shape[2]

    def plane(self, name: str) -> np.ndarray:
        if name not in CHANNEL_NAMES:
            raise VsrError(f"channel {name!r} not present in ROI volume")
        if name not in self._planes:
            self._planes[name], = self._make_planes([name])
        return self._planes[name]

    def planes(self) -> list[np.ndarray]:
        """Every plane in `CHANNEL_NAMES` order."""
        missing = [name for name in CHANNEL_NAMES if name not in self._planes]
        if missing:
            self._planes.update(zip(missing, self._make_planes(missing)))
        return [self._planes[name] for name in CHANNEL_NAMES]


def raw_luma(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma, as float64, of an (..., 3) RGB array in the units of
    its values (0..255 for uint8 pixels)."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    return 0.299 * r + 0.587 * g + 0.114 * b


def luminance(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma of an RGB array scaled to [0, 1]."""
    return raw_luma(rgb) / 255.0


class _Taps(NamedTuple):
    """Bilinear taps of points in an h x w image, relative to the pixel box
    they read: `box`, a (row, column) slice pair; `corners`, the flat
    indices in the box of each point's corners (r0, c0), (r0, c1), (r1, c0)
    and (r1, c1); and `weights`, the pairs (1 - fr, fr) and (1 - fc, fc)."""

    box: tuple
    corners: list
    weights: tuple

    def sample(self, values: np.ndarray) -> np.ndarray:
        """The points' samples of `values`, the box's pixels of one image
        (bh, bw) or of k planes (k, bh, bw): (v00 fc0 + v01 fc1) fr0 +
        (v10 fc0 + v11 fc1) fr1, in place in the four fresh gathers."""
        flat = values.reshape(*values.shape[:-2], -1)
        v00, v01, v10, v11 = (np.take(flat, i, axis=-1) for i in self.corners)
        (fr0, fr1), (fc0, fc1) = self.weights
        v00 *= fc0
        v01 *= fc1
        v00 += v01
        v10 *= fc0
        v11 *= fc1
        v10 += v11
        v00 *= fr0
        v10 *= fr1
        v00 += v10
        return v00


def _box_taps(rows, cols, h: int, w: int, box=None) -> _Taps:
    """The `_Taps` of points (rows, cols) in an h x w image, relative to
    `box`, which must hold every tap, or by default to the least box that
    does.  Coordinates are clamped to the image rectangle first (edge
    replication outside)."""
    rows = np.clip(rows, 0.0, h - 1.0)
    cols = np.clip(cols, 0.0, w - 1.0)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1, c1 = np.minimum(r0 + 1, h - 1), np.minimum(c0 + 1, w - 1)
    fr, fc = rows - r0, cols - c0
    if box is None:
        box = (slice(int(r0.min()), int(r1.max()) + 1),
               slice(int(c0.min()), int(c1.max()) + 1))
    top, left = box[0].start, box[1].start
    bw = box[1].stop - left
    starts, offsets = [(r - top) * bw for r in (r0, r1)], [c - left for c in (c0, c1)]
    return _Taps(box, [start + offset for start in starts for offset in offsets],
                 ((1 - fr, fr), (1 - fc, fc)))


def area_average_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Exact box-integration resize (each output pixel is the mean of its
    footprint in the input, with fractional edge coverage)."""

    def reduce_rows(arr: np.ndarray, n_out: int) -> np.ndarray:
        n_in = arr.shape[0]
        if n_out == n_in:
            return arr
        cum = np.vstack([np.zeros((1, arr.shape[1])), np.cumsum(arr, axis=0)])
        r = n_in / n_out
        edges = np.minimum(np.arange(n_out + 1) * r, float(n_in))
        i = np.clip(np.floor(edges).astype(np.intp), 0, n_in - 1)
        ints = cum[i] + (edges - i)[:, None] * arr[i]
        return (ints[1:] - ints[:-1]) / r

    out = reduce_rows(np.asarray(image, dtype=float), out_h)
    out = reduce_rows(np.ascontiguousarray(out.T), out_w).T
    return out


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def build_image_pyramid(image: np.ndarray) -> list[np.ndarray]:
    """Downsample by 75% per level (area averaging) until the width would
    drop below 20 pixels; level 0 is the input."""
    image = np.asarray(image, dtype=float)
    h, w = image.shape
    if w < MIN_PYRAMID_WIDTH:
        raise VsrError(f"image width {w} is below the usable minimum of {MIN_PYRAMID_WIDTH}")
    levels = [image]
    while True:
        nw = round_half_up(PYRAMID_RATIO * w)
        nh = max(1, round_half_up(PYRAMID_RATIO * h))
        if nw < MIN_PYRAMID_WIDTH:
            break
        levels.append(area_average_resize(levels[-1], nh, nw))
        h, w = nh, nw
    return levels


class _SymmetryPlan:
    """The geometry of one symmetry search window over h x w images, built
    once and applied to any number of them: the candidates' bilinear taps
    (`taps`, relative to the pixel box they read), and the candidates grouped
    by valid-row count with their valid terms in order.

    Candidate lines sit at every (column, angle) of the window.  Pairs sit at
    perpendicular offsets k - 0.5 (k = 1..band) so exact mirror images about
    pixel or half-pixel centers cost 0.  Rows whose band does not fit
    entirely inside the image are dropped; fewer than 25% valid rows yields
    +inf, and partial sums are rescaled to full-image weight.
    """

    def __init__(self, h: int, w: int, columns, angles, band: int = 5):
        self.columns, self.angles, self.height, self.band = columns, angles, h, band
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
        self.shape = inside.shape[:2]
        valid = inside.all(axis=-1).reshape(-1, h)
        n_valid = valid.sum(axis=1)
        # a candidate's valid terms are summed as one compacted block in row
        # order, so its cost does not depend on the other candidates of the
        # window; candidates with as many valid rows share one reduction
        self.groups = [(np.flatnonzero(n_valid == n), int(n))
                       for n in np.unique(n_valid[n_valid >= 0.25 * h])]
        self.taps = _Taps((slice(0, 0), slice(0, 0)), [], ())
        if self.groups:
            # the (candidate, row) of every valid term row, group by group
            cand, row = np.concatenate([np.nonzero((n_valid == n)[:, None] & valid)
                                        for _, n in self.groups], axis=1)
            angle = cand % len(angles)
            self.taps = _box_taps(
                np.stack([lr[angle, row], rr[angle, row]]).reshape(2, -1),
                np.stack([lc.reshape(-1, h, band)[cand, row],
                          rc.reshape(-1, h, band)[cand, row]]).reshape(2, -1), h, w)

    def costs(self, image: np.ndarray) -> np.ndarray:
        """(len(columns), len(angles)) sums of squared differences between
        the bands on either side of each candidate line, given the pixels of
        the plan's box in one image as floats."""
        costs = np.full(self.shape[0] * self.shape[1], np.inf)
        if self.groups:
            left, right = self.taps.sample(image)
            left -= right
            sq = np.square(left, out=left)
            start = 0
            for candidates, n in self.groups:
                block = sq[start:start + len(candidates) * n * self.band]
                sums = block.reshape(len(candidates), -1).sum(axis=1)
                costs[candidates] = sums * (self.height / n)
                start += block.size
        return costs.reshape(self.shape)


def symmetry_costs(image: np.ndarray, columns, angles, band: int = 5) -> np.ndarray:
    """(len(columns), len(angles)) symmetry costs of the candidate lines at
    every (column, angle) of one image (see `_SymmetryPlan`): the window's
    plan built and applied once."""
    image = np.asarray(image, dtype=float)
    plan = _SymmetryPlan(*image.shape, columns, angles, band)
    return plan.costs(image[plan.taps.box])


def _least_cost(costs: np.ndarray, columns, angles) -> SymmetryLine:
    """The least-cost candidate, the first in (column, angle) order on ties."""
    i, j = np.unravel_index(np.argmin(costs), costs.shape)
    if not math.isfinite(costs[i, j]):
        raise VsrError("no usable symmetry line (all candidates degenerate)")
    return SymmetryLine(float(columns[i]), float(angles[j]))


def _best_line(image, columns, angles, polish=False) -> SymmetryLine:
    """The least-cost candidate of one image, with a sub-pixel column if
    `polish`."""
    costs = symmetry_costs(image, columns, angles)
    best = _least_cost(costs, columns, angles)
    if polish:
        # sub-pixel column: parabolic interpolation of the cost through the
        # winner and its neighbours, clamped to the search window
        lo, hi = symmetry_costs(image, [best.column - 1.0, best.column + 1.0],
                                [best.angle_deg])[:, 0]
        denom = lo - 2.0 * costs.min() + hi
        if math.isfinite(lo) and math.isfinite(hi) and denom > 0:
            delta = 0.5 * (lo - hi) / denom
            col = best.column + min(max(delta, -0.5), 0.5)
            col = min(max(col, min(columns)), max(columns))
            best = SymmetryLine(float(col), best.angle_deg)
    return best


def find_symmetry_lines(video: VideoSequence) -> list[SymmetryLine]:
    """One symmetry line per frame.

    Frame 0 is solved coarse-to-fine: the smallest pyramid level is searched
    exhaustively (all columns, -10..10 degrees), each finer level refines
    within +-2 px / +-1 degree in its own pixel units.  Subsequent frames
    refine the previous line within the same window on the full-size image.
    A refine window depends only on the previous line, and a video's lines
    take few distinct values, so each window's plan is built once (up to
    PLAN_CACHE_SIZE kept) and reads the luminance of its box alone.
    """
    gray0 = luminance(video.frames[0].astype(float))
    pyramid = build_image_pyramid(gray0)
    smallest = pyramid[-1]
    line = _best_line(smallest, range(smallest.shape[1]), COARSE_ANGLES)
    for lvl in range(len(pyramid) - 2, -1, -1):
        fine = pyramid[lvl]
        ratio = fine.shape[1] / pyramid[lvl + 1].shape[1]
        col0 = (line.column + 0.5) * ratio - 0.5
        line = _best_line(
            fine,
            [col0 + d for d in REFINE_COLS],
            [line.angle_deg + a for a in REFINE_ANGLES],
            polish=(lvl == 0),
        )
    lines = [line]
    refine_plan = functools.lru_cache(PLAN_CACHE_SIZE)(
        lambda prev: _SymmetryPlan(video.height, video.width,
                                   [prev.column + d for d in REFINE_COLS],
                                   [prev.angle_deg + a for a in REFINE_ANGLES]))
    for t in range(1, video.frame_count):
        plan = refine_plan(lines[-1])
        gray = luminance(video.frames[t][plan.taps.box].astype(float))
        lines.append(_least_cost(plan.costs(gray), plan.columns, plan.angles))
    return lines


def crop_grid(line: SymmetryLine, height: int, box):
    """Sampling grid (rows, cols) of the rotated, line-centered crop over
    `box`, a (row, column) slice pair of crop pixels: each pixel of the box
    mapped into the original image."""
    return cropped_to_original(line, height, np.arange(height)[box[0]][:, None],
                               np.arange(CROP_WIDTH)[box[1]][None, :])


def cropped_to_original(line: SymmetryLine, height: int, row, col):
    """Map cropped-frame points (scalars or broadcastable arrays) back into
    original-image coordinates."""
    theta = math.radians(line.angle_deg)
    along = np.array([math.cos(theta), math.sin(theta)])   # (drow, dcol) down the line
    perp = np.array([-math.sin(theta), math.cos(theta)])   # unit normal, to the right
    c_row = (height - 1) / 2.0
    t = row - c_row
    k = col - CROP_HALF_WIDTH
    return (
        c_row + t * along[0] + k * perp[0],
        line.column + t * along[1] + k * perp[1],
    )


def color_plane(name: str, rgb01, lum: np.ndarray) -> np.ndarray:
    """One plane of CHANNEL_NAMES at every pixel of `lum`, given the RGB
    planes at the same pixels scaled to [0, 1], indexed 0 (red), 1 (green)
    and 2 (blue) in an array or a mapping, of which only the channels
    `_RGB_READ[name]` are read, and the crop's luminance (`prepare_frames`)."""
    if name == "lum":
        return lum
    if name in ("red", "green", "blue"):
        return rgb01[("red", "green", "blue").index(name)]
    if name == "pseudo_hue":
        r, rg = rgb01[0], rgb01[0] + rgb01[1]
        return np.where(rg > 0, r / np.where(rg > 0, rg, 1.0), 0.5)
    if name not in ("u", "ulum"):
        raise VsrError(f"unknown channel {name!r}")
    # one C-ordered (r, g, b) product row per pixel, and at least two rows:
    # BLAS rounds a one-row product (a matrix-vector kernel) differently
    # from the rows of a larger one
    n = lum.size
    pixels = np.zeros((max(n, 2), 3))
    for i in range(3):
        pixels[:n, i] = np.reshape(rgb01[i], -1)
    xyz = (pixels @ _RGB_TO_XYZ.T)[:n]
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    denom = x + 15.0 * y + 3.0 * z
    with np.errstate(divide="ignore", invalid="ignore"):
        u_prime = np.where(denom > 0, 4.0 * x / np.where(denom > 0, denom, 1.0), _D65_UN)
    # Y / Yn with Yn = 1 for D65-normalized sRGB
    lstar = np.where(y > (6.0 / 29.0) ** 3, 116.0 * np.cbrt(y) - 16.0, (29.0 / 3.0) ** 3 * y)
    # u* rescaled by 1/255 so every channel plane shares the [~-1, ~1] range
    u = (13.0 * lstar * (u_prime - _D65_UN) / 255.0).reshape(lum.shape)
    return u if name == "u" else u * lum


# the RGB channels (0 red, 1 green, 2 blue) that `color_plane` reads per plane
_RGB_READ = {"lum": (), "red": (0,), "green": (1,), "blue": (2,), "pseudo_hue": (0, 1),
             "u": (0, 1, 2), "ulum": (0, 1, 2)}


def _sample_rgb(frame: np.ndarray, taps: _Taps, channels) -> np.ndarray:
    """(len(channels), ...) RGB channels (0 red, 1 green, 2 blue) of one
    (H, W, 3) frame scaled to [0, 1] at the points of `taps`: only those
    channels of its box are converted to float."""
    return taps.sample(frame[taps.box].transpose(2, 0, 1)[list(channels)] / 255.0)


def prepare_frames(video: VideoSequence, lines: list[SymmetryLine]):
    """Rotate each frame so its symmetry line is vertical and central, and
    crop it to +-50 columns.

    Returns (rgb_over, lum, ulum).  lum, (T, H, 101), is the crop's
    luminance: the bilinear sample of each frame's `raw_luma`, rescaled so
    the frame's crop spans [0, 1] (all 0 in a flat frame).  ulum is u*lum on
    the symmetry column, (T, H), which is all of that plane the lip tracker
    reads; only that column's RGB is sampled for it.  `rgb_over(box)`, for
    `box` a (row, column) slice pair of crop pixels, is a per-frame sampler:
    `sample(t, channels)` is a mapping from each of the RGB channels asked
    for (0 red, 1 green, 2 blue) to its (bh, bw) plane of frame t over the
    box, scaled to [0, 1] and sampled afresh on each call; the sampler keeps
    one plan per distinct line.
    """
    if len(lines) != video.frame_count:
        raise VsrError("need one symmetry line per frame")
    n, h, w = video.frame_count, video.height, video.width

    def plans(box):
        # a video's lines take few distinct values: one plan per line, and
        # only the pixels of its box are converted to float
        return functools.lru_cache(PLAN_CACHE_SIZE)(
            lambda line: _box_taps(*crop_grid(line, h, box), h, w))

    crop_plan = plans((slice(0, h), slice(0, CROP_WIDTH)))
    center_plan = plans((slice(0, h), slice(CROP_HALF_WIDTH, CROP_HALF_WIDTH + 1)))
    lum = np.empty((n, h, CROP_WIDTH))
    center_rgb = np.empty((3, n, h))
    for t, line in enumerate(lines):
        taps = crop_plan(line)
        lum[t] = taps.sample(raw_luma(video.frames[t][taps.box]))
        center_rgb[:, t] = _sample_rgb(video.frames[t], center_plan(line), (0, 1, 2))[..., 0]
    lo = lum.min(axis=(1, 2), keepdims=True)
    hi = lum.max(axis=(1, 2), keepdims=True)
    lum -= lo
    lum /= np.where(hi > lo, hi - lo, 1.0)

    def rgb_over(box):
        plan = plans(box)

        def sample(t: int, channels) -> dict:
            return dict(zip(channels, _sample_rgb(video.frames[t], plan(lines[t]), channels)))

        return sample

    return rgb_over, lum, color_plane("ulum", center_rgb, lum[..., CROP_HALF_WIDTH])


def box_filter(image: np.ndarray, size: int) -> np.ndarray:
    """size x size box filter (size odd) over the last two axes, with edge
    replication: the window sums in row-major offset order, divided by
    size * size."""
    h, w = image.shape[-2:]
    r = size // 2
    padded = np.pad(image, [(0, 0)] * (image.ndim - 2) + [(r, r), (r, r)], mode="edge")
    out = np.zeros_like(image, dtype=float)
    for dr in range(size):
        for dc in range(size):
            out += padded[..., dr:dr + h, dc:dc + w]
    del padded
    out /= size * size
    return out


def _smoothed_at(lum: np.ndarray, frames, rows, cols) -> np.ndarray:
    """`box_filter(lum, 3)` of a (T, H, W) plane at the points (frames, rows,
    cols), broadcastable int arrays inside the plane, and nowhere else: each
    point's nine edge-clamped neighbours summed in the filter's row-major
    offset order and divided by 9, so every value keeps the filter's bits."""
    _, h, w = lum.shape
    frames, rows, cols = np.broadcast_arrays(frames, rows, cols)
    offsets = np.arange(-1, 2).reshape((3,) + (1,) * frames.ndim)
    rows = np.clip(rows + offsets, 0, h - 1)
    cols = np.clip(cols + offsets, 0, w - 1)
    # (3, 3, ...) neighbour values, row offset first
    values = np.take(lum, (frames * h + rows[:, None]) * w + cols)
    out = np.zeros(frames.shape)
    for row in values:
        for value in row:
            out += value
    out /= 9
    return out


def _minmax01(values: np.ndarray, what: str) -> np.ndarray:
    """Each row of a (T, n) array rescaled to [0, 1]."""
    lo, hi = values.min(axis=1, keepdims=True), values.max(axis=1, keepdims=True)
    if (hi <= lo).any():
        raise VsrError(f"degenerate gradient while detecting {what}")
    return (values - lo) / (hi - lo)


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


def gaussian_transition_matrix(n: int, sigma: float) -> np.ndarray:
    idx = np.arange(n, dtype=float)
    return np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * sigma * sigma))


def detect_inner_lower_lip(ulum: np.ndarray, force_first_row: int | None = None) -> np.ndarray:
    """Viterbi-track the row where the symmetry column crosses the inner
    lower lip, using the vertical gradient of u*lum along that column,
    (T, H), as observation weights.

    force_first_row pins the frame-0 state (the manual rescue for videos the
    tracker gets wrong).
    """
    if len(ulum) == 0:
        raise VsrError("no frames")
    height = ulum.shape[1]
    obs = _minmax01(np.gradient(ulum, axis=1), "the inner lower lip")
    if force_first_row is not None:
        if not 0 <= force_first_row < height:
            raise VsrError(f"forced lip row {force_first_row} outside frame")
        obs[0] = 0.0
        obs[0, force_first_row] = 1.0
    trans = gaussian_transition_matrix(height, LIP_TRACK_SIGMA)
    priors = np.ones(height)
    path, _ = viterbi_generic(priors, trans, obs)
    return np.asarray(path, dtype=float)


def build_min_luminance_line(lum: np.ndarray, lip_rows: np.ndarray) -> np.ndarray:
    """81-point darkest polyline through the mouth slit of every frame, given
    the crop's luminance, (T, H, W), and the lip row of each frame.  Returns
    (T, 81, 2) int (row, col).

    Darkness is the smoothed luminance `box_filter(lum, 3)`, computed only at
    the points compared (`_smoothed_at`).  The line is seeded at the darkest
    pixel on the symmetry column within rows [lip_row-8, lip_row+4], then
    grown 40 columns to each side, stepping to the darkest of {row-1, row,
    row+1}; ties prefer staying, then the smaller row.  Rows are clamped at
    the frame boundary.
    """
    n_frames, h, w = lum.shape
    center = w // 2
    half = (LUM_LINE_LENGTH - 1) // 2
    lo, hi = (np.clip(np.round(lip_rows + off), 0, h - 1).astype(int) for off in LIP_SEED_RANGE)
    # rows past hi repeat hi, so the first minimum is the first in [lo, hi]
    window = np.minimum(lo[:, None] + np.arange(LIP_SEED_RANGE[1] - LIP_SEED_RANGE[0] + 1),
                        hi[:, None])
    frames = np.arange(n_frames)[:, None]
    rows = np.empty((n_frames, LUM_LINE_LENGTH), dtype=int)
    rows[:, half] = window[frames[:, 0],
                           np.argmin(_smoothed_at(lum, frames, window, center), axis=1)]
    cols = np.arange(center - half, center + half + 1)
    for k in range(1, half + 1):
        step = half + np.array([-k, k])  # one column further out on each side
        cand = np.clip(rows[:, step + (1, -1), None] + (0, -1, 1), 0, h - 1)  # stay, up, down
        best = np.argmin(_smoothed_at(lum, frames[:, :, None], cand, cols[step, None]), axis=2)
        rows[:, step] = np.take_along_axis(cand, best[..., None], axis=2)[..., 0]
    return np.stack([rows, np.broadcast_to(cols, rows.shape)], axis=-1)


def detect_mouth_corners(lum: np.ndarray, lines: np.ndarray):
    """Track both mouth corners along the minimal-luminance lines, given the
    crop's luminance of every frame, (T, H, W).

    The observations are the gradient of the smoothed luminance
    `box_filter(lum, 3)` along each polyline, computed only at its points
    (`_smoothed_at`).  The left corner lives on indices 0..40 of each
    polyline (weights from the negated gradient), the right corner on
    40..80; each is tracked by its own Gaussian-transition HMM.  Returns
    (left, right) arrays of (row, col) per frame.
    """
    if len(lines) != len(lum):
        raise VsrError("need one polyline per frame")
    frames = np.arange(len(lum))
    half = (LUM_LINE_LENGTH - 1) // 2
    grad = np.gradient(_smoothed_at(lum, frames[:, None], lines[..., 0], lines[..., 1]), axis=1)
    obs_left = _minmax01(-grad[:, : half + 1], "the left mouth corner")
    obs_right = _minmax01(grad[:, half:], "the right mouth corner")
    trans = gaussian_transition_matrix(half + 1, CORNER_TRACK_SIGMA)
    priors = np.ones(half + 1)
    path_l, _ = viterbi_generic(priors, trans, obs_left)
    path_r, _ = viterbi_generic(priors, trans, obs_right)
    left = lines[frames, np.asarray(path_l)].astype(float)
    right = lines[frames, half + np.asarray(path_r)].astype(float)
    return left, right


def extract_roi(rgb_over, lum: np.ndarray, keypoints: MouthKeypoints,
                roi_width: int = 64, roi_height: int = 48) -> RoiVolume:
    """The mouth window of every cropped frame, given the crop's (T, H, W)
    luminance and `rgb_over(box)`, the per-frame sampler of its RGB scaled
    to [0, 1] over a (row, column) slice pair of crop pixels
    (`prepare_frames`).

    Each frame is rotated about the corner-line midpoint so the corner line
    is horizontal; one constant scale factor (0.75 * roi_width / the maximum
    corner distance over the sequence) keeps real mouth-width changes in the
    output.  The volume keeps this geometry and the luminance of the
    footprint that the window's bilinear taps read, the union over frames.
    It makes the planes asked for frame by frame: the frame's footprint RGB
    is sampled for only the channels those planes read (none for lum, one
    for red), and resampled into the window with the frame's own taps.
    """
    if keypoints.frame_count != lum.shape[0]:
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
    mid = (keypoints.left + keypoints.right) / 2.0
    # along-corner-line unit vector (x, y); a frame without width keeps x
    moving = dists > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = np.where(moving, d[:, 1] / dists, 1.0)[:, None, None]
        uy = np.where(moving, d[:, 0] / dists, 0.0)[:, None, None]

    def window(frames, y, x):
        # crop (rows, cols) of the window points (y, x) in `frames`: the
        # output x axis follows the corner line, the y axis its downward normal
        return (mid[frames, 0, None, None] + (x * uy[frames] + y * ux[frames]) / scale,
                mid[frames, 1, None, None] + (x * ux[frames] - y * uy[frames]) / scale)

    n, h, w = lum.shape
    # a coordinate is a column term plus a row term, each monotone along the
    # window, and rounding keeps order, so each frame's extreme coordinates
    # are at the window's corners; taps grow with the coordinates, so the
    # extreme ones span the footprint
    rows, cols = window(slice(None), *(g[np.ix_([0, -1], [0, -1])] for g in (gy, gx)))
    box = _box_taps(rows, cols, h, w).box
    sample, lum = rgb_over(box), lum[(..., *box)].copy()

    def make_planes(names) -> list[np.ndarray]:
        channels = sorted({c for name in names for c in _RGB_READ[name]})
        planes = [np.empty((n, roi_height, roi_width)) for _ in names]
        for t in range(n):
            rgb = sample(t, channels) if channels else {}
            taps = _box_taps(*window(t, gy, gx), h, w, box)
            for plane, name in zip(planes, names):
                plane[t] = taps.sample(color_plane(name, rgb, lum[t]))
        return planes

    return RoiVolume((n, roi_height, roi_width), make_planes)
