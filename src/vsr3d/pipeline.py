"""Stage orchestration shared by the CLI, scripts, and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import VsrError
from .config import PipelineConfig
# the grid path (build_probability_grid, decode_sequence) is exported here for
# `decode --save-grid`, tests and tracing
from .decoder import (best_window_table, build_probability_grid, decode_sequence, decode_windows,
                      expand_biphones)
from .segmentation import (MouthKeypoints, RoiVolume, SymmetryLine, VideoSequence,
                           cropped_to_original, detect_inner_lower_lip, detect_mouth_corners,
                           build_min_luminance_line, extract_roi, find_symmetry_lines,
                           prepare_frames)
from .svm import MultiClassModel, train_multiclass


@dataclass
class SegmentationResult:
    lines: list[SymmetryLine]
    keypoints: MouthKeypoints          # cropped-frame coordinates
    keypoints_original: np.ndarray     # (T, 5): lip_row, left r/c, right r/c
    roi: RoiVolume


def segment_video(video: VideoSequence, cfg: PipelineConfig,
                  force_lip_row: int | None = None) -> SegmentationResult:
    """Full segmentation stage: symmetry lines, lip/corner tracking, ROI."""
    if video.height < 2:
        # the lip tracker takes a vertical gradient, which needs two rows
        raise VsrError(f"frame height {video.height} is below the 2 rows segmentation needs")
    lines = find_symmetry_lines(video)
    rgb_over, lum, ulum = prepare_frames(video, lines)
    lip_rows = detect_inner_lower_lip(ulum, force_first_row=force_lip_row)
    lum_lines = build_min_luminance_line(lum, lip_rows)
    left, right = detect_mouth_corners(lum, lum_lines)
    keypoints = MouthKeypoints(lip_rows=lip_rows, left=left, right=right, lum_lines=lum_lines)
    roi = extract_roi(rgb_over, lum, keypoints, cfg.roi_width, cfg.roi_height)

    center_col = lum.shape[-1] // 2
    orig = np.empty((video.frame_count, 5))
    for t, line in enumerate(lines):
        lr, _ = cropped_to_original(line, video.height, lip_rows[t], center_col)
        l_r, l_c = cropped_to_original(line, video.height, left[t, 0], left[t, 1])
        r_r, r_c = cropped_to_original(line, video.height, right[t, 0], right[t, 1])
        orig[t] = (lr, l_r, l_c, r_r, r_c)
    return SegmentationResult(lines=lines, keypoints=keypoints, keypoints_original=orig,
                              roi=roi)


def keypoint_rows(result: SegmentationResult):
    return [
        (t, *result.keypoints_original[t])
        for t in range(result.keypoints_original.shape[0])
    ]


def train_from_features(x: np.ndarray, labels, cfg: PipelineConfig):
    return train_multiclass(x, labels, cfg)


def class_inventories(model: MultiClassModel, cfg: PipelineConfig,
                      biphone_model: MultiClassModel | None = None):
    """(model, min_duration, max_duration) per class inventory: the phoneme
    model, then the biphone model if there is one."""
    inventories = [(model, *cfg.duration_bounds("phoneme"))]
    if biphone_model is not None:
        inventories.append((biphone_model, *cfg.duration_bounds("biphone")))
    return inventories


def decode_roi(roi: RoiVolume, model: MultiClassModel, cfg: PipelineConfig,
               biphone_model: MultiClassModel | None = None):
    """Best-window table + duration-constrained decode.

    With a biphone model both inventories share one table, decoded in one
    pass; composite segments are expanded afterwards.  Returns (entries,
    table); `build_probability_grid` of the same inventories gives the
    per-class grid that decodes the same (`decode_sequence`).
    """
    table = best_window_table(roi, class_inventories(model, cfg, biphone_model), cfg.fps)
    return expand_biphones(decode_windows(table)), table


def grid_to_heatmap(grid, label: str) -> np.ndarray:
    """8-bit image of one class's probability grid: start on the x axis,
    duration on the y axis (row 0 = dmin), invalid cells black."""
    if label not in grid.class_labels:
        raise VsrError(f"label {label!r} not in grid ({', '.join(grid.class_labels)})")
    c = grid.class_labels.index(label)
    cells = grid.probs[c]
    img = np.clip(cells, 0.0, 1.0)
    img[cells < 0] = 0.0
    return np.rint(img.T * 255.0).astype(np.uint8)
