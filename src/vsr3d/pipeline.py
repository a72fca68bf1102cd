"""Stage orchestration shared by the CLI, scripts, and tests."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import VsrError
from .config import CHANNEL_NAMES, PipelineConfig
from .decoder import (build_probability_grid, decode_sequence, expand_biphones,
                      merge_grids)
from .features import extract_labeled_samples, feature_dimension
from .formats import read_transcript, read_video_dir
from .segmentation import (MouthKeypoints, RoiVolume, SymmetryLine, VideoSequence, box3,
                           cropped_to_original, detect_inner_lower_lip, detect_mouth_corners,
                           build_min_luminance_line, extract_roi, find_symmetry_lines,
                           prepare_frames)
from .svm import MultiClassModel, TrainConfig, train_multiclass


@dataclass
class SegmentationResult:
    lines: list[SymmetryLine]
    keypoints: MouthKeypoints          # cropped-frame coordinates
    keypoints_original: np.ndarray     # (T, 5): lip_row, left r/c, right r/c
    roi: RoiVolume


def segment_video(video: VideoSequence, cfg: PipelineConfig,
                  force_lip_row: int | None = None) -> SegmentationResult:
    """Full segmentation stage: symmetry lines, lip/corner tracking, ROI."""
    lines = find_symmetry_lines(video)
    planes = prepare_frames(video, lines)
    lip_rows = detect_inner_lower_lip(planes[CHANNEL_NAMES.index("ulum")],
                                      force_first_row=force_lip_row)
    smooth = box3(planes[CHANNEL_NAMES.index("lum")])
    lum_lines = np.stack([build_min_luminance_line(frame, row)
                          for frame, row in zip(smooth, lip_rows)])
    left, right = detect_mouth_corners(smooth, lum_lines)
    keypoints = MouthKeypoints(lip_rows=lip_rows, left=left, right=right, lum_lines=lum_lines)
    roi = extract_roi(planes, keypoints, cfg.roi_width, cfg.roi_height)

    center_col = planes.shape[-1] // 2
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


def collect_labeled_features(video_dirs, kind: str, cfg: PipelineConfig):
    """Labeled samples pooled over a list of video directories, each
    segmented on the fly.  Returns (X, labels)."""
    xs, labels = [], []
    for d in video_dirs:
        d = Path(d)
        roi = segment_video(read_video_dir(d), cfg).roi
        transcript = read_transcript(d / "transcript.txt")
        x, labs, _ = extract_labeled_samples(roi, transcript, kind, cfg)
        if len(labs):
            xs.append(x)
            labels.extend(labs)
    if not xs:
        return np.zeros((0, feature_dimension(cfg.mask_size))), []
    return np.vstack(xs), labels


def train_from_features(x: np.ndarray, labels, cfg: PipelineConfig):
    tc = TrainConfig(c_grid=cfg.c_grid, gamma_grid=cfg.gamma_grid,
                     tolerance=cfg.svm_tolerance, max_passes=cfg.svm_max_passes)
    feature_config = {
        "channel": cfg.channel,
        "deltaTms": cfg.delta_t_ms,
        "l": cfg.uniform_length,
        "s": cfg.mask_size,
    }
    return train_multiclass(x, labels, tc, cv_split=cfg.cv_fraction,
                            feature_config=feature_config)


def decode_roi(roi: RoiVolume, model: MultiClassModel, cfg: PipelineConfig,
               biphone_model: MultiClassModel | None = None):
    """Probability grid(s) + duration-constrained decode.

    With a biphone model the two grids are merged and decoded in one pass;
    composite segments are expanded afterwards.  Returns (entries, grid).
    """
    grid = build_probability_grid(model, roi, cfg.min_duration, cfg.max_duration, cfg.fps)
    if biphone_model is not None:
        bigrid = build_probability_grid(biphone_model, roi, cfg.biphone_min_duration,
                                        cfg.biphone_max_duration, cfg.fps)
        grid = merge_grids([grid, bigrid])
    entries = decode_sequence(grid)
    entries = expand_biphones(entries)
    return entries, grid


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
