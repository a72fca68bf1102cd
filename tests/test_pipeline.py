import numpy as np
import pytest

from oracles import roi_planes
from vsr3d.pipeline import grid_to_heatmap, keypoint_rows, segment_video


class TestSegmentVideo:
    def test_result_shapes(self, segmented_sentence, corpus_config):
        video, truth, result = segmented_sentence
        n = video.frame_count
        assert len(result.lines) == n
        assert result.keypoints.lum_lines.shape == (n, 81, 2)
        assert result.keypoints_original.shape == (n, 5)
        assert roi_planes(result.roi).shape == (7, n, corpus_config.roi_height,
                                                corpus_config.roi_width)

    def test_keypoint_rows(self, segmented_sentence):
        _, _, result = segmented_sentence
        rows = keypoint_rows(result)
        assert rows[0][0] == 0
        assert len(rows[0]) == 6

    def test_forced_lip_row_pins_frame_zero(self, short_sentence, corpus_config):
        video, _ = short_sentence
        res = segment_video(video, corpus_config, force_lip_row=30)
        assert res.keypoints.lip_rows[0] == 30


class TestHeatmap:
    def test_orientation_and_range(self):
        from vsr3d.decoder import ProbabilityGrid

        probs = [np.array([[0.0, 0.5], [1.0, -1.0]])]  # (start, duration)
        grid = ProbabilityGrid(class_labels=["a"], dmin=np.array([1]), dmax=np.array([2]),
                               frame_count=2, probs=probs)
        img = grid_to_heatmap(grid, "a")
        assert img.shape == (2, 2)  # duration rows, start columns
        assert img[0, 0] == 0 and img[0, 1] == 255      # duration 1: starts 0, 1
        assert img[1, 0] == 128 and img[1, 1] == 0      # invalid cell -> black

    def test_unknown_label(self):
        from vsr3d import VsrError
        from vsr3d.decoder import ProbabilityGrid

        grid = ProbabilityGrid(class_labels=["a"], dmin=np.array([1]), dmax=np.array([1]),
                               frame_count=1, probs=[np.zeros((1, 1))])
        with pytest.raises(VsrError):
            grid_to_heatmap(grid, "zz")

