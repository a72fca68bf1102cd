import dataclasses
import hashlib
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import read_groundtruth_csv
from vsr3d import VsrError
from vsr3d.config import PipelineConfig
from vsr3d.fixtures import (Rng, SynthConfig, default_motions, derive_seed, gaussian_array,
                            mouth_size, random_units, synth_corpus, synth_face_frame,
                            synth_sentence, make_skin_noise, uniform_array)
from vsr3d.formats import read_transcript, read_video_dir

ROOT = Path(__file__).resolve().parents[1]


class TestRng:
    def test_deterministic_streams(self):
        assert uniform_array(123, 8).tolist() == uniform_array(123, 8).tolist()
        assert Rng(99).next_u64() == Rng(99).next_u64()

    def test_scalar_matches_array_stream(self):
        rng = Rng(5)
        scalars = [rng.uniform() for _ in range(6)]
        assert np.allclose(scalars, uniform_array(5, 6))

    def test_uniform_range(self):
        u = uniform_array(7, 10000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_gaussian_moments(self):
        g = gaussian_array(11, 20000)
        assert abs(g.mean()) < 0.02
        assert abs(g.std() - 1.0) < 0.02

    def test_derive_seed_keys_matter(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2) != derive_seed(2, 2)

    def test_randint_bounds(self):
        rng = Rng(3)
        draws = [rng.randint(3, 12) for _ in range(500)]
        assert min(draws) >= 3 and max(draws) <= 12
        assert {3, 12} <= set(draws)


class TestConfig:
    def test_default_motions_distinct(self):
        for n in range(2, 9):
            motions = default_motions(n)
            assert len(set(motions)) == n

    def test_class_count_validated(self):
        with pytest.raises(VsrError):
            SynthConfig(class_count=1)
        with pytest.raises(VsrError):
            SynthConfig(class_count=9)

    @pytest.mark.parametrize("field, value", [
        ("sentence_length", 0), ("frame_width", 0), ("frame_height", -1),
        ("noise_sigma", float("nan")), ("noise_sigma", float("inf")), ("noise_sigma", -1e-3),
        ("fps", 0.0), ("fps", float("nan")), ("fps", float("inf")),
        ("min_unit_frames", 0), ("max_unit_frames", 2),
    ])
    def test_malformed_field_rejected(self, field, value):
        with pytest.raises(VsrError, match=field):
            SynthConfig(**{field: value})

    def test_duplicate_motions_rejected(self):
        with pytest.raises(VsrError):
            SynthConfig(class_count=2, motions=[(1.0, 2.0, 3.0), (1.0, 2.0, 3.0)])


class TestFrameRendering:
    def test_noise_free_frame_is_mirror_symmetric(self):
        cfg = SynthConfig(seed=1, noise_sigma=0.0)
        skin = make_skin_noise(77, cfg.frame_height, cfg.frame_width)
        col = (cfg.frame_width - 1) / 2.0  # integer-symmetric axis
        frame, truth = synth_face_frame(cfg, 0, 2, 6, col, 0.0, skin, 0)
        assert np.array_equal(frame, frame[:, ::-1])
        assert truth.sym_col == col

    def test_skin_noise_bytes_pinned(self):
        """The skin texture uses only integer mixing and IEEE-exact
        operations, so its bytes are fixed on every platform."""
        skin = make_skin_noise(77, 120, 160)
        assert hashlib.sha256(skin.tobytes()).hexdigest() == \
            "74e610f206d936b07aa02c23acd9db71f1fe30241585930885d572ad4f3b54cf"

    def test_reproducible_bytes(self):
        cfg = SynthConfig(seed=2, noise_sigma=6 / 255)
        skin = make_skin_noise(5, cfg.frame_height, cfg.frame_width)
        a, _ = synth_face_frame(cfg, 1, 3, 8, 80.0, 1.0, skin, 42)
        b, _ = synth_face_frame(cfg, 1, 3, 8, 80.0, 1.0, skin, 42)
        assert np.array_equal(a, b)

    def test_corner_truth_matches_rendered_extremes(self):
        cfg = SynthConfig(seed=3, noise_sigma=0.0)
        skin = make_skin_noise(9, cfg.frame_height, cfg.frame_width)
        frame, truth = synth_face_frame(cfg, 2, 4, 9, 80.0, 0.0, skin, 0)
        # cavity extent on the corner row (scanned inside the face only, the
        # backdrop is dark too) must match the analytic extremes
        lum = frame.astype(float).mean(axis=2)
        row = int(round(truth.left[0]))
        cols = np.arange(80 - 30, 80 + 31)
        dark = cols[lum[row, cols] < 60]
        assert abs(dark.min() - truth.left[1]) <= 1.5
        assert abs(dark.max() - truth.right[1]) <= 1.5

    def test_gesture_returns_to_rest(self):
        for motion in default_motions(3):
            w0, h0 = mouth_size(motion, 0, 10)
            w_end, h_end = mouth_size(motion, 9, 10)
            w_peak, h_peak = mouth_size(motion, 5, 10)
            assert h_peak >= max(h0, h_end) - 1e-9
            assert abs(h0 - h_end) < max(abs(motion[0]), 1.0) * 0.2


class TestSentenceAndCorpus:
    def test_transcript_tiles_duration(self):
        cfg = SynthConfig(seed=4)
        video, truth = synth_sentence(cfg, [(0, 4), (1, 6), (2, 3)], 80.0, 0.0, 123)
        assert video.frame_count == 13
        assert truth.transcript_rows[0] == ("C0", 0, 160)
        assert truth.transcript_rows[-1][2] == int(round(13 * 1000 / 25))
        prev_end = 0
        for _, start, end in truth.transcript_rows:
            assert start == prev_end
            prev_end = end

    def test_corpus_layout_and_formats(self, tmp_path):
        cfg = SynthConfig(seed=5, sentence_length=3)
        dirs = synth_corpus(cfg, 4, tmp_path / "corpus")
        assert len(dirs) == 4
        for d in dirs:
            video = read_video_dir(d)
            transcript = read_transcript(d / "transcript.txt")
            assert video.fps == 25.0
            assert len(transcript.entries) == 3
            total_ms = transcript.entries[-1].end_ms
            assert total_ms == int(round(video.frame_count * 40))
            cols, angs, lips, lefts, rights = read_groundtruth_csv(d / "groundtruth.csv")
            assert len(cols) == video.frame_count

    def test_corpus_byte_identical_across_runs_and_threads(self, tmp_path):
        cfg = SynthConfig(seed=6, sentence_length=2)
        d1 = synth_corpus(cfg, 3, tmp_path / "a", threads=1)
        d2 = synth_corpus(cfg, 3, tmp_path / "b", threads=4)
        for a, b in zip(d1, d2):
            for fa in sorted(p.name for p in a.iterdir()):
                assert (a / fa).read_bytes() == (b / fa).read_bytes()

    def test_unit_durations_within_range(self):
        cfg = SynthConfig(seed=7, sentence_length=50)
        units = random_units(cfg, Rng(1))
        durs = [d for _, d in units]
        assert min(durs) >= 3 and max(durs) <= 12

    def test_sentences_must_be_positive(self, tmp_path):
        with pytest.raises(VsrError):
            synth_corpus(SynthConfig(seed=8), 0, tmp_path / "x")

    def test_motion_classes_recoverable_from_features(self, tmp_path, corpus_config):
        # featurized ground-truth intervals must separate the classes: the
        # trained model classifies its own training samples perfectly
        from vsr3d.features import extract_labeled_samples
        from vsr3d.formats import read_transcript, read_video_dir
        from vsr3d.pipeline import segment_video, train_from_features
        from vsr3d.svm import predict_probability_matrix

        xs, labels = [], []
        for d in synth_corpus(SynthConfig(seed=31, sentence_length=4), 6, tmp_path / "c"):
            roi = segment_video(read_video_dir(d), corpus_config).roi
            x, labs, _ = extract_labeled_samples(roi, read_transcript(d / "transcript.txt"),
                                                 "phoneme", corpus_config)
            xs.append(x)
            labels.extend(labs)
        x = np.vstack(xs)
        model, _ = train_from_features(x, labels, corpus_config)
        probs = predict_probability_matrix(model, x)
        predicted = [model.class_labels[i] for i in np.argmax(probs, axis=1)]
        assert predicted == labels


class TestPipelineConfig:
    """`SynthConfig.pipeline_config` is the one statement of the corpus's
    operating point; the README and the benchmark keep copies that must not
    drift from it."""

    def test_derived_from_the_units_and_frame_rate(self):
        cfg = SynthConfig(min_unit_frames=2, max_unit_frames=9, fps=30.0).pipeline_config()
        assert cfg.duration_bounds("phoneme") == (2, 9)
        assert cfg.duration_bounds("biphone") == (4, 18)
        assert cfg.fps == 30.0 and cfg.delta_t_ms == 0.0
        assert (cfg.c_grid, cfg.gamma_grid) == ((64.0,), (2.0**-3,))

    def test_readme_block_is_the_derived_config(self):
        blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
        assert len(blocks) == 1
        assert PipelineConfig.from_dict(json.loads(blocks[0])) == SynthConfig().pipeline_config()

    def test_perfbench_configs_are_the_derived_config(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        pool = importlib.import_module("pool")
        derived = SynthConfig().pipeline_config()
        assert pool.DECODE_CONFIG == derived
        # the train workload searches one more gamma
        assert dataclasses.replace(pool.TRAIN_CONFIG, gamma_grid=derived.gamma_grid) == derived
