import json
import shutil
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import roi_planes, roi_volume
from vsr3d.cli import main
from vsr3d.config import CHANNEL_NAMES
from vsr3d.decoder import decode_sequence
from vsr3d.formats import (read_features_csv, read_grid, read_label_sequence, read_roi,
                           read_video_dir, write_ppm, write_roi)


def run_cli(*args):
    try:
        return main(list(args))
    except SystemExit as e:
        return int(e.code or 0)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    code = run_cli("synth", "--seed", "7", "--classes", "3", "--sentences", "8",
                   "--sentence-length", "4", "--out", str(root / "corpus"))
    assert code == 0
    return root


@pytest.fixture(scope="module")
def corpus_cfg_file(tiny_corpus):
    cfg = {
        "delta_t_ms": 0.0, "min_duration": 3, "max_duration": 12,
        "biphone_min_duration": 6, "biphone_max_duration": 24,
        "c_grid": [64.0], "gamma_grid": [0.125],
    }
    path = tiny_corpus / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestUsageAndVersion:
    def test_version(self, capsys):
        assert run_cli("--version") == 0
        assert "vsr3d" in capsys.readouterr().out

    def test_subcommand_version(self, capsys):
        assert run_cli("synth", "--version") == 0

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("synth", "--bogus") == 1

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli() == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli("decode", str(tmp_path / "nope.vsr1"),
                       "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "o.txt")) == 2

    def test_malformed_config_is_data_error(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{broken")
        assert run_cli("segment", str(tmp_path), "--config", str(bad),
                       "--out", str(tmp_path / "out")) == 2

    def test_set_overrides_config_value(self, tmp_path):
        # bad value -> validation error from the config layer
        assert run_cli("segment", str(tmp_path), "--set", "channel=sepia",
                       "--out", str(tmp_path / "o")) == 2
        assert run_cli("segment", str(tmp_path), "--set", "nonsense",
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("argv", [
        ["synth", "--sentences", "1", "--out", "{tmp}/corpus", "--set", "fps=30"],
        ["eval", "--ref", "{tmp}/r.txt", "--hyp", "{tmp}/h.txt", "--config", "{tmp}/x.json"],
        ["grid-heatmap", "--grid", "{tmp}/g.grd1", "--label", "A", "--out", "{tmp}/x.pgm",
         "--threads", "2"],
        ["segment", "{tmp}/corpus", "--out", "{tmp}/seg", "--threads", "2"],
        ["featurize", "{tmp}/corpus", "--out", "{tmp}/feats", "--threads", "2"],
        ["train", "--features", "{tmp}/f.csv", "--out", "{tmp}/m.json", "--threads", "2"],
        ["decode", "{tmp}/r.vsr1", "--model", "{tmp}/m.json", "--out", "{tmp}/h.txt",
         "--threads", "2"],
    ], ids=["synth-set", "eval-config", "grid-heatmap-threads", "segment-threads",
            "featurize-threads", "train-threads", "decode-threads"])
    def test_option_the_subcommand_would_ignore_is_usage_error(self, tmp_path, capsys, argv):
        assert run_cli(*(arg.format(tmp=tmp_path) for arg in argv)) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_help_available_everywhere(self, capsys):
        for cmd in ("synth", "segment", "featurize", "train", "decode", "eval",
                    "grid-heatmap"):
            assert run_cli(cmd, "--help") == 0
            assert "usage" in capsys.readouterr().out

    def test_bench_is_not_a_subcommand(self, capsys):
        assert run_cli("--help") == 0
        assert "bench" not in capsys.readouterr().out
        assert run_cli("bench", "--frames", "10") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: vsr3d")
        assert "invalid choice: 'bench'" in err


class TestSynth:
    def test_deterministic_corpus(self, tmp_path):
        for out in ("a", "b"):
            assert run_cli("synth", "--seed", "5", "--classes", "2", "--sentences", "2",
                           "--sentence-length", "2", "--out", str(tmp_path / out)) == 0
        for sent in ("sent_000", "sent_001"):
            da, db = tmp_path / "a" / sent, tmp_path / "b" / sent
            for f in sorted(p.name for p in da.iterdir()):
                assert (da / f).read_bytes() == (db / f).read_bytes()

    def test_layout(self, tiny_corpus):
        sent = tiny_corpus / "corpus" / "sent_000"
        assert (sent / "manifest.txt").is_file()
        assert (sent / "transcript.txt").is_file()
        assert (sent / "groundtruth.csv").is_file()
        assert (sent / "frame_00000.ppm").is_file()


class TestPipelineCommands:
    def test_segment_featurize_train_decode_eval(self, tiny_corpus, corpus_cfg_file, capsys):
        corpus = tiny_corpus / "corpus"
        seg = tiny_corpus / "seg"
        assert run_cli("segment", str(corpus), "--out", str(seg),
                       "--config", str(corpus_cfg_file)) == 0
        rois = sorted(seg.glob("*.vsr1"))
        assert len(rois) == 8
        assert sorted(seg.glob("*.keypoints.csv"))
        roi = read_roi(rois[0])
        assert roi_planes(roi).shape == (7, roi.frame_count, 48, 64)

        feats = tiny_corpus / "feats"
        assert run_cli("featurize", str(corpus), "--kind", "phoneme",
                       "--out", str(feats), "--config", str(corpus_cfg_file)) == 0
        csvs = sorted(feats.glob("*.features.csv"))
        assert len(csvs) == 8
        x, labels, spans = read_features_csv(csvs[0])
        assert x.shape[1] == 11 and labels is not None

        merged = tiny_corpus / "train.csv"
        rows = []
        for c in csvs:
            text = c.read_text().splitlines()
            rows.extend(text[1:])
        merged.write_text(text[0] + "\n" + "\n".join(rows) + "\n")

        model_path = tiny_corpus / "model.json"
        report_path = tiny_corpus / "cv.json"
        assert run_cli("train", "--features", str(merged), "--out", str(model_path),
                       "--report", str(report_path), "--config", str(corpus_cfg_file)) == 0
        report = json.loads(report_path.read_text())
        assert report["chosen"] == {"C": 64.0, "gamma": 0.125}
        model = json.loads(model_path.read_text())
        assert model["config"]["C"] == 64.0 and model["config"]["l"] == 10

        hyp_dir = tiny_corpus / "hyp"
        hyp_dir.mkdir(exist_ok=True)
        grid_path = tiny_corpus / "sent_007.grd1"
        assert run_cli("decode", str(corpus / "sent_007"), "--model", str(model_path),
                       "--out", str(hyp_dir / "sent_007.txt"), "--save-grid", str(grid_path),
                       "--config", str(corpus_cfg_file)) == 0
        hyp = read_label_sequence(hyp_dir / "sent_007.txt")
        assert len(hyp) >= 1 and set(hyp) <= {"C0", "C1", "C2"}

        grid = read_grid(grid_path)
        assert grid.class_labels == model["classLabels"]

        heat = tiny_corpus / "heat.pgm"
        assert run_cli("grid-heatmap", "--grid", str(grid_path), "--label", grid.class_labels[0],
                       "--out", str(heat)) == 0
        assert heat.read_bytes().startswith(b"P5\n")

        report_csv = tiny_corpus / "eval.csv"
        confusion_csv = tiny_corpus / "confusion.csv"
        assert run_cli("eval", "--ref", str(corpus / "sent_007" / "transcript.txt"),
                       "--hyp", str(hyp_dir / "sent_007.txt"),
                       "--out", str(report_csv), "--confusion", str(confusion_csv)) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert report_csv.read_text().splitlines()[0] == "id,T,C,S,D,I,acc"
        assert confusion_csv.read_text().splitlines()[0].endswith(",DEL")

    def test_eval_identical_files_scores_one(self, tiny_corpus, capsys):
        t = tiny_corpus / "corpus" / "sent_000" / "transcript.txt"
        assert run_cli("eval", "--ref", str(t), "--hyp", str(t)) == 0
        assert "pooled=1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["phoneme", "biphone"])
    def test_featurize_all_subsequences(self, tiny_corpus, corpus_cfg_file, kind):
        from vsr3d.features import enumerate_subsequences

        sent = tiny_corpus / "corpus" / "sent_001"
        out = tiny_corpus / f"all_{kind}.csv"
        assert run_cli("featurize", str(sent), "--kind", kind, "--all-subsequences",
                       "--out", str(out), "--config", str(corpus_cfg_file)) == 0
        x, labels, spans = read_features_csv(out)
        lo, hi = {"phoneme": (3, 12), "biphone": (6, 24)}[kind]  # corpus_cfg_file's bounds
        frames = read_video_dir(sent).frame_count
        assert len(spans) == x.shape[0]
        assert np.array_equal(spans, enumerate_subsequences(frames, range(lo, hi + 1)))
        assert labels is None
        assert not out.read_text().splitlines()[0].endswith(",label")

    def test_featurize_stored_roi(self, tiny_corpus, corpus_cfg_file, tmp_path, capsys):
        from vsr3d.config import PipelineConfig
        from vsr3d.features import extract_labeled_samples
        from vsr3d.formats import read_transcript

        sent = tiny_corpus / "corpus" / "sent_002"
        cfg_args = ("--config", str(corpus_cfg_file))
        assert run_cli("segment", str(sent), "--out", str(tmp_path / "seg"), *cfg_args) == 0
        roi_file = tmp_path / "seg" / "sent_002.vsr1"
        from_roi, from_video = tmp_path / "roi.csv", tmp_path / "video.csv"
        assert run_cli("featurize", str(roi_file), "--transcript", str(sent / "transcript.txt"),
                       "--out", str(from_roi), *cfg_args) == 0
        assert run_cli("featurize", str(sent), "--out", str(from_video), *cfg_args) == 0
        x, labels, spans = read_features_csv(from_roi)
        xv, labels_v, spans_v = read_features_csv(from_video)
        assert labels == labels_v and np.array_equal(spans, spans_v)
        # the features of the stored float32 volume, within its rounding of
        # the video directory's
        expected, _, _ = extract_labeled_samples(
            read_roi(roi_file), read_transcript(sent / "transcript.txt"), "phoneme",
            PipelineConfig.load(corpus_cfg_file))
        assert np.array_equal(x, expected)
        assert np.allclose(x, xv, rtol=1e-5, atol=1e-5)

        assert run_cli("featurize", str(roi_file), "--all-subsequences",
                       "--out", str(tmp_path / "all.csv"), *cfg_args) == 0
        capsys.readouterr()
        code = run_cli("featurize", str(roi_file), "--out", str(tmp_path / "x.csv"), *cfg_args)
        assert "need --transcript" in assert_one_line_data_error(code, capsys, "featurize")
        code = run_cli("featurize", str(sent), "--transcript", str(sent / "transcript.txt"),
                       "--out", str(tmp_path / "x.csv"), *cfg_args)
        assert_one_line_data_error(code, capsys, "featurize")

    def test_eval_viseme_units(self, tmp_path, capsys):
        # each hypothesis phoneme differs from the reference but shares its
        # Jeffers viseme (/C, /I, /H)
        ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
        ref.write_text("P 0 40\nAA 40 80\nS 80 120\n")
        hyp.write_text("B 0 40\nEH 40 80\nZ 80 120\n")
        assert run_cli("eval", "--ref", str(ref), "--hyp", str(hyp)) == 0
        assert "C=0 S=3" in capsys.readouterr().out
        assert run_cli("eval", "--ref", str(ref), "--hyp", str(hyp), "--units", "viseme") == 0
        out = capsys.readouterr().out
        assert "T=3 C=3 S=0" in out and "pooled=1.0000" in out

    def test_unknown_heatmap_label_is_data_error(self, tiny_corpus):
        grid_path = tiny_corpus / "sent_007.grd1"
        if grid_path.exists():
            assert run_cli("grid-heatmap", "--grid", str(grid_path), "--label", "nope",
                           "--out", str(tiny_corpus / "x.pgm")) == 2


def _grid_blob(label=b"A", dmin=1, dmax=2, frames=3, cells=None):
    """A one-class .grd1 file; cells defaults to a complete payload."""
    if cells is None:
        cells = frames * (dmax - dmin + 1) if dmax >= dmin else 0
    return (b"GRD1" + struct.pack("<3I", 1, frames, dmax) + struct.pack("<I", len(label))
            + label + struct.pack("<2I", dmin, dmax) + b"\x00\x00\x80\x3f" * cells)


def assert_one_line_data_error(code, capsys, command):
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"vsr3d {command}: error: ")
    return err


def _segment_video_dir(manifest, sizes=((4, 6),)):
    """`segment` on a video directory with the given manifest text and
    frames of the given (height, width)."""
    def argv(tmp_path):
        video = tmp_path / "video"
        video.mkdir()
        for t, (h, w) in enumerate(sizes):
            write_ppm(np.zeros((h, w, 3), np.uint8), video / f"frame_{t:05d}.ppm")
        (video / "manifest.txt").write_bytes(manifest)
        return ["segment", str(video), "--out", str(tmp_path / "seg")]
    return argv


# two separable classes that `train` accepts; a bad row appended is line 8
TRAINABLE_CSV = (b"start,duration,f0,label\n0,3,0.1,A\n3,3,0.2,A\n6,3,0.15,A\n"
                 b"9,3,0.9,B\n12,3,0.8,B\n15,3,0.85,B\n")


def _train_on(features):
    def argv(tmp_path):
        path = tmp_path / "features.csv"
        path.write_bytes(features)
        return ["train", "--features", str(path), "--out", str(tmp_path / "model.json")]
    return argv


def _eval_on(transcript):
    def argv(tmp_path):
        path = tmp_path / "ref.txt"
        path.write_bytes(transcript)
        return ["eval", "--ref", str(path), "--hyp", str(path)]
    return argv


def _featurize_on(transcript):
    """`featurize` of a small valid .vsr1 with the given transcript."""
    def argv(tmp_path):
        roi = tmp_path / "h000.vsr1"
        write_roi(roi_volume(np.zeros((6, 48, 64), np.float32)), roi)
        path = tmp_path / "transcript.txt"
        path.write_bytes(transcript)
        return ["featurize", str(roi), "--transcript", str(path),
                "--out", str(tmp_path / "x.csv")]
    return argv


def _config(doc):
    def argv(tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return ["segment", str(tmp_path), "--config", str(path), "--out", str(tmp_path / "seg")]
    return argv


class TestTrainReport:
    def test_budget_hits_match_the_warnings(self, tmp_path):
        """Every SMO problem that stops at its budget warns once, and the
        report's per-grid-point counters count the same problems."""
        rng = np.random.default_rng(3)
        rows = [f"{3 * i},3,{f0!r},{f1!r},{'ABC'[i % 3]}"
                for i, (f0, f1) in enumerate(rng.normal(size=(36, 2)).tolist())]
        features, report = tmp_path / "features.csv", tmp_path / "cv.json"
        features.write_text("start,duration,f0,f1,label\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("train", "--features", str(features), "--out",
                           str(tmp_path / "model.json"), "--report", str(report),
                           "--set", "svm_max_passes=1") == 0
        budget = [w for w in caught if issubclass(w.category, RuntimeWarning)
                  and str(w.message).startswith("SMO stopped at its budget")]
        grid = json.loads(report.read_text())["grid"]
        assert len(grid) == 20
        assert sum(g["smo_budget_hits"] for g in grid) == len(budget) > 0
        for g in grid:
            assert 0 <= g["smo_budget_hits"] <= g["smo_problems"] <= 3 * 4
            assert g["smo_iterations"] > 0
            assert (g["smo_max_gap"] > 1e-3) == (g["smo_budget_hits"] > 0)


class TestMalformedTextInput:
    """Malformed manifests, frame sets, feature CSVs, transcripts and config
    grids end in exit code 2 with one line on stderr that names the file or
    key, never a traceback."""

    @pytest.mark.parametrize("argv, names", [
        (_segment_video_dir(b"fps=abc\nframes=1\n"), "manifest.txt"),
        (_segment_video_dir(b"fps=nan\nframes=1\n"), "manifest.txt"),
        (_segment_video_dir(b"fps=inf\nframes=1\n"), "manifest.txt"),
        (_segment_video_dir(b"fps=1e400\nframes=1\n"), "manifest.txt"),
        (_segment_video_dir(b"fps=25\nframes=x\n"), "manifest.txt"),
        (_segment_video_dir(b"fps=25\nframes=2\n", sizes=[(4, 6), (5, 6)]), "frame_00001.ppm"),
        (_train_on(b"start,duration,f0,label\n1.5,3,0.1,A\n"), "features.csv:2"),
        (_train_on(b"start,duration,f0,label\n0,three,0.1,A\n"), "features.csv:2"),
        (_train_on(b"start,duration,f0,label\n0,3,abc,A\n"), "features.csv:2"),
        (_train_on(b"start,duration,f0,label\n0,3,0.1,A\n0,3,nan,A\n"), "features.csv:3"),
        (_train_on(b"start,duration,f0,label\n0,3,-inf,A\n"), "features.csv:2"),
        (_train_on(TRAINABLE_CSV + b"-1,3,0.1,A\n"), "features.csv:8"),
        (_train_on(TRAINABLE_CSV + b"0,0,0.1,A\n"), "features.csv:8"),
        (_train_on(b"start,duration,f0,label\n0,3,0.1,\xc3\x89\n"), "features.csv"),
        (_train_on(TRAINABLE_CSV + b"18,3,0.5,\n"), "features.csv:8"),
        (_train_on(TRAINABLE_CSV + b"18,3,0.5,a b\n"), "features.csv:8"),
        (_eval_on(b"A 0 40\n\xc3\x89 40 80\n"), "ref.txt"),
        (_featurize_on(b"A 0 40\nC,2 40 80\n"), "transcript.txt:2"),
        (_eval_on(b"A 0 40\nB 40 80\nA+B 80 120\n"), "ref.txt:3"),
        (_config({"c_grid": 5}), "c_grid"),
        (_config({"gamma_grid": ["a"]}), "gamma_grid"),
        (_config({"gamma_grid": [0]}), "gamma_grid"),
        (_config({"c_grid": [-4]}), "c_grid"),
        (_config({"fps": float("nan")}), "fps"),
        (_config({"mask_size": 1.5}), "mask_size"),
        (_config({"mask_size": True}), "mask_size"),
        (_config({"roi_width": -3}), "roi_width"),
        (_config({"svm_max_passes": 1.5}), "svm_max_passes"),
        (_config({"delta_t_ms": -1}), "delta_t_ms"),
    ], ids=["manifest-fps", "manifest-fps-nan", "manifest-fps-inf", "manifest-fps-overflow",
            "manifest-frames", "frame-sizes-differ", "features-start",
            "features-duration", "features-value", "features-nan", "features-inf",
            "features-negative-start", "features-zero-duration",
            "features-non-ascii", "features-empty-label", "features-label-space",
            "transcript-non-ascii", "transcript-label-comma",
            "transcript-label-plus", "config-grid-number",
            "config-grid-strings", "config-gamma-zero", "config-c-negative", "config-fps-nan",
            "config-mask-fractional", "config-mask-bool", "config-roi-width-negative",
            "config-passes-fractional", "config-delta-t-negative"])
    def test_one_line_error(self, tmp_path, capsys, argv, names):
        args = argv(tmp_path)
        err = assert_one_line_data_error(run_cli(*args), capsys, args[0])
        # the directory name is derived from the test id, so it may hold the key
        assert names in err.replace(str(tmp_path), "<tmp>")

    @pytest.mark.parametrize("command", ["featurize", "decode"])
    def test_manifest_fps_other_than_the_config_fps(self, tiny_corpus, tmp_path, capsys,
                                                    command):
        video = tmp_path / "sent_000"
        shutil.copytree(tiny_corpus / "corpus" / "sent_000", video)
        manifest = video / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("fps=25\n", "fps=50\n"))
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_model_doc()))
        extra = ["--model", str(model)] if command == "decode" else []
        out = tmp_path / "out.txt"
        code = run_cli(command, str(video), *extra, "--out", str(out))
        err = assert_one_line_data_error(code, capsys, command)
        assert str(manifest) in err and "fps=50.0" in err and "fps=25.0" in err
        assert not out.exists()

    def test_bad_set_value_writes_no_model(self, tmp_path, capsys):
        args = _train_on(TRAINABLE_CSV)(tmp_path)
        err = assert_one_line_data_error(run_cli(*args, "--set", "gamma_grid=[0]"), capsys,
                                         "train")
        assert "gamma_grid" in err
        assert not (tmp_path / "model.json").exists()


class TestMalformedBinaryFiles:
    """Truncated or inconsistent binary inputs end in exit code 2 with one
    line on stderr, never a traceback."""

    @pytest.mark.parametrize("blob", [
        b"GRD1\x01",
        _grid_blob()[:20],
        _grid_blob(label=b"\xff\xfe"),
        _grid_blob(dmin=0),
        _grid_blob(dmin=3, dmax=2),
        _grid_blob(cells=5),
        _grid_blob() + b"\x00",
        _grid_blob(cells=5) + struct.pack("<f", float("nan")),
        _grid_blob(cells=5) + struct.pack("<f", float("inf")),
        _grid_blob(cells=5) + struct.pack("<f", 2.0),
        _grid_blob(cells=5) + struct.pack("<f", 1e30),
        _grid_blob(cells=5) + struct.pack("<f", -0.5),
    ], ids=["short-header", "short-directory", "bad-utf8-label", "dmin-zero",
            "dmin-above-dmax", "short-payload", "trailing-bytes", "nan-cell", "inf-cell",
            "above-one", "huge", "negative"])
    def test_grid_heatmap(self, tmp_path, capsys, blob):
        path = tmp_path / "bad.grd1"
        path.write_bytes(blob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a numpy warning would be a second line
            code = run_cli("grid-heatmap", "--grid", str(path), "--label", "A",
                           "--out", str(tmp_path / "x.pgm"))
        assert_one_line_data_error(code, capsys, "grid-heatmap")

    def test_complete_grid_is_accepted(self, tmp_path):
        path = tmp_path / "ok.grd1"
        path.write_bytes(_grid_blob())
        assert run_cli("grid-heatmap", "--grid", str(path), "--label", "A",
                       "--out", str(tmp_path / "x.pgm")) == 0

    @pytest.mark.parametrize("blob", [
        b"VSR1\x01",
        b"VSR1" + struct.pack("<4I", 2, 2, 1, 7) + b"\x00" * 8,
    ], ids=["short-header", "short-payload"])
    def test_decode_roi(self, tmp_path, capsys, blob):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_model_doc()))
        path = tmp_path / "bad.vsr1"
        path.write_bytes(blob)
        code = run_cli("decode", str(path), "--model", str(model),
                       "--out", str(tmp_path / "hyp.txt"))
        assert_one_line_data_error(code, capsys, "decode")

    @pytest.mark.parametrize("zero", ["frames", "height", "width"])
    def test_zero_sized_roi(self, tmp_path, capsys, zero):
        size = {"frames": 12, "height": 8, "width": 10, zero: 0}
        path = tmp_path / "empty.vsr1"
        path.write_bytes(b"VSR1" + struct.pack("<4I", size["width"], size["height"],
                                               size["frames"], len(CHANNEL_NAMES)))
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_model_doc()))
        runs = {
            "decode": ("--model", str(model), "--out", str(tmp_path / "hyp.txt")),
            "featurize": ("--all-subsequences", "--out", str(tmp_path / "x.csv")),
        }
        for command, args in runs.items():
            err = assert_one_line_data_error(run_cli(command, str(path), *args), capsys, command)
            assert f"ROI has 0 {zero}" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["roi-nan", "roi-inf"])
    def test_nonfinite_roi_value(self, tmp_path, capsys, value):
        data = np.random.default_rng(3).uniform(size=(len(CHANNEL_NAMES), 12, 8, 10))
        data[CHANNEL_NAMES.index("red"), 5, 3, 4] = value
        path = tmp_path / "bad.vsr1"
        write_roi(roi_volume(data), path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_model_doc()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a numpy warning would be a second line
            code = run_cli("decode", str(path), "--model", str(model),
                           "--set", "min_duration=2", "--set", "max_duration=6",
                           "--out", str(tmp_path / "hyp.txt"))
            err = assert_one_line_data_error(code, capsys, "decode")
            assert "channel 'red'" in err
            code = run_cli("featurize", str(path), "--all-subsequences",
                           "--out", str(tmp_path / "x.csv"))
            assert "channel 'red'" in assert_one_line_data_error(code, capsys, "featurize")

    def test_nonfinite_values_in_unread_planes(self, tmp_path, capsys):
        data = np.full((len(CHANNEL_NAMES), 12, 8, 10), np.nan)
        data[CHANNEL_NAMES.index("red")] = np.random.default_rng(3).uniform(size=(12, 8, 10))
        path = tmp_path / "red_only.vsr1"
        write_roi(roi_volume(data), path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_model_doc()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("decode", str(path), "--model", str(model),
                           "--set", "min_duration=2", "--set", "max_duration=6",
                           "--out", str(tmp_path / "hyp.txt")) == 0
            assert run_cli("featurize", str(path), "--all-subsequences",
                           "--out", str(tmp_path / "x.csv")) == 0
        assert capsys.readouterr().err == ""


def _model_doc():
    """A small valid two-class model document for `decode` (11 features =
    the default pyramid mask plus the duration column)."""
    features, svs = 11, 3
    rng = np.random.default_rng(5)
    return {
        "version": 1,
        "classLabels": ["C0", "C1"],
        "config": {"channel": "red", "deltaTms": 0.0, "l": 10, "s": 3},
        "stats": {"mean": rng.normal(size=features).tolist(),
                  "std": rng.uniform(0.5, 2.0, size=features).tolist()},
        "models": [
            {"label": f"C{c}", "gamma": 0.125, "bias": 0.1 * c, "plattA": -2.0, "plattB": 0.0,
             "alphas": rng.normal(size=svs).tolist(),
             "supportVectors": rng.normal(size=(svs, features)).tolist()}
            for c in range(2)
        ],
    }


def _set(path, value):
    """Corruption that replaces doc[path[0]][path[1]]... with value(old)."""
    def corrupt(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
    return corrupt


def _widen_support_vectors(doc):
    for m in doc["models"]:
        m["supportVectors"] = [row + [0.0] for row in m["supportVectors"]]


@pytest.fixture
def roi_path(tmp_path):
    data = np.random.default_rng(3).uniform(size=(len(CHANNEL_NAMES), 12, 8, 10))
    path = tmp_path / "s.vsr1"
    write_roi(roi_volume(data), path)
    return path


class TestDecodeBiphones:
    def test_biphone_model_decodes_with_phoneme_model(self, tmp_path, roi_path):
        model, bimodel = tmp_path / "model.json", tmp_path / "bimodel.json"
        model.write_text(json.dumps(_model_doc()))
        bidoc = _model_doc()
        bidoc["classLabels"] = ["C0+C1", "C1+C0"]
        for m, label in zip(bidoc["models"], bidoc["classLabels"]):
            m["label"], m["plattB"] = label, -20.0  # pair probabilities near 1
        bimodel.write_text(json.dumps(bidoc))
        grid_path, hyp = tmp_path / "s.grd1", tmp_path / "hyp.txt"
        assert run_cli("decode", str(roi_path), "--model", str(model),
                       "--biphone-model", str(bimodel), "--save-grid", str(grid_path),
                       "--set", "min_duration=2", "--set", "max_duration=6",
                       "--set", "biphone_min_duration=2", "--set", "biphone_max_duration=6",
                       "--out", str(hyp)) == 0
        grid = read_grid(grid_path)
        assert grid.class_labels == ["C0", "C1", "C0+C1", "C1+C0"]
        assert any("+" in label for label, _, _ in decode_sequence(grid))
        labels = read_label_sequence(hyp)
        assert labels and set(labels) <= {"C0", "C1"}


def _valid_roi_blob():
    data = np.random.default_rng(3).uniform(size=(len(CHANNEL_NAMES), 12, 8, 10))
    return (b"VSR1" + struct.pack("<4I", 10, 8, 12, len(CHANNEL_NAMES))
            + data.astype("<f4").tobytes())


VALID_ROI = _valid_roi_blob()


@st.composite
def corrupt_roi_blobs(draw):
    """VALID_ROI cut short, or with one to four bits flipped; half of the
    flips land in the 20-byte header."""
    if draw(st.booleans()):
        return VALID_ROI[:draw(st.integers(0, len(VALID_ROI) - 1))]
    blob = bytearray(VALID_ROI)
    anywhere = st.integers(0, 8 * len(blob) - 1)
    for bit in draw(st.lists(st.one_of(st.integers(0, 159), anywhere), min_size=1, max_size=4)):
        blob[bit // 8] ^= 1 << (bit % 8)
    return bytes(blob)


class TestCorruptRoiFiles:
    """A truncated or bit-flipped .vsr1 file through `decode` and `featurize`
    exits 0, or 2 with one line on stderr: never a traceback, a warning, or
    an allocation the size of a corrupt header."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=corrupt_roi_blobs())
    def test_decode_and_featurize(self, tmp_path, capsys, blob):
        model, path = tmp_path / "model.json", tmp_path / "corrupt.vsr1"
        model.write_text(json.dumps(_model_doc()))
        path.write_bytes(blob)
        runs = {
            "decode": ("--model", str(model), "--out", str(tmp_path / "hyp.txt")),
            "featurize": ("--all-subsequences", "--out", str(tmp_path / "x.csv")),
        }
        for command, args in runs.items():
            capsys.readouterr()
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = run_cli(command, str(path), *args,
                                   "--set", "min_duration=2", "--set", "max_duration=6")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20
            if code == 0:
                assert capsys.readouterr().err == ""
            else:
                assert_one_line_data_error(code, capsys, command)


def _valid_ppm_frames():
    """Three 32 x 24 noise frames as PPM files, which `segment` and `decode`
    accept."""
    rng = np.random.default_rng(6)
    return [PPM_HEADER + rng.integers(0, 256, (24, 32, 3), dtype=np.uint8).tobytes()
            for _ in range(3)]


PPM_HEADER = b"P6\n32 24\n255\n"
VALID_FRAMES = _valid_ppm_frames()
_PPM_FIELD = st.one_of(st.integers(-2**66, 2**66).map(str).map(str.encode),
                       st.sampled_from([b"0", b"1", b"2", b"-24", b"-32", b"24", b"32", b"255",
                                        b"256", b"+24", b"2_4", b"0x20", b"", b"#"]),
                       st.binary(max_size=4))


@st.composite
def corrupt_ppm_videos(draw):
    """VALID_FRAMES with one frame cut short, with one to four bits flipped
    (half of the flips in its header), or with a header rewritten from
    three drawn fields."""
    frames = list(VALID_FRAMES)
    k = draw(st.integers(0, len(frames) - 1), label="frame")
    kind = draw(st.sampled_from(["truncate", "flip", "header"]))
    if kind == "truncate":
        frames[k] = frames[k][:draw(st.integers(0, len(frames[k]) - 1))]
    elif kind == "flip":
        blob = bytearray(frames[k])
        header = st.integers(0, 8 * len(PPM_HEADER) - 1)
        anywhere = st.integers(0, 8 * len(blob) - 1)
        for bit in draw(st.lists(st.one_of(header, anywhere), min_size=1, max_size=4)):
            blob[bit // 8] ^= 1 << (bit % 8)
        frames[k] = bytes(blob)
    else:
        w, h, maxval = (draw(_PPM_FIELD) for _ in range(3))
        sep = draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n"]))
        frames[k] = b"P6\n" + w + sep + h + b"\n" + maxval + b"\n" + frames[k][len(PPM_HEADER):]
    return frames


class TestCorruptPpmVideos:
    """A video directory with one truncated, bit-flipped or re-headed PPM
    frame through `segment` and `decode` exits 0, or 2 with one line on
    stderr: never a traceback, a warning, or an allocation the size of a
    corrupt header."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(frames=corrupt_ppm_videos())
    def test_segment_and_decode(self, tmp_path, capsys, frames):
        self.run_commands(tmp_path, capsys, frames)

    def test_valid_video_segments_and_decodes(self, tmp_path, capsys):
        assert self.run_commands(tmp_path, capsys, VALID_FRAMES) == [(0, ""), (0, "")]

    @pytest.mark.parametrize("frame, names", [
        (b"P6\n32 0\n255\n", "frame height 0"),
        (b"P6\n32 1\n255\n" + bytes(96), "frame height 1"),
        (b"P6\n-32 -24\n255\n" + bytes(2304), "malformed PPM header"),
        (b"P6\n3_2 +24\n255\n" + bytes(2304), "malformed PPM header"),
    ], ids=["height-0", "height-1", "negative-size", "signed-and-underscored-size"])
    def test_frames_that_cannot_be_segmented(self, tmp_path, capsys, frame, names):
        for code, err in self.run_commands(tmp_path, capsys, [frame] * 3):
            assert code == 2 and names in err

    def run_commands(self, tmp_path, capsys, frames):
        video, model = tmp_path / "video", tmp_path / "model.json"
        shutil.rmtree(video, ignore_errors=True)
        video.mkdir()
        for t, blob in enumerate(frames):
            (video / f"frame_{t:05d}.ppm").write_bytes(blob)
        (video / "manifest.txt").write_text(f"fps=25\nframes={len(frames)}\n")
        model.write_text(json.dumps(_model_doc()))
        results = []
        runs = {
            "segment": ("--out", str(tmp_path / "seg")),
            "decode": ("--model", str(model), "--out", str(tmp_path / "hyp.txt"),
                       "--set", "min_duration=1", "--set", "max_duration=3"),
        }
        for command, args in runs.items():
            capsys.readouterr()
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = run_cli(command, str(video), *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20
            if code == 0:
                assert capsys.readouterr().err == ""
                results.append((code, ""))
            else:
                results.append((code, assert_one_line_data_error(code, capsys, command)))
        return results


def _valid_grid_blob():
    """A two-class .grd1 file with ragged duration bounds and some invalid
    (-1) cells, and the byte count of its header and class directory."""
    rng = np.random.default_rng(4)
    frames, classes = 6, ((b"A", 1, 3), (b"BB", 2, 4))
    blob = b"GRD1" + struct.pack("<3I", len(classes), frames, 4)
    for label, lo, hi in classes:
        blob += struct.pack("<I", len(label)) + label + struct.pack("<2I", lo, hi)
    directory = len(blob)
    for _, lo, hi in classes:
        cells = rng.uniform(size=(frames, hi - lo + 1))
        cells[rng.uniform(size=cells.shape) < 0.2] = -1.0
        blob += cells.astype("<f4").tobytes()
    return blob, directory


VALID_GRID, GRID_DIRECTORY_BYTES = _valid_grid_blob()


@st.composite
def corrupt_grid_blobs(draw):
    """VALID_GRID cut short, or with one to four bits flipped; half of the
    flips land in the header and class directory."""
    if draw(st.booleans()):
        return VALID_GRID[:draw(st.integers(0, len(VALID_GRID) - 1))]
    blob = bytearray(VALID_GRID)
    directory = st.integers(0, 8 * GRID_DIRECTORY_BYTES - 1)
    anywhere = st.integers(0, 8 * len(blob) - 1)
    for bit in draw(st.lists(st.one_of(directory, anywhere), min_size=1, max_size=4)):
        blob[bit // 8] ^= 1 << (bit % 8)
    return bytes(blob)


class TestCorruptGridFiles:
    """A truncated or bit-flipped .grd1 file through `grid-heatmap` exits 0,
    or 2 with one line on stderr: never a traceback, a warning, or an
    allocation the size of a corrupt header."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=corrupt_grid_blobs())
    def test_grid_heatmap(self, tmp_path, capsys, blob):
        path = tmp_path / "corrupt.grd1"
        path.write_bytes(blob)
        capsys.readouterr()
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_cli("grid-heatmap", "--grid", str(path), "--label", "A",
                               "--out", str(tmp_path / "x.pgm"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        if code == 0:
            assert capsys.readouterr().err == ""
        else:
            assert_one_line_data_error(code, capsys, "grid-heatmap")


class TestMalformedModelFiles:
    """A model file with non-finite numbers, inconsistent shapes, a gamma
    that is not positive, a repeated class label or an unusable feature
    config (channel, deltaTms, l, s) ends in exit code 2 with one line on
    stderr, never a traceback or a decode."""

    def decode(self, tmp_path, roi_path, doc):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        return run_cli("decode", str(roi_path), "--model", str(model),
                       "--set", "min_duration=2", "--set", "max_duration=6",
                       "--out", str(tmp_path / "hyp.txt"))

    def test_valid_model_decodes(self, tmp_path, roi_path):
        assert self.decode(tmp_path, roi_path, _model_doc()) == 0

    @pytest.mark.filterwarnings("error")
    def test_steep_sigmoid_decodes_without_warnings(self, tmp_path, roi_path):
        doc = _model_doc()
        for m in doc["models"]:
            m["plattA"] = -1000.0
        assert self.decode(tmp_path, roi_path, doc) == 0

    def test_feature_config_keys_are_optional(self, tmp_path, roi_path):
        doc = _model_doc()
        doc["config"] = {"l": 10.0}
        assert self.decode(tmp_path, roi_path, doc) == 0

    @pytest.mark.parametrize("corrupt", [
        _set(["models", 0, "bias"], lambda v: float("nan")),
        _set(["models", 1, "supportVectors", 0, 0], lambda v: float("inf")),
        _set(["models", 0, "alphas", 2], lambda v: float("-inf")),
        _set(["models", 1, "gamma"], lambda v: float("nan")),
        _set(["models", 0, "plattA"], lambda v: float("inf")),
        _set(["models", 1, "plattB"], lambda v: float("nan")),
        _set(["stats", "mean", 4], lambda v: float("nan")),
        _set(["stats", "std", 4], lambda v: float("inf")),
        _set(["stats", "std", 0], lambda v: 0.0),
        _set(["stats", "std", 1], lambda v: -1.0),
        _set(["stats", "std"], lambda v: v[:-1]),
        _set(["classLabels"], lambda v: v[:-1]),
        _set(["models", 0, "alphas"], lambda v: v[:-1]),
        _set(["models", 0, "supportVectors", 1], lambda v: v[:-1]),
        _set(["models", 0, "supportVectors"], lambda v: v[0]),
        _set(["models", 1, "supportVectors"], lambda v: [v]),
        _widen_support_vectors,
        _set(["models", 0, "gamma"], lambda v: 0.0),
        _set(["models", 1, "gamma"], lambda v: -50.0),
        _set(["classLabels", 1], lambda v: "C0"),
        _set(["models", 1, "gamma"], lambda v: 0.5),
        lambda doc: doc.update(classLabels=[], models=[]),
        _set(["config", "channel"], lambda v: "purple"),
        _set(["config", "deltaTms"], lambda v: "x"),
        _set(["config", "deltaTms"], lambda v: -30.0),
        _set(["config", "deltaTms"], lambda v: float("inf")),
        _set(["config", "l"], lambda v: "abc"),
        _set(["config", "l"], lambda v: 2.7),
        _set(["config", "l"], lambda v: 1),
        _set(["config", "s"], lambda v: None),
        _set(["config", "s"], lambda v: 0),
        _set(["config"], lambda v: "red"),
        _set(["classLabels"], lambda v: [1, 2]),
        _set(["classLabels"], lambda v: "xy"),
        _set(["classLabels", 0], lambda v: "x,y"),
        _set(["classLabels", 0], lambda v: "a b"),
        _set(["classLabels", 0], lambda v: ""),
        _set(["classLabels", 0], lambda v: "\u00c9"),
    ], ids=["nan-bias", "inf-support-vector", "inf-alpha", "nan-gamma", "inf-platt-a",
            "nan-platt-b", "nan-mean", "inf-std", "zero-std", "negative-std", "short-std",
            "missing-class-label", "short-alphas", "ragged-support-vectors",
            "1d-support-vectors", "3d-support-vectors", "support-vector-columns",
            "zero-gamma", "negative-gamma", "duplicate-class-label", "mixed-gamma", "no-class-models",
            "unknown-channel",
            "string-delta-t", "negative-delta-t", "inf-delta-t", "string-length",
            "fractional-length", "length-below-2", "null-mask-size", "zero-mask-size",
            "config-not-an-object", "number-labels", "labels-not-a-list", "label-comma",
            "label-space", "empty-label", "non-ascii-label"])
    def test_decode_rejects(self, tmp_path, capsys, roi_path, corrupt):
        doc = _model_doc()
        corrupt(doc)
        code = self.decode(tmp_path, roi_path, doc)
        assert_one_line_data_error(code, capsys, "decode")
