import json
import struct

import numpy as np
import pytest

from vsr3d.cli import main
from vsr3d.formats import read_features_csv, read_grid, read_label_sequence, read_roi


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

    def test_help_available_everywhere(self, capsys):
        for cmd in ("synth", "segment", "featurize", "train", "decode", "eval",
                    "bench", "grid-heatmap"):
            assert run_cli(cmd, "--help") == 0
            assert "usage" in capsys.readouterr().out


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
        assert roi.data.shape[0] == 7 and roi.height == 48 and roi.width == 64

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
    ], ids=["short-header", "short-directory", "bad-utf8-label", "dmin-zero",
            "dmin-above-dmax", "short-payload", "trailing-bytes"])
    def test_grid_heatmap(self, tmp_path, capsys, blob):
        path = tmp_path / "bad.grd1"
        path.write_bytes(blob)
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
        model.write_text(json.dumps({"classLabels": [], "models": [],
                                     "stats": {"mean": [], "std": []}}))
        path = tmp_path / "bad.vsr1"
        path.write_bytes(blob)
        code = run_cli("decode", str(path), "--model", str(model),
                       "--out", str(tmp_path / "hyp.txt"))
        assert_one_line_data_error(code, capsys, "decode")


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


class TestMalformedModelFiles:
    """A model file with non-finite numbers, inconsistent shapes, a gamma
    that is not positive, a repeated class label or an unusable feature
    config (channel, deltaTms, l, s) ends in exit code 2 with one line on
    stderr, never a traceback or a decode."""

    @pytest.fixture
    def roi_path(self, tmp_path):
        from vsr3d.config import CHANNEL_NAMES
        from vsr3d.formats import write_roi
        from vsr3d.segmentation import RoiVolume

        data = np.random.default_rng(3).uniform(size=(len(CHANNEL_NAMES), 12, 8, 10))
        path = tmp_path / "s.vsr1"
        write_roi(RoiVolume(data=data, channels=CHANNEL_NAMES, scale=1.0), path)
        return path

    def decode(self, tmp_path, roi_path, doc):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        return run_cli("decode", str(roi_path), "--model", str(model),
                       "--set", "min_duration=2", "--set", "max_duration=6",
                       "--out", str(tmp_path / "hyp.txt"))

    def test_valid_model_decodes(self, tmp_path, roi_path):
        assert self.decode(tmp_path, roi_path, _model_doc()) == 0

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
    ], ids=["nan-bias", "inf-support-vector", "inf-alpha", "nan-gamma", "inf-platt-a",
            "nan-platt-b", "nan-mean", "inf-std", "zero-std", "negative-std", "short-std",
            "missing-class-label", "short-alphas", "ragged-support-vectors",
            "1d-support-vectors", "3d-support-vectors", "support-vector-columns",
            "zero-gamma", "negative-gamma", "duplicate-class-label", "unknown-channel",
            "string-delta-t", "negative-delta-t", "inf-delta-t", "string-length",
            "fractional-length", "length-below-2", "null-mask-size", "zero-mask-size",
            "config-not-an-object"])
    def test_decode_rejects(self, tmp_path, capsys, roi_path, corrupt):
        doc = _model_doc()
        corrupt(doc)
        code = self.decode(tmp_path, roi_path, doc)
        assert_one_line_data_error(code, capsys, "decode")


class TestBench:
    def test_bench_table(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--frames", "10,14", "--seed", "3", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frames,load,segment,decode,total,per_frame_ms"
        assert len(lines) == 3
        for line, frames in zip(lines[1:], (10, 14)):
            n, load, segment, decode, total, per_frame_ms = line.split(",")
            assert int(n) == frames
            parts = [float(load), float(segment), float(decode)]
            assert min(parts) >= 0 and float(total) > 0
            assert abs(sum(parts) - float(total)) <= 0.002 + 1e-9  # four 3-decimal roundings
            assert float(per_frame_ms) == pytest.approx(1000.0 * float(total) / frames,
                                                        abs=0.06)

    def test_bench_times_the_production_calls(self, monkeypatch):
        import vsr3d.cli

        calls = {"segment_video": 0, "decode_roi": 0}

        def counted(name):
            real = getattr(vsr3d.cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(vsr3d.cli, name, counted(name))
        assert run_cli("bench", "--frames", "10,14", "--seed", "3") == 0
        assert calls == {"segment_video": 2, "decode_roi": 2}

    def test_bad_frames_argument(self):
        assert run_cli("bench", "--frames", "ten") == 2

    @pytest.mark.parametrize("frames", ["0", "-5", "10,0", ",", ""])
    def test_frame_counts_below_one_or_none(self, capsys, frames):
        assert_one_line_data_error(run_cli("bench", f"--frames={frames}"), capsys, "bench")
