import struct

import numpy as np
import pytest

from oracles import roi_planes, roi_volume
from vsr3d import VsrError, formats
from vsr3d.config import CHANNEL_NAMES
from vsr3d.decoder import ProbabilityGrid
from vsr3d.evaluation import AlignmentCounts, align_nw, confusion_matrix
from vsr3d.features import enumerate_subsequences, featurize_many
from vsr3d.formats import (find_video_dirs, read_features_csv, read_grid, read_ppm,
                           read_roi, read_transcript, read_video_dir, write_confusion_csv,
                           write_eval_report, write_features_csv, write_grid,
                           write_keypoints_csv, write_pgm, write_ppm, write_roi,
                           write_transcript, write_video_dir)
from vsr3d.segmentation import VideoSequence


class TestPpm:
    def test_roundtrip(self, tmp_path):
        frame = np.random.default_rng(0).integers(0, 256, (12, 17, 3)).astype(np.uint8)
        path = tmp_path / "f.ppm"
        write_ppm(frame, path)
        assert np.array_equal(read_ppm(path), frame)

    def test_header_format(self, tmp_path):
        frame = np.zeros((2, 3, 3), dtype=np.uint8)
        path = tmp_path / "f.ppm"
        write_ppm(frame, path)
        assert path.read_bytes().startswith(b"P6\n3 2\n255\n")

    def test_comment_tolerated(self, tmp_path):
        payload = bytes(range(18))
        (tmp_path / "c.ppm").write_bytes(b"P6\n# hi\n3 2\n255\n" + payload)
        img = read_ppm(tmp_path / "c.ppm")
        assert img.shape == (2, 3, 3)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "x.ppm").write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(VsrError):
            read_ppm(tmp_path / "x.ppm")

    def test_truncated_rejected(self, tmp_path):
        (tmp_path / "t.ppm").write_bytes(b"P6\n2 2\n255\n\x00\x00")
        with pytest.raises(VsrError):
            read_ppm(tmp_path / "t.ppm")


class TestVideoDir:
    def test_roundtrip(self, tmp_path):
        frames = np.random.default_rng(1).integers(0, 256, (4, 8, 9, 3)).astype(np.uint8)
        video = VideoSequence(frames=frames, fps=25.0)
        write_video_dir(video, tmp_path / "v")
        loaded = read_video_dir(tmp_path / "v")
        assert loaded.fps == 25.0
        assert np.array_equal(loaded.frames, frames)
        manifest = (tmp_path / "v" / "manifest.txt").read_text()
        assert "fps=25\n" in manifest and "frames=4\n" in manifest

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(VsrError):
            read_video_dir(tmp_path / "d")

    def test_missing_frame(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "manifest.txt").write_text("fps=25\nframes=2\n")
        with pytest.raises(VsrError):
            read_video_dir(tmp_path / "d")

    @pytest.mark.parametrize("frames", [3, 10**12])
    def test_frame_count_past_the_frames_names_the_missing_one(self, tmp_path, frames):
        """A manifest that counts more frames than the directory holds, by
        one or by far more than memory holds, ends in the first missing
        frame's name; a frame of another size, or a directory in a frame's
        place, is named too."""
        video = VideoSequence(frames=np.zeros((2, 4, 5, 3), dtype=np.uint8), fps=25.0)
        write_video_dir(video, tmp_path / "d")
        (tmp_path / "d" / "manifest.txt").write_text(f"fps=25\nframes={frames}\n")
        with pytest.raises(VsrError, match=r"d: missing frame_00002\.ppm$"):
            read_video_dir(tmp_path / "d")
        (tmp_path / "d" / "frame_00002.ppm").mkdir()
        with pytest.raises(VsrError, match=r"d: missing frame_00002\.ppm$"):
            read_video_dir(tmp_path / "d")
        (tmp_path / "d" / "frame_00002.ppm").rmdir()
        write_ppm(np.zeros((4, 6, 3), dtype=np.uint8), tmp_path / "d" / "frame_00002.ppm")
        with pytest.raises(VsrError, match=r"frame_00002\.ppm: frame size differs from frame 0"):
            read_video_dir(tmp_path / "d")

    def test_find_video_dirs(self, tmp_path):
        for name in ("b", "a"):
            video = VideoSequence(frames=np.zeros((1, 4, 4, 3), dtype=np.uint8), fps=25.0)
            write_video_dir(video, tmp_path / name)
        (tmp_path / "not_video").mkdir()
        dirs = find_video_dirs(tmp_path)
        assert [d.name for d in dirs] == ["a", "b"]
        assert find_video_dirs(tmp_path / "a") == [tmp_path / "a"]


class TestRoiFile:
    def test_roundtrip(self, tmp_path):
        data = np.random.default_rng(2).random((7, 3, 5, 6))
        path = tmp_path / "r.vsr1"
        write_roi(roi_volume(data), path)
        loaded = read_roi(path)
        assert np.abs(roi_planes(loaded) - data).max() < 1e-6  # f32 storage
        header = path.read_bytes()[:20]
        assert header[:4] == b"VSR1"
        assert np.frombuffer(header[4:], dtype="<u4").tolist() == [6, 5, 3, 7]
        assert np.stack(read_roi(path).planes()).tobytes() == roi_planes(loaded).tobytes()

    def test_float32_payload_featurizes_like_widened_data(self, tmp_path):
        data = np.random.default_rng(4).normal(size=(len(CHANNEL_NAMES), 12, 8, 10))
        path = tmp_path / "r.vsr1"
        write_roi(roi_volume(data), path)
        loaded = read_roi(path)
        assert roi_planes(loaded).dtype == np.float32
        widened = roi_volume(data.astype(np.float32).astype(float))
        spans = enumerate_subsequences(12, range(2, 8))
        for channel in ("lum", "blue"):
            assert np.array_equal(featurize_many(loaded, channel, 60.0, 25.0, spans),
                                  featurize_many(widened, channel, 60.0, 25.0, spans))

    def test_nonstandard_channel_count_rejected(self, tmp_path):
        path = tmp_path / "r2.vsr1"
        path.write_bytes(b"VSR1" + struct.pack("<4I", 2, 2, 1, 2)
                         + np.zeros((2, 1, 2, 2), dtype="<f4").tobytes())
        with pytest.raises(VsrError, match="2 channels"):
            read_roi(path)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.vsr1").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(VsrError):
            read_roi(tmp_path / "bad.vsr1")


class TestLazyRoiPlanes:
    """`read_roi` checks the file and reads a plane only when it is used."""

    @pytest.fixture
    def stored(self, tmp_path):
        data = np.random.default_rng(6).normal(size=(len(CHANNEL_NAMES), 5, 4, 3))
        path = tmp_path / "r.vsr1"
        write_roi(roi_volume(data), path)
        return path

    @pytest.fixture
    def reads(self, monkeypatch):
        """(offset, bytes) of every read `formats._read_exact` makes."""
        log, original = [], formats._read_exact

        def spy(fh, n, path, what):
            log.append((fh.tell(), n))
            return original(fh, n, path, what)

        monkeypatch.setattr(formats, "_read_exact", spy)
        return log

    def test_planes_equal_the_eager_payload_slices(self, stored):
        eager = np.frombuffer(stored.read_bytes()[20:], dtype="<f4").reshape(
            len(CHANNEL_NAMES), 5, 4, 3)
        roi = read_roi(stored)
        assert roi.shape == (5, 4, 3)
        for i, name in enumerate(CHANNEL_NAMES):
            plane = roi.plane(name)
            assert plane.dtype == np.float32 and not plane.flags.writeable
            assert plane.tobytes() == eager[i].tobytes()
        assert roi_planes(roi).tobytes() == eager.tobytes()

    def test_reads_only_the_requested_plane_once(self, stored, reads):
        roi = read_roi(stored)
        assert reads == [(4, 16)]                      # the header, no payload
        plane_bytes = 5 * 4 * 3 * 4
        blue = CHANNEL_NAMES.index("blue")
        first = roi.plane("blue")
        assert reads[1:] == [(20 + blue * plane_bytes, plane_bytes)]
        assert roi.plane("blue") is first
        assert len(reads) == 2

    def test_file_truncated_before_first_plane_raises(self, stored):
        roi = read_roi(stored)
        stored.write_bytes(stored.read_bytes()[:-1])
        with pytest.raises(VsrError, match="payload now has"):
            roi.plane("lum")


class TestTranscriptFile:
    def test_roundtrip(self, tmp_path):
        rows = [("AE", 0, 200), ("T", 200, 360)]
        path = tmp_path / "t.txt"
        write_transcript(rows, path)
        assert path.read_text() == "AE 0 200\nT 200 360\n"
        tr = read_transcript(path)
        assert [(e.label, e.start_ms, e.end_ms) for e in tr.entries] == rows

    def test_malformed_line(self, tmp_path):
        (tmp_path / "bad.txt").write_text("AE 0\n")
        with pytest.raises(VsrError):
            read_transcript(tmp_path / "bad.txt")

    @pytest.mark.parametrize("text, line", [("AE 0 200\nT 200 36", 2), ("AE 0 200", 1),
                                            ("AE 0 200\n  ", 2), ("AE 0 200\vT 200 360", 2)])
    def test_last_line_without_newline_rejected(self, tmp_path, text, line):
        (tmp_path / "cut.txt").write_text(text, newline="")
        with pytest.raises(VsrError, match=rf"cut\.txt:{line}: .*cut short"):
            read_transcript(tmp_path / "cut.txt")

    @pytest.mark.parametrize("text, entries", [("", 0), ("AE 0 200\r\nT 200 360\r\n", 2),
                                               ("AE 0 200\rT 200 360\r", 2)])
    def test_empty_file_and_other_line_ends_read(self, tmp_path, text, entries):
        """Reading translates \r\n and \r to \n."""
        (tmp_path / "t.txt").write_text(text, newline="")
        assert len(read_transcript(tmp_path / "t.txt").entries) == entries

    def test_overlap_rejected(self, tmp_path):
        (tmp_path / "o.txt").write_text("A 0 100\nB 50 150\n")
        with pytest.raises(VsrError):
            read_transcript(tmp_path / "o.txt")


class TestFeaturesCsv:
    def test_roundtrip_labeled(self, tmp_path):
        x = np.random.default_rng(3).random((4, 11))
        spans = np.array([(i, i + 1) for i in range(4)])
        labels = ["a", "b", "a", "c"]
        path = tmp_path / "f.csv"
        write_features_csv(x, spans, path, labels)
        header = path.read_text().splitlines()[0]
        assert header == "start,duration," + ",".join(f"f{i}" for i in range(11)) + ",label"
        x2, labels2, spans2 = read_features_csv(path)
        assert np.array_equal(x2, x)  # repr() round-trips doubles exactly
        assert labels2 == labels
        assert spans2.dtype == np.intp and np.array_equal(spans2, spans)

    def test_roundtrip_unlabeled(self, tmp_path):
        x = np.random.default_rng(4).random((2, 3))
        spans = np.array([(0, 2), (1, 2)])
        path = tmp_path / "u.csv"
        write_features_csv(x, spans, path)
        x2, labels2, spans2 = read_features_csv(path)
        assert labels2 is None and np.array_equal(x2, x)
        assert spans2.dtype == np.intp and np.array_equal(spans2, spans)


class TestGridFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        probs = []
        for span in (3, 2):
            p = rng.uniform(0.1, 0.9, (6, span))
            p[5, -1] = -1.0
            probs.append(p.astype(np.float32).astype(float))
        grid = ProbabilityGrid(class_labels=["AE", "T+B"], dmin=np.array([1, 2]),
                               dmax=np.array([3, 3]), frame_count=6, probs=probs)
        path = tmp_path / "g.grd1"
        write_grid(grid, path)
        loaded = read_grid(path)
        assert loaded.class_labels == ["AE", "T+B"]
        assert loaded.frame_count == 6
        assert loaded.dmin.tolist() == [1, 2] and loaded.dmax.tolist() == [3, 3]
        for a, b in zip(loaded.probs, probs):
            assert np.array_equal(a, b)
        assert path.read_bytes()[:4] == b"GRD1"

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.grd1").write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(VsrError):
            read_grid(tmp_path / "bad.grd1")


class TestReports:
    def test_eval_report_layout(self, tmp_path):
        counts = AlignmentCounts(T=4, C=3, S=1, D=0, I=1)
        rows = [("s0", counts, 0.5)]
        path = tmp_path / "report.csv"
        write_eval_report(rows, counts, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,T,C,S,D,I,acc"
        assert lines[1].startswith("s0,4,3,1,0,1,")
        assert lines[2].startswith("TOTAL,4,3,1,0,1,")
        assert lines[3].startswith("MEAN,")

    def test_confusion_csv_layout(self, tmp_path):
        _, pairs = align_nw(["a", "b"], ["a", "c", "b"])
        cm = confusion_matrix([pairs], ["a", "b", "c"])
        path = tmp_path / "cm.csv"
        write_confusion_csv(cm, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",a,b,c,DEL"
        assert lines[-1].startswith("INS,")

    def test_keypoints_csv_header(self, tmp_path):
        path = tmp_path / "kp.csv"
        write_keypoints_csv([(0, 1.0, 2.0, 3.0, 4.0, 5.0)], path)
        assert path.read_text().splitlines()[0] == "frame,lipRow,leftRow,leftCol,rightRow,rightCol"

    def test_pgm(self, tmp_path):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        path = tmp_path / "h.pgm"
        write_pgm(img, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert data[-6:] == bytes(range(6))
