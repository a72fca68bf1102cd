"""On-disk formats.

Video directory: frame_00000.ppm, frame_00001.ppm, ... (binary P6) plus
manifest.txt with the lines "fps=25" and "frames=N" (fps finite and
positive).

RoiVolume (.vsr1): magic "VSR1"; little-endian u32 width, height, frames,
channelCount (width, height and frames nonzero, channelCount 7); f32
little-endian data ordered channel-major, frame-major, row-major.  Channels
are stored in the canonical order of CHANNEL_NAMES (lum, u, ulum,
pseudo_hue, red, green, blue).

Probability grid (.grd1): magic "GRD1"; u32 classCount, frameCount,
maxDuration; per class a u32-length-prefixed UTF-8 label and u32 dmin, dmax;
then one contiguous f32 block of cells in [class][start][duration] order:
probabilities in [0, 1], with invalid cells stored as exactly -1.0.

Transcript: one "LABEL START_MS END_MS" line per entry, integer milliseconds;
a label is printable ASCII without "," or "+" (`features.check_label`).

Feature matrix CSV: header "start,duration,f0,...,f{k-1}[,label]"; every
row's window has integer start >= 0 and duration >= 1 and ends within
MAX_FRAMES (the largest frame count a .vsr1 header holds), every feature is
a finite number, and a label is non-empty printable ASCII without spaces.

Keypoints CSV: header "frame,lipRow,leftRow,leftCol,rightRow,rightCol",
coordinates in original-video pixels.

Evaluation report CSV: header "id,T,C,S,D,I,acc", one row per sequence, a
TOTAL row (aggregated counts, pooled accuracy) and a MEAN row (mean
per-sequence accuracy).  Confusion CSV: reference labels as rows with a
final DEL column; a final INS row holds insertion counts.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from . import VsrError
from .config import CHANNEL_NAMES
from .evaluation import ConfusionMatrix, summary_accuracies
from .features import Transcript, TranscriptEntry, check_label
from .segmentation import RoiVolume, VideoSequence

# the largest frame count a .vsr1 header's u32 field holds
MAX_FRAMES = 2**32 - 1


def write_ppm(frame: np.ndarray, path):
    h, w = frame.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(frame, dtype=np.uint8).tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise VsrError(f"{path}: not a binary PPM (P6) file")
    # header: magic, width, height, maxval, separated by whitespace/comments
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    # plain ASCII decimals: int() would also take a sign, "_" or other digits
    if not all(f.isdigit() for f in fields):
        raise VsrError(f"{path}: malformed PPM header")
    w, h, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise VsrError(f"{path}: only maxval 255 PPM supported")
    raw = data[pos:pos + w * h * 3]
    if len(raw) != w * h * 3:
        raise VsrError(f"{path}: truncated PPM payload")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


def write_video_dir(video: VideoSequence, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t in range(video.frame_count):
        write_ppm(video.frames[t], out_dir / f"frame_{t:05d}.ppm")
    fps = video.fps
    fps_text = str(int(fps)) if float(fps).is_integer() else repr(fps)
    (out_dir / "manifest.txt").write_text(f"fps={fps_text}\nframes={video.frame_count}\n",
                                          encoding="ascii")


def _read_ascii(path) -> str:
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as e:
        raise VsrError(f"{path}: non-ASCII byte at offset {e.start}") from None


def read_video_dir(path) -> VideoSequence:
    path = Path(path)
    manifest = path / "manifest.txt"
    if not manifest.is_file():
        raise VsrError(f"{path}: missing manifest.txt")
    fields = dict(line.strip().partition("=")[::2] for line in _read_ascii(manifest).splitlines())
    if "fps" not in fields or "frames" not in fields:
        raise VsrError(f"{manifest}: need fps= and frames= lines")
    try:
        fps, frames = float(fields["fps"]), int(fields["frames"])
    except ValueError:
        raise VsrError(f"{manifest}: fps= and frames= need numbers") from None
    if not (math.isfinite(fps) and fps > 0):
        raise VsrError(f"{manifest}: fps= must be finite and positive, got {fields['fps']}")
    if frames <= 0:
        raise VsrError(f"{path}: zero frames")
    # frame 0 sets the size of the one array every frame is read into.  It
    # has at most one row per directory entry: past that many frames one is
    # missing (the manifest is an entry too), so a corrupt frames= count
    # ends in the missing frame's name, not in a huge allocation.
    video = None
    for t in range(frames):
        frame_path = path / f"frame_{t:05d}.ppm"
        try:
            frame = read_ppm(frame_path)
        except (FileNotFoundError, IsADirectoryError):
            raise VsrError(f"{path}: missing {frame_path.name}") from None
        if video is None:
            rows = min(frames, len(os.listdir(path)))
            video = np.empty((rows, *frame.shape), dtype=np.uint8)
        elif frame.shape != video.shape[1:]:
            raise VsrError(f"{frame_path}: frame size differs from frame 0")
        video[t] = frame
    return VideoSequence(frames=video, fps=fps)


def is_video_dir(path) -> bool:
    return (Path(path) / "manifest.txt").is_file()


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """Exactly n bytes from a binary file, or a VsrError naming the part that
    is cut short.  The file size is checked first, so a corrupt length field
    never makes the read allocate more than the file holds."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise VsrError(f"{path}: truncated {what}: needs {n} bytes, {max(left, 0)} left")
    return fh.read(n)


def write_roi(roi: RoiVolume, path):
    t, h, w = roi.shape
    with open(path, "wb") as fh:
        fh.write(b"VSR1")
        fh.write(struct.pack("<4I", w, h, t, len(CHANNEL_NAMES)))
        for plane in roi.planes():
            fh.write(plane.astype("<f4").tobytes())


_ROI_HEADER_BYTES = 20


def read_roi(path) -> RoiVolume:
    """The stored ROI, checked against the file size but with no plane read.

    Each plane is read on first use, as a read-only float32 array of its own
    bytes only; featurization widens only the plane it reads.  A file whose
    size changed since the header was read raises VsrError at that point.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"VSR1":
            raise VsrError(f"{path}: bad ROI magic {magic!r}")
        w, h, t, c = struct.unpack("<4I", _read_exact(fh, 16, path, "ROI header"))
        payload = os.fstat(fh.fileno()).st_size - _ROI_HEADER_BYTES
    for name, n in (("frames", t), ("height", h), ("width", w)):
        if n == 0:
            raise VsrError(f"{path}: ROI has 0 {name}")
    plane_bytes = t * h * w * 4
    if payload != c * plane_bytes:
        raise VsrError(f"{path}: ROI payload has {payload} bytes, expected {c * plane_bytes}")
    if c != len(CHANNEL_NAMES):
        raise VsrError(f"{path}: {c} channels, expected {len(CHANNEL_NAMES)}")

    def make_planes(names) -> list[np.ndarray]:
        planes = []
        with open(path, "rb") as fh:
            now = os.fstat(fh.fileno()).st_size - _ROI_HEADER_BYTES
            if now != payload:
                raise VsrError(f"{path}: ROI payload now has {now} bytes, expected {payload}")
            for name in names:
                fh.seek(_ROI_HEADER_BYTES + CHANNEL_NAMES.index(name) * plane_bytes)
                raw = _read_exact(fh, plane_bytes, path, f"ROI plane {name!r}")
                planes.append(np.frombuffer(raw, dtype="<f4").reshape(t, h, w))
        return planes

    return RoiVolume((t, h, w), make_planes)


def write_keypoints_csv(rows, path):
    """rows: (frame, lip_row, left_row, left_col, right_row, right_col)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("frame,lipRow,leftRow,leftCol,rightRow,rightCol\n")
        for frame, lip, lr, lc, rr, rc in rows:
            fh.write(f"{frame},{lip:.3f},{lr:.3f},{lc:.3f},{rr:.3f},{rc:.3f}\n")


def write_transcript(rows, path):
    with open(path, "w", encoding="ascii") as fh:
        for label, start_ms, end_ms in rows:
            fh.write(f"{label} {start_ms} {end_ms}\n")


def read_transcript(path) -> Transcript:
    """A transcript file: one 'LABEL START_MS END_MS' line per entry, times
    in plain decimal digits.  Every line ends in a newline, as
    `write_transcript` writes them, so a file cut inside its last entry is a
    data error.  Every error names the file and line."""
    entries = []
    text = _read_ascii(path)
    lines = text.splitlines()
    if text and not text.endswith("\n"):
        raise VsrError(f"{path}:{len(lines)}: the last line has no newline; "
                       "the file is cut short")
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise VsrError(f"{path}:{ln}: expected 'LABEL START_MS END_MS'")
        label = check_label(parts[0], f"{path}:{ln}", unit=True)
        # plain ASCII decimals (the text is ASCII): int() would also take a
        # sign or "_"
        try:
            if not (parts[1].isdigit() and parts[2].isdigit()):
                raise ValueError
            entries.append(TranscriptEntry(label, int(parts[1]), int(parts[2])))
        except ValueError:
            raise VsrError(f"{path}:{ln}: times must be non-negative integer milliseconds, "
                           "in decimal digits") from None
        try:
            Transcript(entries[-2:])   # the entry, and its order after the one before
        except VsrError as e:
            raise VsrError(f"{path}:{ln}: {e}") from None
    return Transcript(entries=entries)


def write_features_csv(x: np.ndarray, spans, path, labels=None):
    header = "start,duration," + ",".join(f"f{i}" for i in range(x.shape[1]))
    if labels is not None:
        header += ",label"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for i, (start, duration) in enumerate(spans):
            row = f"{start},{duration}," + ",".join(repr(float(v)) for v in x[i])
            if labels is not None:
                row += f",{labels[i]}"
            fh.write(row + "\n")


def read_features_csv(path):
    """Returns (x, labels_or_None, spans as (m, 2) (start, duration) rows).
    Every line ends in a newline, as `write_features_csv` writes them, so a
    file cut inside its last row is a data error."""
    text = _read_ascii(path)
    if text and not text.endswith("\n"):
        raise VsrError(f"{path}: the last line has no newline; the file is cut short")
    lines = text.splitlines()
    if not lines:
        raise VsrError(f"{path}: empty features file")
    header = lines[0].split(",")
    has_label = header[-1] == "label"
    n_feat = len(header) - 2 - (1 if has_label else 0)
    if header[:2] != ["start", "duration"] or n_feat < 1:
        raise VsrError(f"{path}: malformed features header")
    x, labels, spans = [], [], []
    for ln, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",")
        want = 2 + n_feat + (1 if has_label else 0)
        if len(parts) != want:
            raise VsrError(f"{path}:{ln}: expected {want} columns")
        try:
            spans.append((int(parts[0]), int(parts[1])))
            x.append([float(v) for v in parts[2:2 + n_feat]])
        except ValueError:
            raise VsrError(f"{path}:{ln}: need integer start/duration, numeric features") from None
        start, duration = spans[-1]
        if start < 0 or duration < 1 or start + duration > MAX_FRAMES:
            raise VsrError(f"{path}:{ln}: need start >= 0, duration >= 1 and "
                           f"start + duration <= {MAX_FRAMES}")
        if not np.isfinite(x[-1]).all():
            raise VsrError(f"{path}:{ln}: features must be finite numbers")
        if has_label:
            labels.append(check_label(parts[-1], f"{path}:{ln}"))
    return (np.array(x, dtype=float).reshape(-1, n_feat), (labels if has_label else None),
            np.array(spans, dtype=np.intp).reshape(-1, 2))


def write_grid(grid, path):
    with open(path, "wb") as fh:
        fh.write(b"GRD1")
        fh.write(struct.pack("<3I", len(grid.class_labels), grid.frame_count,
                             int(grid.dmax.max())))
        for c, label in enumerate(grid.class_labels):
            blob = label.encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<2I", int(grid.dmin[c]), int(grid.dmax[c])))
        for p in grid.probs:
            fh.write(p.astype("<f4").tobytes())


def read_grid(path):
    from .decoder import ProbabilityGrid

    with open(path, "rb") as fh:
        if fh.read(4) != b"GRD1":
            raise VsrError(f"{path}: bad grid magic")
        n_classes, frame_count, max_d = struct.unpack(
            "<3I", _read_exact(fh, 12, path, "grid header"))
        labels, dmin, dmax = [], [], []
        for c in range(n_classes):
            (ln,) = struct.unpack("<I", _read_exact(fh, 4, path, "grid class directory"))
            try:
                labels.append(_read_exact(fh, ln, path, "grid class label").decode("utf-8"))
            except UnicodeDecodeError:
                raise VsrError(f"{path}: label of class {c} is not UTF-8") from None
            lo, hi = struct.unpack("<2I", _read_exact(fh, 8, path, "grid class directory"))
            if not 1 <= lo <= hi:
                raise VsrError(f"{path}: class {labels[-1]!r} has durations {lo}..{hi}; "
                               "need 1 <= dmin <= dmax")
            dmin.append(lo)
            dmax.append(hi)
        if max_d != max(dmax, default=0):
            raise VsrError(f"{path}: header maxDuration {max_d} is not the classes' largest "
                           f"dmax {max(dmax, default=0)}")
        probs = []
        for c in range(n_classes):
            span = dmax[c] - dmin[c] + 1
            raw = _read_exact(fh, frame_count * span * 4, path, "grid payload")
            cells = np.frombuffer(raw, dtype="<f4").reshape(frame_count, span)
            # checked before widening: casting a signalling NaN warns
            if not np.isfinite(cells).all():
                raise VsrError(f"{path}: class {labels[c]!r} has a non-finite cell")
            probs.append(cells.astype(float))
            if ((probs[-1] != -1) & ((probs[-1] < 0) | (probs[-1] > 1))).any():
                raise VsrError(f"{path}: class {labels[c]!r} has a cell outside [0, 1] "
                               "that is not -1")
        if fh.read(1):
            raise VsrError(f"{path}: trailing bytes after the grid payload")
    return ProbabilityGrid(class_labels=labels, dmin=np.array(dmin), dmax=np.array(dmax),
                           frame_count=frame_count, probs=probs)


def write_pgm(image: np.ndarray, path):
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image, dtype=np.uint8).tobytes())


def write_groundtruth_csv(truth, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("frame,symCol,symAngle,lipRow,leftRow,leftCol,rightRow,rightCol\n")
        for t, ft in enumerate(truth.frames):
            fh.write(f"{t},{ft.sym_col:.3f},{ft.sym_angle:.3f},{ft.lip_row:.3f},"
                     f"{ft.left[0]:.3f},{ft.left[1]:.3f},{ft.right[0]:.3f},{ft.right[1]:.3f}\n")


def write_eval_report(rows, totals, path):
    """rows: (id, AlignmentCounts, accuracy)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("id,T,C,S,D,I,acc\n")
        for sid, c, acc in rows:
            fh.write(f"{sid},{c.T},{c.C},{c.S},{c.D},{c.I},{acc:.6f}\n")
        pooled, mean = summary_accuracies(rows, totals)
        fh.write(f"TOTAL,{totals.T},{totals.C},{totals.S},{totals.D},{totals.I},{pooled:.6f}\n")
        fh.write(f"MEAN,,,,,,{mean:.6f}\n")


def write_confusion_csv(confusion: ConfusionMatrix, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("," + ",".join(confusion.labels) + ",DEL\n")
        for i, lab in enumerate(confusion.labels):
            cells = ",".join(str(v) for v in confusion.matrix[i])
            fh.write(f"{lab},{cells},{confusion.deletions[i]}\n")
        fh.write("INS," + ",".join(str(v) for v in confusion.insertions) + ",\n")


def find_video_dirs(root) -> list[Path]:
    """The path itself if it is a video directory, else its immediate video
    subdirectories sorted by name."""
    root = Path(root)
    if is_video_dir(root):
        return [root]
    if not root.is_dir():
        raise VsrError(f"{root}: not a directory")
    dirs = sorted(p for p in root.iterdir() if p.is_dir() and is_video_dir(p))
    if not dirs:
        raise VsrError(f"{root}: contains no video directories (manifest.txt)")
    return dirs


def read_label_sequence(path) -> list[str]:
    """Labels of a transcript file, in order."""
    return [e.label for e in read_transcript(path).entries]
