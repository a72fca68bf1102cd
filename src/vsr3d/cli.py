"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import VsrError, __version__
from .config import PipelineConfig
from .formats import (find_video_dirs, read_grid, read_features_csv, read_label_sequence,
                      read_roi, read_transcript, read_video_dir, write_confusion_csv,
                      write_eval_report, write_features_csv, write_grid, write_keypoints_csv,
                      write_pgm, write_roi, write_transcript)
from .pipeline import (collect_labeled_features, decode_roi, grid_to_heatmap, keypoint_rows,
                       segment_video, train_from_features)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(p: _Parser):
    p.add_argument("--version", action="version", version=f"vsr3d {__version__}")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override one config value (repeatable)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for synth; other subcommands run single-threaded")


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    pairs = getattr(args, "overrides", [])
    if pairs:
        base = json.loads(cfg.to_json())
        for pair in pairs:
            key, sep, value = pair.partition("=")
            if not sep:
                raise VsrError(f"--set expects KEY=VALUE, got {pair!r}")
            try:
                base[key] = json.loads(value)
            except json.JSONDecodeError:
                base[key] = value
        cfg = PipelineConfig.from_dict(base)
    return cfg


def build_parser() -> _Parser:
    parser = _Parser(prog="vsr3d", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vsr3d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic corpus")
    _add_common(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--sentences", type=int, required=True)
    p.add_argument("--sentence-length", type=int, default=5)
    p.add_argument("--noise-sigma", type=float, default=4.0 / 255.0)
    p.add_argument("--width", type=int, default=160)
    p.add_argument("--height", type=int, default=120)
    p.add_argument("--out", required=True)

    p = sub.add_parser("segment", help="extract keypoints and the ROI volume")
    _add_common(p)
    p.add_argument("input", help="video directory, or a directory of video directories")
    p.add_argument("--out", required=True)
    p.add_argument("--force-lip-row", type=int, default=None,
                   help="pin the frame-0 inner-lower-lip row")

    p = sub.add_parser("featurize", help="write (optionally labeled) feature CSVs")
    _add_common(p)
    p.add_argument("input", help="corpus root or single video directory")
    p.add_argument("--kind", default="phoneme",
                   choices=["phoneme", "viseme", "biphone", "bi-viseme"])
    p.add_argument("--all-subsequences", action="store_true",
                   help="featurize every feasible window instead of transcript spans")
    p.add_argument("--out", required=True, help="output CSV (single video) or directory")

    p = sub.add_parser("train", help="train a probability-calibrated multi-class model")
    _add_common(p)
    p.add_argument("--features", required=True, help="labeled feature CSV")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--report", default=None, help="cross-validation report JSON")

    p = sub.add_parser("decode", help="decode the most likely label sequence")
    _add_common(p)
    p.add_argument("input", help="ROI file (.vsr1) or video directory")
    p.add_argument("--model", required=True)
    p.add_argument("--biphone-model", default=None)
    p.add_argument("--use-biphones", action="store_true")
    p.add_argument("--units", default="phoneme", choices=["phoneme", "viseme"],
                   help="unit kind of the model; both decode with min/max_duration")
    p.add_argument("--save-grid", default=None, help="write the probability grid (.grd1)")
    p.add_argument("--out", required=True, help="output transcript path")

    p = sub.add_parser("eval", help="score hypothesis transcripts against references")
    _add_common(p)
    p.add_argument("--ref", required=True, help="reference transcript file or directory")
    p.add_argument("--hyp", required=True, help="hypothesis transcript file or directory")
    p.add_argument("--units", default="phoneme", choices=["phoneme", "viseme"])
    p.add_argument("--keep-ref-silence", action="store_true",
                   help="do not strip internal silence from the reference")
    p.add_argument("--out", default=None, help="report CSV path")
    p.add_argument("--confusion", default=None, help="confusion matrix CSV path")

    p = sub.add_parser(
        "bench", help="end-to-end load/segment/decode wall time over synthetic videos",
        description="End-to-end load/segment/decode wall time over synthetic videos. "
                    "For the per-layer split of the same calls, run "
                    "`python3 perfbench/run.py --workload decode-phoneme --trace 1`.")
    _add_common(p)
    p.add_argument("--frames", required=True, help="comma-separated frame counts")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)

    p = sub.add_parser("grid-heatmap", help="render one class of a grid file as PGM")
    _add_common(p)
    p.add_argument("--grid", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--out", required=True)
    return parser


def cmd_synth(args) -> int:
    from .fixtures import SynthConfig, synth_corpus

    cfg = SynthConfig(seed=args.seed, class_count=args.classes,
                      sentence_length=args.sentence_length, noise_sigma=args.noise_sigma,
                      frame_width=args.width, frame_height=args.height)
    dirs = synth_corpus(cfg, args.sentences, args.out, threads=args.threads)
    print(f"wrote {len(dirs)} sentences under {args.out}")
    return 0


def cmd_segment(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for d in find_video_dirs(args.input):
        video = read_video_dir(d)
        result = segment_video(video, cfg, force_lip_row=args.force_lip_row)
        write_keypoints_csv(keypoint_rows(result), out / f"{d.name}.keypoints.csv")
        write_roi(result.roi, out / f"{d.name}.vsr1")
        print(f"segmented {d.name}: {video.frame_count} frames")
    return 0


def cmd_featurize(args) -> int:
    from .features import enumerate_subsequences, extract_labeled_samples, featurize_many

    cfg = _load_config(args)
    dirs = find_video_dirs(args.input)
    multi = len(dirs) > 1
    out = Path(args.out)
    if multi:
        out.mkdir(parents=True, exist_ok=True)
    for d in dirs:
        video = read_video_dir(d)
        roi = segment_video(video, cfg).roi
        if args.all_subsequences:
            lo, hi = cfg.duration_bounds(args.kind)
            specs = enumerate_subsequences(roi.frame_count, lo, hi)
            x = featurize_many(roi, cfg.channel, cfg.delta_t_ms, cfg.fps, specs,
                               cfg.uniform_length, cfg.mask_size)
            labels = None
        else:
            transcript = read_transcript(d / "transcript.txt")
            x, labels, specs = extract_labeled_samples(roi, transcript, args.kind, cfg)
        path = out / f"{d.name}.features.csv" if multi else out
        write_features_csv(x, specs, path, labels)
        print(f"featurized {d.name}: {len(specs)} samples")
    return 0


def cmd_train(args) -> int:
    from .svm import save_model

    cfg = _load_config(args)
    x, labels, _ = read_features_csv(args.features)
    if labels is None:
        raise VsrError(f"{args.features}: training needs a labeled feature CSV")
    model, report = train_from_features(x, labels, cfg)
    save_model(model, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    chosen = report["chosen"]
    print(f"trained {len(model.class_labels)} classes; "
          f"C={chosen['C']:g} gamma={chosen['gamma']:g}; "
          f"cv accuracy {max(r['cv_accuracy'] for r in report['grid']):.3f}")
    return 0


def cmd_decode(args) -> int:
    from .svm import load_model

    cfg = _load_config(args)
    model = load_model(args.model)
    biphone_model = None
    if args.use_biphones or args.biphone_model:
        if not args.biphone_model:
            raise VsrError("--use-biphones needs --biphone-model")
        biphone_model = load_model(args.biphone_model)
    path = Path(args.input)
    if path.is_dir():
        roi = segment_video(read_video_dir(path), cfg).roi
    else:
        roi = read_roi(path)
    entries, grid = decode_roi(roi, model, cfg, biphone_model)
    if args.save_grid:
        write_grid(grid, args.save_grid)
    from .decoder import entries_to_transcript

    write_transcript(entries_to_transcript(entries, cfg.fps), args.out)
    print(f"decoded {len(entries)} segments -> {args.out}")
    return 0


def _label_sequences(path) -> dict:
    p = Path(path)
    if p.is_dir():
        files = sorted(f for f in p.iterdir() if f.suffix == ".txt")
        if not files:
            raise VsrError(f"{p}: no transcript files")
        return {f.stem: read_label_sequence(f) for f in files}
    return {p.stem: read_label_sequence(p)}


def cmd_eval(args) -> int:
    from .evaluation import evaluate_sequences

    refs = _label_sequences(args.ref)
    hyps = _label_sequences(args.hyp)
    if set(refs) != set(hyps):
        if len(refs) == 1 and len(hyps) == 1:
            hyps = {next(iter(refs)): next(iter(hyps.values()))}
        else:
            raise VsrError("reference and hypothesis ids do not match")
    rows, confusion, totals = evaluate_sequences(
        refs, hyps, strip_ref_silence=not args.keep_ref_silence,
        to_visemes=(args.units == "viseme"))
    if args.out:
        write_eval_report(rows, totals, args.out)
    if args.confusion:
        write_confusion_csv(confusion, args.confusion)
    pooled = (totals.C - totals.I) / totals.T if totals.T else 0.0
    mean = sum(r[2] for r in rows) / len(rows)
    print(f"sequences={len(rows)} T={totals.T} C={totals.C} S={totals.S} "
          f"D={totals.D} I={totals.I}")
    print(f"accuracy pooled={pooled:.4f} mean={mean:.4f}")
    return 0


def cmd_bench(args) -> int:
    import tempfile
    import time

    from .fixtures import SynthConfig, derive_seed, synth_sentence
    from .formats import write_video_dir

    try:
        frame_counts = [int(v) for v in args.frames.split(",") if v]
    except ValueError:
        raise VsrError(f"--frames must be comma-separated integers, got {args.frames!r}")
    if not frame_counts or min(frame_counts) < 1:
        raise VsrError(f"--frames needs one or more counts >= 1, got {args.frames!r}")
    cfg = _load_config(args)
    synth_cfg = SynthConfig(seed=args.seed, sentence_length=6)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = _bench_model(synth_cfg, cfg, tmp)
        lines = ["frames,load,segment,decode,total,per_frame_ms"]
        for n in frame_counts:
            units = _units_for_exact_frames(synth_cfg, n)
            video, _ = synth_sentence(synth_cfg, units, (synth_cfg.frame_width - 1) / 2.0,
                                      0.0, derive_seed(args.seed, 99, n))
            vdir = tmp / f"bench_{n}"
            write_video_dir(video, vdir)
            t0 = time.perf_counter()
            video = read_video_dir(vdir)
            t1 = time.perf_counter()
            roi = segment_video(video, cfg).roi
            t2 = time.perf_counter()
            decode_roi(roi, model, cfg)
            t3 = time.perf_counter()
            total = t3 - t0
            lines.append(f"{n},{t1 - t0:.3f},{t2 - t1:.3f},{t3 - t2:.3f},{total:.3f},"
                         f"{1000.0 * total / n:.2f}")
        table = "\n".join(lines)
    print(table)
    if args.out:
        Path(args.out).write_text(table + "\n", encoding="ascii")
    return 0


def _units_for_exact_frames(synth_cfg, n: int) -> list[tuple[int, int]]:
    """Unit sequence whose durations sum to exactly n frames."""
    from .fixtures import Rng

    rng = Rng(1234)
    units = []
    remaining = n
    while remaining > 0:
        d = min(remaining, rng.randint(synth_cfg.min_unit_frames, synth_cfg.max_unit_frames))
        if remaining - d < synth_cfg.min_unit_frames and remaining - d > 0:
            d = remaining  # avoid a trailing sliver shorter than a unit
        units.append((rng.randint(0, synth_cfg.class_count - 1), d))
        remaining -= d
    return units


def _bench_model(synth_cfg, cfg: PipelineConfig, tmp: Path):
    """Small deterministic model so bench exercises the full path."""
    from .fixtures import synth_corpus

    corpus = tmp / "bench_train"
    dirs = synth_corpus(synth_cfg, 6, corpus)
    x, labels = collect_labeled_features(dirs, "phoneme", cfg)
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    keep = [i for i, lab in enumerate(labels) if counts[lab] >= 2]
    x = x[keep]
    labels = [labels[i] for i in keep]
    small = PipelineConfig.from_dict({**json.loads(cfg.to_json()),
                                      "c_grid": [64.0], "gamma_grid": [2.0**-7]})
    model, _ = train_from_features(x, labels, small)
    return model


def cmd_grid_heatmap(args) -> int:
    grid = read_grid(args.grid)
    write_pgm(grid_to_heatmap(grid, args.label), args.out)
    print(f"wrote heatmap for {args.label} -> {args.out}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "segment": cmd_segment,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "decode": cmd_decode,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "grid-heatmap": cmd_grid_heatmap,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except VsrError as e:
        print(f"vsr3d {args.command}: error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"vsr3d {args.command}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
