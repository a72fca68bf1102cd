"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import VsrError, __version__
from .config import PipelineConfig
from .formats import (find_video_dirs, read_grid, read_features_csv, read_label_sequence,
                      read_roi, read_transcript, read_video_dir, write_confusion_csv,
                      write_eval_report, write_features_csv, write_grid, write_keypoints_csv,
                      write_pgm, write_roi, write_transcript)
from .pipeline import (build_probability_grid, class_inventories, decode_roi, decode_sequence,
                       expand_biphones, grid_to_heatmap, keypoint_rows, segment_video,
                       train_from_features)
from .util import parse_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(p: _Parser, config: bool = True):
    """--version everywhere; --config/--set on the subcommands that read the
    pipeline config."""
    p.add_argument("--version", action="version", version=f"vsr3d {__version__}")
    if config:
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config value (repeatable)")


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    overrides = {}
    for pair in args.overrides:
        key, sep, value = pair.partition("=")
        if not sep:
            raise VsrError(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            overrides[key] = parse_json(value, f"--set {key}")
        except VsrError as e:
            if not isinstance(e.__cause__, json.JSONDecodeError):
                raise
            overrides[key] = value   # not JSON: the text itself
    return PipelineConfig.from_dict({**dataclasses.asdict(cfg), **overrides})


def build_parser() -> _Parser:
    parser = _Parser(prog="vsr3d", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vsr3d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p, config=False)
    p.add_argument("--threads", type=int, default=1, help="worker threads")
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
    p.add_argument("input", help="corpus root, single video directory or ROI file (.vsr1)")
    p.add_argument("--transcript", default=None,
                   help="transcript of a .vsr1 input (video directories use transcript.txt)")
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
    p.add_argument("--biphone-model", default=None,
                   help="also decode with this biphone model (merged grid)")
    p.add_argument("--save-grid", default=None, help="write the probability grid (.grd1)")
    p.add_argument("--out", required=True, help="output transcript path")

    p = sub.add_parser("eval", help="score hypothesis transcripts against references")
    _add_common(p, config=False)
    p.add_argument("--ref", required=True, help="reference transcript file or directory")
    p.add_argument("--hyp", required=True, help="hypothesis transcript file or directory")
    p.add_argument("--units", default="phoneme", choices=["phoneme", "viseme"])
    p.add_argument("--keep-ref-silence", action="store_true",
                   help="do not strip internal silence from the reference")
    p.add_argument("--out", default=None, help="report CSV path")
    p.add_argument("--confusion", default=None, help="confusion matrix CSV path")

    p = sub.add_parser("grid-heatmap", help="render one class of a grid file as PGM")
    _add_common(p, config=False)
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


def _input_roi(path: Path, cfg: PipelineConfig):
    """The ROI of a .vsr1 file, or of a video directory segmented here; a
    directory whose manifest fps differs from the config's is a data error,
    since transcripts and decodes convert milliseconds at the config's fps."""
    if not path.is_dir():
        return read_roi(path)
    video = read_video_dir(path)
    if video.fps != cfg.fps:
        raise VsrError(f"{path / 'manifest.txt'}: fps={video.fps} but the config has "
                       f"fps={cfg.fps}; pass --set fps={video.fps} to match")
    return segment_video(video, cfg).roi


def cmd_featurize(args) -> int:
    from .features import enumerate_subsequences, extract_labeled_samples, featurize_many

    cfg = _load_config(args)
    path = Path(args.input)
    if path.is_dir():
        if args.transcript:
            raise VsrError("--transcript is for a .vsr1 input; video directories use their "
                           "transcript.txt")
        inputs = [(d.name, d, d / "transcript.txt") for d in find_video_dirs(path)]
    else:
        inputs = [(path.stem, path, args.transcript)]
    multi = len(inputs) > 1
    out = Path(args.out)
    if multi:
        out.mkdir(parents=True, exist_ok=True)
    for name, source, transcript in inputs:
        roi = _input_roi(source, cfg)
        if args.all_subsequences:
            lo, hi = cfg.duration_bounds(args.kind)
            spans = enumerate_subsequences(roi.frame_count, range(lo, hi + 1))
            x = featurize_many(roi, cfg.channel, cfg.delta_t_ms, cfg.fps, spans,
                               cfg.uniform_length, cfg.mask_size)
            labels = None
        elif transcript is None:
            raise VsrError(f"{source}: labeled features of a .vsr1 file need --transcript")
        else:
            x, labels, spans = extract_labeled_samples(roi, read_transcript(transcript),
                                                       args.kind, cfg)
        path = out / f"{name}.features.csv" if multi else out
        write_features_csv(x, spans, path, labels)
        print(f"featurized {name}: {len(spans)} samples")
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
    biphone_model = load_model(args.biphone_model) if args.biphone_model else None
    roi = _input_roi(Path(args.input), cfg)
    if args.save_grid:
        # the per-class grid decodes to the same entries as `decode_roi`'s
        # table, so its windows are featurized and scored once
        grid = build_probability_grid(roi, class_inventories(model, cfg, biphone_model),
                                      cfg.fps)
        write_grid(grid, args.save_grid)
        entries = expand_biphones(decode_sequence(grid))
    else:
        entries, _ = decode_roi(roi, model, cfg, biphone_model)
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
    from .evaluation import evaluate_sequences, summary_accuracies

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
    pooled, mean = summary_accuracies(rows, totals)
    print(f"sequences={len(rows)} T={totals.T} C={totals.C} S={totals.S} "
          f"D={totals.D} I={totals.I}")
    print(f"accuracy pooled={pooled:.4f} mean={mean:.4f}")
    return 0


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
    "grid-heatmap": cmd_grid_heatmap,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (VsrError, OSError) as e:
        print(f"vsr3d {args.command}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
