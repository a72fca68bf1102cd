#!/usr/bin/env python3
"""Learning-curve table: train on growing fractions of a synthetic corpus and
report training-set vs cross-validation top-1 accuracy per fraction.

The output is a plain (trainingFraction, nSamples, accTrain, accCv) table for
external plotting.

Usage:
    python scripts/learning_curve.py --seed 42 --sentences 40 --out curve.csv
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vsr3d.features import Transcript, TranscriptEntry, extract_labeled_samples
from vsr3d.fixtures import SynthConfig, corpus_sentence
from vsr3d.pipeline import segment_video, train_from_features
from vsr3d.svm import predict_probability_matrix


def top1_accuracy(model, x, labels):
    probs = predict_probability_matrix(model, x)
    pred = [model.class_labels[i] for i in np.argmax(probs, axis=1)]
    return float(np.mean([p == t for p, t in zip(pred, labels)]))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--sentences", type=int, default=40)
    ap.add_argument("--fractions", default="0.2,0.4,0.6,0.8,1.0")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    scfg = SynthConfig(seed=args.seed)
    cfg = scfg.pipeline_config()
    xs, labels = [], []
    print(f"segmenting {args.sentences} sentences ...", file=sys.stderr)
    for i in range(args.sentences):
        video, truth = corpus_sentence(scfg, i)
        roi = segment_video(video, cfg).roi
        tr = Transcript([TranscriptEntry(*r) for r in truth.transcript_rows])
        x, labs, _ = extract_labeled_samples(roi, tr, "phoneme", cfg)
        xs.append(x)
        labels.append(labs)

    lines = ["trainingFraction,nSamples,accTrain,accCv"]
    for frac in (float(v) for v in args.fractions.split(",")):
        n = max(2, int(round(frac * args.sentences)))
        # hold out the last fifth of sentences of the slice for the cv column
        n_cv = max(1, n // 5)
        x_tr = np.vstack(xs[: n - n_cv])
        labs_tr = [lab for chunk in labels[: n - n_cv] for lab in chunk]
        x_cv = np.vstack(xs[n - n_cv:n])
        labs_cv = [lab for chunk in labels[n - n_cv:n] for lab in chunk]
        if len(set(labs_tr)) < 2 or any(labs_tr.count(c) < 2 for c in set(labs_tr)):
            continue
        model, _ = train_from_features(x_tr, labs_tr, cfg)
        lines.append(f"{frac:.2f},{len(labs_tr)},"
                     f"{top1_accuracy(model, x_tr, labs_tr):.4f},"
                     f"{top1_accuracy(model, x_cv, labs_cv):.4f}")
    table = "\n".join(lines)
    print(table)
    if args.out:
        Path(args.out).write_text(table + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
