#!/usr/bin/env python3
"""End-to-end experiment on a synthetic corpus.

Generates sentences, trains phoneme and biphone models on a training split,
decodes the held-out split with and without biphone augmentation, and prints
per-sentence accuracies plus a one-tailed paired significance test between
the two decodes.

Usage:
    python scripts/run_synthetic_experiment.py --seed 42 --train 40 --test 10
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vsr3d import VsrError
from vsr3d.config import PipelineConfig
from vsr3d.evaluation import accuracy, align_nw, paired_t_test_one_tailed
from vsr3d.features import Transcript, TranscriptEntry, extract_labeled_samples
from vsr3d.fixtures import Rng, SynthConfig, derive_seed, random_units, synth_sentence
from vsr3d.pipeline import decode_roi, segment_video, train_from_features


def build_corpus(seed, count, noise):
    scfg = SynthConfig(seed=seed, noise_sigma=noise)
    out = []
    for i in range(count):
        rng = Rng(derive_seed(seed, 0, i))
        units = random_units(scfg, rng)
        col = (scfg.frame_width - 1) / 2.0 + rng.randint(-8, 8)
        ang = float(rng.randint(-3, 3))
        out.append(synth_sentence(scfg, units, col, ang, derive_seed(seed, 3, i)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--train", type=int, default=40)
    ap.add_argument("--test", type=int, default=10)
    ap.add_argument("--noise", type=float, default=4.0 / 255.0)
    args = ap.parse_args()

    cfg = PipelineConfig(delta_t_ms=0.0, min_duration=3, max_duration=12,
                         biphone_min_duration=6, biphone_max_duration=24,
                         c_grid=(64.0,), gamma_grid=(2.0**-3,))
    corpus = build_corpus(args.seed, args.train + args.test, args.noise)
    print(f"segmenting {len(corpus)} sentences ...")
    results = [segment_video(video, cfg) for video, _ in corpus]

    xs, labels, xbs, blabels = [], [], [], []
    for i in range(args.train):
        _, truth = corpus[i]
        tr = Transcript([TranscriptEntry(*r) for r in truth.transcript_rows])
        x, labs, _ = extract_labeled_samples(results[i].roi, tr, "phoneme", cfg)
        xs.append(x)
        labels.extend(labs)
        xb, labs_b, _ = extract_labeled_samples(results[i].roi, tr, "biphone", cfg)
        xbs.append(xb)
        blabels.extend(labs_b)
    model, rep = train_from_features(np.vstack(xs), labels, cfg)
    xb_all = np.vstack(xbs)
    counts = {lab: blabels.count(lab) for lab in set(blabels)}
    keep = [i for i, lab in enumerate(blabels) if counts[lab] >= 2]
    bimodel, _ = train_from_features(xb_all[keep], [blabels[i] for i in keep], cfg)
    print(f"trained {len(model.class_labels)} phoneme and {len(bimodel.class_labels)} "
          f"biphone classes (cv accuracy {rep['grid'][0]['cv_accuracy']:.3f})")

    acc_plain, acc_bi = [], []
    print(f"{'sentence':>9} {'plain':>7} {'biphone':>8}  reference / decoded")
    for i in range(args.train, len(corpus)):
        _, truth = corpus[i]
        ref = [r[0] for r in truth.transcript_rows]
        entries, _ = decode_roi(results[i].roi, model, cfg)
        hyp = [e[0] for e in entries]
        a1 = accuracy(align_nw(ref, hyp)[0])
        entries_b, _ = decode_roi(results[i].roi, model, cfg, biphone_model=bimodel)
        a2 = accuracy(align_nw(ref, [e[0] for e in entries_b])[0])
        acc_plain.append(a1)
        acc_bi.append(a2)
        print(f"{i:>9} {a1:>7.2f} {a2:>8.2f}  {' '.join(ref)} / {' '.join(hyp)}")
    print(f"\nmean accuracy: plain {np.mean(acc_plain):.3f}, "
          f"biphone-augmented {np.mean(acc_bi):.3f}")
    try:
        t, p = paired_t_test_one_tailed(acc_bi, acc_plain)
        print(f"one-tailed paired t-test (biphone > plain): t={t:.3f}, p={p:.4f}")
    except VsrError as e:
        print(f"t-test unavailable: {e}")


if __name__ == "__main__":
    main()
