"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 8's second anchor (p(t=2.302, df=79) = 0.0112) is knowingly red:
the correct one-tailed Student-t tail at df=79 is 0.011985, and 0.0112 only
matches a two-sample test with df around 158.  The implementation follows the
mathematics; see the README's "Known red acceptance check" note.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import idct3, prob
from vsr3d.config import PipelineConfig
from vsr3d.decoder import ProbabilityGrid, decode_sequence
from vsr3d.evaluation import (AlignmentCounts, accuracy, align_nw, t_tail_probability)
from vsr3d.features import dct3, pyramid_mask_indices, extract_labeled_samples
from vsr3d.features import Transcript, TranscriptEntry
from vsr3d.fixtures import Rng, SynthConfig, corpus_sentence, derive_seed, synth_sentence
from vsr3d.pipeline import decode_roi, segment_video, train_from_features
from vsr3d.segmentation import viterbi_generic
from vsr3d.svm import decision_values, train_binary_smo

SEED = 42


def report(num, desc, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc} {detail}".rstrip(),
          flush=True)
    assert ok, f"criterion {num}: {desc} {detail}"


def corpus_pipeline_config():
    """Operating point matched to the synthetic corpus the same way the
    published defaults were matched to their own recordings (duration limits
    from corpus statistics, no audio-visual lag, pinned SVM point)."""
    return PipelineConfig(
        delta_t_ms=0.0, min_duration=3, max_duration=12,
        biphone_min_duration=6, biphone_max_duration=24,
        c_grid=(64.0,), gamma_grid=(2.0**-3,),
    )


@pytest.fixture(scope="module")
def acceptance_corpus():
    """50 deterministic sentences (segmented), with per-sentence timing."""
    cfg = corpus_pipeline_config()
    scfg = SynthConfig(seed=SEED, noise_sigma=4.0 / 255.0)
    frame_counts, truths, results, seg_seconds = [], [], [], []
    for i in range(50):
        video, truth = corpus_sentence(scfg, i)
        t0 = time.perf_counter()
        res = segment_video(video, cfg)
        seg_seconds.append(time.perf_counter() - t0)
        frame_counts.append(video.frame_count)
        truths.append(truth)
        results.append(res)
    return cfg, frame_counts, truths, results, seg_seconds


@pytest.fixture(scope="module")
def trained_models(acceptance_corpus):
    cfg, _, truths, results, _ = acceptance_corpus
    t0 = time.perf_counter()
    xs, labels, xbs, blabels = [], [], [], []
    for i in range(40):
        tr = Transcript([TranscriptEntry(*r) for r in truths[i].transcript_rows])
        x, labs, _ = extract_labeled_samples(results[i].roi, tr, "phoneme", cfg)
        xs.append(x)
        labels.extend(labs)
        xb, labs_b, _ = extract_labeled_samples(results[i].roi, tr, "biphone", cfg)
        xbs.append(xb)
        blabels.extend(labs_b)
    model, _ = train_from_features(np.vstack(xs), labels, cfg)
    bimodel, _ = train_from_features(np.vstack(xbs), blabels, cfg)
    return model, bimodel, time.perf_counter() - t0


def naive_dct3(volume):
    x = np.asarray(volume, dtype=float)
    n0, n1, n2 = x.shape

    def basis(n, k):
        scale = math.sqrt((1.0 if k == 0 else 2.0) / n)
        return scale * np.cos(np.pi * (2 * np.arange(n) + 1) * k / (2 * n))

    out = np.zeros_like(x)
    for k0 in range(n0):
        b0 = basis(n0, k0)
        for k1 in range(n1):
            b1 = basis(n1, k1)
            for k2 in range(n2):
                b2 = basis(n2, k2)
                out[k0, k1, k2] = np.einsum("i,j,k,ijk->", b0, b1, b2, x)
    return out


def test_criterion_01_dct_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        vol = rng.standard_normal(dims)
        worst = max(worst, float(np.abs(dct3(vol) - naive_dct3(vol)).max()))
    big = rng.standard_normal((16, 16, 16))
    round_trip = float(np.abs(idct3(dct3(big)) - big).max())
    elapsed = time.perf_counter() - t0
    report(1, "3D-DCT matches the naive triple sum and inverts",
           worst < 1e-9 and round_trip < 1e-9 and elapsed < 10.0,
           f"(max err {worst:.2e}, round trip {round_trip:.2e}, {elapsed:.1f}s)")


def test_criterion_02_pyramid_mask_counts():
    counts = [len(pyramid_mask_indices(s)) for s in range(1, 6)]
    vector_len = counts[2] + 1
    report(2, "pyramid-mask counts are {1,4,10,20,35}; s=3 vector length 11",
           counts == [1, 4, 10, 20, 35] and vector_len == 11, f"(got {counts})")


def test_criterion_03_viterbi_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        n_states = int(rng.integers(1, 6))
        n_steps = int(rng.integers(1, 7))
        priors = rng.uniform(0.05, 1.0, n_states)
        trans = rng.uniform(0.0, 1.0, (n_states, n_states))
        obs = rng.uniform(0.05, 1.0, (n_steps, n_states))
        _, log_score = viterbi_generic(priors, trans, obs)
        best = -np.inf
        for path in itertools.product(range(n_states), repeat=n_steps):
            s = priors[path[0]] * obs[0, path[0]]
            for t in range(1, n_steps):
                s *= trans[path[t - 1], path[t]] * obs[t, path[t]]
            best = max(best, s)
        worst = max(worst, abs(log_score - math.log(best)))
    report(3, "Viterbi equals exhaustive path enumeration on 200 instances",
           worst < 1e-9, f"(max log-score diff {worst:.2e})")


def _random_grid(rng, n_classes, frames, dmin, dmax):
    labels = [f"k{i}" for i in range(n_classes)]
    probs = []
    for _ in labels:
        p = rng.uniform(0.05, 0.95, size=(frames, dmax - dmin + 1))
        for start in range(frames):
            for d in range(dmin, dmax + 1):
                if start + d > frames:
                    p[start, d - dmin] = -1.0
        probs.append(p)
    return ProbabilityGrid(class_labels=labels, dmin=np.full(n_classes, dmin),
                           dmax=np.full(n_classes, dmax), frame_count=frames, probs=probs)


def _oracle_best_tiling(grid):
    n = grid.frame_count
    best = [None, -np.inf]

    def recurse(t, acc, score):
        if t == n:
            if score > best[1]:
                best[0], best[1] = list(acc), score
            return
        for c in range(len(grid.class_labels)):
            for d in range(int(grid.dmin[c]), int(grid.dmax[c]) + 1):
                if t + d > n:
                    continue
                p = prob(grid, c, t, d)
                if p < 0:
                    continue
                acc.append((grid.class_labels[c], t, d))
                recurse(t + d, acc, score + d * math.log(p))
                acc.pop()

    recurse(0, [], 0.0)
    return best


def _expanded_chain_score(grid):
    """Option-(c) machine: per-(class, duration) dummy chains carrying the
    unfolded observation at every chain state."""
    states = []
    for c in range(len(grid.class_labels)):
        for d in range(int(grid.dmin[c]), int(grid.dmax[c]) + 1):
            for k in range(d, 0, -1):
                states.append((c, d, k))
    index = {s: i for i, s in enumerate(states)}
    n_states = len(states)
    starts = [index[s] for s in states if s[2] == s[1]]
    trans = np.zeros((n_states, n_states))
    for s in states:
        c, d, k = s
        if k > 1:
            trans[index[s], index[(c, d, k - 1)]] = 1.0
        else:
            trans[index[s], starts] = 1.0
    priors = np.zeros(n_states)
    priors[starts] = 1.0
    n = grid.frame_count
    obs = np.zeros((n, n_states))
    for i, (c, d, k) in enumerate(states):
        for t in range(n):
            t0 = t - (d - k)
            if 0 <= t0 and t0 + d <= n:
                p = prob(grid, c, t0, d)
                if p >= 0:
                    obs[t, i] = p
    _, log_score = viterbi_generic(priors, trans, obs)
    return log_score


def test_criterion_04_decoder_oracle():
    rng = np.random.default_rng(104)
    worst_bf = worst_cd = 0.0
    for _ in range(100):
        grid = _random_grid(rng, int(rng.integers(1, 4)), int(rng.integers(2, 9)), 1, 3)
        entries = decode_sequence(grid)
        got = sum(d * math.log(prob(grid, grid.class_labels.index(lab), t, d))
                  for lab, t, d in entries)
        oracle_entries, oracle_score = _oracle_best_tiling(grid)
        worst_bf = max(worst_bf, abs(got - oracle_score))
        assert entries == oracle_entries
        worst_cd = max(worst_cd, abs(_expanded_chain_score(grid) - got))
    report(4, "decoder equals brute-force tiling argmax; option-(c) == option-(d)",
           worst_bf < 1e-9 and worst_cd < 1e-9,
           f"(oracle diff {worst_bf:.2e}, chain diff {worst_cd:.2e})")


def test_criterion_05_smo_correctness():
    rng = np.random.default_rng(105)
    cfg = PipelineConfig(svm_tolerance=1e-3, svm_max_passes=500)
    kkt_ok = True
    sum_ok = True
    for _ in range(20):
        n = int(rng.integers(6, 24))
        x = rng.random((n, 3))
        y = np.where(x @ np.array([1.0, -0.6, 0.4]) > 0.4, 1.0, -1.0)
        if len(set(y)) < 2:
            y[0] = -y[0]
        c = float(rng.choice([1.0, 16.0, 64.0]))
        gamma = float(rng.choice([0.25, 1.0]))
        model = train_binary_smo(x, y, c, gamma, cfg)
        sum_ok &= abs(model.dual_coef.sum()) < 1e-6
        f = decision_values(model, x)
        alphas = np.zeros(n)
        for sv, coef in zip(model.support_vectors, model.dual_coef):
            j = int(np.flatnonzero(np.abs(x - sv).max(axis=1) < 1e-12)[0])
            alphas[j] += abs(coef)
        for i in range(n):
            margin = y[i] * f[i]
            if alphas[i] < 1e-9:
                kkt_ok &= margin >= 1.0 - cfg.svm_tolerance - 1e-9
            elif alphas[i] > c - 1e-9:
                kkt_ok &= margin <= 1.0 + cfg.svm_tolerance + 1e-9
            else:
                kkt_ok &= abs(margin - 1.0) <= cfg.svm_tolerance + 1e-9

    xs = np.vstack([rng.normal((-1, -1), 0.3, (25, 2)), rng.normal((1, 1), 0.3, (25, 2))])
    ys = np.array([-1.0] * 25 + [1.0] * 25)
    sep = train_binary_smo(xs, ys, 1e6, 1.0)
    sep_ok = (np.sign(decision_values(sep, xs)) == ys).all()

    xor_x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = np.array([1.0, 1.0, -1.0, -1.0])
    xor = train_binary_smo(xor_x, xor_y, 64.0, 1.0)
    xor_ok = (np.sign(decision_values(xor, xor_x)) == xor_y).all()

    report(5, "SMO satisfies KKT, solves separable and XOR sets, sum(alpha*y)=0",
           kkt_ok and sum_ok and sep_ok and xor_ok,
           f"(kkt {kkt_ok}, sum {sum_ok}, separable {sep_ok}, xor {xor_ok})")


def test_criterion_06_platt_calibration():
    from vsr3d.svm import fit_platt

    rng = np.random.default_rng(106)
    scores = rng.normal(0, 1.5, 80)
    labels = np.where(scores + rng.normal(0, 0.6, 80) > 0.1, 1.0, -1.0)
    a, b, _ = fit_platt(scores, labels)
    n_pos = int((labels > 0).sum())
    n_neg = int((labels < 0).sum())
    t = np.where(labels > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def nll(aa, bb):
        z = aa * scores + bb
        return float(np.sum(np.where(z >= 0, t * z + np.log1p(np.exp(-z)),
                                     (t - 1) * z + np.log1p(np.exp(z)))))

    base = nll(a, b)
    local_min = all(nll(a + da, b + db) >= base - 1e-9
                    for da, db in ((0.1, 0), (-0.1, 0), (0, 0.1), (0, -0.1)))
    grid = np.linspace(-5, 5, 60)
    p = 1.0 / (1.0 + np.exp(a * grid + b))
    monotone = bool((np.diff(p) > 0).all())
    report(6, "Platt fit is a local NLL minimum and monotone in the score",
           local_min and monotone, f"(local min {local_min}, monotone {monotone})")


def test_criterion_07_accuracy_arithmetic():
    phon = accuracy(AlignmentCounts(T=2728, C=587, S=1089, D=1052, I=39))
    vis = accuracy(AlignmentCounts(T=2518, C=1029, S=438, D=1051, I=37))
    ok = abs(phon - 0.201) < 5e-4 and abs(vis - 0.394) < 5e-4
    report(7, "published totals reproduce the published accuracies",
           ok, f"(phonemes {phon:.4f} vs 0.201, visemes {vis:.4f} vs 0.394)")


def test_criterion_08_t_tail_anchors():
    p1 = t_tail_probability(2.500, 79)
    p2 = t_tail_probability(2.302, 79)
    ok1 = abs(p1 - 0.0072) < 2e-4
    ok2 = abs(p2 - 0.0112) < 2e-4
    report(8, "one-tailed t anchors: p(2.500,79)=0.0072 and p(2.302,79)=0.0112",
           ok1 and ok2,
           f"(got {p1:.4f} and {p2:.4f}; the second anchor is not attainable: the "
           f"correct df=79 tail is 0.0120, 0.0112 corresponds to a two-sample df)")


def test_criterion_09_segmentation_recovery(acceptance_corpus):
    cfg, frame_counts, truths, results, seg_seconds = acceptance_corpus
    sym_ok = corner_ok = total = 0
    for i in range(30):
        res = results[i]
        truth = truths[i]
        for t in range(frame_counts[i]):
            ft = truth.frames[t]
            line = res.lines[t]
            sym_ok += (abs(line.column - ft.sym_col) <= 2.0
                       and abs(line.angle_deg - ft.sym_angle) <= 1.0)
            _, lr, lc, rr, rc = res.keypoints_original[t]
            le = math.hypot(lr - ft.left[0], lc - ft.left[1])
            re = math.hypot(rr - ft.right[0], rc - ft.right[1])
            corner_ok += (le <= 3.0 and re <= 3.0)
            total += 1
    elapsed = sum(seg_seconds[:30])
    sym_rate = sym_ok / total
    corner_rate = corner_ok / total
    report(9, "symmetry within 2px/1deg on >=95% and corners within 3px on >=90%",
           sym_rate >= 0.95 and corner_rate >= 0.90 and elapsed < 300.0,
           f"(symmetry {sym_rate:.3f}, corners {corner_rate:.3f}, {elapsed:.0f}s)")


def test_criterion_10_end_to_end(acceptance_corpus, trained_models):
    cfg, _, truths, results, _ = acceptance_corpus
    model, bimodel, train_seconds = trained_models
    t0 = time.perf_counter()
    acc_p, acc_b = [], []
    for i in range(40, 50):
        ref = [r[0] for r in truths[i].transcript_rows]
        entries, _ = decode_roi(results[i].roi, model, cfg)
        acc_p.append(accuracy(align_nw(ref, [e[0] for e in entries])[0]))
        entries_b, _ = decode_roi(results[i].roi, model, cfg, biphone_model=bimodel)
        acc_b.append(accuracy(align_nw(ref, [e[0] for e in entries_b])[0]))
    elapsed = train_seconds + (time.perf_counter() - t0)
    mean_p = float(np.mean(acc_p))
    mean_b = float(np.mean(acc_b))
    report(10, "held-out mean accuracy >= 0.70 and biphones within 0.02",
           mean_p >= 0.70 and mean_b >= mean_p - 0.02 - 1e-12 and elapsed < 900.0,
           f"(phoneme {mean_p:.3f}, biphone-augmented {mean_b:.3f}, {elapsed:.0f}s)")


def test_criterion_11_linear_runtime(trained_models):
    from vsr3d.decoder import build_probability_grid, decode_sequence as decode_grid

    cfg = corpus_pipeline_config()
    model, _, _ = trained_models
    scfg = SynthConfig(seed=SEED, noise_sigma=4.0 / 255.0)
    per_frame = []
    for n in (50, 100, 200):
        rng = Rng(derive_seed(SEED, 90, n))
        units = []
        remaining = n
        while remaining > 0:
            d = min(remaining, rng.randint(3, 12))
            if 0 < remaining - d < 3:
                d = remaining
            units.append((rng.randint(0, 2), d))
            remaining -= d
        video, _ = synth_sentence(scfg, units, (scfg.frame_width - 1) / 2.0, 0.0,
                                  derive_seed(SEED, 91, n))
        t0 = time.perf_counter()
        res = segment_video(video, cfg)
        grid = build_probability_grid(res.roi, [(model, cfg.min_duration, cfg.max_duration)],
                                      cfg.fps)
        decode_grid(grid)
        per_frame.append((time.perf_counter() - t0) / n)
    ratio = max(per_frame) / min(per_frame)
    report(11, "per-frame wall time varies by < 2x across 50/100/200 frames",
           ratio < 2.0, f"(ms/frame {[f'{1e3 * v:.1f}' for v in per_frame]}, ratio {ratio:.2f})")


def test_criterion_12_thread_determinism(tmp_path):
    config = {
        "delta_t_ms": 0.0, "min_duration": 3, "max_duration": 12,
        "biphone_min_duration": 6, "biphone_max_duration": 24,
        "c_grid": [64.0], "gamma_grid": [0.125],
    }

    def run_pipeline(workdir: Path, threads: str):
        workdir.mkdir()
        cfg_path = workdir / "config.json"
        cfg_path.write_text(json.dumps(config))
        env_args = ["--config", str(cfg_path)]

        def cli(*args):
            cmd = [sys.executable, "-m", "vsr3d", *args]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return proc

        corpus = workdir / "corpus"
        cli("synth", "--seed", "7", "--classes", "3", "--sentences", "8",
            "--sentence-length", "4", "--out", str(corpus), "--threads", threads)
        seg = workdir / "seg"
        cli("segment", str(corpus), "--out", str(seg), *env_args)
        feats = workdir / "feats"
        cli("featurize", str(corpus), "--kind", "phoneme", "--out", str(feats), *env_args)
        merged = workdir / "train.csv"
        lines = []
        header = None
        for c in sorted(feats.glob("*.features.csv")):
            text = c.read_text().splitlines()
            header = text[0]
            lines.extend(text[1:])
        merged.write_text(header + "\n" + "\n".join(lines) + "\n")
        model = workdir / "model.json"
        cli("train", "--features", str(merged), "--out", str(model), *env_args)
        hyp = workdir / "hyp"
        hyp.mkdir()
        for sent in ("sent_006", "sent_007"):
            cli("decode", str(corpus / sent), "--model", str(model),
                "--out", str(hyp / f"{sent}.txt"), *env_args)
        refs = workdir / "refs"
        refs.mkdir()
        for sent in ("sent_006", "sent_007"):
            (refs / f"{sent}.txt").write_bytes((corpus / sent / "transcript.txt").read_bytes())
        cli("eval", "--ref", str(refs), "--hyp", str(hyp),
            "--out", str(workdir / "report.csv"), "--confusion", str(workdir / "confusion.csv"))
        return workdir

    a = run_pipeline(tmp_path / "threads1", "1")
    b = run_pipeline(tmp_path / "threads4", "4")
    compared = []
    identical = True
    for rel in ("model.json", "report.csv", "confusion.csv",
                "hyp/sent_006.txt", "hyp/sent_007.txt"):
        same = (a / rel).read_bytes() == (b / rel).read_bytes()
        compared.append(f"{rel}:{'=' if same else '!'}")
        identical &= same
    report(12, "synth->eval pipeline is byte-identical for --threads 1 and 4",
           identical, f"({', '.join(compared)})")
