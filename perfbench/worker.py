"""The measured process of the benchmark.

run.py starts this script once per run, from the inputs it left on disk, so
the peak RSS reported is that of the workload alone.  It loads the models
(set-up), runs one untimed warm-up pass, then

  --trace 0: runs operations in a closed loop with one client (one after
             another, in this one process) for at least --seconds and at
             least one full cycle over the inputs;
  --trace 1: runs one cycle untraced, then the same cycle with every layer
             wrapped by spans.Tracer, and reports per-layer self times,
             exact counters and the tracing overhead.

An operation is one held-out sentence for the decode workloads and one
training of both inventories for the train workload.  Only the program calls
are timed; every output is then checked, and a failed check or an exception
counts as a failed operation.  The result is one JSON object on the last
line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time
import traceback

import program  # noqa: F401  (puts the checkout's src/ on sys.path)

import numpy as np
import scipy

from vsr3d import evaluation, features, formats, pipeline, svm
from vsr3d.config import PipelineConfig


def drop_rare(x: np.ndarray, labels: list, minimum: int = 2):
    """Rows whose class has at least `minimum` samples (one-vs-rest training
    refuses smaller classes)."""
    counts = {lab: labels.count(lab) for lab in set(labels)}
    keep = [i for i, lab in enumerate(labels) if counts[lab] >= minimum]
    return x[keep], [labels[i] for i in keep]


def train_models(items, cfg: PipelineConfig):
    """Stored ROIs + transcripts -> [(model, report, X, labels)] for the
    phoneme and the biphone inventory, and the frame count read."""
    rows = {"phoneme": ([], []), "biphone": ([], [])}
    frames = 0
    for item in items:
        roi = formats.read_roi(item["roi"])
        transcript = formats.read_transcript(item["transcript"])
        frames += roi.frame_count
        for kind, (xs, labels) in rows.items():
            x, labs, _ = features.extract_labeled_samples(roi, transcript, kind, cfg)
            xs.append(x)
            labels.extend(labs)
    out = []
    for xs, labels in rows.values():
        x, labels = drop_rare(np.vstack(xs), labels)
        model, report = pipeline.train_from_features(x, labels, cfg)
        out.append((model, report, x, labels))
    return out, frames


def model_ok(model, x) -> bool:
    """Finite calibrated probabilities in [0, 1] on the training rows."""
    p = svm.predict_probability_matrix(model, x)
    return bool(np.isfinite(p).all() and (p >= 0).all() and (p <= 1).all())


def tiling_ok(entries, frame_count: int, labels, lo: int, hi: int) -> bool:
    """An exact tiling of [0, frame_count) with in-bounds durations and
    labels from the inventory."""
    pos = 0
    for label, start, dur in entries:
        if start != pos or not lo <= dur <= hi or label not in labels:
            return False
        pos += dur
    return pos == frame_count


def duration_range(cfg: PipelineConfig, biphones: bool) -> tuple[int, int]:
    """Durations a decode may emit after expand_biphones: phoneme bounds, or
    the halves ceil(d/2), floor(d/2) of an in-bounds biphone segment."""
    lo, hi = cfg.min_duration, cfg.max_duration
    if biphones:
        lo = min(lo, cfg.biphone_min_duration // 2)
        hi = max(hi, -(-cfg.biphone_max_duration // 2))
    return lo, hi


def fingerprint(trained) -> list:
    return [(m.class_labels, [(b.dual_coef.tobytes(), b.bias, b.platt_a, b.platt_b)
                              for b in m.models]) for m, _, _, _ in trained]


def openblas() -> dict:
    """Version and thread count of the OpenBLAS numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                       and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def peak_rss_mb() -> float:
    """High-water resident set of this process image.  VmHWM starts afresh at
    exec; ru_maxrss would carry over the parent's peak from before the fork."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def env_stamp() -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": openblas()}


class Run:
    def __init__(self, plan: dict):
        self.plan = plan
        self.workload = plan["workload"]
        self.cfg = PipelineConfig.from_dict(plan["config"])
        self.models = {k: svm.load_model(p) for k, p in plan.get("models", {}).items()}
        self.ops = [plan["train"]] if self.workload == "train" else plan["heldout"]
        self.attempted = 0
        self.failed = 0
        self.reference = {}      # op index -> output of its first run
        self.alignments = {}     # held-out index -> alignment counts of its first decode
        self.trained = None      # [(model, report, X, labels)] of the last training

    def fail(self, what: str):
        self.failed += 1
        print(f"perfbench: {self.workload}: {what}", file=sys.stderr)

    def execute(self, item):
        """The program path of one operation; returns (output, frames)."""
        if self.workload == "train":
            return train_models(item, self.cfg)
        if self.workload == "decode-phoneme":
            video = formats.read_video_dir(item["video"])
            roi = pipeline.segment_video(video, self.cfg).roi
            biphone_model = None
        else:
            roi = formats.read_roi(item["roi"])
            biphone_model = self.models["biphone"]
        entries, _ = pipeline.decode_roi(roi, self.models["phoneme"], self.cfg, biphone_model)
        _, _, totals = evaluation.evaluate_sequences({item["id"]: item["ref"]},
                                                     {item["id"]: [e[0] for e in entries]})
        return (entries, totals), roi.frame_count

    def check(self, index: int, item, output, frames: int) -> bool:
        if self.workload == "train":
            for model, _, x, _ in output:
                if not model_ok(model, x):
                    self.fail("a trained model gives non-finite probabilities")
                    return False
            self.trained = output
            key = fingerprint(output)
        else:
            entries, totals = output
            lo, hi = duration_range(self.cfg, self.workload == "decode-biphone")
            if not tiling_ok(entries, frames, self.models["phoneme"].class_labels, lo, hi):
                self.fail(f"{item['id']}: decode is not a valid tiling: {entries}")
                return False
            self.alignments.setdefault(index, totals)
            key = entries
        if self.reference.setdefault(index, key) != key:
            self.fail(f"operation {index} gave a different output on a repeat")
            return False
        return True

    def run_op(self, index: int, item, tracer=None) -> tuple[int, float]:
        """One checked operation; returns (frames, seconds), frames 0 on failure."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.op = index
                span = tracer.begin("op")
            t0 = time.perf_counter()
            try:
                output, frames = self.execute(item)
            finally:
                seconds = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end(span)
                    tracer.op = None
            ok = self.check(index, item, output, frames)
        except Exception:
            self.fail("operation raised\n" + traceback.format_exc())
            return 0, 0.0
        return (frames if ok else 0), seconds

    def warm_up(self):
        """One untimed pass: the first sentence, or a training on the first
        few stored sentences."""
        if self.workload == "train":
            self.attempted += 1
            try:
                train_models(self.plan["train"][:self.plan["warmup_sentences"]], self.cfg)
            except Exception:
                self.fail("warm-up training raised\n" + traceback.format_exc())
        else:
            self.run_op(0, self.ops[0])

    def timed_loop(self, seconds: float) -> dict:
        durations, frames, i = [], 0, 0
        t0 = time.perf_counter()
        while i < len(self.ops) or time.perf_counter() - t0 < seconds:
            f, s = self.run_op(i % len(self.ops), self.ops[i % len(self.ops)])
            frames += f
            if s:               # 0 when the operation raised
                durations.append(s)
            i += 1
        return {"frames": frames, "op_s": durations}

    def traced_cycle(self, out_path) -> dict:
        """One untraced and one traced cycle over the same operations."""
        from spans import COMPUTED, Tracer

        untraced = sum(self.run_op(i, item)[1] for i, item in enumerate(self.ops))
        tracer = Tracer()
        tracer.install()
        try:
            traced = [self.run_op(i, item, tracer) for i, item in enumerate(self.ops)]
        finally:
            tracer.uninstall()
        tracer.dump(out_path)
        return {"wall_s": sum(s for _, s in traced), "untraced_wall_s": untraced,
                "frames": sum(f for f, _ in traced), "self_s": tracer.self_times(),
                "counts": tracer.counts(), "computed": list(COMPUTED),
                "spans": len(tracer.spans), "ops": len(traced)}

    def score_heldout(self):
        """The train workload decodes the held-out sentences here, untimed and
        in traced runs only, with the phoneme model it trained, so its
        accuracy scores training."""
        if self.workload != "train" or self.trained is None:
            return
        model = self.trained[0][0]
        lo, hi = duration_range(self.cfg, False)
        for i, item in enumerate(self.plan["heldout"]):
            self.attempted += 1
            try:
                roi = formats.read_roi(item["roi"])
                entries, _ = pipeline.decode_roi(roi, model, self.cfg)
                _, _, totals = evaluation.evaluate_sequences(
                    {item["id"]: item["ref"]}, {item["id"]: [e[0] for e in entries]})
            except Exception:
                self.fail("held-out decode raised\n" + traceback.format_exc())
                continue
            if not tiling_ok(entries, roi.frame_count, model.class_labels, lo, hi):
                self.fail(f"{item['id']}: decode is not a valid tiling: {entries}")
                continue
            self.alignments[i] = totals

    def accuracy(self) -> float | None:
        """Pooled (C - I) / T over the held-out sentences (None if none scored)."""
        counts = self.alignments.values()
        t = sum(c.T for c in counts)
        return (sum(c.C for c in counts) - sum(c.I for c in counts)) / t if t else None

    def cv_accuracy(self) -> dict:
        if self.trained is None:
            return {}
        return {kind: max(g["cv_accuracy"] for g in report["grid"])
                for kind, (_, report, _, _) in zip(("phoneme", "biphone"), self.trained)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this "
                         "process (CLOCK_MONOTONIC is system-wide on Linux)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with open(args.plan, encoding="utf-8") as fh:
        run = Run(json.load(fh))
    result = {"setup_s": time.monotonic() - args.t0, "env": env_stamp()}
    if not args.setup_only:
        run.warm_up()
        if args.trace:
            result["trace"] = run.traced_cycle(run.plan["trace_out"])
            run.score_heldout()
        else:
            result.update(run.timed_loop(args.seconds))
        result.update(accuracy=run.accuracy(), cv_accuracy=run.cv_accuracy(),
                      attempted=run.attempted, failed=run.failed,
                      peak_rss_mb=peak_rss_mb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
