"""The benchmark's input pool and the run configurations.

The pool is rendered once per checkout with `vsr3d.fixtures` and segmented
with the program's own `segment_video`: a training pool stored as `.vsr1`
volumes + transcripts, a held-out pool of fixed-length sentences stored as
PPM video directories, `.vsr1` volumes and transcripts, and the phoneme and
biphone models the decode workloads use, trained on the training pool.  It
is cached under `.perfbench_cache/`, keyed by the program sources, this file
and worker.py (which trains the models).  A run's seed picks the held-out
sentences it decodes or scores.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import program

from vsr3d import formats, pipeline, svm
from vsr3d.config import PipelineConfig
from vsr3d.fixtures import Rng, SynthConfig, derive_seed, random_units, synth_sentence

from worker import model_ok, train_models

ROOT = program.ROOT
POOL_SEED = 2016


@dataclass(frozen=True)
class Scale:
    name: str
    classes: int
    train_sentences: int
    train_units: int         # units per training sentence
    heldout_pool: int
    heldout_frames: int      # every held-out sentence has exactly this many frames
    heldout_pick: int        # held-out sentences per run
    warmup_sentences: int    # training sentences in the train workload's warm-up


FULL = Scale("full", classes=8, train_sentences=40, train_units=8,
             heldout_pool=12, heldout_frames=100, heldout_pick=6, warmup_sentences=8)
TINY = Scale("tiny", classes=3, train_sentences=6, train_units=4,
             heldout_pool=3, heldout_frames=36, heldout_pick=2, warmup_sentences=4)


def corpus_config(gamma_grid) -> PipelineConfig:
    """The README's corpus-matched config."""
    return PipelineConfig(delta_t_ms=0.0, min_duration=3, max_duration=12,
                          biphone_min_duration=6, biphone_max_duration=24,
                          c_grid=(64.0,), gamma_grid=tuple(gamma_grid))


DECODE_CONFIG = corpus_config([2.0**-3])
TRAIN_CONFIG = corpus_config([2.0**-5, 2.0**-3])


def exact_units(rng: Rng, scfg: SynthConfig, frames: int) -> list[tuple[int, int]]:
    """Random units whose durations stay in the corpus range and sum to
    exactly `frames`."""
    lo, hi = scfg.min_unit_frames, scfg.max_unit_frames
    units, left = [], frames
    while left > 0:
        d = left if left <= hi else rng.randint(lo, min(hi, left - lo))
        units.append((rng.randint(0, scfg.class_count - 1), d))
        left -= d
    return units


def render(scfg: SynthConfig, index: int, units):
    rng = Rng(derive_seed(POOL_SEED, 5, index))
    col = (scfg.frame_width - 1) / 2.0 + rng.randint(-8, 8)
    angle = float(rng.randint(-3, 3))
    return synth_sentence(scfg, units, col, angle, derive_seed(POOL_SEED, 3, index))


def train_item(pool: Path, i: int) -> dict:
    stem = pool / "train" / f"s{i:03d}"
    return {"roi": stem.with_suffix(".vsr1"), "transcript": stem.with_suffix(".txt")}


def heldout_dir(pool: Path, i: int) -> Path:
    return pool / "heldout" / f"h{i:03d}"


def build_pool(out: Path, scale: Scale):
    scfg = SynthConfig(seed=POOL_SEED, class_count=scale.classes,
                       sentence_length=scale.train_units)
    (out / "train").mkdir(parents=True)
    for i in range(scale.train_sentences):
        units = random_units(scfg, Rng(derive_seed(POOL_SEED, 0, i)))
        video, truth = render(scfg, i, units)
        item = train_item(out, i)
        formats.write_roi(pipeline.segment_video(video, DECODE_CONFIG).roi, item["roi"])
        formats.write_transcript(truth.transcript_rows, item["transcript"])
    for i in range(scale.heldout_pool):
        index = 10_000 + i
        units = exact_units(Rng(derive_seed(POOL_SEED, 0, index)), scfg, scale.heldout_frames)
        video, truth = render(scfg, index, units)
        sent = heldout_dir(out, i)
        formats.write_video_dir(video, sent)
        formats.write_transcript(truth.transcript_rows, sent / "transcript.txt")
        formats.write_roi(pipeline.segment_video(video, DECODE_CONFIG).roi,
                          sent.with_suffix(".vsr1"))
    # the decode workloads' models
    trained, _ = train_models([train_item(out, i) for i in range(scale.train_sentences)],
                              DECODE_CONFIG)
    (out / "models").mkdir()
    info = {}
    for kind, (model, report, x, _) in zip(("phoneme", "biphone"), trained):
        svm.save_model(model, out / "models" / f"{kind}.json")
        info[kind] = {"cv_accuracy": report["grid"][0]["cv_accuracy"],
                      "finite": model_ok(model, x)}
    (out / "models" / "info.json").write_text(json.dumps(info), encoding="utf-8")


def source_key(scale: Scale) -> str:
    h = hashlib.sha256(scale.name.encode())
    here = Path(__file__).resolve().parent
    for path in sorted((program.SRC / "vsr3d").glob("*.py")) + [here / "pool.py",
                                                                here / "worker.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_pool(scale: Scale) -> tuple[Path, float | None]:
    """The cached pool for this checkout's sources; builds it on first use.
    Returns (pool dir, build seconds or None when cached)."""
    pool = ROOT / ".perfbench_cache" / f"{scale.name}-{source_key(scale)}"
    if pool.is_dir():
        return pool, None
    print(f"building the {scale.name} input pool under {pool.relative_to(ROOT)} ...",
          flush=True)
    tmp = pool.with_name(f".build-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        build_pool(tmp, scale)
        try:
            tmp.rename(pool)
        except OSError:
            if not pool.is_dir():   # not a concurrent build that finished first
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return pool, time.perf_counter() - t0


def pick(seed: int, stream: int, n: int, k: int) -> list[int]:
    """k of range(n), in a seed-determined order (Fisher-Yates)."""
    rng = Rng(derive_seed(seed, stream))
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]
