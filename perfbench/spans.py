"""Span tracing from outside the program.

`Tracer.install()` replaces the public functions of the vsr3d modules at the
names the orchestrators look them up under (for example
`vsr3d.pipeline.find_symmetry_lines`, which `segment_video` reads from its own
module globals on every call) with wrappers that record one span per call
made while an operation is open (`Tracer.op` set): name, start, end, parent
span and operation id.  Spans stay in memory until `dump` writes them out.
Counters are recorded at the same boundaries; those in `COMPUTED` are
derived from sizes rather than counted by the program.  `svm.smo_steps`
counts the solver's own `on_step` callbacks, injected by the
`train_binary_smo` wrapper.

A layer's self time is the total duration of its spans minus the part
covered by their direct children.  `svm.predict` is opaque: the kernel and
standardization calls inside it are not split out, so its self time is the
whole prediction.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import vsr3d.decoder
import vsr3d.evaluation
import vsr3d.features
import vsr3d.formats
import vsr3d.pipeline
import vsr3d.svm

# counters derived from sizes, not counted by the program
COMPUTED = ("formats.bytes_read", "features.grid_windows", "svm.kernel_evals",
            "decoder.states", "decoder.trans_cells", "decoder.trans_bytes")


def _video_bytes(path) -> int:
    """Bytes read_video_dir reads: the manifest and the PPM frames."""
    return sum(f.stat().st_size for f in Path(path).iterdir()
               if f.name == "manifest.txt" or f.suffix == ".ppm")


def _grid_states(grid) -> int:
    """States of the duration machine decode_sequence builds for a grid:
    one per (class, duration) pair plus the shared countdown chain."""
    spans = (grid.dmax - grid.dmin + 1).sum()
    return int(spans + grid.dmax.max() - 1)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1, op id]
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.model_svs = {}        # id of each model predicted with -> support vectors
        self.op = None
        self._stack = []
        self._opaque = 0
        self._saved = []

    def begin(self, name: str, opaque: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._opaque += opaque
        return index

    def end(self, index: int, opaque: bool = False):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self._opaque -= opaque

    def _wrap(self, fn, name, count=None, opaque=False, on_step=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._opaque or tracer.op is None:
                return fn(*args, **kwargs)
            index = tracer.begin(name, opaque)
            try:
                if on_step:
                    kwargs["on_step"] = tracer._counting_step(kwargs.get("on_step"))
                out = fn(*args, **kwargs)
                if count is not None:
                    count(args, out)
                return out
            finally:
                tracer.end(index, opaque)

        return wrapper

    def _counting_step(self, inner):
        counters = self.counters

        def on_step(state):
            counters["svm.smo_steps"] += 1
            if inner is not None:
                inner(state)

        return on_step

    def install(self):
        """Patch the wrappers in; `uninstall` restores the originals."""
        c = self.counters
        m = self.maxima

        def add(key, n):
            c[key] += int(n)

        def keep_max(key, n):
            m[key] = max(m[key], int(n))

        def count_video(args, out):
            add("formats.bytes_read", _video_bytes(args[0]))

        def count_roi(args, out):
            add("formats.bytes_read", os.path.getsize(args[0]))

        def count_segment(args, out):
            add("segmentation.frames", args[0].frame_count)

        def count_grid_features(args, out):
            add("features.grid_windows", out.shape[0])

        def count_labeled(args, out):
            add("features.labeled_samples", out.shape[0])

        def count_predict(args, out):
            model, x = args[0], args[1]
            svs = sum(b.support_vectors.shape[0] for b in model.models)
            add("svm.predict_rows", x.shape[0])
            add("svm.kernel_evals", x.shape[0] * svs)
            self.model_svs[id(model)] = svs

        def count_viterbi(args, out):
            grid = args[0]
            n = _grid_states(grid)
            keep_max("decoder.states", n)
            add("decoder.trans_cells", grid.frame_count * n * n)
            keep_max("decoder.trans_bytes", n * n * 8)

        def count_smo(args, out):
            add("svm.smo_fits", 1)

        def count_train(args, out):
            _, report = out
            add("svm.train_samples", report["train_samples"])
            add("svm.grid_points", len(report["grid"]))

        def count_eval(args, out):
            add("evaluation.ref_tokens", sum(len(r) for r in args[0].values()))

        p = vsr3d.pipeline
        table = [
            (vsr3d.formats, "read_video_dir", "formats.read_video", count_video, {}),
            (vsr3d.formats, "read_roi", "formats.read_roi", count_roi, {}),
            (p, "segment_video", "segmentation.other", count_segment, {}),
            (p, "find_symmetry_lines", "segmentation.symmetry", None, {}),
            (p, "prepare_frames", "segmentation.channels", None, {}),
            (p, "detect_inner_lower_lip", "segmentation.lip", None, {}),
            (p, "build_min_luminance_line", "segmentation.lum_line", None, {}),
            (p, "detect_mouth_corners", "segmentation.corners", None, {}),
            (p, "extract_roi", "segmentation.roi", None, {}),
            (p, "decode_roi", "decoder.other", None, {}),
            (p, "build_probability_grid", "decoder.grid_fill", None, {}),
            (p, "decode_sequence", "decoder.viterbi", count_viterbi, {}),
            (vsr3d.decoder, "featurize_many", "features.grid", count_grid_features, {}),
            (vsr3d.decoder, "predict_probability_matrix", "svm.predict", count_predict,
             {"opaque": True}),
            (vsr3d.features, "featurize_many", "features.labeled", count_labeled, {}),
            (p, "train_from_features", "svm.train", count_train, {}),
            (vsr3d.svm, "train_binary_smo", "svm.smo", count_smo, {"on_step": True}),
            (vsr3d.svm, "rbf_kernel_matrix", "svm.kernel", None, {}),
            (vsr3d.svm, "fit_platt", "svm.platt", None, {}),
            (vsr3d.evaluation, "evaluate_sequences", "evaluation.align", count_eval, {}),
        ]
        for module, attr, name, count, opts in table:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count, **opts))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict:
        """Seconds of self time per layer span name (operation roots excluded)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name != "op":
                out[name] += (end - start) - child[i]
        return dict(out)

    def counts(self) -> dict:
        return {**self.counters, **self.maxima,
                "svm.support_vectors": sum(self.model_svs.values())}

    def dump(self, path):
        """Spans as JSON rows [name, start_s, end_s, parent, op], times
        relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p, op]
                for n, s, e, p, op in self.spans]
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps({"spans": rows, "counters": self.counts()}),
                              encoding="utf-8")
