"""The test oracles stay out of the program: no module under `src/`,
`scripts/` or `perfbench/` imports `tests/oracles.py`.  The package keeps
every name the benchmark's tracer (`perfbench/spans.py`) wraps.  And its
runtime is numpy and the standard library: no module imports anything else,
`pyproject.toml` declares numpy alone, and a whole run in a fresh process
loads no scipy, not even from inside a function."""

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_FILES = sorted(p for d in ("src", "scripts", "perfbench")
                       for p in (ROOT / d).rglob("*.py"))
PACKAGE_FILES = sorted((ROOT / "src" / "vsr3d").rglob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            # `from tests import oracles` and `from . import oracles`
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def test_program_files_found():
    assert any(p.parts[-2:] == ("vsr3d", "features.py") for p in PROGRAM_FILES)
    assert any(p.parent.name == "perfbench" for p in PROGRAM_FILES)
    assert any(p.parent.name == "scripts" for p in PROGRAM_FILES)


@pytest.mark.parametrize("path", PROGRAM_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_program_does_not_import_oracles(path):
    offending = [m for m in imported_modules(path) if "oracles" in m.split(".")]
    assert not offending, f"{path.relative_to(ROOT)} imports {offending}"


def test_perfbench_tracer_wraps_existing_names(monkeypatch):
    """`Tracer.install` replaces program functions by module and name, so a
    rename in the package fails here, not only in `perfbench/selftest.py`;
    `uninstall` puts every original back."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("spans").Tracer()
    try:
        tracer.install()   # getattr raises AttributeError on a missing name
        wrapped = list(tracer._saved)
        assert wrapped
        for module, attr, original in wrapped:
            assert callable(original) and getattr(module, attr) is not original
    finally:
        tracer.uninstall()
    for module, attr, original in wrapped:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


def test_package_files_found():
    assert {"features.py", "evaluation.py", "cli.py"} <= {p.name for p in PACKAGE_FILES}


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_numpy_and_stdlib(path):
    """Relative imports stay in the package; every absolute one names the
    package itself, numpy or a standard-library module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    third_party = roots - set(sys.stdlib_module_names) - {"numpy", "vsr3d"}
    assert not third_party, f"{path.relative_to(ROOT)} imports {sorted(third_party)}"


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]


# Imports every module of the package but `__main__`, then segments,
# featurizes, trains, decodes and scores three sentences of the fixture
# corpus, and prints the scipy modules that ended up loaded.  It runs with
# warnings as errors, so a warning anywhere on the program path fails too.
_WHOLE_RUN = textwrap.dedent("""
    import importlib, pkgutil, sys, tempfile
    from pathlib import Path

    import numpy as np

    import vsr3d
    for info in pkgutil.iter_modules(vsr3d.__path__):
        if info.name != "__main__":  # it runs the command line
            importlib.import_module(f"vsr3d.{info.name}")
    from vsr3d import evaluation, features, formats, pipeline
    from vsr3d.config import PipelineConfig
    from vsr3d.fixtures import SynthConfig, corpus_sentence

    cfg = PipelineConfig(delta_t_ms=0.0, min_duration=3, max_duration=12,
                         c_grid=(64.0,), gamma_grid=(0.125,))
    rois, xs, labels, refs = [], [], [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(3):
            video, truth = corpus_sentence(SynthConfig(seed=42), i)
            path = Path(tmp) / f"{i}.vsr1"
            formats.write_roi(pipeline.segment_video(video, cfg).roi, path)
            rois.append(formats.read_roi(path))
            transcript = features.Transcript(
                [features.TranscriptEntry(*row) for row in truth.transcript_rows])
            x, y, _ = features.extract_labeled_samples(rois[-1], transcript, "phoneme", cfg)
            xs.append(x)
            labels += y
            refs[str(i)] = [row[0] for row in truth.transcript_rows]
        model, _ = pipeline.train_from_features(np.vstack(xs), labels, cfg)
        hyps = {str(i): [label for label, _, _ in pipeline.decode_roi(roi, model, cfg)[0]]
                for i, roi in enumerate(rois)}
    rows, _, _ = evaluation.evaluate_sequences(refs, hyps)
    _, p = evaluation.paired_t_test_one_tailed([r[2] for r in rows], [0.1, 0.3, 0.2])
    assert all(hyps.values()) and 0.0 <= p <= 1.0
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")


def test_whole_run_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-W", "error", "-c", _WHOLE_RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
