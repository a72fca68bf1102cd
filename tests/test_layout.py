"""The test oracles stay out of the program: no module under `src/`,
`scripts/` or `perfbench/` imports `tests/oracles.py`.  And the package
keeps every name the benchmark's tracer (`perfbench/spans.py`) wraps."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_FILES = sorted(p for d in ("src", "scripts", "perfbench")
                       for p in (ROOT / d).rglob("*.py"))


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
