"""Locates the program under test: the vsr3d sources of the checkout this
benchmark sits in.  Importing this module puts `<checkout>/src` first on
sys.path and exits with code 2 when the sources are missing, so the
benchmark never measures an installed copy instead."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "vsr3d" / "__init__.py").is_file():
    print(f"perfbench: no program sources at {SRC / 'vsr3d'}; "
          "run the benchmark from the root of a vsr3d checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import vsr3d  # noqa: E402

if Path(vsr3d.__file__).resolve().parent != (SRC / "vsr3d").resolve():
    print(f"perfbench: imported vsr3d from {vsr3d.__file__}, not from {SRC}", file=sys.stderr)
    sys.exit(2)
