"""Small shared helpers."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import VsrError


def round_half_up(x: float) -> int:
    import math

    return int(math.floor(x + 0.5))


def pmap(fn, items, threads: int = 1) -> list:
    """Order-preserving map, optionally over a thread pool.

    Results are assembled in input order, so the output is identical for any
    thread count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def parse_json(text: str, where: str):
    """The value of a JSON text.  Text that is not JSON (the error's cause
    is then a `json.JSONDecodeError`), an integer too long to convert, or
    nesting too deep to parse raises a one-line `VsrError` that begins with
    `where`."""
    try:
        return json.loads(text)
    except RecursionError:
        raise VsrError(f"{where}: JSON nested too deeply to read") from None
    except ValueError as e:
        raise VsrError(f"{where}: {e}") from e


def read_json(path, what: str):
    """`parse_json` of a UTF-8 file; errors begin 'malformed {what} file
    {path}'."""
    where = f"malformed {what} file {path}"
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise VsrError(f"{where}: byte {e.start} is not UTF-8") from None
    return parse_json(text, where)
