#!/usr/bin/env python3
"""Self-test of the benchmark on the tiny 3-class pool (about a minute).

    python3 perfbench/selftest.py

For every workload it runs the benchmark twice untraced and twice traced,
with the same seed, and checks that

  * the result line names exactly the metrics of BENCHMARK.json, each with
    its unit, and reports no failed operation;
  * the traced per-layer self times plus the unattributed remainder add up
    to the traced wall time, both as reported and as recomputed from the
    span file;
  * exact counters, accuracy and CV accuracy agree between the two traced
    runs, and no run has a failed operation.

Last, it checks that the benchmark exits non-zero without a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3

failures = []


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    if proc.returncode != 0:
        print(proc.stdout, proc.stderr, sep="\n")
        raise SystemExit(f"benchmark failed on {workload} (trace {trace})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(workload: str, res: dict, declared: list):
    units = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    check(got == units, f"{workload}: metrics and units match BENCHMARK.json")
    check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
          f"{workload}: every metric value is a number")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
          f"{workload}: outputs correct, no failed operation")


def check_accounting(workload: str, res: dict):
    m = {k: v["value"] for k, v in res["metrics"].items()}
    shares = sum(v for k, v in m.items() if k.endswith("_pct") and not k.startswith("trace."))
    check(abs(shares + m["trace.unattributed_pct"] - 100.0) < 1e-6,
          f"{workload}: layer self-time shares + unattributed = 100% of traced wall")
    spans = json.loads((ROOT / ".perfbench_out" / f"trace-{workload}-seed{SEED}.json")
                       .read_text(encoding="utf-8"))["spans"]
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - child[i]
    wall = m["trace.wall_s"]
    op_wall = sum(end - start for name, start, end, _, _ in spans if name == "op")
    check(abs(op_wall - wall) < 1e-3 * max(wall, 1.0),
          f"{workload}: operation spans cover the traced wall time")
    layers = sum(v for k, v in self_s.items() if k != "op")
    check(abs(layers + m["trace.unattributed_pct"] * wall / 100.0 - wall) < 1e-3 * max(wall, 1.0),
          f"{workload}: span self times + unattributed = traced wall time")
    for k, v in self_s.items():
        if k != "op":
            check(abs(100.0 * v / wall - m[f"{k}_pct"]) < 0.05,
                  f"{workload}: {k} share matches the span file")


def exact(res: dict) -> dict:
    return {k: v["value"] for k, v in res["metrics"].items()
            if v["unit"] in ("count", "bytes", "ratio")}


def main() -> int:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        plain = [result(workload, 0) for _ in range(2)]
        traced = [result(workload, 1) for _ in range(2)]
        check_names(workload, plain[0], SPEC["end_to_end"])
        check_names(workload, traced[0], SPEC["per_layer"])
        check_accounting(workload, traced[1])
        check(exact(traced[0]) == exact(traced[1]),
              f"{workload}: exact counters, accuracy and CV accuracy repeat exactly")
        check([r["failed"] for r in plain + traced] == [0] * 4,
              f"{workload}: fail ratio 0 on every run")

    bare = ROOT / ".perfbench_selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare.parent, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without program sources: non-zero exit and no result line")

    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
