"""The experiment scripts run end to end on a small corpus and print their
tables."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_synthetic_experiment_prints_one_row_per_held_out_sentence():
    lines = run_script("run_synthetic_experiment.py", "--train", "6", "--test", "2")
    header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["sentence"])
    rows = [line.split() for line in lines[header + 1:header + 3]]
    assert [int(r[0]) for r in rows] == [6, 7]
    for r in rows:
        assert all(0.0 <= float(v) <= 1.0 for v in r[1:3])
        assert "/" in r
    assert any(line.startswith("mean accuracy: plain ") for line in lines)


def test_learning_curve_prints_one_row_per_fraction():
    lines = run_script("learning_curve.py", "--sentences", "6", "--fractions", "0.5,1.0")
    assert lines[0] == "trainingFraction,nSamples,accTrain,accCv"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0.50", "1.00"]
    for r in rows:
        assert int(r[1]) > 0
        assert all(0.0 <= float(v) <= 1.0 for v in r[2:])
