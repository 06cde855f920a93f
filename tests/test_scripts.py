"""Smoke tests: every script under scripts/ runs to completion at tiny sizes,
and so does one short benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_separable_experiment.py", ["--n", "60", "--epochs", "2"]),
    ("run_fuzz_value_experiment.py", ["--n", "60", "--epochs", "2"]),
    ("run_demo_pipeline.py", ["--n", "20"]),
])
def test_script_exits_0(script, args, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_runs_and_checks_its_outputs():
    # Catches API changes that break the benchmark's entry points; checks no timing.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_ambiguity",
                           "--seed", "401", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
