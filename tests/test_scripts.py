"""Smoke tests: the experiment scripts under scripts/ run to completion at tiny
sizes, and so does one short benchmark run. bench_pairs.py is checked on its
summary arithmetic."""

import json
import math
import os
import subprocess
import sys

import pytest

from conftest import ROOT, load_script


@pytest.mark.parametrize("script, args", [
    ("run_separable_experiment.py", ["--n", "60", "--epochs", "2"]),
    ("run_fuzz_value_experiment.py", ["--n", "60", "--epochs", "2"]),
    ("run_demo_pipeline.py", ["--n", "20"]),
    # A masked play that calls nothing TP has no F1: it prints as undefined.
    ("run_fuzz_value_experiment.py", ["--n", "40", "--epochs", "1", "--seed", "4"]),
    ("run_fuzz_value_experiment.py", ["--n", "40", "--epochs", "1", "--seed", "5"]),
])
def test_script_exits_0(script, args, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_demo_pipeline_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # One process per seed: in one process, set and dict orders cannot differ.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "2"):
        workdir = tmp_path / f"hash{seed}"
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_demo_pipeline.py"),
                               "--n", "40", "--workdir", str(workdir)], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path,
                                              "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in workdir.iterdir()})
    assert len(outputs[0]) == 16
    assert outputs[0] == outputs[1]


def test_benchmark_runs_and_checks_its_outputs():
    # Catches API changes that break the benchmark's entry points; checks no timing.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_ambiguity",
                           "--seed", "401", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_traced_benchmark_finds_the_layers_it_patches():
    # The tracer patches triagerl's functions by name; a renamed one reads 0 calls.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_ambiguity",
                           "--seed", "401", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] is True
    assert metrics["failed_share"] == 0
    assert metrics["trace.absent"] <= 7
    for layer in ("policy.forward", "trainer.ppo_loss_and_grads", "trainer.adam_step"):
        assert metrics[f"{layer}.calls"] > 0, layer


def test_bench_pairs_summary_counts_wins_by_direction():
    bench_pairs = load_script("bench_pairs")

    def pair(parent, change):
        return {side: {"result": {"metrics": {"t": {"value": v}}}}
                for side, v in (("parent", parent), ("change", change))}

    runs = [pair(1.0, 0.8), pair(1.2, 0.9), pair(0.9, 0.9), pair(1.1, 1.3), pair(1.0, 0.7)]
    lower = bench_pairs.summarize(runs, "t", "lower", 0.24)
    assert (lower["wins"], lower["pairs"]) == (3, 5)  # the tie counts for neither side
    assert lower["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.1, "n": 5}
    assert lower["change_over_parent"] == pytest.approx(0.9)
    assert lower["worse_by"] == pytest.approx(-0.1)
    assert lower["parent_iqr"] == pytest.approx(0.1) and lower["median_gap"] == pytest.approx(0.1)
    higher = bench_pairs.summarize(runs, "t", "higher", 0.24)
    assert higher["wins"] == 1 and higher["worse_by"] == pytest.approx(0.1)
    assert bench_pairs.seeds("401-403,409") == [401, 402, 403, 409]


def test_bench_pairs_summary_marks_a_spread_wider_than_the_bound_unresolved():
    bench_pairs = load_script("bench_pairs")

    def runs(parent, change):
        return [{side: {"result": {"metrics": {"t": {"value": v}}}}
                 for side, v in (("parent", p), ("change", c))} for p, c in zip(parent, change)]

    wide = [1.0, 1.4, 1.2, 0.8, 1.0]  # quartiles 1.0 and 1.2 about a median of 1.0
    narrow = [1.0, 1.02, 0.99, 1.01, 1.0]
    summary = bench_pairs.summarize(runs(wide, narrow), "t", "lower", 0.1)
    assert summary["spread"] == pytest.approx({"parent": 0.2, "change": 0.01})
    assert summary["unresolved"]  # 0.8 of the parent beats every change run
    assert not bench_pairs.summarize(runs(wide, narrow), "t", "lower", 0.25)["unresolved"]
    assert bench_pairs.summarize(runs(narrow, wide), "t", "lower", 0.1)["unresolved"]
    zero = [0.0, 0.0, 0.0, 0.1, 0.0]  # a median of 0 leaves the spread unknown
    summary = bench_pairs.summarize(runs(zero, narrow), "t", "lower", 0.1)
    assert math.isnan(summary["spread"]["parent"]) and summary["unresolved"]
    faster = [0.5, 0.7, 0.6, 0.4, 0.5]  # every change run beats every parent run
    assert not bench_pairs.summarize(runs(wide, faster), "t", "lower", 0.1)["unresolved"]
    assert bench_pairs.summarize(runs(wide, faster), "t", "higher", 0.1)["unresolved"]
    assert not bench_pairs.summarize(runs(faster, wide), "t", "higher", 0.1)["unresolved"]


def test_bench_pairs_summary_gives_unscaled_quartiles():
    bench_pairs = load_script("bench_pairs")

    def record(stages, unit):
        return {"record": {"raw_stage_s": stages, "reference_unit_s": {"median": unit, "p10": 0.0},
                           "hashes": {}},
                "result": {"metrics": {"t": {"value": 1.0}}, "correct": True, "failed": 0}}

    runs = [{"parent": record({"triage": 0.4, "setup": 2.0}, 1e-4),
             "change": record({"triage": 0.3}, 2e-4)},
            {"parent": record({"triage": 0.6, "setup": 3.0}, 3e-4),
             "change": record({"triage": 0.5}, 4e-4)}]
    block = bench_pairs.workload_block(runs, [{"name": "t", "better": "lower", "bound": 0.24}])
    parent, change = block["unscaled"]["parent"], block["unscaled"]["change"]
    assert parent["raw_stage_s"]["triage"] == {"median": 0.5, "q1": 0.45, "q3": 0.55, "n": 2}
    assert parent["raw_stage_s"]["setup"]["median"] == 2.5
    assert list(change["raw_stage_s"]) == ["triage"]
    assert change["raw_stage_s"]["triage"]["median"] == pytest.approx(0.4)
    assert parent["reference_unit_s"]["median"] == pytest.approx(2e-4)
    assert change["reference_unit_s"] == pytest.approx({"median": 3e-4, "q1": 2.5e-4,
                                                        "q3": 3.5e-4, "n": 2})


def test_bench_pairs_counts_package_source_lines(tmp_path):
    bench_pairs = load_script("bench_pairs")
    package = tmp_path / "src" / "triagerl"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n\n\n# no newline at the end")
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 5


def test_bench_pairs_counts_settable_values(tmp_path):
    bench_pairs = load_script("bench_pairs")
    package = tmp_path / "src" / "triagerl"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        "def f(a, b=1, *, c, d=2):\n"                        # b, d
        "    return lambda x, y=3: (lambda z=4: z)\n"        # y, z
        "@dataclass\n"
        "class A:\n"
        "    e: int\n"
        "    f: int = 5\n"                                   # f
        "    g: list = field(default_factory=list)\n"        # g
        "    h: int = field(init=False, default=0)\n"
        "    i = 6\n")
    (package / "b.py").write_text(
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    j: int = 7\n"                                   # j
        "    def method(self, k=8): ...\n"                   # k
        "class C:\n"
        "    l: int = 9\n")
    (tmp_path / "src" / "other.py").write_text("def g(m=10): ...\n")
    assert bench_pairs.settable_values(tmp_path) == 8
