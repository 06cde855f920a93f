"""Shared fixtures: the demo corpus pipeline used by CLI and acceptance tests."""

import hashlib
import json
from pathlib import Path

from triagerl.cli import run_cli
from triagerl.synthetic import demo_corpus
from triagerl.warnings import write_label_sidecar

DEMO_CONFIG = """\
seed = 7
cluster_radius = 10
backend = simulated
sim.p_crash_given_tp = 0.8
sim.p_crash_given_fp = 0.05
sim.p_inconclusive = 0.25
sim.seed = 11
train.epochs_max = 3
train.patience = 3
train.learning_rate = 0.001
"""


def with_keys(config: str, lines: str) -> str:
    """`config` with each `key = value` line of `lines` in place of the line
    that sets its key, or appended where no line does: a config file states a
    key once."""
    out = config.splitlines()
    for line in lines.splitlines():
        key = line.split("=", 1)[0].strip()
        at = [i for i, old in enumerate(out) if old.split("=", 1)[0].strip() == key]
        if at:
            out[at[0]] = line
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_demo_inputs(root: Path, n: int = 20) -> dict[str, Path]:
    root.mkdir(parents=True, exist_ok=True)
    report, labels, metadata = demo_corpus(n=n, seed=5)
    paths = {
        "report": root / "report.json",
        "labels": root / "labels.txt",
        "meta": root / "meta.json",
        "config": root / "run.cfg",
    }
    paths["report"].write_bytes(json.dumps(report, indent=1).encode("utf-8"))
    paths["labels"].write_bytes(write_label_sidecar(labels))
    paths["meta"].write_bytes(json.dumps(metadata, indent=1).encode("utf-8"))
    paths["config"].write_text(DEMO_CONFIG)
    return paths


def run_demo_pipeline(root: Path) -> dict[str, Path]:
    """Drive every subcommand over the 20-warning corpus; returns output paths."""
    return run_pipeline(write_demo_inputs(root), root)


def run_pipeline(inputs: dict[str, Path], root: Path) -> dict[str, Path]:
    """Drive every subcommand over `inputs`, named as `write_demo_inputs`
    names them, writing under `root`; returns input and output paths."""
    out = {
        "warnings": root / "warnings.jsonl",
        "splits": root / "splits.txt",
        "features": root / "features.jsonl",
        "manifest": root / "manifest.txt",
        "checkpoint": root / "model.ckpt",
        "trainlog": root / "train.log",
        "reportfile": root / "eval_report.txt",
        "verdicts": root / "verdicts.txt",
        "recomputed": root / "recomputed_report.txt",
        "importance": root / "importance.txt",
        "outcomes": root / "outcomes.txt",
        "triage": root / "triage_verdicts.txt",
    }
    cfg = ["--config", str(inputs["config"])]
    steps = [
        ["ingest", "--report", str(inputs["report"]), "--out", str(out["warnings"])],
        ["split", "--warnings", str(out["warnings"]), "--labels", str(inputs["labels"]),
         "--out", str(out["splits"])],
        ["featurize", "--warnings", str(out["warnings"]), "--meta", str(inputs["meta"]),
         "--out", str(out["features"]), "--export-manifest", str(out["manifest"])],
        ["train", "--warnings", str(out["warnings"]), "--labels", str(inputs["labels"]),
         "--splits", str(out["splits"]), "--features", str(out["features"]),
         "--out", str(out["checkpoint"]), "--log", str(out["trainlog"])],
        ["evaluate", "--checkpoint", str(out["checkpoint"]), "--warnings", str(out["warnings"]),
         "--labels", str(inputs["labels"]), "--splits", str(out["splits"]),
         "--features", str(out["features"]), "--split", "test",
         "--out", str(out["reportfile"]), "--verdicts", str(out["verdicts"])],
        ["report", "--verdicts", str(out["verdicts"]), "--labels", str(inputs["labels"]),
         "--out", str(out["recomputed"])],
        ["importance", "--checkpoint", str(out["checkpoint"]), "--warnings", str(out["warnings"]),
         "--labels", str(inputs["labels"]), "--splits", str(out["splits"]),
         "--features", str(out["features"]), "--split", "test", "--repeats", "2",
         "--out", str(out["importance"])],
        ["fuzz-validate", "--warnings", str(out["warnings"]), "--labels", str(inputs["labels"]),
         "--out", str(out["outcomes"])],
        ["triage", "--report", str(inputs["report"]), "--checkpoint", str(out["checkpoint"]),
         "--meta", str(inputs["meta"]), "--backend", "recorded",
         "--recorded", str(out["outcomes"]), "--out", str(out["triage"])],
    ]
    for argv in steps:
        code = run_cli(argv + cfg)
        assert code == 0, f"{argv[0]} exited {code}"
    return {**inputs, **out}
