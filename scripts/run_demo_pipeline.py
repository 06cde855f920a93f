#!/usr/bin/env python3
"""Drive the full CLI pipeline over a small generated corpus.

Writes a 20-warning report, labels, and package metadata into --workdir,
then runs: ingest, split, featurize, train, evaluate, report, importance,
fuzz-validate, and triage. Every file it produces stays in the workdir for
inspection. The tests load `write_inputs`, `steps` and `OUTPUTS` from here
to drive the same pipeline.
"""

import argparse
import json
import sys
from pathlib import Path

from triagerl.cli import run_cli
from triagerl.synthetic import demo_corpus
from triagerl.warnings import write_label_sidecar

CONFIG = """\
seed = 7
cluster_radius = 10
backend = simulated
sim.p_crash_given_tp = 0.8
sim.p_crash_given_fp = 0.05
sim.seed = 11
train.epochs_max = 10
train.patience = 10
train.learning_rate = 0.001
"""

# Each file the steps write, by the name they use for it.
OUTPUTS = {"warnings": "warnings.jsonl", "splits": "splits.txt", "features": "features.jsonl",
           "manifest": "manifest.txt", "checkpoint": "model.ckpt", "trainlog": "train.log",
           "reportfile": "eval_report.txt", "verdicts": "verdicts.txt",
           "recomputed": "recomputed_report.txt", "importance": "importance.txt",
           "outcomes": "outcomes.txt", "triage": "triage_verdicts.txt"}


def steps(paths: dict) -> list[list[str]]:
    """The nine subcommands' argv lists, in pipeline order and without
    `--config`, on the files in `paths`: the inputs `report`, `labels` and
    `meta`, and each file named in OUTPUTS."""
    p = {name: str(path) for name, path in paths.items()}
    dataset = ["--warnings", p["warnings"], "--labels", p["labels"], "--splits", p["splits"],
               "--features", p["features"]]
    return [
        ["ingest", "--report", p["report"], "--out", p["warnings"]],
        ["split", "--warnings", p["warnings"], "--labels", p["labels"], "--out", p["splits"]],
        ["featurize", "--warnings", p["warnings"], "--meta", p["meta"],
         "--out", p["features"], "--export-manifest", p["manifest"]],
        ["train", *dataset, "--out", p["checkpoint"], "--log", p["trainlog"]],
        ["evaluate", "--checkpoint", p["checkpoint"], *dataset, "--split", "test",
         "--out", p["reportfile"], "--verdicts", p["verdicts"]],
        ["report", "--verdicts", p["verdicts"], "--labels", p["labels"], "--out", p["recomputed"]],
        ["importance", "--checkpoint", p["checkpoint"], *dataset, "--split", "test",
         "--repeats", "2", "--out", p["importance"]],
        ["fuzz-validate", "--warnings", p["warnings"], "--labels", p["labels"],
         "--out", p["outcomes"]],
        ["triage", "--report", p["report"], "--checkpoint", p["checkpoint"], "--meta", p["meta"],
         "--backend", "recorded", "--recorded", p["outcomes"], "--out", p["triage"]],
    ]


def write_inputs(root: Path, n: int, config: str) -> dict[str, Path]:
    """Write the `n`-warning demo report, its labels, its package metadata and
    the run config `config` into `root`; returns their paths by name."""
    root.mkdir(parents=True, exist_ok=True)
    report, labels, metadata = demo_corpus(n=n, seed=5)
    paths = {"report": root / "report.json", "labels": root / "labels.txt",
             "meta": root / "meta.json", "config": root / "run.cfg"}
    paths["report"].write_text(json.dumps(report, indent=1))
    paths["labels"].write_bytes(write_label_sidecar(labels))
    paths["meta"].write_text(json.dumps(metadata, indent=1))
    paths["config"].write_text(config)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_run")
    parser.add_argument("--n", type=int, default=20)
    args = parser.parse_args()

    root = Path(args.workdir)
    inputs = write_inputs(root, args.n, CONFIG)
    paths = {**inputs, **{name: root / file for name, file in OUTPUTS.items()}}
    cfg = ["--config", str(inputs["config"])]
    for argv in steps(paths):
        print(f"\n$ triagerl {' '.join(argv)}")
        code = run_cli(argv + cfg)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code
    print(f"\nall stages complete; outputs in {root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
