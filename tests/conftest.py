"""Shared fixtures: the demo corpus pipeline used by CLI and acceptance tests."""

import hashlib
import importlib.util
import json
from pathlib import Path

from triagerl.cli import run_cli
from triagerl.synthetic import demo_corpus
from triagerl.warnings import write_label_sidecar

ROOT = Path(__file__).resolve().parent.parent


def load_script(name, directory="scripts"):
    """The module of `<directory>/<name>.py`."""
    spec = importlib.util.spec_from_file_location(name, ROOT / directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DEMO_SCRIPT = load_script("run_demo_pipeline")

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
    names them, writing under `root` with the demo script's steps; returns
    input and output paths."""
    paths = {**inputs, **{name: root / file for name, file in DEMO_SCRIPT.OUTPUTS.items()}}
    for argv in DEMO_SCRIPT.steps(paths):
        code = run_cli(argv + ["--config", str(inputs["config"])])
        assert code == 0, f"{argv[0]} exited {code}"
    return paths
