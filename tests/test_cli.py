"""Command-line surface: pipeline wiring, exit codes, determinism."""

import gc
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagerl import cli
from triagerl import fuzz as fuzz_mod
from triagerl.cli import CONFIG_KEYS, build_run_config, config_digest, parse_config_file, run_cli
from triagerl.env import RewardSpec
from triagerl.errors import InputError
from triagerl.evaluate import evaluate_checkpoint
from triagerl.features import MANIFEST, NormalizerStats, read_feature_sidecar
from triagerl.fuzz import SLOT_OF, FuzzKind, read_recorded_outcomes
from triagerl.metrics import read_verdicts, write_report
from triagerl.policy import init_params
from triagerl.trainer import PolicyCheckpoint, TrainConfig, load_checkpoint, save_checkpoint
from triagerl.warnings import (REPORT_FIELDS, Dataset, Split, apply_labels, parse_report,
                               read_label_sidecar, read_split_file, read_warning_store,
                               write_label_sidecar)

from conftest import (DEMO_CONFIG, DEMO_SCRIPT, run_demo_pipeline, run_pipeline, sha256,
                      with_keys, write_demo_inputs)
from test_fuzz import fake_cmd, panic_warning

# Stand-in fuzzer: logs its arguments, then reports an outcome chosen by the
# last hex digit of the harness file name (harness_<id>.rs).
FAKE_FUZZER = """\
echo "$@" >> {log}
case "$1" in
    *[0-5].rs) echo "thread 'main' panicked at src/lib.rs:3:5"; exit 101 ;;
    *[6-9].rs) exit 0 ;;
    *) exit 3 ;;
esac
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    return run_demo_pipeline(root)


class TestPipeline:
    def test_triage_emits_one_line_per_warning(self, pipeline):
        lines = pipeline["triage"].read_text().strip().split("\n")
        report = json.loads(pipeline["report"].read_text())
        assert len(lines) == len(report) == 20

    def test_recomputed_report_matches_evaluate(self, pipeline):
        assert pipeline["recomputed"].read_bytes() == pipeline["reportfile"].read_bytes()

    def test_training_log_one_line_per_epoch(self, pipeline):
        lines = pipeline["trainlog"].read_text().strip().split("\n")
        assert len(lines) == 3
        assert all("val_f1=" in ln and "fuzz_rate=" in ln for ln in lines)

    def test_manifest_export_written(self, pipeline):
        assert pipeline["manifest"].read_text().count("\n") == 88

    def test_split_file_header_records_seed(self, pipeline):
        assert pipeline["splits"].read_text().startswith("# seed=7 ratios=0.7,0.15,0.15")

    def test_inputs_never_mutated(self, tmp_path):
        inputs = write_demo_inputs(tmp_path / "mut")
        before = {name: sha256(p) for name, p in inputs.items()}
        run_demo_pipeline(tmp_path / "mut")
        after = {name: sha256(p) for name, p in inputs.items()}
        assert before == after

    def test_triage_unlabeled_with_simulated_backend(self, pipeline, tmp_path):
        # No labels: the simulated oracle degrades any fuzz call to an
        # infrastructure-failure encoding instead of raising.
        out = tmp_path / "unlabeled_verdicts.txt"
        code = run_cli([
            "triage", "--report", str(pipeline["report"]),
            "--checkpoint", str(pipeline["checkpoint"]),
            "--meta", str(pipeline["meta"]), "--out", str(out),
            "--config", str(pipeline["config"]),
        ])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 20

    def test_a_warning_alone_gets_its_line_in_the_full_report(self, pipeline, tmp_path):
        # Each demo warning sits in a file of its own, so neither its feature
        # row nor, then, its verdict depends on the rest of the report.
        def triage(name, report):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.txt"
            path.write_text(json.dumps(report))
            argv = subcommand({**pipeline, "report": path}, "triage", out)
            assert run_cli([*argv, "--meta", str(pipeline["meta"])]) == 0
            return out.read_text().splitlines()

        report = json.loads(pipeline["report"].read_text())
        full = triage("full", report)
        assert [line for i, obj in enumerate(report) for line in triage(f"alone{i}", [obj])] == full

    def test_end_to_end_byte_determinism(self, tmp_path):
        a = run_demo_pipeline(tmp_path / "a")
        b = run_demo_pipeline(tmp_path / "b")
        for name in ("warnings", "splits", "features", "manifest", "checkpoint",
                     "trainlog", "reportfile", "verdicts", "recomputed",
                     "importance", "outcomes", "triage"):
            assert a[name].read_bytes() == b[name].read_bytes(), f"{name} differs"


def biased_checkpoint(path, logits):
    """A checkpoint whose policy has the action logits `logits` in every state."""
    params = init_params(len(MANIFEST) + 6, hidden=(8, 6), dropout_rate=0.0, seed=0)
    params.flat[:] = 0.0
    params.b_pi[:] = logits
    normalizer = NormalizerStats(mean=np.zeros(len(MANIFEST)), std=np.ones(len(MANIFEST)))
    path.write_bytes(save_checkpoint(PolicyCheckpoint(
        params, normalizer, TrainConfig(), RewardSpec(), [])))
    return path


def always_fuzz_checkpoint(path):
    """A checkpoint whose policy fuzzes every warning, then calls it a TP."""
    return biased_checkpoint(path, [1.0, 0.0, 5.0])


class TestFuzzFanOut:
    def triage(self, pipeline, tmp_path, name, **config):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        out = tmp_path / f"{name}.txt"
        code = run_cli([
            "triage", "--report", str(pipeline["report"]),
            "--checkpoint", str(always_fuzz_checkpoint(tmp_path / "fuzz.ckpt")),
            "--meta", str(pipeline["meta"]), "--out", str(out), "--config", str(cfg),
        ])
        assert code == 0
        return out.read_bytes()

    def external(self, tmp_path, log):
        return {"backend": "external",
                "external_command": fake_cmd(tmp_path, "fuzzer.sh", FAKE_FUZZER.format(log=log))}

    def test_fuzz_budget_reaches_triage_fuzz_calls(self, pipeline, tmp_path):
        log = tmp_path / "args.log"
        self.triage(pipeline, tmp_path, "budget", fuzz_budget=33, **self.external(tmp_path, log))
        calls = log.read_text().splitlines()
        assert calls and all(line.endswith("--budget 33") for line in calls)

    def test_verdicts_identical_for_one_and_four_jobs(self, pipeline, tmp_path):
        backends = {
            "recorded": {"backend": "recorded", "recorded_path": pipeline["outcomes"]},
            "external": self.external(tmp_path, tmp_path / "args.log"),
        }
        for name, backend in backends.items():
            one = self.triage(pipeline, tmp_path, f"{name}1", jobs=1, **backend)
            four = self.triage(pipeline, tmp_path, f"{name}4", jobs=4, **backend)
            assert one == four, name
            kinds = {line.split("\t")[4] for line in one.decode().splitlines()}
            assert len(kinds) >= 2 and "-" not in kinds, name

    def test_fuzz_validate_identical_for_one_and_four_jobs(self, pipeline, tmp_path):
        # The simulated backend's draws are memoized by the one instance all jobs share.
        outputs = []
        for jobs in (1, 4):
            out = tmp_path / f"outcomes{jobs}.txt"
            code = run_cli(["fuzz-validate", "--warnings", str(pipeline["warnings"]),
                            "--labels", str(pipeline["labels"]), "--jobs", str(jobs),
                            "--out", str(out), "--config", str(pipeline["config"])])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len({line.split("\t")[1] for line in outputs[0].decode().splitlines()}) >= 2

    def test_evaluate_identical_for_one_and_four_jobs(self, pipeline, tmp_path):
        ckpt = always_fuzz_checkpoint(tmp_path / "fuzz.ckpt")
        outputs = []
        for jobs in (1, 4):
            report, verdicts = tmp_path / f"report{jobs}.txt", tmp_path / f"verdicts{jobs}.txt"
            assert run_cli(["evaluate",
                            "--checkpoint", str(ckpt), "--warnings", str(pipeline["warnings"]),
                            "--labels", str(pipeline["labels"]), "--splits", str(pipeline["splits"]),
                            "--features", str(pipeline["features"]), "--jobs", str(jobs),
                            "--out", str(report), "--verdicts", str(verdicts),
                            "--config", str(pipeline["config"])]) == 0
            outputs.append((report.read_bytes(), verdicts.read_bytes()))
        assert outputs[0] == outputs[1]
        assert len({line.split("\t")[4] for line in outputs[0][1].decode().splitlines()}) >= 2

    def test_fuzz_validate_runs_each_listed_id_once(self, pipeline, tmp_path, monkeypatch):
        calls = []
        run = fuzz_mod.SimulatedBackend.run

        def counting(backend, warning, label):
            calls.append(warning.id)
            return run(backend, warning, label)

        monkeypatch.setattr(fuzz_mod.SimulatedBackend, "run", counting)
        store = pipeline["warnings"].read_bytes()
        a, b = (r.id for r in read_warning_store(store, "warning store")[:2])
        out = tmp_path / "outcomes.txt"
        assert run_cli(["fuzz-validate", "--warnings", str(pipeline["warnings"]),
                        "--labels", str(pipeline["labels"]), "--ids", f"{a},{b},{a}",
                        "--out", str(out), "--config", str(pipeline["config"])]) == 0
        assert calls == [a, b]  # each distinct id once, in first-seen order
        assert [line.split("\t")[0] for line in out.read_text().splitlines()] == [a, b]

    @pytest.mark.parametrize("command", ["triage", "evaluate"])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_missing_recording_exits_3_naming_the_warning(self, pipeline, tmp_path, capsys,
                                                           command, jobs):
        # Every warning fuzzes, the test split's first among them.
        wid = next(line.split("\t")[0] for line in pipeline["splits"].read_text().splitlines()
                   if line.endswith("\ttest"))
        outcomes = tmp_path / "outcomes.txt"
        outcomes.write_text("".join(line for line in pipeline["outcomes"].read_text().splitlines(True)
                                    if not line.startswith(f"{wid}\t")))
        paths = {**pipeline, "checkpoint": always_fuzz_checkpoint(tmp_path / "fuzz.ckpt")}
        out = tmp_path / "out.txt"
        assert run_cli([*subcommand(paths, command, out), "--backend", "recorded",
                        "--recorded", str(outcomes), "--jobs", str(jobs)]) == 3
        source = pipeline["report" if command == "triage" else "warnings"]
        assert (capsys.readouterr().err
                == f"input error: {outcomes}: no recorded outcome for {source}'s warning {wid}\n")
        assert not out.exists()

    def test_missing_recording_names_the_report_its_warning_came_from(self, pipeline, tmp_path,
                                                                      capsys):
        # An edited description gives the warning a new id, which no recording holds.
        report = json.loads(pipeline["report"].read_text())
        report[0]["description"] += " (edited)"
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(report))
        wid = parse_report(bad.read_bytes(), str(bad))[0].id
        paths = {**pipeline, "report": bad,
                 "checkpoint": always_fuzz_checkpoint(tmp_path / "fuzz.ckpt")}
        assert run_cli(subcommand(paths, "triage", tmp_path / "out.txt")) == 3
        assert (capsys.readouterr().err == f"input error: {pipeline['outcomes']}: "
                f"no recorded outcome for {bad}'s warning {wid}\n")

    def test_backend_error_is_an_infrastructure_failure_in_fuzz_validate(
            self, pipeline, tmp_path, monkeypatch):
        def broken(backend, warning, label):
            raise RuntimeError("toolchain missing")

        monkeypatch.setattr(fuzz_mod.SimulatedBackend, "run", broken)
        out = tmp_path / "outcomes.txt"
        assert run_cli(["fuzz-validate", "--warnings", str(pipeline["warnings"]),
                        "--labels", str(pipeline["labels"]), "--out", str(out),
                        "--config", str(pipeline["config"])]) == 0
        lines = out.read_text().splitlines()
        assert lines and all(line.split("\t", 1)[1] == "infrastructure_failure\t0.0\t"
                             "backend error: toolchain missing" for line in lines)

    def test_one_job_builds_no_pool(self, pipeline, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(fuzz_mod, "ThreadPoolExecutor", no_pool)
        self.triage(pipeline, tmp_path, "inline", jobs=1, **self.external(tmp_path, tmp_path / "a"))

    def test_fuzz_dominant_checkpoint_fuzzes_every_warning(self, pipeline, tmp_path):
        # The fuzz logit exceeds both classify logits by more than exp() spans.
        out = tmp_path / "v.txt"
        code = run_cli([
            "triage", "--report", str(pipeline["report"]),
            "--checkpoint", str(biased_checkpoint(tmp_path / "c.ckpt", [0.0, 0.0, 800.0])),
            "--backend", "recorded", "--recorded", str(pipeline["outcomes"]), "--out", str(out),
        ])
        assert code == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert rows and all(r[3] == "1" and float(r[2]) == 0.5 for r in rows)

    @pytest.mark.parametrize("command, fault", [
        ('"unclosed', "cannot be split: No closing quotation"),
        ("", "is empty"),
    ], ids=["unclosed-quote", "empty"])
    def test_unsplittable_command_exits_3_naming_it(self, pipeline, tmp_path, capsys, command,
                                                    fault):
        cfg = tmp_path / "external.cfg"
        cfg.write_text(f"backend = external\nexternal_command = {command}\n")
        out = tmp_path / "outcomes.txt"
        code = run_cli(["fuzz-validate", "--warnings", str(pipeline["warnings"]),
                        "--out", str(out), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err == f"input error: external_command {fault}\n"
        assert not out.exists()


class TestMaskFuzz:
    """`--mask-fuzz` is the RL-only ablation: the policy never fuzzes, so no
    backend is built and no backend input is read."""

    @pytest.mark.parametrize("flags", [["--backend", "recorded"],
                                       ["--backend", "external", "--templates", "no-such-dir"]],
                             ids=["recorded-without-path", "templates-missing"])
    def test_triage_reads_no_backend_input(self, pipeline, tmp_path, capsys, flags):
        out = tmp_path / "verdicts.txt"
        code = run_cli(["triage", "--report", str(pipeline["report"]),
                        "--checkpoint", str(always_fuzz_checkpoint(tmp_path / "fuzz.ckpt")),
                        "--meta", str(pipeline["meta"]), "--mask-fuzz", *flags,
                        "--out", str(out), "--config", str(pipeline["config"])])
        assert code == 0, capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 20 and all(line.endswith("\t0\t-") for line in lines)

    def test_evaluate_writes_the_masked_report(self, pipeline, tmp_path):
        ckpt = always_fuzz_checkpoint(tmp_path / "fuzz.ckpt")
        out = tmp_path / "report.txt"
        argv = subcommand({**pipeline, "checkpoint": ckpt}, "evaluate", out)
        assert run_cli([*argv, "--mask-fuzz", "--backend", "recorded"]) == 0
        records = read_warning_store(pipeline["warnings"].read_bytes(), "warnings")
        apply_labels(records, read_label_sidecar(pipeline["labels"].read_bytes(), "labels"))
        dataset = Dataset(records, read_split_file(pipeline["splits"].read_bytes(), "splits"),
                          "labels")
        report, _ = evaluate_checkpoint(load_checkpoint(ckpt.read_bytes(), "checkpoint"),
                                        dataset.split_records(Split.TEST),
                                        read_feature_sidecar(pipeline["features"].read_bytes(),
                                                             "features"), None, mask_fuzz=True)
        assert out.read_bytes() == write_report(report)


class TestHarnessTemplates:
    """Templates are input files, checked once, when the external backend loads them."""

    def fuzz_validate(self, tmp_path, warnings, templates=fuzz_mod.DEFAULT_TEMPLATE_DIR):
        """Exit code of `fuzz-validate` on the store `warnings` with the external
        backend, a fuzzer that exits 0 and the templates in `templates`."""
        cfg = tmp_path / "external.cfg"
        cfg.write_text("backend = external\n"
                       f"external_command = {fake_cmd(tmp_path, 'fuzzer.sh', 'exit 0')}\n")
        return run_cli(["fuzz-validate", "--warnings", str(warnings), "--templates", str(templates),
                        "--out", str(tmp_path / "outcomes.txt"), "--config", str(cfg)])

    @pytest.fixture
    def templates(self, tmp_path):
        """A copy of the built-in templates and the path of its panic-safety template."""
        directory = tmp_path / "templates"
        shutil.copytree(fuzz_mod.DEFAULT_TEMPLATE_DIR, directory)
        return directory, directory / "panic_safety.tmpl"

    @pytest.mark.parametrize("line", ['const OPEN: &str = "{{";', "{{nope}}();"],
                             ids=["bare", "unknown-name"])
    def test_stray_braces_exit_3_naming_file_and_line(self, pipeline, tmp_path, capsys,
                                                      templates, line):
        directory, path = templates
        first, rest = path.read_text().split("\n", 1)
        path.write_text(f"{first}\n{line}\n{rest}")
        assert self.fuzz_validate(tmp_path, pipeline["warnings"], directory) == 3
        assert capsys.readouterr().err == (
            f"input error: {path} line 2: '{{{{' opens no placeholder; they are {{{{package}}}}, "
            "{{function}}, {{type_args}} and {{entry}}\n")

    def test_template_that_is_not_utf8_exits_3_naming_file_and_line(self, pipeline, tmp_path,
                                                                      capsys, templates):
        directory, path = templates
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
        assert self.fuzz_validate(tmp_path, pipeline["warnings"], directory) == 3
        assert capsys.readouterr().err == (
            f"input error: {path} line 2: not UTF-8: invalid start byte\n")

    def test_template_that_is_a_directory_exits_3_naming_it(self, pipeline, tmp_path, capsys,
                                                            templates):
        directory, path = templates
        path.unlink()
        path.mkdir()
        assert self.fuzz_validate(tmp_path, pipeline["warnings"], directory) == 3
        assert capsys.readouterr().err == (
            f"input error: input file cannot be read: {path}: Is a directory\n")

    def test_directory_without_templates_exits_3_naming_it(self, pipeline, tmp_path, capsys):
        directory = tmp_path / "templates"
        directory.mkdir()
        (directory / "panic-safety.tmpl").write_bytes(
            (fuzz_mod.DEFAULT_TEMPLATE_DIR / "panic_safety.tmpl").read_bytes())
        assert self.fuzz_validate(tmp_path, pipeline["warnings"], directory) == 3
        assert capsys.readouterr().err == (
            "input error: templates_dir holds none of panic_safety.tmpl, "
            f"higher_order_invariant.tmpl, send_sync_variance.tmpl: {directory}\n")
        assert not (tmp_path / "outcomes.txt").exists()

    def test_a_pattern_without_its_template_fails_only_its_fuzz_runs(self, pipeline, tmp_path,
                                                                     capsys, templates):
        directory, path = templates
        path.unlink()
        assert self.fuzz_validate(tmp_path, pipeline["warnings"], directory) == 0
        details = {line.split("\t")[3]
                   for line in (tmp_path / "outcomes.txt").read_text().splitlines()}
        assert "harness generation: no harness template for pattern 'panic_safety'" in details
        assert "clean run" in details

    def test_braces_in_a_warning_are_rendered_as_text(self, tmp_path, capsys):
        # The package binding is "{{vecutils": a binding is text, not a placeholder.
        warning = panic_warning()
        obj = {name: getattr(warning, name) for name in REPORT_FIELDS}
        store = tmp_path / "warnings.jsonl"
        store.write_text(json.dumps({**obj, "level": warning.level.value,
                                     "file": "{{" + warning.file}) + "\n")
        assert self.fuzz_validate(tmp_path, store) == 0, capsys.readouterr().err
        rows = [line.split("\t") for line in (tmp_path / "outcomes.txt").read_text().splitlines()]
        assert [(row[1], row[3]) for row in rows] == [("clean", "clean run")]


def subcommand(paths, command, out):
    """argv of `command` run on the pipeline files in `paths`."""
    p = {k: str(v) for k, v in paths.items()}
    data = ["--warnings", p["warnings"], "--labels", p["labels"], "--splits", p["splits"],
            "--features", p["features"]]
    argv = {
        "ingest": ["--report", p["report"]],
        "split": ["--warnings", p["warnings"], "--labels", p["labels"]],
        "featurize": ["--warnings", p["warnings"], "--meta", p["meta"]],
        "train": data,
        "evaluate": ["--checkpoint", p["checkpoint"], *data],
        "importance": ["--checkpoint", p["checkpoint"], *data],
        "report": ["--verdicts", p["verdicts"], "--labels", p["labels"]],
        "triage": ["--report", p["report"], "--checkpoint", p["checkpoint"],
                   "--backend", "recorded", "--recorded", p["outcomes"]],
        "fuzz-validate": ["--warnings", p["warnings"]],
    }[command]
    return [command, *argv, "--out", str(out), "--config", p["config"]]


def cli_env(**env):
    """The environment with `src` on the module path and `env` added."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def cli_process(argv, **env):
    """The finished `triagerl` process run on `argv`, with `env` added to the environment."""
    return subprocess.run([sys.executable, "-m", "triagerl.cli", *argv], capture_output=True,
                          text=True, env=cli_env(**env))


def test_scores_identical_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when numpy loads: a process per count.
    # 1,400-odd train rows make the trunk's products large enough to thread.
    inputs = write_demo_inputs(tmp_path, n=2000)
    paths = run_pipeline(inputs, tmp_path)
    outputs = []
    for threads in ("1", "2"):
        report, verdicts = tmp_path / f"report{threads}.txt", tmp_path / f"verdicts{threads}.txt"
        argv = subcommand(paths, "evaluate", report)
        proc = cli_process([*argv, "--split", "train", "--verdicts", str(verdicts)],
                           OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append((report.read_bytes(), verdicts.read_bytes()))
    assert outputs[0] == outputs[1]


def test_checkpoints_identical_at_one_and_two_blas_threads(tmp_path):
    # Minibatches of 700 rows: a gradient's plain sum over them rounds otherwise on two threads.
    inputs = write_demo_inputs(tmp_path, n=2000)
    inputs["config"].write_text(with_keys(DEMO_CONFIG, "train.minibatch_size = 700\n"))
    cfg = ["--config", str(inputs["config"])]
    paths = {**inputs, **{name: tmp_path / file for name, file in DEMO_SCRIPT.OUTPUTS.items()}}
    for argv in DEMO_SCRIPT.steps(paths)[:3]:  # ingest, split and featurize
        assert run_cli(argv + cfg) == 0
    checkpoints = []
    for threads in ("1", "2"):
        trained = {**paths, "checkpoint": tmp_path / f"model{threads}.ckpt",
                   "trainlog": tmp_path / f"train{threads}.log"}
        proc = cli_process(DEMO_SCRIPT.steps(trained)[3] + cfg, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        checkpoints.append(trained["checkpoint"].read_bytes())
    assert checkpoints[0] == checkpoints[1]


# The subcommand that reads each pipeline file.
# The shared flags each subcommand reads; it accepts no other.
FUZZING = {"--config", "--seed", "--backend", "--recorded", "--templates"}
READS = {
    "ingest": {"--config"},
    "split": {"--config", "--seed"},
    "featurize": {"--config"},
    "train": FUZZING,
    "evaluate": {*FUZZING, "--jobs"},
    "triage": {*FUZZING, "--jobs"},
    "fuzz-validate": {*FUZZING, "--jobs"},
    "importance": {"--config", "--seed"},
    "report": {"--config"},
}
SHARED_VALUES = {"--config": "run.cfg", "--seed": "1", "--backend": "simulated",
                 "--recorded": "outcomes.txt", "--templates": "templates", "--jobs": "2"}


@pytest.mark.parametrize("command", list(READS))
def test_each_subcommand_takes_only_the_shared_flags_it_reads(pipeline, tmp_path, capsys,
                                                              command):
    argv = subcommand(pipeline, command, tmp_path / "out")
    for flag, value in SHARED_VALUES.items():
        if flag in READS[command]:
            assert cli.build_parser().parse_args([*argv, flag, value]).func.__name__ == \
                f"cmd_{command.replace('-', '_')}"
        else:
            assert run_cli([*argv, flag, value]) == 2, flag
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


READER = {"report": "ingest", "warnings": "split", "labels": "report", "verdicts": "report",
          "config": "report", "splits": "evaluate", "features": "evaluate",
          "checkpoint": "evaluate", "outcomes": "triage", "meta": "featurize"}


def run_with(pipeline, tmp_path, name, data, command=None, flags=()):
    """Exit code of `command` (default: the reader of pipeline file `name`)
    run with `data` in place of that file and `flags` appended, and the path
    of the stand-in."""
    bad = tmp_path / f"bad_{pipeline[name].name}"
    bad.write_bytes(data)
    argv = subcommand({**pipeline, name: bad}, command or READER[name], tmp_path / "out")
    return run_cli([*argv, *flags]), bad


# How a training run that diverged names what to change.
SCALES_LOSS = ("train.learning_rate, train.value_loss_weight, train.entropy_weight and the "
               "reward.* constants scale the loss")


# Numbers that fit no float, round to 0, or sit at the ends of the float range.
EXTREMES = [b"1e308", b"-1e308", b"5e-324", b"1" + b"0" * 399]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def first_verdict_fuzzed(flag, kind):
    """An edit that gives the first verdict of a verdicts file the fuzz flag
    `flag` and the fuzz kind `kind`."""
    def edit(text):
        first, rest = text.split("\n", 1)
        return "\t".join([*first.split("\t")[:3], flag, kind]) + "\n" + rest
    return edit


def with_long_integer(key):
    """An edit that gives the first `key` of a JSON file a 5,000-digit integer,
    longer than `json.loads` converts."""
    return lambda text: re.sub(rf'"{key}": \d+', f'"{key}": 1' + "0" * 4999, text, count=1)


def with_lone_surrogate(key):
    """An edit that starts the first `key` string of a JSON file with a "\\ud800" escape."""
    return lambda text: text.replace(f'"{key}": "', f'"{key}": "\\ud800', 1)


def first_warning_with(**fields):
    """An edit that sets `fields` in the first object of a JSON report."""
    def edit(text):
        doc = json.loads(text)
        doc[0] = {**doc[0], **fields}
        return json.dumps(doc)
    return edit


def nested_too_deep(text):
    """JSON nested deeper than `json.loads` recurses."""
    return "[" * 100_000


def first_outcome_elapsed(elapsed):
    """An edit that gives the first line of a recorded outcomes file the elapsed time `elapsed`."""
    def edit(text):
        first, rest = text.split("\n", 1)
        wid, kind, _, detail = first.split("\t", 3)
        return "\t".join([wid, kind, elapsed, detail]) + "\n" + rest
    return edit


def with_twin_of_first_warning(text):
    """A warning store with a copy of its first warning, whose snippet (not
    part of the id) is another: one id, two feature rows."""
    twin = {**json.loads(text.split("\n", 1)[0]), "code_snippet": "fn other() {}"}
    return text + json.dumps(twin) + "\n"


def keep_one_train_record(text):
    first, rest = text.split("\ttrain", 1)
    return first + "\ttrain" + rest.replace("\ttrain", "\tval")


def first_verdict_scored(score):
    """An edit that gives the first verdict of a verdicts file the score `score`."""
    def edit(text):
        first, rest = text.split("\n", 1)
        parts = first.split("\t")
        return "\t".join([*parts[:2], score, *parts[3:]]) + "\n" + rest
    return edit


# Warnings of the demo pipeline: the train split's first, the test split's
# first (evaluate's first verdict), and the first that triage fuzzes.
TRAIN_ID, TEST_ID, FUZZED_ID = "40e8825b9d1bf79f", "4dcfe472cb10b674", "64545d2592b038cc"


def with_first_id(wid, after=0):
    """An edit that gives the first line after `after` header lines of a
    `<id>\t<fields>` line file the id `wid`."""
    def edit(text):
        lines = text.split("\n")
        lines[after] = wid + lines[after][lines[after].index("\t"):]
        return "\n".join(lines)
    return edit


def without_lines_holding(wid):
    """An edit that drops every line of a line file that holds `wid`."""
    return lambda text: "".join(line for line in text.splitlines(True) if wid not in line)


class TestMalformedInputs:
    @pytest.mark.parametrize("name, corrupt, where", [
        ("warnings", lambda lines: [lines[0], lines[1][:-9], *lines[2:]], "line 2"),
        ("splits", lambda lines: ["# seed=abc ratios=0.7,0.15,0.15", *lines[1:]], "line 1"),
        ("verdicts", lambda lines: [*lines[:2], "\t".join(lines[2].split("\t")[:2]), *lines[3:]],
         "line 3"),
        ("checkpoint", lambda lines: [lines[0][:5000]], "line 1"),
        ("checkpoint", lambda lines: [lines[0].replace('"weights"', '"wheights"')], "'weights'"),
        ("meta", lambda lines: [re.sub(r'"downloads": \d+', '"downloads": "many"', "\n".join(lines),
                                       count=1)], "downloads"),
        ("config", lambda lines: ["seed = x", *lines[1:]], "line 1"),
        ("checkpoint", lambda lines: [re.sub(r'"learning_rate":[^,]+', '"learning_rate":NaN',
                                             lines[0])], "learning_rate must be finite"),
    ])
    def test_malformed_file_exits_3_naming_file_and_place(self, pipeline, tmp_path, capsys,
                                                           name, corrupt, where):
        lines = pipeline[name].read_text().split("\n")
        code, bad = run_with(pipeline, tmp_path, name, "\n".join(corrupt(lines)).encode())
        err = capsys.readouterr().err
        assert code == 3, err
        assert str(bad) in err and where in err, err

    @pytest.mark.parametrize("name", list(READER))
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_corrupted_file_exits_0_or_3(self, pipeline, tmp_path_factory, name, data):
        original = pipeline[name].read_bytes()
        pos = data.draw(st.integers(0, len(original) - 1), label="position")
        byte = data.draw(st.sampled_from(b'x{}[]",:\t\n#=.-9 \\'), label="byte")
        start, end = data.draw(st.sampled_from([m.span() for m in NUMBER.finditer(original)]),
                               label="number")
        extreme = data.draw(st.sampled_from(EXTREMES), label="extreme")
        corrupted = data.draw(st.sampled_from([
            original[:pos],
            original[:pos] + original[pos + 1:],
            original[:pos] + bytes([byte]) + original[pos + 1:],
            original[:start] + extreme + original[end:],
        ]), label="corrupted")
        code, _ = run_with(pipeline, tmp_path_factory.mktemp("corrupt"), name, corrupted)
        assert code in (0, 3)

    @pytest.mark.parametrize("command, name, edit, flags, code, named", [
        ("train", "config", lambda t: with_keys(t, "train.dropout_rate = 1.5\n"), [], 3,
         "{bad}: train.dropout_rate must be in [0,1), got 1.5"),
        ("train", "config", lambda t: with_keys(t, "train.dropout_rate = nan\n"), [], 3,
         "{bad}: train.dropout_rate must be finite, got nan"),
        ("train", "config", lambda t: with_keys(t, "train.learning_rate = nan\n"), [], 3,
         "{bad}: train.learning_rate must be finite, got nan"),
        ("train", "config", lambda t: with_keys(t, "reward.correct = nan\n"), [], 3,
         "{bad}: reward.correct must be finite, got nan"),
        ("fuzz-validate", "config",
         lambda t: with_keys(t, "backend = external\nfuzz_budget = nan\n"), [],
         3, "{bad}: fuzz_budget must be finite, got nan"),
        ("fuzz-validate", "config",
         lambda t: with_keys(t, "backend = external\nfuzz_budget = inf\n"), [],
         3, "{bad}: fuzz_budget must be finite, got inf"),
        ("split", "config", str, ["--ratios", "abc"], 2,
         "argument --ratios: invalid _ratios value: 'abc'"),
        ("importance", "config", str, ["--repeats", "0"], 2,
         "argument --repeats: must be >= 1, got 0"),
        ("train", "splits", keep_one_train_record, [], 3, "need >= 2 training vectors, got 1"),
        ("featurize", "meta", lambda t: re.sub(r'"loc": \d+', '"loc": 1' + "0" * 400, t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': loc must be in [0,9007199254740992], "
                "got 1000"),
        ("featurize", "meta", lambda t: re.sub(r'"loc": \d+', '"loc": 1e308', t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': loc: expected int, got 1e+308"),
        ("train", "config", lambda t: with_keys(t, "train.learning_rate = 1e300\n"), [], 3,
         "epoch 1: non-finite loss in PPO pass 2, minibatch 1; " + SCALES_LOSS),
        ("train", "config", lambda t: with_keys(t, "reward.correct = 1e308\n"), [], 3,
         "epoch 1: non-finite loss in PPO pass 1, minibatch 1; " + SCALES_LOSS),
        ("train", "config", lambda t: with_keys(t, "train.value_loss_weight = -1e308\n"), [], 3,
         "{bad}: train.value_loss_weight must be in [0,inf), got -1e+308"),
        ("train", "config", lambda t: with_keys(t, "train.entropy_weight = -5\n"), [], 3,
         "{bad}: train.entropy_weight must be in [0,inf), got -5.0"),
        ("triage", "checkpoint", lambda t: re.sub(r'"w1":\[[^,]+', '"w1":[1' + "0" * 399, t), [],
         3, "{bad}: OverflowError: int too large to convert to float"),
        ("evaluate", "features", lambda t: re.sub(r'"values": \[[^,]+', '"values": [1' + "0" * 399,
                                                  t, count=1),
         [], 3, "{bad} line 1: OverflowError: int too large to convert to float"),
        ("report", "verdicts", first_verdict_fuzzed("7", "-"), [], 3,
         "{bad} line 1: fuzz flag '7' must be 0 or 1 and agree with fuzz kind -"),
        ("report", "verdicts", first_verdict_fuzzed("0", "crash"), [], 3,
         "{bad} line 1: fuzz flag '0' must be 0 or 1 and agree with fuzz kind crash"),
        ("report", "verdicts", first_verdict_fuzzed("1", "-"), [], 3,
         "{bad} line 1: fuzz flag '1' must be 0 or 1 and agree with fuzz kind -"),
        ("report", "verdicts", first_verdict_fuzzed("1", "not_run"), [], 3,
         "{bad} line 1: fuzz kind not_run is not an outcome"),
        ("evaluate", "checkpoint", lambda t: t.replace('"dropout_rate":0.2', '"dropout_rate":"abc"', 1),
         [], 3, "{bad}: ValueError: dropout_rate: expected float, got 'abc'"),
        ("evaluate", "checkpoint", lambda t: t.replace('"dropout_rate":0.2', '"dropout_rate":null', 1),
         [], 3, "{bad}: ValueError: dropout_rate: expected float, got None"),
        ("evaluate", "checkpoint", lambda t: t.replace('"dropout_rate":0.2', '"dropout_rate":5.0', 1),
         [], 3, "{bad}: ValueError: dropout_rate must be in [0,1), got 5.0"),
        ("evaluate", "checkpoint", lambda t: t.replace(',"seed":7', "", 1), [], 3,
         "{bad}: KeyError: 'seed'"),
        ("evaluate", "checkpoint", lambda t: t.replace('"seed":7', '"seed":7.5', 1), [], 3,
         "{bad}: ValueError: seed: expected int, got 7.5"),
        ("evaluate", "features", lambda t: re.sub(r'"warning_id": ("\w+")', r'"warning_id": [\1]', t,
                                                  count=1),
         [], 3, "{bad} line 1: TypeError: warning_id must be a string, got list"),
        ("split", "config", str, ["--seed", "-1"], 3, "{bad}: seed must be in [0,inf), got -1"),
        ("train", "config", lambda t: with_keys(t, "train.seed = -3\n"), [], 3,
         "{bad}: train.seed must be in [0,inf), got -3"),
        ("importance", "config", str, ["--seed", "-2"], 3,
         "{bad}: seed must be in [0,inf), got -2"),
        ("fuzz-validate", "config", lambda t: with_keys(t, "sim.seed = -1\n"), [], 3,
         "{bad}: sim.seed must be in [0,inf), got -1"),
        ("evaluate", "checkpoint", lambda t: t.replace('"seed":7}', '"seed":-1}', 1), [], 3,
         "{bad}: ValueError: seed must be in [0,inf), got -1"),
        ("fuzz-validate", "config", str, ["--jobs", "65"], 3,
         "{bad}: jobs must be in (-inf,64], got 65"),
        ("report", "config", lambda t: "# a note\u2028 here\nseed = 7\nbogus = 2\n" + t, [], 3,
         "{bad} line 3: unknown config key 'bogus'"),
        ("ingest", "report", with_long_integer("start_line"), [], 3,
         "{bad} is not well-formed JSON: Exceeds the limit (4300 digits)"),
        ("featurize", "warnings", with_long_integer("start_line"), [], 3,
         "{bad} line 1: Exceeds the limit (4300 digits)"),
        ("featurize", "meta", with_long_integer("loc"), [], 3,
         "{bad}: ValueError: Exceeds the limit (4300 digits)"),
        ("ingest", "report", nested_too_deep, [], 3,
         "{bad} is not well-formed JSON: maximum recursion depth exceeded"),
        ("featurize", "warnings", nested_too_deep, [], 3,
         "{bad} line 1: maximum recursion depth exceeded"),
        ("featurize", "meta", nested_too_deep, [], 3,
         "{bad}: RecursionError: maximum recursion depth exceeded"),
        ("evaluate", "features", nested_too_deep, [], 3,
         "{bad} line 1: RecursionError: maximum recursion depth exceeded"),
        ("evaluate", "checkpoint", nested_too_deep, [], 3,
         "{bad}: RecursionError: maximum recursion depth exceeded"),
        ("ingest", "report", with_lone_surrogate("file"), [], 3,
         "{bad}[0].file: holds a lone surrogate, which UTF-8 cannot encode"),
        ("ingest", "report", with_lone_surrogate("code_snippet"), [], 3,
         "{bad}[0].code_snippet: holds a lone surrogate, which UTF-8 cannot encode"),
        ("featurize", "warnings", with_lone_surrogate("code_snippet"), [], 3,
         "{bad} line 1: warning.code_snippet: holds a lone surrogate, which UTF-8 cannot encode"),
        ("ingest", "report", first_warning_with(analyzer=7), [], 3,
         "{bad}[0].analyzer: expected string, got int"),
        ("ingest", "report", first_warning_with(start_line=True), [], 3,
         "{bad}[0].start_line: expected integer, got bool"),
        ("ingest", "report", lambda t: json.dumps([5, *json.loads(t)[1:]]), [], 3,
         "{bad}[0]: expected object, got int"),
        ("ingest", "report", first_warning_with(op_type=["read_flow"]), [], 3,
         "{bad}[0].op_type: expected string or null, got list"),
        ("ingest", "report", first_warning_with(start_line=5, start_col=9, end_line=5, end_col=3),
         [], 3, "{bad}[0].end_col: start_col 9 > end_col 3 on one line"),
        ("fuzz-validate", "config", lambda t: t.replace("backend = simulated", "backend = recorded"),
         [], 3, "input error: backend 'recorded' needs recorded_path (or --recorded)"),
        ("fuzz-validate", "config", lambda t: t.replace("backend = simulated", "backend = quantum"),
         [], 3, "{bad}: unknown backend 'quantum' (simulated/recorded/external)"),
        ("ingest", "config", lambda t: t.replace("backend = simulated", "backend = quantum"),
         [], 3, "{bad}: unknown backend 'quantum' (simulated/recorded/external)"),
        ("fuzz-validate", "config", lambda t: t.replace("backend = simulated", "backend = external"),
         ["--templates", "no-such-templates"], 3,
         "input error: templates_dir holds none of panic_safety.tmpl, higher_order_invariant.tmpl, "
         "send_sync_variance.tmpl: no-such-templates"),
        ("evaluate", "splits", lambda t: t.replace("\ttest", "\tval"), [], 3,
         "input error: split 'test' has no records"),
        ("importance", "splits", lambda t: t.replace("\ttest", "\tval"), [], 3,
         "input error: split 'test' has no records"),
        ("fuzz-validate", "warnings", str, ["--ids", "feedfacefeedface"], 3,
         "input error: {bad}: no warning feedfacefeedface"),
        ("featurize", "meta", lambda t: "[1, 2]", [], 3, "{bad}: expected a JSON object, got list"),
        ("evaluate", "checkpoint", lambda t: t.replace('"format_version":1,', '"format_version":9,'),
         [], 3, "{bad}: ValueError: unsupported checkpoint format 9"),
        ("evaluate", "checkpoint", lambda t: re.sub(r'"layer_dims":\[\d+', '"layer_dims":[5', t),
         [], 3, "{bad}: ValueError: input dimension 5 does not fit the manifest"),
        ("evaluate", "checkpoint", lambda t: re.sub(r'"mean":\[[^,]+,', '"mean":[', t), [], 3,
         f"{{bad}}: ValueError: normalizer statistics must have {len(MANIFEST)} entries each"),
        ("evaluate", "checkpoint", lambda t: re.sub(r'"w1":\[[^,]+', '"w1":[NaN', t), [], 3,
         "{bad}: ValueError: weights and normalizer statistics must be finite"),
        ("triage", "outcomes", first_outcome_elapsed("nan"), [], 3,
         "{bad} line 1: elapsed must be finite, got nan"),
        ("triage", "outcomes", first_outcome_elapsed("inf"), [], 3,
         "{bad} line 1: elapsed must be finite, got inf"),
        ("split", "warnings", lambda t: re.sub(r'"id": "\w+"', '"id": "feedfacefeedface"', t,
                                               count=1),
         [], 3, "{bad} line 1: stored id feedfacefeedface disagrees with content id "),
        ("report", "labels", lambda t: t.split("\t", 1)[0] + "\n" + t.split("\n", 1)[1], [], 3,
         "{bad} line 1: expected 'id<TAB>label<TAB>source'"),
        ("featurize", "meta", lambda t: re.sub(r'"downloads": \d+', '"downloads": -1', t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': downloads must be in [0,9007199254740992], "
                "got -1"),
        ("featurize", "meta", lambda t: re.sub(r'"loc": \d+', '"loc": -3', t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': loc must be in [0,9007199254740992], got -3"),
        ("featurize", "warnings", with_twin_of_first_warning, [], 3,
         "{bad}: 64545d2592b038cc was stated before with another value"),
        ("featurize", "meta", lambda t: re.sub(r'"unsafe_prevalence": [\d.]+',
                                               '"unsafe_prevalence": 1.5', t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': unsafe_prevalence must be in [0,1], "
                "got 1.5"),
        ("fuzz-validate", "config", lambda t: with_keys(t, "sim.p_crash_given_tp = 1.5\n"), [], 3,
         "{bad}: sim.p_crash_given_tp must be in [0,1], got 1.5"),
        ("report", "verdicts", first_verdict_scored("1.5"), [], 3,
         "{bad} line 1: score must be in [0,1], got 1.5"),
        ("train", "splits", lambda t: t.replace("\ttrain", "\tval"), [], 3,
         "input error: split 'train' has no records"),
        ("evaluate", "checkpoint", lambda t: re.sub(r'"b_v":\[[^]]*\]', '"b_v":[]', t), [], 3,
         "{bad}: ValueError: flat vector has shape (57475,), expected (57476,)"),
        ("fuzz-validate", "config",
         lambda t: with_keys(t, "backend = recorded\nrecorded_path = out\0comes.txt"), [], 3,
         "input error: input file cannot be read: 'out\\x00comes.txt': embedded null byte"),
        ("fuzz-validate", "config",
         lambda t: with_keys(t, "backend = external\nexternal_command = fake\0fuzz"), [], 3,
         "input error: external_command holds a NUL byte"),
        ("report", "config", lambda t: t + "seed = 8\n", [], 3,
         f"{{bad}} line {len(DEMO_CONFIG.splitlines()) + 1}: seed was stated before with another "
         "value"),
        ("triage", "checkpoint",
         lambda t: t.replace('"minibatch_size":64', '"minibatch_size":2.5', 1), [], 3,
         "{bad}: ValueError: minibatch_size: expected int, got 2.5"),
        ("triage", "checkpoint", lambda t: t.replace('"correct":15.0', '"correct":true', 1), [], 3,
         "{bad}: ValueError: correct: expected float, got True"),
        ("featurize", "meta", lambda t: t.replace('"downloads"', '"downlods"', 1), [], 3,
         "{bad}: package 'demo-crate-0-0.0.1': unknown key 'downlods'"),
        ("featurize", "meta", lambda t: re.sub(r'"downloads": \d+', '"downloads": "12"', t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': downloads: expected int, got '12'"),
        ("featurize", "meta", lambda t: re.sub(r'"downloads": \d+', '"downloads": true', t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': downloads: expected int, got True"),
        ("featurize", "meta", lambda t: re.sub(r'"downloads": \d+', '"downloads": 2.9', t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': downloads: expected int, got 2.9"),
        ("featurize", "meta", lambda t: re.sub(r'"loc": \d+', '"loc": 2.9', t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': loc: expected int, got 2.9"),
        ("featurize", "meta", lambda t: re.sub(r'"unsafe_prevalence": [\d.]+',
                                               '"unsafe_prevalence": "0.5"', t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': unsafe_prevalence: expected float, "
                "got '0.5'"),
        ("evaluate", "features", lambda t: re.sub(r'"values": \[[^,]+', '"values": ["0.0"', t,
                                                  count=1),
         [], 3, "{bad} line 1: ValueError: expected a list of numbers, got '0.0'"),
        ("evaluate", "features", lambda t: re.sub(r'"values": \[[^,]+', '"values": [true', t,
                                                  count=1),
         [], 3, "{bad} line 1: ValueError: expected a list of numbers, got True"),
        ("triage", "checkpoint", lambda t: re.sub(r'"b_v":\[[^]]*\]', '"b_v":["1.0"]', t), [], 3,
         "{bad}: ValueError: expected a list of numbers, got '1.0'"),
        ("triage", "checkpoint", lambda t: re.sub(r'"mean":\[[^,]+', '"mean":[true', t), [], 3,
         "{bad}: ValueError: expected a list of numbers, got True"),
        ("evaluate", "checkpoint",
         lambda t: t.replace('"seed":7,"weights"', '"seed":-1,"weights"', 1), [], 3,
         "{bad}: ValueError: seed must be in [0,inf), got -1"),
        ("fuzz-validate", "config", lambda t: with_keys(t, "backend = external\nfuzz_budget = 5\n"),
         [], 3, "{bad}: fuzz_budget must be in [30,60], got 5.0"),
        ("fuzz-validate", "config",
         lambda t: with_keys(t, "backend = external\nfuzz_budget = 500\n"), [], 3,
         "{bad}: fuzz_budget must be in [30,60], got 500.0"),
        ("featurize", "meta", lambda t: re.sub(r'"loc": \d+', '"loc": 1200.0', t, count=1), [], 3,
         "{bad}: package 'demo-crate-0-0.0.1': loc: expected int, got 1200.0"),
        ("featurize", "meta", lambda t: re.sub(r'"unsafe_prevalence": [\d.]+',
                                               '"unsafe_prevalence": 1' + "0" * 400, t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': unsafe_prevalence must be finite, got 1000"),
        ("triage", "checkpoint",
         lambda t: t.replace('"learning_rate":0.001', '"learning_rate":1' + "0" * 400, 1), [], 3,
         "{bad}: ValueError: learning_rate must be finite, got 1000"),
        ("triage", "checkpoint", lambda t: t.replace('"correct":15.0', '"correct":1' + "0" * 400, 1),
         [], 3, "{bad}: ValueError: correct must be finite, got 1000"),
        ("triage", "checkpoint", lambda t: re.sub(r'"reward_spec":\{[^}]*\}', '"reward_spec":5', t),
         [], 3, "{bad}: ValueError: reward_spec: expected dict, got int"),
        ("triage", "checkpoint", lambda t: re.sub(r'"reward_spec":\{[^}]*\}', '"reward_spec":[]', t),
         [], 3, "{bad}: ValueError: reward_spec: expected dict, got list"),
        ("triage", "checkpoint",
         lambda t: re.sub(r'"reward_spec":\{[^}]*\}', '"reward_spec":null', t), [], 3,
         "{bad}: ValueError: reward_spec: expected dict, got NoneType"),
        ("triage", "checkpoint",
         lambda t: re.sub(r'"history":\[.*\]\}$', '"history":"not a list"}', t), [], 3,
         "{bad}: ValueError: history: expected list, got str"),
        ("triage", "checkpoint", lambda t: t.replace('"format_version":1,', '"format_version":true,'),
         [], 3, "{bad}: ValueError: format_version: expected int, got bool"),
        ("report", "labels", without_lines_holding(TEST_ID), [], 3,
         f"input error: {{bad}}: no label for warning {TEST_ID}\n"),
        ("train", "features", without_lines_holding(TRAIN_ID), [], 3,
         f"input error: {{bad}}: no feature vector for warning {TRAIN_ID}\n"),
        ("evaluate", "features", without_lines_holding(TEST_ID), [], 3,
         f"input error: {{bad}}: no feature vector for warning {TEST_ID}\n"),
        ("importance", "features", without_lines_holding(TEST_ID), [], 3,
         f"input error: {{bad}}: no feature vector for warning {TEST_ID}\n"),
        ("triage", "outcomes", without_lines_holding(FUZZED_ID), [], 3,
         f"input error: {{bad}}: no recorded outcome for {{report}}'s warning {FUZZED_ID}\n"),
        ("report", "labels", with_first_id("true"), [], 3,
         "input error: {bad} line 1: warning id must be 16 lowercase hex digits, got 'true'\n"),
        ("evaluate", "splits", with_first_id("x", after=1), [], 3,
         "input error: {bad} line 2: warning id must be 16 lowercase hex digits, got 'x'\n"),
        ("triage", "outcomes", with_first_id("x"), [], 3,
         "input error: {bad} line 1: warning id must be 16 lowercase hex digits, got 'x'\n"),
        ("report", "verdicts", with_first_id("true"), [], 3,
         "input error: {bad} line 1: warning id must be 16 lowercase hex digits, got 'true'\n"),
    ], ids=["dropout-range", "dropout-nan", "learning-rate-nan", "reward-nan", "budget-nan",
            "budget-inf", "ratios", "repeats", "one-train-record", "huge-loc", "float-loc-1e308",
            "learning-rate-diverges", "reward-diverges", "value-weight-negative",
            "entropy-weight-negative", "huge-int-weight", "huge-int-feature", "verdict-flag-7",
            "verdict-crash-flag-0", "verdict-unfuzzed-flag-1", "verdict-not-run",
            "checkpoint-dropout-string", "checkpoint-dropout-null", "checkpoint-dropout-5",
            "checkpoint-no-seed", "checkpoint-seed-float", "sidecar-id-list", "split-seed-negative",
            "train-seed-negative", "importance-seed-negative", "sim-seed-negative",
            "checkpoint-config-seed-negative", "jobs-above-bound", "config-line-separator",
            "report-long-integer", "store-long-integer", "meta-long-integer", "report-deep",
            "store-deep", "meta-deep", "sidecar-deep", "checkpoint-deep", "report-surrogate-file",
            "report-surrogate-snippet", "store-surrogate-snippet", "report-string-mistyped",
            "report-coordinate-bool", "report-element-not-object", "report-op-type-mistyped",
            "report-columns-reversed", "recorded-without-path", "backend-unknown",
            "backend-unknown-unread", "templates-missing",
            "evaluate-empty-split", "importance-empty-split", "fuzz-validate-unknown-id",
            "meta-not-object", "checkpoint-format-version", "checkpoint-input-dimension",
            "checkpoint-short-normalizer", "checkpoint-weight-nan", "outcomes-elapsed-nan",
            "outcomes-elapsed-inf", "store-id-disagrees", "labels-one-field",
            "meta-downloads-negative", "meta-loc-negative", "store-id-repeated-content-differs",
            "meta-prevalence-above-1", "sim-probability-above-1",
            "verdict-score-above-1", "train-split-empty", "checkpoint-weights-short",
            "recorded-path-nul", "external-command-nul", "config-key-restated",
            "checkpoint-config-int-float", "checkpoint-reward-bool", "meta-key-misspelled",
            "meta-downloads-string", "meta-downloads-bool", "meta-downloads-fraction",
            "meta-loc-fraction", "meta-prevalence-string", "sidecar-value-string",
            "sidecar-value-bool", "checkpoint-weight-string", "checkpoint-mean-bool",
            "checkpoint-seed-negative", "budget-below-range", "budget-above-range",
            "meta-loc-integral-float", "meta-prevalence-huge-int", "checkpoint-learning-rate-huge-int",
            "checkpoint-reward-huge-int", "checkpoint-reward-spec-int", "checkpoint-reward-spec-list",
            "checkpoint-reward-spec-null", "checkpoint-history-string",
            "checkpoint-format-version-bool", "report-label-missing", "train-feature-row-missing",
            "evaluate-feature-row-missing", "importance-feature-row-missing",
            "triage-recorded-outcome-missing", "labels-id-true", "splits-id-x", "outcomes-id-x",
            "verdicts-id-true"])
    def test_bad_value_exits_with_its_code(self, pipeline, tmp_path, capsys,
                                           command, name, edit, flags, code, named):
        data = edit(pipeline[name].read_text()).encode()
        got, bad = run_with(pipeline, tmp_path, name, data, command, flags)
        err = capsys.readouterr().err
        assert got == code, err
        assert named.format(bad=bad, **pipeline) in err, err

    def test_split_record_without_a_label_exits_3_naming_it(self, pipeline, tmp_path, capsys):
        wid = next(line.split("\t")[0] for line in pipeline["splits"].read_text().splitlines()
                   if line.endswith("\ttrain"))
        labels = [line for line in pipeline["labels"].read_text().splitlines()
                  if not line.startswith(wid + "\t")]
        code, bad = run_with(pipeline, tmp_path, "labels", "\n".join([*labels, ""]).encode(), "train")
        err = capsys.readouterr().err
        assert code == 3, err
        assert err == f"input error: {bad}: unlabeled records in split 'train': {wid}\n"

    @pytest.mark.parametrize("command", ["evaluate", "importance"])
    def test_scored_record_without_a_label_exits_3_naming_it(self, pipeline, tmp_path, capsys,
                                                             command):
        # An unlabeled warning of the scored split would count as a false positive.
        wid = next(line.split("\t")[0] for line in pipeline["splits"].read_text().splitlines()
                   if line.endswith("\ttest"))
        labels = [line for line in pipeline["labels"].read_text().splitlines()
                  if not line.startswith(wid + "\t")]
        code, bad = run_with(pipeline, tmp_path, "labels", "\n".join([*labels, ""]).encode(),
                             command)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err == f"input error: {bad}: unlabeled records in split 'test': {wid}\n"

    def test_input_that_is_not_utf8_exits_3_naming_file_and_line(self, pipeline, tmp_path,
                                                                 capsys):
        data = pipeline["report"].read_bytes().replace(b"\n", b"\n\xff", 1)
        code, bad = run_with(pipeline, tmp_path, "report", data)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err == f"input error: {bad} line 2: not UTF-8: invalid start byte\n"

    def test_bad_recorded_outcome_line_names_file_and_line(self, pipeline, tmp_path, capsys):
        lines = pipeline["outcomes"].read_text().splitlines()
        wid = lines[1].split("\t", 1)[0]
        for bad_line in (f"{wid}\tcrash\tsoon\tx", f"{wid}\texploded\t1.0\tx"):
            bad = tmp_path / "outcomes.txt"
            bad.write_text("\n".join([lines[0], bad_line, *lines[2:]]) + "\n")
            code = run_cli([
                "triage", "--report", str(pipeline["report"]),
                "--checkpoint", str(pipeline["checkpoint"]), "--backend", "recorded",
                "--recorded", str(bad), "--out", str(tmp_path / "v.txt"),
            ])
            err = capsys.readouterr().err
            assert code == 3, err
            assert f"{bad} line 2" in err

    @pytest.mark.parametrize("slot, value, named", [
        ("public_api_flag", 0.5, "public_api_flag: flag must be 0 or 1, got 0.5"),
        ("borrow_ratio", 1.5, "borrow_ratio: ratio must be in [0,1], got 1.5"),
        (None, None, "vector has shape (88,), the manifest has 87 slots"),
        ("package_loc", 1e308, "package_loc: magnitude must be <= 2**53, got 1e+308"),
    ], ids=["flag", "ratio", "length", "huge-count"])
    def test_bad_sidecar_values_exit_3_in_train_and_evaluate(self, pipeline, tmp_path, capsys,
                                                             slot, value, named):
        lines = pipeline["features"].read_text().splitlines()
        obj = json.loads(lines[2])
        if slot is None:
            obj["values"].append(0.0)
        else:
            obj["values"][MANIFEST.index_of(slot)] = value
        bad = tmp_path / "features.jsonl"
        bad.write_text("\n".join([*lines[:2], json.dumps(obj), *lines[3:]]) + "\n")
        p = {k: str(v) for k, v in pipeline.items()}
        data = ["--warnings", p["warnings"], "--labels", p["labels"], "--splits", p["splits"],
                "--features", str(bad), "--config", p["config"]]
        for argv in (["train", *data, "--out", str(tmp_path / "m.ckpt")],
                     ["evaluate", "--checkpoint", p["checkpoint"], *data,
                      "--out", str(tmp_path / "r.txt")]):
            code = run_cli(argv)
            err = capsys.readouterr().err
            assert code == 3, (argv[0], err)
            assert f"{bad} line 3: {named}" in err, (argv[0], err)

    @pytest.mark.parametrize("command", ["triage", "evaluate", "importance"])
    def test_overflowing_checkpoint_exits_3_naming_it(self, pipeline, tmp_path, capsys, command):
        # Finite weights whose products overflow: every policy score is nan.
        doc = json.loads(pipeline["checkpoint"].read_text())
        doc["weights"] = {k: [w * 1e300 for w in v] for k, v in doc["weights"].items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would end in exit 4
            code, bad = run_with(pipeline, tmp_path, "checkpoint", json.dumps(doc).encode(),
                                 command)
        err = capsys.readouterr().err
        assert code == 3, err
        assert re.fullmatch(rf"input error: {re.escape(str(bad))}: policy scores for warning "
                            r"\S+ are not finite\n", err), err

    def test_scores_that_overflow_after_the_fuzz_calls_exit_3(self, pipeline, tmp_path, capsys,
                                                              monkeypatch):
        # Every first decision scores finite and fuzzes; a crash outcome's state
        # row then overflows the trunk, so that warning's second scores are not finite.
        biased = biased_checkpoint(tmp_path / "c.ckpt", [0.0, 0.0, 50.0])
        ckpt = load_checkpoint(biased.read_bytes(), "checkpoint")
        ckpt.params.w1[len(MANIFEST) + SLOT_OF[FuzzKind.CRASH]] = 1e308
        ckpt.params.w2[:] = 1.0
        bad = tmp_path / "overflow.ckpt"
        bad.write_bytes(save_checkpoint(ckpt))
        calls = []
        run = fuzz_mod.RecordedBackend.run
        monkeypatch.setattr(fuzz_mod.RecordedBackend, "run",
                            lambda backend, warning, label: calls.append(warning.id)
                            or run(backend, warning, label))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would end in exit 4
            code = run_cli(subcommand({**pipeline, "checkpoint": bad}, "triage",
                                      tmp_path / "v.txt"))
        records = parse_report(pipeline["report"].read_bytes(), "report")
        outcomes = read_recorded_outcomes(pipeline["outcomes"].read_bytes(), "outcomes")
        wid = next(r.id for r in records if outcomes[r.id].kind is FuzzKind.CRASH)
        assert code == 3
        assert capsys.readouterr().err == (f"input error: {bad}: policy scores for warning {wid} "
                                           "are not finite\n")
        assert calls == [r.id for r in records]  # raised after every fuzz call

    def test_truncated_feature_sidecar_line_names_file_and_line(self, pipeline, tmp_path, capsys):
        lines = pipeline["features"].read_text().splitlines()
        bad = tmp_path / "features.jsonl"
        bad.write_text("\n".join([*lines[:2], lines[2][: len(lines[2]) // 2], *lines[3:]]) + "\n")
        code = run_cli([
            "evaluate", "--checkpoint", str(pipeline["checkpoint"]),
            "--warnings", str(pipeline["warnings"]), "--labels", str(pipeline["labels"]),
            "--splits", str(pipeline["splits"]), "--features", str(bad),
            "--out", str(tmp_path / "r.txt"), "--config", str(pipeline["config"]),
        ])
        err = capsys.readouterr().err
        assert code == 3, err
        assert f"{bad} line 3" in err

    @pytest.mark.parametrize("command", ["ingest", "split", "featurize", "train", "evaluate",
                                         "report", "importance", "fuzz-validate", "triage"])
    def test_config_is_read_once_before_any_input(self, pipeline, tmp_path, capsys, command):
        missing = {name: tmp_path / "missing" / path.name for name, path in pipeline.items()}
        out = tmp_path / "out"
        assert run_cli(subcommand({**missing, "config": pipeline["config"]}, command, out)) == 3
        stdout, err = capsys.readouterr()
        assert stdout.count("config-digest ") == 1 and stdout.startswith("config-digest "), stdout
        assert err.startswith("input error: input file does not exist: "), err
        bad = tmp_path / "run.cfg"
        bad.write_text("seed = seven\n")
        assert run_cli(subcommand({**missing, "config": bad}, command, out)) == 3
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"input error: {bad} line 1: seed: expected int, got 'seven'\n"

    @pytest.mark.parametrize("command", ["evaluate", "importance"])
    def test_bad_sidecar_line_wins_over_an_empty_split(self, pipeline, tmp_path, capsys, command):
        splits = tmp_path / "splits.txt"
        splits.write_text(pipeline["splits"].read_text().replace("\ttest", "\tval"))
        lines = pipeline["features"].read_text().splitlines()
        features = tmp_path / "features.jsonl"
        features.write_text("\n".join([*lines[:2], lines[2][: len(lines[2]) // 2], *lines[3:]])
                            + "\n")
        argv = subcommand({**pipeline, "splits": splits, "features": features}, command,
                          tmp_path / "out")
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert f"{features} line 3" in err and "has no records" not in err, err


    def test_diverging_train_writes_only_its_input_error(self, pipeline, tmp_path):
        # A process of its own: inside pytest, numpy's warnings would be captured.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(with_keys(pipeline["config"].read_text(), "train.learning_rate = 1e300"))
        proc = cli_process(subcommand({**pipeline, "config": cfg}, "train", tmp_path / "m.ckpt"))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [
            "input error: epoch 1: non-finite loss in PPO pass 2, minibatch 1; " + SCALES_LOSS]


def restate_feature_vector(line):
    """`line` of a feature sidecar with its public_api_flag slot flipped."""
    obj = json.loads(line)
    slot = MANIFEST.index_of("public_api_flag")
    obj["values"][slot] = 1.0 - obj["values"][slot]
    return json.dumps(obj, sort_keys=True)


def swap(line, column, a, b):
    """`line` with its tab-separated `column` set to b if it is a, else to a."""
    parts = line.split("\t")
    parts[column] = b if parts[column] == a else a
    return "\t".join(parts)


# For each keyed line file: which line states the first id, and that line
# with another value for the id.
RESTATED = {
    "labels": (0, lambda line: swap(line, 1, "tp", "fp")),
    "splits": (1, lambda line: swap(line, 1, "train", "val")),
    "features": (0, restate_feature_vector),
    "outcomes": (0, lambda line: swap(line, 1, "clean", "crash")),
}

# Each line format's reader.
LINE_READERS = {"warnings": read_warning_store, "labels": read_label_sidecar,
                "splits": read_split_file, "features": read_feature_sidecar,
                "outcomes": read_recorded_outcomes, "verdicts": read_verdicts,
                "config": parse_config_file}


class TestLineFiles:
    @pytest.mark.parametrize("name", list(RESTATED))
    def test_an_id_stated_twice_must_agree(self, pipeline, tmp_path, capsys, name):
        lines = pipeline[name].read_text().splitlines()
        index, restate = RESTATED[name]
        first = lines[index]
        wid = json.loads(first)["warning_id"] if name == "features" else first.split("\t")[0]
        code, _ = run_with(pipeline, tmp_path, name, "\n".join([*lines, first, ""]).encode())
        assert code == 0, capsys.readouterr().err
        other = restate(first)
        assert other != first
        code, bad = run_with(pipeline, tmp_path, name, "\n".join([*lines, other, ""]).encode())
        err = capsys.readouterr().err
        assert code == 3, err
        assert f"{bad} line {len(lines) + 1}: {wid} was stated before with another value" in err

    def test_sidecar_of_a_store_with_identical_warnings_loads(self, pipeline, tmp_path):
        report = json.loads(pipeline["report"].read_text())
        paths = {name: tmp_path / name for name in ("report.json", "w.jsonl", "f.jsonl", "g.jsonl")}
        paths["report.json"].write_text(json.dumps([*report, report[0]]))
        p = {name: str(path) for name, path in paths.items()}
        cfg = ["--config", str(pipeline["config"])]
        assert run_cli(["ingest", "--report", p["report.json"], "--out", p["w.jsonl"], *cfg]) == 0
        assert run_cli(["featurize", "--warnings", p["w.jsonl"], "--meta", str(pipeline["meta"]),
                        "--out", p["f.jsonl"], *cfg]) == 0
        lines = paths["f.jsonl"].read_text().splitlines()
        assert len(lines) == len(report) + 1 and lines[-1] == lines[0]
        assert run_cli(["featurize", "--warnings", p["w.jsonl"], "--sidecar", p["f.jsonl"],
                        "--out", p["g.jsonl"], *cfg]) == 0
        assert paths["g.jsonl"].read_bytes() == paths["f.jsonl"].read_bytes()

    def test_featurize_refuses_warnings_sharing_an_id_with_other_features(
            self, pipeline, tmp_path, capsys):
        report = json.loads(pipeline["report"].read_text())
        other = {**report[0], "level": "Info" if report[0]["level"] != "Info" else "Error"}
        (tmp_path / "r.json").write_text(json.dumps([*report, other]))
        store, sidecar = tmp_path / "w.jsonl", tmp_path / "f.jsonl"
        cfg = ["--config", str(pipeline["config"])]
        assert run_cli(["ingest", "--report", str(tmp_path / "r.json"), "--out", str(store),
                        *cfg]) == 0
        records = read_warning_store(store.read_bytes(), "warning store")
        assert records[0].id == records[-1].id and records[0].level != records[-1].level
        assert run_cli(["featurize", "--warnings", str(store), "--meta", str(pipeline["meta"]),
                        "--out", str(sidecar), *cfg]) == 3
        assert (f"{store}: {records[0].id} was stated before with another value"
                in capsys.readouterr().err)
        assert not sidecar.exists()

    @pytest.mark.parametrize("name", list(LINE_READERS))
    def test_crlf_file_reads_as_its_lf_copy(self, pipeline, name):
        lf = pipeline[name].read_bytes()
        if name == "labels":  # the source column is optional
            lf = lf.replace(b"\tmanual\n", b"\n")
        got, expected = (LINE_READERS[name](data, name) for data in (lf.replace(b"\n", b"\r\n"), lf))
        if name == "features":  # tables hold arrays, which == does not compare
            got, expected = ((t.row, t.matrix.tobytes()) for t in (got, expected))
        assert got == expected


class TestFilesTouched:
    def test_subcommands_leave_only_inputs_and_named_outputs(self, tmp_path, monkeypatch):
        work, tmp, tools = tmp_path / "work", tmp_path / "tmp", tmp_path / "tools"
        for d in (work, tmp, tools):
            d.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("TMPDIR", str(tmp))
        monkeypatch.setattr(tempfile, "tempdir", None)  # so the temp directory follows TMPDIR
        paths = run_demo_pipeline(work)  # all nine subcommands
        log = tools / "args.log"
        external = tools / "external.cfg"
        external.write_text("backend = external\nexternal_command = "
                            f"{fake_cmd(tools, 'fuzzer.sh', FAKE_FUZZER.format(log=log))}\n")
        outputs = [work / "external_outcomes.txt", work / "external_triage.txt"]
        assert run_cli(["fuzz-validate", "--warnings", str(paths["warnings"]),
                        "--out", str(outputs[0]), "--config", str(external)]) == 0
        assert run_cli(["triage", "--report", str(paths["report"]),
                        "--checkpoint", str(always_fuzz_checkpoint(tools / "fuzz.ckpt")),
                        "--meta", str(paths["meta"]), "--out", str(outputs[1]),
                        "--config", str(external)]) == 0
        assert log.read_text()  # the external backend ran
        named = {p.name for p in [*paths.values(), *outputs]}
        assert {p.name for p in work.iterdir()} == named
        assert list(tmp.iterdir()) == []


class TestExitCodes:
    def test_missing_checkpoint_flag_usage_error(self, tmp_path, capsys):
        code = run_cli(["triage", "--report", "r.json", "--out", "v.txt"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_missing_input_file_is_validation_error(self, tmp_path, capsys):
        code = run_cli(
            ["ingest", "--report", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "nope.json" in capsys.readouterr().err

    def test_unreadable_input_file_is_validation_error(self, tmp_path, capsys):
        code = run_cli(["ingest", "--report", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (f"input error: input file cannot be read: {tmp_path}: "
                                           "Is a directory\n")

    @pytest.mark.parametrize("out, why", [("", "Is a directory"), ("taken/x.jsonl", "File exists")])
    def test_unwritable_output_file_is_validation_error(self, tmp_path, capsys, out, why):
        report, target = tmp_path / "r.json", tmp_path / out
        report.write_text("[]")
        (tmp_path / "taken").touch()
        assert run_cli(["ingest", "--report", str(report), "--out", str(target)]) == 3
        assert capsys.readouterr().err == f"input error: output file cannot be written: {target}: {why}\n"

    def test_malformed_report_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"level": "Warning"}]')
        code = run_cli(["ingest", "--report", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "analyzer" in capsys.readouterr().err

    def test_digest_mismatch_reports_both_digests(self, tmp_path, capsys):
        paths = run_demo_pipeline(tmp_path / "dm")
        # Corrupt every sidecar digest, then ask evaluate to use it.
        corrupted = tmp_path / "dm" / "corrupt_features.jsonl"
        lines = []
        for line in paths["features"].read_text().strip().split("\n"):
            obj = json.loads(line)
            obj["manifest_digest"] = "feedfacefeedface"
            lines.append(json.dumps(obj, sort_keys=True))
        corrupted.write_text("\n".join(lines) + "\n")
        code = run_cli([
            "evaluate", "--checkpoint", str(paths["checkpoint"]),
            "--warnings", str(paths["warnings"]), "--labels", str(paths["labels"]),
            "--splits", str(paths["splits"]), "--features", str(corrupted),
            "--out", str(tmp_path / "dm" / "r.txt"), "--config", str(paths["config"]),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{corrupted} line 1: vector digest feedfacefeedface" in err
        assert MANIFEST.digest in err


class TestCyclicCollector:
    """A run pauses the cyclic collector and frees its objects by reference count."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_a_run_leaves_the_collector_as_it_found_it(self, pipeline, tmp_path, monkeypatch,
                                                        enabled):
        load_config, during = cli._load_config, []

        def watched(args):
            during.append(gc.isenabled())
            if args.report == "crash":
                raise RuntimeError("crash")
            return load_config(args)

        monkeypatch.setattr(cli, "_load_config", watched)
        was, seen = gc.isenabled(), []
        (gc.enable if enabled else gc.disable)()
        try:
            for report in (pipeline["report"], tmp_path / "missing.json", "crash"):
                code = run_cli(["ingest", "--report", str(report), "--out", str(tmp_path / "o")])
                seen.append((code, gc.isenabled()))
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [(0, enabled), (3, enabled), (4, enabled)]
        assert during == [False] * 3

    def test_triage_leaves_the_same_cyclic_garbage_at_any_report_size(self, pipeline, tmp_path):
        # What the collector would find after a run it did not watch: nothing
        # that grows with the report, so no per-warning object sits in a cycle.
        script = ("import gc, sys\n"
                  "from triagerl.cli import run_cli\n"
                  "gc.collect()\n"
                  "gc.disable()\n"
                  "code = run_cli(sys.argv[1:])\n"
                  "print(code, gc.collect())\n")
        found = []
        for n in (20, 2000):
            report = write_demo_inputs(tmp_path / str(n), n=n)["report"]
            argv = ["triage", "--report", str(report), "--checkpoint", str(pipeline["checkpoint"]),
                    "--out", str(tmp_path / f"verdicts{n}.txt"),
                    "--config", str(pipeline["config"])]
            proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                                  text=True, env=cli_env())
            assert proc.returncode == 0, proc.stderr
            found.append(proc.stdout.splitlines()[-1])
        assert found[0] == found[1]
        assert found[0].startswith("0 ")


class TestRunConfig:
    def test_seed_reaches_training_unless_train_seed_is_set(self, pipeline, tmp_path):
        def checkpoint(name, seed, config):
            out = tmp_path / f"{name}.ckpt"
            assert run_cli([
                "train", "--warnings", str(pipeline["warnings"]), "--labels", str(pipeline["labels"]),
                "--splits", str(pipeline["splits"]), "--features", str(pipeline["features"]),
                "--out", str(out), "--config", str(config), "--seed", str(seed),
            ]) == 0
            return out.read_bytes()

        assert checkpoint("a1", 1, pipeline["config"]) != checkpoint("a2", 2, pipeline["config"])
        pinned = tmp_path / "pinned.cfg"
        pinned.write_text(with_keys(pipeline["config"].read_text(), "train.seed = 3"))
        assert checkpoint("b1", 1, pinned) == checkpoint("b2", 2, pinned)

    @given(key=st.sampled_from([k for k, t in CONFIG_KEYS.items() if t is float]),
           value=st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, 1.0,
                                  float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0))]))
    @settings(max_examples=15, deadline=None)
    def test_float_key_at_a_range_edge_exits_0_or_3(self, pipeline, tmp_path_factory, key, value):
        # The ends of the float range, and 0 and 1, which bound most keys, with their neighbours.
        edge = with_keys(pipeline["config"].read_text(), f"train.epochs_max = 1\n{key} = {value!r}")
        code, _ = run_with(pipeline, tmp_path_factory.mktemp("edge"), "config", edge.encode(),
                           "train")
        assert code in (0, 3), (key, value)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_int_key_at_a_range_edge_exits_0_or_3(self, pipeline, tmp_path_factory, data):
        # Below and at the lower bounds, and at the ends of the 64-bit range. A huge epoch,
        # patience or pass count is a valid request that runs for ever, so those draw small.
        key = data.draw(st.sampled_from([k for k, t in CONFIG_KEYS.items() if t is int]),
                        label="key")
        long_running = key in ("train.epochs_max", "train.patience", "train.ppo_inner_epochs")
        value = data.draw(st.sampled_from([-1, 0, 1, 2] + ([] if long_running else
                                                          [2**63, 2**64])), label="value")
        edge = with_keys(pipeline["config"].read_text(), f"train.epochs_max = 1\n{key} = {value}")
        code, _ = run_with(pipeline, tmp_path_factory.mktemp("edge"), "config", edge.encode(),
                           "train")
        assert code in (0, 3), (key, value)

    def test_seed_sets_train_and_sim_seeds_unless_they_are_set(self):
        cfg = build_run_config({"seed": 4}, "config")
        assert (cfg.train.seed, cfg.sim.seed) == (4, 4)
        cfg = build_run_config({"seed": 5, "sim.seed": 9}, "config")
        assert (cfg.seed, cfg.train.seed, cfg.sim.seed) == (5, 5, 9)

    def test_flags_override_config_file(self, tmp_path, capsys):
        inputs = write_demo_inputs(tmp_path / "cfg")
        run_cli([
            "ingest", "--report", str(inputs["report"]),
            "--out", str(tmp_path / "cfg" / "w.jsonl"), "--config", str(inputs["config"]),
        ])
        run_cli([
            "split", "--warnings", str(tmp_path / "cfg" / "w.jsonl"),
            "--labels", str(inputs["labels"]), "--out", str(tmp_path / "cfg" / "s.txt"),
            "--config", str(inputs["config"]), "--seed", "99",
        ])
        assert (tmp_path / "cfg" / "s.txt").read_text().startswith("# seed=99")

    def test_config_digest_echoed(self, tmp_path, capsys):
        inputs = write_demo_inputs(tmp_path / "echo")
        run_cli([
            "ingest", "--report", str(inputs["report"]),
            "--out", str(tmp_path / "echo" / "w.jsonl"), "--config", str(inputs["config"]),
        ])
        assert "config-digest " in capsys.readouterr().out

    def test_unknown_config_key_rejected(self):
        with pytest.raises(InputError, match="run.cfg line 2: unknown config key 'no_such_knob'"):
            parse_config_file(b"seed = 1\nno_such_knob = 1\n", "run.cfg")

    def test_key_restated_only_with_its_value(self):
        assert parse_config_file(b"seed = 1\nseed = 01\n", "run.cfg") == {"seed": 1}
        with pytest.raises(InputError, match="^run.cfg line 3: seed was stated before with "
                                             "another value$"):
            parse_config_file(b"seed = 1\n\nseed = 2\n", "run.cfg")

    def test_parse_config_file_comments_and_blanks(self):
        values = parse_config_file(b"# comment\n\nseed = 4  # trailing\ntrain.gamma = 0.9\n",
                                   "config")
        assert values == {"seed": 4, "train.gamma": 0.9}
        assert [type(v) for v in values.values()] == [int, float]

    def test_digest_stable_under_key_order(self):
        a = build_run_config({"seed": 5, "cluster_radius": 3}, "config")
        b = build_run_config({"cluster_radius": 3, "seed": 5}, "config")
        assert config_digest(a) == config_digest(b)

    def test_reward_spec_loadable_from_config(self):
        values = parse_config_file(b"reward.correct = 20\nreward.fuzz_cost = -2.5\n", "config")
        cfg = build_run_config(values, "config")
        assert cfg.reward.correct == 20.0
        assert cfg.reward.fuzz_cost == -2.5


def run_clustered(root, extra_config=""):
    """The pipeline on the demo corpus with its first three warnings moved into
    one file, 7 and 14 lines apart, so that `cluster_radius` matters, and with
    the keys of `extra_config` set in the demo config."""
    inputs = write_demo_inputs(root)
    before = inputs["report"].read_bytes()
    report = json.loads(before)
    for obj in report[1:3]:
        obj["file"] = report[0]["file"]
    inputs["report"].write_text(json.dumps(report, indent=1))
    labels = read_label_sidecar(inputs["labels"].read_bytes(), "labels")
    moved = zip(parse_report(before, "report"),
                parse_report(inputs["report"].read_bytes(), "report"))
    inputs["labels"].write_bytes(write_label_sidecar({new.id: labels[old.id] for old, new in moved}))
    inputs["config"].write_text(with_keys(DEMO_CONFIG, extra_config))
    return run_pipeline(inputs, root)


# The artefacts `run_pipeline` writes.
ARTEFACTS = ("warnings", "splits", "features", "manifest", "checkpoint", "trainlog", "reportfile",
             "verdicts", "recomputed", "importance", "outcomes", "triage")
TRAINED = {"checkpoint", "trainlog"}
PLAYED = {"verdicts", "triage"}  # evaluate's verdicts and triage's
SCORED = {"reportfile", "recomputed"}

# Each config key, a value for it other than the demo config's, and exactly the
# artefacts of `run_clustered` that the value changes. The simulated backend reads
# no recorded file, fuzzer command, budget or template, `jobs` changes no output,
# and triage's --recorded flag overrides `recorded_path`: those five change nothing.
# An artefact downstream of a changed one can stay the same: the log rounds to four
# decimals, and a slightly different policy can give the same verdicts.
KEY_EFFECTS = {
    "seed": (8, {"splits", *TRAINED, *SCORED, *PLAYED, "importance"}),
    "cluster_radius": (0, {"features", *TRAINED, *SCORED, *PLAYED, "importance"}),
    "backend": ("external", {*TRAINED, *SCORED, *PLAYED, "outcomes"}),
    "recorded_path": ("unused.txt", set()),
    "external_command": ("no-such-fuzzer", set()),
    "fuzz_budget": (30, set()),
    "templates_dir": ("no-such-directory", set()),
    "jobs": (4, set()),
    "train.epochs_max": (2, TRAINED),
    "train.minibatch_size": (8, {*TRAINED, *PLAYED}),
    "train.clip_epsilon": (0.1, {"checkpoint", *PLAYED}),
    "train.learning_rate": (0.01, {*TRAINED, *SCORED, *PLAYED}),
    "train.value_loss_weight": (1.0, {"checkpoint", *PLAYED}),
    "train.entropy_weight": (0.1, {"checkpoint", *PLAYED}),
    "train.ppo_inner_epochs": (2, {"checkpoint", *PLAYED}),
    "train.gamma": (0.9, {"checkpoint", *PLAYED}),
    "train.patience": (1, TRAINED),
    "train.dropout_rate": (0.0, {*TRAINED, *PLAYED}),
    "train.seed": (3, {*TRAINED, *SCORED, *PLAYED, "importance"}),
    "reward.correct": (10, {*TRAINED, *SCORED, *PLAYED}),
    "reward.incorrect": (-10, {*TRAINED, *PLAYED}),
    "reward.fuzz_cost": (-1, {*TRAINED, *PLAYED}),
    "reward.bonus_crash_tp": (5, {*TRAINED, *PLAYED}),
    "reward.bonus_clean_fp": (4, {*TRAINED, *PLAYED}),
    "reward.bonus_inconclusive": (1, TRAINED),
    "sim.p_crash_given_tp": (0.5, {*TRAINED, *SCORED, *PLAYED, "outcomes"}),
    "sim.p_crash_given_fp": (0.2, {*PLAYED, "outcomes"}),
    "sim.p_inconclusive": (0.5, {*TRAINED, *PLAYED, "outcomes"}),
    "sim.seed": (12, {*TRAINED, *PLAYED, "outcomes"}),
}


class TestConfigKeys:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        return {name: path.read_bytes()
                for name, path in run_clustered(tmp_path_factory.mktemp("baseline")).items()}

    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    def test_key_changes_exactly_its_artefacts(self, baseline, tmp_path, key):
        # A key added to CONFIG_KEYS fails here until KEY_EFFECTS states what it changes.
        value, changes = KEY_EFFECTS[key]
        got = run_clustered(tmp_path, f"{key} = {value}\n")
        assert {name for name in ARTEFACTS if got[name].read_bytes() != baseline[name]} == changes

    def test_readme_block_lists_each_key_once_with_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
        # One key a line: `key = default`, then `# in <interval>` when it has one.
        listed = [re.fullmatch(r"([\w.]+) = (\S*) *(?:# (?:in ([\[(]\S+?[\])]))?.*)?", line).groups()
                  for line in block.splitlines()]
        assert sorted(key for key, _, _ in listed) == sorted(CONFIG_KEYS)
        defaults = build_run_config({}, "defaults")
        for key, text, interval in listed:
            section, _, name = key.rpartition(".")
            config = getattr(defaults, section) if section else defaults
            assert CONFIG_KEYS[key](text) == getattr(config, name), key
            assert interval == getattr(type(config), "INTERVALS", {}).get(name), key
