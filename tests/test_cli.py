"""Command-line surface: pipeline wiring, exit codes, determinism."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagerl import fuzz as fuzz_mod
from triagerl.cli import build_run_config, config_digest, parse_config_file, run_cli
from triagerl.env import RewardSpec
from triagerl.errors import SchemaError
from triagerl.features import MANIFEST, NormalizerStats
from triagerl.policy import init_params
from triagerl.trainer import PolicyCheckpoint, TrainConfig, save_checkpoint

from conftest import run_demo_pipeline, sha256, write_demo_inputs
from test_fuzz import fake_cmd

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
    normalizer = NormalizerStats(mean=np.zeros(len(MANIFEST)), std=np.ones(len(MANIFEST)),
                                 fitted_on="train", manifest_digest=MANIFEST.digest)
    path.write_bytes(save_checkpoint(PolicyCheckpoint(
        params, normalizer, MANIFEST.digest, TrainConfig(), RewardSpec())))
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

    @pytest.mark.parametrize("via", ["config", "environment"])
    def test_unsplittable_command_records_infrastructure_failures(self, pipeline, tmp_path,
                                                                   monkeypatch, via):
        command = '"unclosed'
        if via == "environment":
            monkeypatch.setenv("TRIAGE_FUZZ_CMD", command)
            command = "cargo-fuzz-triage"
        cfg = tmp_path / "external.cfg"
        cfg.write_text(f"backend = external\nexternal_command = {command}\n")
        out = tmp_path / "outcomes.txt"
        code = run_cli(["fuzz-validate", "--warnings", str(pipeline["warnings"]),
                        "--out", str(out), "--config", str(cfg)])
        assert code == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert rows and {r[1] for r in rows} == {"infrastructure_failure"}
        assert any("No closing quotation" in r[3] for r in rows)


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


# The subcommand that reads each pipeline file.
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


def keep_one_train_record(text):
    first, rest = text.split("\ttrain", 1)
    return first + "\ttrain" + rest.replace("\ttrain", "\tval")


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
        corrupted = data.draw(st.sampled_from([
            original[:pos],
            original[:pos] + original[pos + 1:],
            original[:pos] + bytes([byte]) + original[pos + 1:],
        ]), label="corrupted")
        code, _ = run_with(pipeline, tmp_path_factory.mktemp("corrupt"), name, corrupted)
        assert code in (0, 3)

    @pytest.mark.parametrize("command, name, edit, flags, code, named", [
        ("train", "config", lambda t: t + "train.dropout_rate = 1.5\n", [], 3,
         "{bad}: train.dropout_rate must be in [0,1), got 1.5"),
        ("train", "config", lambda t: t + "train.dropout_rate = nan\n", [], 3,
         "{bad}: train.dropout_rate must be finite, got nan"),
        ("train", "config", lambda t: t + "train.learning_rate = nan\n", [], 3,
         "{bad}: train.learning_rate must be finite, got nan"),
        ("train", "config", lambda t: t + "reward.correct = nan\n", [], 3,
         "{bad}: reward.correct must be finite, got nan"),
        ("fuzz-validate", "config", lambda t: t + "backend = external\nfuzz_budget = nan\n", [],
         3, "{bad}: fuzz_budget must be finite, got nan"),
        ("fuzz-validate", "config", lambda t: t + "backend = external\nfuzz_budget = inf\n", [],
         3, "{bad}: fuzz_budget must be finite, got inf"),
        ("split", "config", str, ["--ratios", "abc"], 2,
         "argument --ratios: invalid _ratios value: 'abc'"),
        ("importance", "config", str, ["--repeats", "0"], 2,
         "argument --repeats: must be >= 1, got 0"),
        ("train", "splits", keep_one_train_record, [], 3, "need >= 2 training vectors, got 1"),
        ("featurize", "meta", lambda t: re.sub(r'"loc": \d+', '"loc": 1' + "0" * 400, t, count=1),
         [], 3, "{bad}: package 'demo-crate-0-0.0.1': loc does not fit a float"),
    ], ids=["dropout-range", "dropout-nan", "learning-rate-nan", "reward-nan", "budget-nan",
            "budget-inf", "ratios", "repeats", "one-train-record", "huge-loc"])
    def test_bad_value_exits_with_its_code(self, pipeline, tmp_path, capsys,
                                           command, name, edit, flags, code, named):
        data = edit(pipeline[name].read_text()).encode()
        got, bad = run_with(pipeline, tmp_path, name, data, command, flags)
        err = capsys.readouterr().err
        assert got == code, err
        assert named.format(bad=bad) in err, err

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
    ], ids=["flag", "ratio", "length"])
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
        pinned.write_text(pipeline["config"].read_text() + "train.seed = 3\n")
        assert checkpoint("b1", 1, pinned) == checkpoint("b2", 2, pinned)

    def test_seed_sets_train_and_sim_seeds_unless_they_are_set(self):
        cfg = build_run_config({"seed": 4})
        assert (cfg.train.seed, cfg.sim.seed) == (4, 4)
        cfg = build_run_config({"seed": 5, "sim.seed": 9})
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
        with pytest.raises(SchemaError, match="run.cfg line 2: unknown config key 'no_such_knob'"):
            parse_config_file("seed = 1\nno_such_knob = 1\n", "run.cfg")

    def test_parse_config_file_comments_and_blanks(self):
        values = parse_config_file("# comment\n\nseed = 4  # trailing\ntrain.gamma = 0.9\n")
        assert values == {"seed": 4, "train.gamma": 0.9}
        assert [type(v) for v in values.values()] == [int, float]

    def test_digest_stable_under_key_order(self):
        a = build_run_config({"seed": 5, "cluster_radius": 3})
        b = build_run_config({"cluster_radius": 3, "seed": 5})
        assert config_digest(a) == config_digest(b)

    def test_reward_spec_loadable_from_config(self):
        cfg = build_run_config(parse_config_file("reward.correct = 20\nreward.fuzz_cost = -2.5\n"))
        assert cfg.reward.correct == 20.0
        assert cfg.reward.fuzz_cost == -2.5
