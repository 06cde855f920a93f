"""Backends: simulated oracle statistics, recorded replay, external adapter."""

import json
import os
import re
import stat
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from triagerl import fuzz as fuzz_mod
from triagerl.errors import HarnessError, InputError
from triagerl.fuzz import (
    DEFAULT_TEMPLATE_DIR,
    ExternalBackend,
    FuzzKind,
    FuzzOutcome,
    RecordedBackend,
    SimOracleConfig,
    SimulatedBackend,
    generate_harness,
    load_templates,
    read_recorded_outcomes,
    run_many,
    write_recorded_outcomes,
)
from triagerl.synthetic import demo_corpus
from triagerl.warnings import BugPattern, Label, Level, WarningRecord, parse_report, warning_id

from conftest import load_script
from test_warnings import make_record

TP, FP = Label.TRUE_POSITIVE, Label.FALSE_POSITIVE

# A harness's `use` paths, and what each of their segments must be: a Rust
# identifier that is none of the language's strict or reserved keywords.
USE_PATH = re.compile(r"^use ([^;]*);$", re.M)
RUST_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*|_[A-Za-z0-9_]+")
RUST_KEYWORDS = frozenset("""
    as async await break const continue crate dyn else enum extern false fn for if impl in let
    loop match mod move mut pub ref return self Self static struct super trait true type unsafe
    use where while abstract become box do final macro override priv try typeof unsized virtual
    yield gen""".split())


def panic_warning(i=0):
    file = f"vecutils-1.2.0/src/retain_{i}.rs"
    desc = "panic during temporarily broken length invariant"
    return WarningRecord(
        id=warning_id(file, 10, 1, 16, 2, "UnsafeDataflow", desc),
        level=Level.WARNING,
        analyzer="UnsafeDataflow",
        op_type="ReadFlow",
        description=desc,
        file=file,
        start_line=10, start_col=1, end_line=16, end_col=2,
        code_snippet="fn unsafe_retain(v: &mut Vec<u8>) {\n    unsafe { v.set_len(0); }\n}",
        label=TP,
    )


class TestSimulatedBackend:
    def test_probability_one_branch(self):
        backend = SimulatedBackend(SimOracleConfig(1.0, 0.0, 0.0, seed=0))
        outcome = backend.run(make_record(0, label=TP), TP)
        assert outcome.kind is FuzzKind.CRASH

    def test_missing_label_is_infrastructure_failure(self):
        backend = SimulatedBackend(SimOracleConfig(seed=0))
        outcome = backend.run(make_record(0), None)
        assert outcome.kind is FuzzKind.INFRASTRUCTURE_FAILURE

    def test_pure_function_of_seed_id_label(self):
        backend = SimulatedBackend(SimOracleConfig(0.5, 0.1, 0.3, seed=4))
        rec = make_record(3, label=TP)
        first = [backend.run(rec, TP).kind for _ in range(5)]
        assert len(set(first)) == 1
        again = SimulatedBackend(SimOracleConfig(0.5, 0.1, 0.3, seed=4)).run(rec, TP)
        assert again.kind is first[0]

    def test_outcome_independent_of_visit_order(self):
        backend = SimulatedBackend(SimOracleConfig(0.5, 0.1, 0.3, seed=4))
        records = [make_record(i, label=TP) for i in range(30)]
        forward = {r.id: backend.run(r, TP).kind for r in records}
        backward = {r.id: backend.run(r, TP).kind for r in reversed(records)}
        assert forward == backward

    def test_crash_fraction_matches_binomial_oracle(self):
        # 10,000 TP draws at p=0.8; binomial sd is ~0.004, gate at +-0.02.
        backend = SimulatedBackend(SimOracleConfig(0.8, 0.05, 0.25, seed=0))
        crashes = sum(
            backend.run(make_record(i, label=TP), TP).kind is FuzzKind.CRASH
            for i in range(10_000)
        )
        assert abs(crashes / 10_000 - 0.8) <= 0.02

    def test_chi_square_goodness_of_fit(self):
        cfg = SimOracleConfig(0.6, 0.02, 0.25, seed=1)
        backend = SimulatedBackend(cfg)
        n = 10_000
        counts = {FuzzKind.CRASH: 0, FuzzKind.INCONCLUSIVE: 0, FuzzKind.CLEAN: 0}
        for i in range(n):
            counts[backend.run(make_record(i, label=TP), TP).kind] += 1
        expected = [
            n * cfg.p_crash_given_tp,
            n * (1 - cfg.p_crash_given_tp) * cfg.p_inconclusive,
            n * (1 - cfg.p_crash_given_tp) * (1 - cfg.p_inconclusive),
        ]
        observed = [counts[FuzzKind.CRASH], counts[FuzzKind.INCONCLUSIVE], counts[FuzzKind.CLEAN]]
        result = scipy_stats.chisquare(observed, expected)
        assert result.pvalue > 0.01

    def test_fidelity_ordering_enforced(self):
        with pytest.raises(ValueError):
            SimOracleConfig(p_crash_given_tp=0.1, p_crash_given_fp=0.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": True}, "seed: expected int, got True"),
        ({"p_inconclusive": True}, "p_inconclusive: expected float, got True"),
    ])
    def test_a_bool_is_no_number(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimOracleConfig(**kwargs)

    def test_elapsed_nonnegative_and_small(self):
        backend = SimulatedBackend(SimOracleConfig(seed=0))
        outcome = backend.run(make_record(0, label=FP), FP)
        assert 0.0 <= outcome.elapsed <= 5.0


class TestSimulatedMemo:
    """Each instance keeps its ids' outcomes; they are those of a fresh instance."""

    CONFIG = SimOracleConfig(0.5, 0.1, 0.3, seed=4)

    def test_memoized_outcomes_equal_a_fresh_instance(self):
        backend = SimulatedBackend(self.CONFIG)
        records = [make_record(i) for i in range(60)]
        for _ in range(2):  # the second pass reads only memoized draws
            for record in records:
                for label in (TP, FP):
                    fresh = SimulatedBackend(self.CONFIG).run(record, label)
                    assert backend.run(record, label) == fresh

    def test_stream_seeded_once_per_id(self, monkeypatch):
        seeded = []
        real = fuzz_mod._warning_stream

        def counting(seed, warning_id):
            seeded.append(warning_id)
            return real(seed, warning_id)

        monkeypatch.setattr(fuzz_mod, "_warning_stream", counting)
        backend = SimulatedBackend(self.CONFIG)
        records = [make_record(i) for i in range(10)]
        for _ in range(3):
            for record in records:
                backend.run(record, TP)
                backend.run(record, FP)
        assert sorted(seeded) == sorted(r.id for r in records)

    def test_repeated_call_returns_its_labels_outcome_without_reseeding(self, monkeypatch):
        # A true positive always crashes under this config, a false positive never does.
        backend = SimulatedBackend(SimOracleConfig(1.0, 0.0, 0.0, seed=4))
        record = make_record(0)
        first = {label: backend.run(record, label) for label in (TP, FP)}
        assert (first[TP].kind, first[FP].kind) == (FuzzKind.CRASH, FuzzKind.CLEAN)

        def reseeded(seed, warning_id):
            raise AssertionError(f"stream of {warning_id} seeded again")

        monkeypatch.setattr(fuzz_mod, "_warning_stream", reseeded)
        for label in (FP, TP, TP, FP):
            assert backend.run(record, label) == first[label]

    def test_instances_with_other_seeds_share_no_draws(self):
        records = [make_record(i) for i in range(200)]
        first = SimulatedBackend(SimOracleConfig(0.5, 0.1, 0.3, seed=0))
        second = SimulatedBackend(SimOracleConfig(0.5, 0.1, 0.3, seed=1))
        ran_first = [first.run(r, TP) for r in records]
        ran_second = [second.run(r, TP) for r in records]
        fresh = SimulatedBackend(SimOracleConfig(0.5, 0.1, 0.3, seed=1))
        assert ran_second == [fresh.run(r, TP) for r in records]
        assert [o.elapsed for o in ran_first] != [o.elapsed for o in ran_second]


class TestRecordedBackend:
    def test_replay_and_missing(self):
        rec_x = make_record(0, label=TP)
        rec_y = make_record(1, label=TP)
        outcomes = write_recorded_outcomes({rec_x.id: FuzzOutcome(FuzzKind.CLEAN, 2.0, "rec")})
        backend = RecordedBackend(read_recorded_outcomes(outcomes, "o.txt"))
        assert backend.run(rec_x, TP).kind is FuzzKind.CLEAN
        with pytest.raises(InputError,
                           match=f"^o.txt: no recorded outcome for warning {rec_y.id}$"):
            backend.run(rec_y, TP)

    def test_outcomes_file_round_trip(self):
        outcomes = {
            "a" * 16: FuzzOutcome(FuzzKind.CRASH, 12.5, "SIGSEGV"),
            "b" * 16: FuzzOutcome(FuzzKind.CLEAN, 30.0, ""),
        }
        parsed = read_recorded_outcomes(write_recorded_outcomes(outcomes), "recorded outcomes")
        assert parsed == outcomes

    def test_not_run_is_not_an_outcome(self):
        with pytest.raises(ValueError):
            FuzzOutcome(FuzzKind.NOT_RUN, 0.0, "")


class TestHarnessGeneration:
    def test_panic_safety_harness(self):
        templates = load_templates(DEFAULT_TEMPLATE_DIR)
        harness = generate_harness(panic_warning(), templates)
        assert "unsafe_retain" in harness
        assert "panic!" in harness
        assert "{{" not in harness

    def test_all_templates_render_placeholder_free(self):
        templates = load_templates(DEFAULT_TEMPLATE_DIR)
        assert set(templates) == {
            BugPattern.PANIC_SAFETY,
            BugPattern.HIGHER_ORDER_INVARIANT,
            BugPattern.SEND_SYNC_VARIANCE,
        }
        cases = {
            BugPattern.PANIC_SAFETY: panic_warning(),
            BugPattern.SEND_SYNC_VARIANCE: make_record(1, analyzer="SendSyncVariance"),
            BugPattern.HIGHER_ORDER_INVARIANT: make_record(2, analyzer="UnsafeDestructor"),
        }
        for pattern, warning in cases.items():
            harness = generate_harness(warning, templates)
            assert "{{" not in harness and "}}" not in harness
            assert pattern is not None

    def test_type_argument_is_one_type_for_any_number_of_generic_fns(self):
        # Every template uses the binding as one type (`Vec<_>`, `&_`, `as _`),
        # so two generic `fn` items in the snippet must not render `Vec<u8, u8>`.
        warning = make_record(2, analyzer="UnsafeDestructor")
        warning = warning.__class__(**{**warning.__dict__, "code_snippet":
                                       "fn drop<U>(x: U) {}\nfn other<V>(y: V) {}"})
        harness = generate_harness(warning, load_templates(DEFAULT_TEMPLATE_DIR))
        assert "Vec<u8>" in harness and "Borrow<[u8]>" in harness
        assert "u8, u8" not in harness

    @pytest.mark.parametrize("directory, package, library", [
        ("md-5-0.9.1", "md-5", "md_5"),
        ("sha-1-0.10.0", "sha-1", "sha_1"),
        ("demo-crate-0-0.0.1", "demo-crate-0", "demo_crate_0"),
        ("aarc-0.3.2", "aarc", "aarc"),
        ("futures-util-0.3.21", "futures-util", "futures_util"),
        ("tokio-1.0.0-alpha.1", "tokio", "tokio"),
        ("ring-0.17.0+build.5", "ring", "ring"),
    ])
    def test_package_keeps_its_name_and_entry_names_its_library(self, directory, package,
                                                                 library):
        # Only a trailing -<major>.<minor>.<patch> goes; Cargo's library name has `_` for `-`.
        warning = make_record(0, file=f"{directory}/src/lib.rs")  # a panic-safety `fn f`
        harness = generate_harness(warning, {BugPattern.PANIC_SAFETY: "{{package}} {{entry}}"})
        assert harness == f"{package} {library}::f"

    def test_every_use_path_is_rust_identifiers(self):
        # The demo corpus's packages hold hyphens (`demo-crate-0-0.0.1`); the
        # benchmark's generated packages do not.
        demo_report, _, _ = demo_corpus(20, 7)
        gen_report = load_script("gen", "perfbench").corpus(2000, 2701)["report"]
        templates = load_templates(DEFAULT_TEMPLATE_DIR)
        for report in (demo_report, gen_report):
            paths = []
            for warning in parse_report(json.dumps(report).encode(), "report"):
                try:
                    paths += USE_PATH.findall(generate_harness(warning, templates))
                except HarnessError:
                    continue
            assert len(paths) > len(report)  # most render, each with two `use` lines or more
            bad = [path for path in paths if not all(
                RUST_IDENTIFIER.fullmatch(part) and part not in RUST_KEYWORDS
                for part in path.split("::"))]
            assert not bad, bad[:5]

    def test_unknown_pattern(self):
        warning = make_record(0, analyzer="SomethingElse")
        warning = warning.__class__(**{**warning.__dict__, "description": "odd report"})
        with pytest.raises(HarnessError, match="^no harness template for pattern "):
            generate_harness(warning, load_templates(DEFAULT_TEMPLATE_DIR))

    def test_unresolvable_target(self):
        warning = panic_warning()
        warning = warning.__class__(
            **{**warning.__dict__, "code_snippet": "let x = 1;", "description": "panic here"}
        )
        with pytest.raises(HarnessError, match="no callable entry point in snippet or description$"):
            generate_harness(warning, load_templates(DEFAULT_TEMPLATE_DIR))


def fake_cmd(tmp_path, name, script):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class TestExternalBackend:
    def make(self, tmp_path, script, budget=45.0):
        return ExternalBackend([fake_cmd(tmp_path, "fuzzer.sh", script)],
                               load_templates(DEFAULT_TEMPLATE_DIR), budget)

    def test_exit_zero_is_clean(self, tmp_path):
        backend = self.make(tmp_path, "exit 0\n")
        assert backend.run(panic_warning(), TP).kind is FuzzKind.CLEAN

    def test_sanitizer_marker(self, tmp_path):
        backend = self.make(tmp_path, 'echo "ERROR: AddressSanitizer heap-use-after-free"\nexit 1\n')
        assert backend.run(panic_warning(), TP).kind is FuzzKind.SANITIZER_VIOLATION

    def test_crash_marker(self, tmp_path):
        backend = self.make(tmp_path, 'echo "thread panicked at lib.rs:4"\nexit 101\n')
        assert backend.run(panic_warning(), TP).kind is FuzzKind.CRASH

    def test_output_that_is_not_utf8_still_matches_markers(self, tmp_path):
        # Fuzzers echo the raw bytes of their inputs; one stray byte must not hide a crash.
        backend = self.make(tmp_path, "printf '\\377'\necho \"thread 'main' panicked at lib.rs:4\"\n"
                                      "exit 101\n")
        outcome = backend.run(panic_warning(), TP)
        assert (outcome.kind, outcome.detail) == (FuzzKind.CRASH, "crash (exit 101)")

    def test_build_failure_marker(self, tmp_path):
        backend = self.make(tmp_path, 'echo "error[E0308] mismatched types"\nexit 1\n')
        assert backend.run(panic_warning(), TP).kind is FuzzKind.INFRASTRUCTURE_FAILURE

    def test_unparsable_nonzero_is_inconclusive(self, tmp_path):
        backend = self.make(tmp_path, 'echo "nothing to see"\nexit 7\n')
        outcome = backend.run(panic_warning(), TP)
        assert outcome.kind is FuzzKind.INCONCLUSIVE

    def test_missing_command_is_infrastructure_failure(self, tmp_path):
        backend = ExternalBackend([str(tmp_path / "does-not-exist")],
                                  load_templates(DEFAULT_TEMPLATE_DIR), 45.0)
        outcome = backend.run(panic_warning(), TP)
        assert outcome.kind is FuzzKind.INFRASTRUCTURE_FAILURE

    def test_timeout_kills_within_grace(self, tmp_path):
        backend = self.make(tmp_path, "sleep 30\n", budget=0.3)
        start = time.monotonic()
        outcome = backend.run(panic_warning(), TP)
        elapsed = time.monotonic() - start
        assert outcome.kind is FuzzKind.INCONCLUSIVE
        assert outcome.detail == "timeout"
        assert elapsed <= 0.3 + 5.0 + 2.0  # budget + grace + slack

    def test_ungeneratable_harness_is_infrastructure_failure(self, tmp_path):
        backend = self.make(tmp_path, "exit 0\n")
        warning = make_record(0, analyzer="Mystery")
        warning = warning.__class__(**{**warning.__dict__, "description": "odd"})
        outcome = backend.run(warning, TP)
        assert outcome.kind is FuzzKind.INFRASTRUCTURE_FAILURE
        assert "harness" in outcome.detail

    def test_concurrent_calls_on_one_warning_use_private_directories(self, tmp_path):
        # The fake fuzzer logs its harness path if the file is there, and
        # sleeps so that the two calls overlap.
        log = tmp_path / "paths.txt"
        backend = self.make(tmp_path, f'test -f "$1" && echo "$1" >> {log}\nsleep 0.5\nexit 0\n')
        warning = panic_warning()
        outcomes = run_many(backend, [warning, warning], jobs=2)
        assert [o.kind for o in outcomes] == [FuzzKind.CLEAN, FuzzKind.CLEAN]
        paths = [Path(line) for line in log.read_text().splitlines()]
        assert len(paths) == 2 and paths[0] != paths[1]
        for path in paths:
            assert path.name == f"harness_{warning.id}.rs"
            assert path.parent.parent == Path(tempfile.gettempdir())
            assert not path.parent.exists()

    def test_timeout_kills_whole_process_group(self, tmp_path):
        pidfile = tmp_path / "child.pid"
        script = f"sleep 30 &\necho $! > {pidfile}\nwait\n"
        backend = self.make(tmp_path, script, budget=0.3)
        outcome = backend.run(panic_warning(), TP)
        assert outcome.detail == "timeout"
        pid = int(pidfile.read_text())
        deadline = time.monotonic() + 5.0
        while process_running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not process_running(pid)


def process_running(pid):
    """True while `pid` exists and is not a zombie awaiting its reaper."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat_path = Path(f"/proc/{pid}/stat")
    return not (stat_path.exists() and stat_path.read_text().rsplit(")", 1)[1].split()[0] == "Z")


class EchoBackend:
    """Stub backend: each outcome's detail names the warning and the label it
    was given; a warning whose id is in `errors` raises that error instead."""

    def __init__(self, errors=None):
        self.errors = errors or {}

    def run(self, warning, true_label):
        if warning.id in self.errors:
            raise self.errors[warning.id]
        return FuzzOutcome(FuzzKind.CLEAN, 0.0, f"{warning.id} {true_label}")


class TestRunMany:
    def test_results_keep_input_order(self):
        records = [make_record(i, label=(TP, FP, None)[i % 3]) for i in range(20)]
        for jobs in (0, 1, 4):
            outcomes = run_many(EchoBackend(), records, jobs)
            assert [o.detail for o in outcomes] == [f"{r.id} {r.label}" for r in records]

    def test_jobs_at_most_one_builds_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(fuzz_mod, "ThreadPoolExecutor", no_pool)
        records = [make_record(1), make_record(2)]
        for jobs in (-1, 0, 1):
            assert [o.detail for o in run_many(EchoBackend(), records, jobs)] == [
                f"{r.id} None" for r in records]
        with pytest.raises(AssertionError, match="pool"):
            run_many(EchoBackend(), records, 2)

    def test_first_error_propagates(self):
        # A missing recording is an input error: the first one raised leaves run_many.
        records = [make_record(i) for i in range(6)]
        outcomes = write_recorded_outcomes({r.id: FuzzOutcome(FuzzKind.CLEAN, 1.0, "")
                                            for r in records if r not in records[3:5]})
        backend = RecordedBackend(read_recorded_outcomes(outcomes, "o.txt"))
        for jobs in (1, 3):
            with pytest.raises(InputError, match=f"^o.txt: no recorded outcome for warning "
                                                 f"{records[3].id}$"):
                run_many(backend, records, jobs)

    def test_other_errors_become_infrastructure_failures(self):
        records = [make_record(i) for i in range(6)]
        backend = EchoBackend({records[1].id: RuntimeError("toolchain missing"),
                               records[4].id: HarnessError("no template")})
        for jobs in (1, 3):
            outcomes = run_many(backend, records, jobs)
            assert [o.kind for o in outcomes] == [FuzzKind.CLEAN, FuzzKind.INFRASTRUCTURE_FAILURE,
                                                  *[FuzzKind.CLEAN] * 2,
                                                  FuzzKind.INFRASTRUCTURE_FAILURE, FuzzKind.CLEAN]
            assert outcomes[1] == FuzzOutcome(FuzzKind.INFRASTRUCTURE_FAILURE, 0.0,
                                              "backend error: toolchain missing")
            assert outcomes[4].detail == "backend error: no template"
