"""Dynamic-validation backends and harness generation.

Three interchangeable backends produce FuzzOutcome values: a deterministic
simulated oracle for training and CI, a recorded-replay backend, and an
external-command adapter that renders a pattern-specific harness and runs a
real fuzzer under a wall-clock budget.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import signal
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import HarnessError, InputError
from .warnings import (BugPattern, Label, WarningRecord, classify_bug_pattern, package_of,
                       read_input, state_once, text_file, text_lines)

BUDGET_BOUNDS = (30.0, 60.0)  # an external run's budget is clamped into this range, in seconds
BUDGET_GRACE_SECONDS = 5.0
MAX_JOBS = 64  # the largest `jobs`: one worker thread and one fuzzer process per slot
DEFAULT_TEMPLATE_DIR = Path(__file__).parent / "templates"
SANITIZER_MARKER = re.compile(r"ERROR: (Address|Memory|Thread)Sanitizer|SUMMARY: \w+Sanitizer")
CRASH_MARKER = re.compile(r"panicked at|SIG(SEGV|ABRT|ILL)|libfuzzer: deadly signal|== ERROR")
BUILD_FAILURE_MARKER = re.compile(r"error\[E\d+\]|could not compile|build failed")


class FuzzKind(Enum):
    NOT_RUN = "not_run"
    CRASH = "crash"
    SANITIZER_VIOLATION = "sanitizer_violation"
    CLEAN = "clean"
    INCONCLUSIVE = "inconclusive"
    INFRASTRUCTURE_FAILURE = "infrastructure_failure"


# Fixed slot order for the state one-hot encoding: the members' order above.
FUZZ_SLOTS = tuple(FuzzKind)
_KIND_OF = {kind.value: kind for kind in FuzzKind}

CRASH_GRADE = (FuzzKind.CRASH, FuzzKind.SANITIZER_VIOLATION)


@dataclass
class FuzzOutcome:
    kind: FuzzKind
    elapsed: float
    detail: str

    def __post_init__(self):
        if self.kind is FuzzKind.NOT_RUN:
            raise ValueError("NOT_RUN is a state slot, not an outcome")
        if not math.isfinite(self.elapsed):
            raise ValueError(f"elapsed must be finite, got {self.elapsed}")
        if self.elapsed < 0:
            raise ValueError(f"elapsed must be >= 0, got {self.elapsed}")


@dataclass
class SimOracleConfig:
    p_crash_given_tp: float = 0.6
    p_crash_given_fp: float = 0.02
    p_inconclusive: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for name in ("p_crash_given_tp", "p_crash_given_fp", "p_inconclusive"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if self.p_crash_given_fp > self.p_crash_given_tp:
            raise ValueError("p_crash_given_fp must be <= p_crash_given_tp (oracle fidelity)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


_PLACEHOLDER = re.compile(r"\{\{(package|function|type_args|entry)\}\}")


def load_templates(directory: Path) -> dict[BugPattern, str]:
    """Template text by bug pattern, from one <pattern>.tmpl file each in the
    directory; a directory with none of them raises InputError naming it. A
    line that still holds `{{` once its placeholders are taken out raises
    InputError naming the file and line."""
    templates = {}
    paths = {pattern: directory / f"{pattern.value}.tmpl" for pattern in BugPattern
             if pattern is not BugPattern.UNKNOWN}
    for pattern, path in paths.items():
        if path.exists():
            data = read_input(path)
            for n, line in text_lines(data):
                if "{{" in _PLACEHOLDER.sub("", line):
                    raise InputError(f"{path} line {n}: '{{{{' opens no placeholder; they are "
                                     "{{package}}, {{function}}, {{type_args}} and {{entry}}")
            templates[pattern] = data.decode("utf-8")
    if not templates:  # else every harness would fail to generate
        raise InputError("templates_dir holds none of "
                         f"{', '.join(p.name for p in paths.values())}: {directory}")
    return templates


def _crate_name(record: WarningRecord) -> str:
    # "aarc-0.3.2/src/smart_ptrs.rs" -> "aarc"; trailing -<version> is dropped.
    head = package_of(record)
    return re.sub(r"-\d[\w.\-]*$", "", head) or head


def _target_function(record: WarningRecord) -> str | None:
    m = re.search(r"\bfn\s+([A-Za-z_]\w*)", record.code_snippet)
    if m:
        return m.group(1)
    m = re.search(r"[`']([A-Za-z_]\w*)[`']", record.description)
    if m:
        return m.group(1)
    return None


def generate_harness(
    warning: WarningRecord, template_set: dict[BugPattern, str]
) -> str:
    """Render the warning's pattern template with target bindings.

    The entry point comes from the first `fn` item in the snippet, falling
    back to a quoted identifier in the description. Type arguments default to
    `u8` per generic parameter. No placeholder survives rendering.
    """
    pattern = classify_bug_pattern(warning)
    if pattern not in template_set:
        raise HarnessError(f"no harness template for pattern {pattern.value!r}")
    function = _target_function(warning)
    if function is None:
        raise HarnessError(f"warning {warning.id}: no callable entry point in snippet or description")
    crate = _crate_name(warning)
    generic_params = len(re.findall(r"\bfn\s+\w+\s*<", warning.code_snippet))
    bindings = {
        "package": crate,
        "function": function,
        "type_args": ", ".join(["u8"] * max(1, generic_params)),
        "entry": f"{crate}::{function}",
    }
    return _PLACEHOLDER.sub(lambda m: bindings[m[1]], template_set[pattern])


# ---------------------------------------------------------------------------
# Backends.
# ---------------------------------------------------------------------------


def _warning_stream(seed: int, warning_id: str) -> np.random.Generator:
    """Seeded per-warning RNG stream, independent of visit order."""
    digest = hashlib.sha256(f"{seed}:{warning_id}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


@dataclass
class SimulatedBackend:
    """Deterministic test double: outcomes drawn from a per-warning stream.

    Draws Crash with the label-conditioned crash probability, otherwise
    Inconclusive with p_inconclusive, otherwise Clean. Each warning id sees
    the same outcome for a given config and seed. The instance keeps each
    id's three uniform draws, not its outcome, so its stream is seeded once
    per id while the label and the probabilities apply on every call.
    """

    config: SimOracleConfig
    _draws: dict[str, tuple[float, float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def run(self, warning: WarningRecord, true_label: Label | None) -> FuzzOutcome:
        if true_label is None:
            return FuzzOutcome(FuzzKind.INFRASTRUCTURE_FAILURE, 0.0,
                               "simulated oracle needs a ground-truth label")
        u = self._draws.get(warning.id)
        if u is None:
            u = self._draws[warning.id] = tuple(
                _warning_stream(self.config.seed, warning.id).random(3).tolist())
        cfg = self.config
        p_crash = (cfg.p_crash_given_tp if true_label is Label.TRUE_POSITIVE
                   else cfg.p_crash_given_fp)
        elapsed = round(u[2] * 5.0, 3)
        if u[0] < p_crash:
            return FuzzOutcome(FuzzKind.CRASH, elapsed, "simulated crash")
        if u[1] < cfg.p_inconclusive:
            return FuzzOutcome(FuzzKind.INCONCLUSIVE, elapsed, "simulated inconclusive")
        return FuzzOutcome(FuzzKind.CLEAN, elapsed, "simulated clean")


@dataclass
class RecordedBackend:
    """Replays outcomes stored per warning id; verbatim, read-only."""

    outcomes: dict[str, FuzzOutcome]

    def run(self, warning: WarningRecord, true_label: Label | None) -> FuzzOutcome:
        if warning.id not in self.outcomes:
            raise InputError(f"no recorded outcome for warning {warning.id}")
        return self.outcomes[warning.id]


@dataclass
class ExternalBackend:
    """Adapter for a real fuzzing command.

    Invoked as `<command> <harness-path> --budget <seconds>`, `command` being
    the configured command line split into its words, in a new session,
    with the harness written to a private directory under TMPDIR that is
    removed when the call ends, so concurrent calls never share a file.
    The budget is clamped to [30, 60] seconds; at budget+5 s the command's
    whole process group is killed (outcome Inconclusive, detail "timeout").
    The *_MARKER regexes map output to outcome kinds; any setup failure
    is InfrastructureFailure, never raised.
    """

    command: list[str]
    templates: dict[BugPattern, str]
    budget: float

    def run(self, warning: WarningRecord, true_label: Label | None) -> FuzzOutcome:
        start = time.monotonic()
        lo, hi = BUDGET_BOUNDS
        budget = min(max(self.budget, lo), hi)
        try:
            harness = generate_harness(warning, self.templates)
        except HarnessError as exc:
            return FuzzOutcome(FuzzKind.INFRASTRUCTURE_FAILURE, 0.0, f"harness generation: {exc}")
        try:
            with tempfile.TemporaryDirectory(prefix="triagerl-", ignore_cleanup_errors=True) as workdir:
                harness_path = Path(workdir) / f"harness_{warning.id}.rs"
                harness_path.write_text(harness, encoding="utf-8")
                return self._fuzz(harness_path, budget, start)
        except OSError as exc:
            return FuzzOutcome(
                FuzzKind.INFRASTRUCTURE_FAILURE, time.monotonic() - start, f"spawn failed: {exc}"
            )

    def _fuzz(self, harness_path: Path, budget: float, start: float) -> FuzzOutcome:
        argv = self.command + [str(harness_path), "--budget", str(int(budget))]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, errors="replace",
            start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=budget + BUDGET_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                # The session's group holds every child the command started.
                os.killpg(proc.pid, signal.SIGKILL)
                return FuzzOutcome(FuzzKind.INCONCLUSIVE, time.monotonic() - start, "timeout")

        elapsed = time.monotonic() - start
        output = stdout + "\n" + stderr
        if BUILD_FAILURE_MARKER.search(output):
            return FuzzOutcome(FuzzKind.INFRASTRUCTURE_FAILURE, elapsed, "build failure")
        if SANITIZER_MARKER.search(output):
            return FuzzOutcome(FuzzKind.SANITIZER_VIOLATION, elapsed, "sanitizer report")
        if proc.returncode == 0:
            return FuzzOutcome(FuzzKind.CLEAN, elapsed, "clean run")
        if CRASH_MARKER.search(output):
            return FuzzOutcome(FuzzKind.CRASH, elapsed, f"crash (exit {proc.returncode})")
        return FuzzOutcome(FuzzKind.INCONCLUSIVE, elapsed, f"exit {proc.returncode}, no marker")


def run_many(call, items: list, jobs: int) -> list:
    """`call` on every item, results in input order, at most `jobs` in flight.

    The one place that starts worker threads: jobs <= 1 runs the calls
    inline and builds no pool. Threads pay off only for backends that wait
    on a subprocess; the first exception a call raises propagates.
    """
    if jobs <= 1:
        return [call(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(call, items))


# ---------------------------------------------------------------------------
# Recorded outcomes file: one outcome per line.
# ---------------------------------------------------------------------------


def write_recorded_outcomes(outcomes: dict[str, FuzzOutcome]) -> bytes:
    return text_file(f"{wid}\t{o.kind.value}\t{o.elapsed!r}\t{o.detail}"
                     for wid, o in outcomes.items())


def read_recorded_outcomes(data: bytes, source: str) -> dict[str, FuzzOutcome]:
    """Parse an outcomes file; a malformed line raises InputError naming `source`."""
    outcomes: dict[str, FuzzOutcome] = {}
    for n, line in text_lines(data):
        parts = line.split("\t", 3)
        if len(parts) < 3:
            raise InputError(f"{source} line {n}: expected id<TAB>kind<TAB>elapsed")
        try:
            detail = parts[3] if len(parts) > 3 else ""
            # FuzzKind(...) of a kind not in the table raises the ValueError that names it.
            kind = _KIND_OF[parts[1]] if parts[1] in _KIND_OF else FuzzKind(parts[1])
            outcome = FuzzOutcome(kind, float(parts[2]), detail)
        except ValueError as exc:
            raise InputError(f"{source} line {n}: {exc}") from exc
        state_once(outcomes, parts[0], outcome, f"{source} line {n}")
    return outcomes
