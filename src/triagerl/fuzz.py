"""Dynamic-validation backends and harness generation.

Three interchangeable backends produce FuzzOutcome values: a deterministic
simulated oracle for training and CI, a recorded-replay backend, and an
external-command adapter that renders a pattern-specific harness and runs a
real fuzzer under a wall-clock budget.
"""

from __future__ import annotations

import hashlib
import os
import re
import shlex
import signal
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import MissingRecording, UnknownPattern, UnresolvableTarget
from .warnings import BugPattern, Label, WarningRecord, classify_bug_pattern

BUDGET_GRACE_SECONDS = 5.0
DEFAULT_TEMPLATE_DIR = Path(__file__).parent / "templates"


class FuzzKind(Enum):
    NOT_RUN = "not_run"
    CRASH = "crash"
    SANITIZER_VIOLATION = "sanitizer_violation"
    CLEAN = "clean"
    INCONCLUSIVE = "inconclusive"
    INFRASTRUCTURE_FAILURE = "infrastructure_failure"


# Fixed slot order for the state one-hot encoding.
FUZZ_SLOTS = (
    FuzzKind.NOT_RUN,
    FuzzKind.CRASH,
    FuzzKind.SANITIZER_VIOLATION,
    FuzzKind.CLEAN,
    FuzzKind.INCONCLUSIVE,
    FuzzKind.INFRASTRUCTURE_FAILURE,
)

CRASH_GRADE = (FuzzKind.CRASH, FuzzKind.SANITIZER_VIOLATION)


@dataclass
class FuzzOutcome:
    kind: FuzzKind
    elapsed: float
    detail: str = ""

    def __post_init__(self):
        if self.kind is FuzzKind.NOT_RUN:
            raise ValueError("NOT_RUN is a state slot, not an outcome")
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


@dataclass(frozen=True)
class HarnessTemplate:
    bug_pattern: BugPattern
    text: str


_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")


def load_templates(directory: Path | str = DEFAULT_TEMPLATE_DIR) -> dict[BugPattern, HarnessTemplate]:
    """One template file per bug pattern: <pattern>.tmpl in the directory."""
    directory = Path(directory)
    templates = {}
    for pattern in (BugPattern.PANIC_SAFETY, BugPattern.HIGHER_ORDER_INVARIANT, BugPattern.SEND_SYNC_VARIANCE):
        path = directory / f"{pattern.value}.tmpl"
        if path.exists():
            templates[pattern] = HarnessTemplate(pattern, path.read_text(encoding="utf-8"))
    return templates


def _crate_name(record: WarningRecord) -> str:
    # "aarc-0.3.2/src/smart_ptrs.rs" -> "aarc"; trailing -<version> is dropped.
    head = record.file.split("/", 1)[0]
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
    warning: WarningRecord, template_set: dict[BugPattern, HarnessTemplate]
) -> str:
    """Render the warning's pattern template with target bindings.

    The entry point comes from the first `fn` item in the snippet, falling
    back to a quoted identifier in the description. Type arguments default to
    `u8` per generic parameter. No placeholder survives rendering.
    """
    pattern = classify_bug_pattern(warning)
    if pattern not in template_set:
        raise UnknownPattern(f"no harness template for pattern {pattern.value!r}")
    function = _target_function(warning)
    if function is None:
        raise UnresolvableTarget(
            f"warning {warning.id}: no callable entry point in snippet or description"
        )
    crate = _crate_name(warning)
    generic_params = len(re.findall(r"\bfn\s+\w+\s*<", warning.code_snippet))
    bindings = {
        "package": crate,
        "function": function,
        "type_args": ", ".join(["u8"] * max(1, generic_params)),
        "entry": f"{crate}::{function}",
    }

    def sub(m: re.Match) -> str:
        key = m.group(1)
        if key not in bindings:
            raise UnresolvableTarget(f"template placeholder {{{{{key}}}}} has no binding")
        return bindings[key]

    rendered = _PLACEHOLDER.sub(sub, template_set[pattern].text)
    assert "{{" not in rendered
    return rendered


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
    the same outcome for a given config and seed.
    """

    config: SimOracleConfig = field(default_factory=SimOracleConfig)

    def run(self, warning: WarningRecord, true_label: Label | None) -> FuzzOutcome:
        if true_label is None:
            return FuzzOutcome(
                FuzzKind.INFRASTRUCTURE_FAILURE, 0.0,
                "simulated oracle needs a ground-truth label",
            )
        rng = _warning_stream(self.config.seed, warning.id)
        u = rng.random(3)
        p_crash = (
            self.config.p_crash_given_tp
            if true_label is Label.TRUE_POSITIVE
            else self.config.p_crash_given_fp
        )
        elapsed = round(float(u[2]) * 5.0, 3)
        if u[0] < p_crash:
            return FuzzOutcome(FuzzKind.CRASH, elapsed, "simulated crash")
        if u[1] < self.config.p_inconclusive:
            return FuzzOutcome(FuzzKind.INCONCLUSIVE, elapsed, "simulated inconclusive")
        return FuzzOutcome(FuzzKind.CLEAN, elapsed, "simulated clean")


@dataclass
class RecordedBackend:
    """Replays outcomes stored per warning id; verbatim, read-only."""

    outcomes: dict[str, FuzzOutcome]

    def run(self, warning: WarningRecord, true_label: Label | None) -> FuzzOutcome:
        if warning.id not in self.outcomes:
            raise MissingRecording(f"no recorded outcome for warning {warning.id}")
        return self.outcomes[warning.id]


@dataclass
class ExternalBackend:
    """Adapter for a real fuzzing command.

    Invoked as `<cmd> <harness-path> --budget <seconds>` in a new session,
    with the harness written to a private directory under TMPDIR that is
    removed when the call ends, so concurrent calls never share a file.
    The budget is clamped to [30, 60] seconds; at budget+5 s the command's
    whole process group is killed (outcome Inconclusive, detail "timeout").
    The TRIAGE_FUZZ_CMD environment variable overrides the configured
    command. Marker regexes map output to outcome kinds; any setup failure
    is InfrastructureFailure, never raised.
    """

    command: str
    templates: dict[BugPattern, HarnessTemplate] = field(default_factory=load_templates)
    sanitizer_marker: str = r"ERROR: (Address|Memory|Thread)Sanitizer|SUMMARY: \w+Sanitizer"
    crash_marker: str = r"panicked at|SIG(SEGV|ABRT|ILL)|libfuzzer: deadly signal|== ERROR"
    build_failure_marker: str = r"error\[E\d+\]|could not compile|build failed"
    budget: float = 45.0
    budget_bounds: tuple[float, float] = (30.0, 60.0)

    def run(self, warning: WarningRecord, true_label: Label | None) -> FuzzOutcome:
        start = time.monotonic()
        lo, hi = self.budget_bounds
        budget = min(max(self.budget, lo), hi)
        try:
            harness = generate_harness(warning, self.templates)
        except (UnknownPattern, UnresolvableTarget) as exc:
            return FuzzOutcome(FuzzKind.INFRASTRUCTURE_FAILURE, 0.0, f"harness generation: {exc}")
        try:
            command = shlex.split(os.environ.get("TRIAGE_FUZZ_CMD", self.command))
        except ValueError as exc:
            return FuzzOutcome(FuzzKind.INFRASTRUCTURE_FAILURE, 0.0,
                               f"spawn failed: command: {exc}")
        try:
            with tempfile.TemporaryDirectory(prefix="triagerl-", ignore_cleanup_errors=True) as workdir:
                harness_path = Path(workdir) / f"harness_{warning.id}.rs"
                harness_path.write_text(harness, encoding="utf-8")
                return self._fuzz(command, harness_path, budget, start)
        except OSError as exc:
            return FuzzOutcome(
                FuzzKind.INFRASTRUCTURE_FAILURE, time.monotonic() - start, f"spawn failed: {exc}"
            )

    def _fuzz(self, command: list[str], harness_path: Path, budget: float,
              start: float) -> FuzzOutcome:
        argv = command + [str(harness_path), "--budget", str(int(budget))]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=budget + BUDGET_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                # The session's group holds every child the command started.
                os.killpg(proc.pid, signal.SIGKILL)
                return FuzzOutcome(FuzzKind.INCONCLUSIVE, time.monotonic() - start, "timeout")

        elapsed = time.monotonic() - start
        output = stdout + "\n" + stderr
        if re.search(self.build_failure_marker, output):
            return FuzzOutcome(FuzzKind.INFRASTRUCTURE_FAILURE, elapsed, "build failure")
        if re.search(self.sanitizer_marker, output):
            return FuzzOutcome(FuzzKind.SANITIZER_VIOLATION, elapsed, "sanitizer report")
        if proc.returncode == 0:
            return FuzzOutcome(FuzzKind.CLEAN, elapsed, "clean run")
        if re.search(self.crash_marker, output):
            return FuzzOutcome(FuzzKind.CRASH, elapsed, f"crash (exit {proc.returncode})")
        return FuzzOutcome(FuzzKind.INCONCLUSIVE, elapsed, f"exit {proc.returncode}, no marker")


Backend = SimulatedBackend | RecordedBackend | ExternalBackend


def run_fuzz(
    backend: Backend, warning: WarningRecord, true_label: Label | None = None
) -> FuzzOutcome:
    """Run one dynamic validation through the given backend."""
    return backend.run(warning, true_label)


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
    lines = [
        f"{wid}\t{o.kind.value}\t{o.elapsed!r}\t{o.detail}" for wid, o in outcomes.items()
    ]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def read_recorded_outcomes(data: bytes, source: str = "recorded outcomes") -> dict[str, FuzzOutcome]:
    """Parse an outcomes file; a malformed line raises MissingRecording naming `source`."""
    outcomes: dict[str, FuzzOutcome] = {}
    for n, line in enumerate(data.decode("utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 3)
        if len(parts) < 3:
            raise MissingRecording(f"{source} line {n}: expected id<TAB>kind<TAB>elapsed")
        try:
            detail = parts[3] if len(parts) > 3 else ""
            outcome = FuzzOutcome(FuzzKind(parts[1]), float(parts[2]), detail)
        except ValueError as exc:
            raise MissingRecording(f"{source} line {n}: {exc}") from exc
        outcomes[parts[0]] = outcome
    return outcomes
