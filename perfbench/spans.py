"""Spans around triagerl's public functions, patched in from outside.

`Tracer.install()` replaces each traced function at every module of the
package that holds it (`cli` imports `extract_features` by name, `trainer`
imports `policy_forward` by name, so patching the defining module alone
would miss those calls), and replaces traced methods on their class.
`uninstall()` puts the originals back. A traced name that no longer exists
is listed in `absent` and reported, not treated as an error.

Each span is (id, parent id, name, start, end, request id, note, raised).
Spans are appended to a per-thread list, so worker threads never contend;
`collect()` merges the lists when the traced operation is over, and
`write_spans()` writes them out once the run is over. A span
opened on a worker thread whose own stack is empty takes the innermost span
open on the installing thread as its parent (the thread pool runs inside
`cmd_triage`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

import numpy as np


def _req(index):
    """Request id: the warning id of the positional argument at `index`."""
    def get(args):
        if len(args) <= index:
            return None
        a = args[index]
        return getattr(a, "warning_id", None) or getattr(a, "id", None)
    return get


def _rows_of(index):
    def note(args, kwargs, result):
        states = args[index] if len(args) > index else kwargs.get("states")
        return int(np.atleast_2d(states).shape[0])
    return note


def _len_result(args, kwargs, result):
    return len(result)


def _outcome(args, kwargs, result):
    return (result.kind.value, result.detail)


def _one(args, kwargs, result):
    return 1


_FEATURES = "triagerl.features"
_POLICY = "triagerl.policy"
_TRAINER = "triagerl.trainer"
_FUZZ = "triagerl.fuzz"
_CLI = "triagerl.cli"

# (module, function or Class.method, span name, request-id getter, note).
TARGETS = (
    (_FEATURES, "extract_features", "features.extract_features", _req(0), None),
    (_FEATURES, "validate_vector", "features.validate_vector", _req(0), None),
    (_FEATURES, "normalize", "features.normalize", _req(0), None),
    (_FEATURES, "fit_normalizer", "features.fit_normalizer", None, None),
    (_FEATURES, "write_feature_sidecar", "features.write_feature_sidecar", None, _len_result),
    (_FEATURES, "read_feature_sidecar", "features.read_feature_sidecar", None, None),
    ("triagerl.warnings", "parse_report", "warnings.parse_report", None, None),
    ("triagerl.warnings", "write_warning_store", "warnings.write_warning_store", None, None),
    ("triagerl.warnings", "read_warning_store", "warnings.read_warning_store", None, None),
    # Both forward entry points count as one layer; rows per call show batching.
    (_POLICY, "policy_forward", "policy.forward", None, _one),
    (_POLICY, "forward_cache", "policy.forward", None, _rows_of(1)),
    (_POLICY, "select_action", "policy.select_action", None, None),
    (_POLICY, "unflatten_params", "policy.unflatten_params", None, None),
    (_POLICY, "draw_dropout_masks", "policy.draw_dropout_masks", None, None),
    ("triagerl.env", "TriageEnv.step", "env.step", _req(5), None),
    (_TRAINER, "collect_rollouts", "trainer.collect_rollouts", None, None),
    (_TRAINER, "ppo_update", "trainer.ppo_update", None, None),
    (_TRAINER, "ppo_loss_and_grads", "trainer.ppo_loss_and_grads", None, None),
    (_TRAINER, "Adam.step", "trainer.adam_step", None, None),
    (_TRAINER, "greedy_predictions", "trainer.greedy_predictions", None, None),
    (_TRAINER, "play_episode", "trainer.play_episode", _req(2), None),
    (_TRAINER, "save_checkpoint", "trainer.save_checkpoint", None, _len_result),
    (_TRAINER, "load_checkpoint", "trainer.load_checkpoint", None, None),
    (_FUZZ, "SimulatedBackend.run", "fuzz.run.simulated", _req(1), _outcome),
    (_FUZZ, "RecordedBackend.run", "fuzz.run.recorded", _req(1), _outcome),
    (_FUZZ, "ExternalBackend.run", "fuzz.run.external", _req(1), _outcome),
    (_FUZZ, "generate_harness", "fuzz.generate_harness", _req(0), None),
    ("triagerl.metrics", "compute_metrics", "metrics.compute_metrics", None, None),
    ("triagerl.metrics", "write_verdicts", "metrics.write_verdicts", None, _len_result),
    ("triagerl.evaluate", "evaluate_checkpoint", "evaluate.evaluate_checkpoint", None, None),
    ("triagerl.evaluate", "permutation_importance", "evaluate.permutation_importance", None, None),
    ("triagerl.evaluate", "masked_batch_predictions", "evaluate.masked_batch_predictions",
     None, _rows_of(1)),
    (_CLI, "cmd_ingest", "cli.ingest", None, None),
    (_CLI, "cmd_split", "cli.split", None, None),
    (_CLI, "cmd_featurize", "cli.featurize", None, None),
    (_CLI, "cmd_train", "cli.train", None, None),
    (_CLI, "cmd_evaluate", "cli.evaluate", None, None),
    (_CLI, "cmd_report", "cli.report", None, None),
    (_CLI, "cmd_importance", "cli.importance", None, None),
    (_CLI, "cmd_fuzz_validate", "cli.fuzz-validate", None, None),
    (_CLI, "cmd_triage", "cli.triage", None, None),
)

# Entry-point spans: they wrap whole subcommands, so they do not count as
# time explained by a layer.
ENTRY_PREFIX = "cli."


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[list] = []
        self._buffers_lock = threading.Lock()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- span recording ----------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            stack = self._main_stack if threading.get_ident() == self._main_thread else []
            buf: list = []
            with self._buffers_lock:
                self._buffers.append(buf)
            st = self._local.state = (stack, buf)
        return st

    def _wrap(self, fn, name, req, note):
        ids = self._ids
        main_stack = self._main_stack
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buf = state()
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            stack.append(sid)
            raised = False
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                buf.append((
                    sid, parent, name, t0, t1,
                    req(args) if req else None,
                    note(args, kwargs, result) if note and not raised else None,
                    raised,
                ))

        return traced

    def install(self) -> None:
        self.absent = []
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "triagerl" or n.startswith("triagerl."))]
        for module_name, qualname, name, req, note in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}:{qualname}")
                continue
            if "." in qualname:
                cls_name, meth = qualname.split(".", 1)
                cls = getattr(module, cls_name, None)
                orig = cls.__dict__.get(meth) if isinstance(cls, type) else None
                if not callable(orig):
                    self.absent.append(f"{module_name}:{qualname}")
                    continue
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, req, note))
                continue
            orig = getattr(module, qualname, None)
            if not callable(orig):
                self.absent.append(f"{module_name}:{qualname}")
                continue
            wrapper = self._wrap(orig, name, req, note)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def collect(self) -> list[tuple]:
        """All spans recorded since the last collect; clears the buffers.

        Each span gains a ninth field, the index of the thread that ran it.
        """
        with self._buffers_lock:
            spans = [s + (thread,) for thread, buf in enumerate(self._buffers) for s in buf]
            for buf in self._buffers:
                buf.clear()
        spans.sort(key=lambda s: s[3])
        return spans


def write_spans(path, spans: list[tuple]) -> None:
    """One JSON object per span, times in seconds from the first span."""
    t0 = spans[0][3] if spans else 0.0
    with open(path, "w", encoding="utf-8") as f:
        for sid, parent, name, start, end, req, _, raised, thread in spans:
            f.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start - t0,
                                "end": end - t0, "request": req, "thread": thread,
                                "raised": raised}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from one operation's spans.
# ---------------------------------------------------------------------------

OUTCOMES = ("crash", "sanitizer_violation", "clean", "inconclusive", "infrastructure_failure")
_DECISIVE = ("crash", "sanitizer_violation", "clean")
_BACKENDS = ("simulated", "recorded", "external")
CLI_STAGES = ("ingest", "split", "featurize", "train", "evaluate", "report", "importance",
              "fuzz-validate", "triage")


def _union_length(intervals, lo=None, hi=None) -> float:
    """Measure of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if lo is not None:
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _max_concurrency(intervals) -> int:
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    level = peak = 0
    for _, d in events:
        level += d
        peak = max(peak, level)
    return peak


def layer_metrics(spans: list[tuple], timed: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer numbers for one traced operation.

    `timed` are the intervals the operation's end-to-end clock covered.
    For each span name, `calls` and `s` count only outermost spans (a span
    with an ancestor of the same name is nested work already counted), and
    `self_s` is a span's duration minus the union of its children.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)

    def outermost(s) -> bool:
        parent = s[1]
        while parent is not None:
            p = by_id.get(parent)
            if p is None:
                return True
            if p[2] == s[2]:
                return False
            parent = p[1]
        return True

    groups: dict[str, list[tuple]] = {}
    for s in spans:
        if outermost(s):
            groups.setdefault(s[2], []).append(s)

    def calls(name):
        return float(len(groups.get(name, ())))

    def secs(name):
        return sum(s[4] - s[3] for s in groups.get(name, ()))

    def self_s(name):
        total = 0.0
        for s in groups.get(name, ()):
            kids = [(c[3], c[4]) for c in children.get(s[0], ())]
            total += (s[4] - s[3]) - _union_length(kids, s[3], s[4])
        return total

    def note_sum(name):
        return float(sum(s[6] or 0 for s in groups.get(name, ())))

    m: dict[str, float] = {}
    for name in ("features.extract_features", "trainer.collect_rollouts", "trainer.ppo_update",
                 "trainer.play_episode"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("features.validate_vector", "features.normalize", "features.read_feature_sidecar",
                 "warnings.parse_report", "warnings.read_warning_store", "policy.select_action",
                 "policy.unflatten_params", "policy.draw_dropout_masks", "env.step",
                 "trainer.ppo_loss_and_grads", "trainer.adam_step", "metrics.compute_metrics",
                 "evaluate.evaluate_checkpoint"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    for name in ("features.fit_normalizer", "warnings.write_warning_store",
                 "trainer.greedy_predictions", "trainer.load_checkpoint",
                 "evaluate.permutation_importance"):
        m[f"{name}.s"] = secs(name)
    for name in ("features.write_feature_sidecar", "trainer.save_checkpoint", "metrics.write_verdicts"):
        m[f"{name}.s"] = secs(name)
        m[f"{name}.bytes"] = note_sum(name)
    m["policy.forward.calls"] = calls("policy.forward")
    m["policy.forward.rows"] = note_sum("policy.forward")
    m["policy.forward.s"] = secs("policy.forward")
    m["evaluate.masked_batch_predictions.calls"] = calls("evaluate.masked_batch_predictions")
    m["evaluate.masked_batch_predictions.rows"] = note_sum("evaluate.masked_batch_predictions")

    outcomes = dict.fromkeys(OUTCOMES, 0)
    runs = 0
    for backend in _BACKENDS:
        name = f"fuzz.run.{backend}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
        m[f"{name}.self_s"] = self_s(name)
        for s in groups.get(name, ()):
            runs += 1
            # A backend that raises is recorded by the environment as an
            # infrastructure failure.
            kind = s[6][0] if s[6] else "infrastructure_failure"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    for kind in OUTCOMES:
        m[f"fuzz.outcome.{kind}"] = float(outcomes[kind])
    m["fuzz.useful_share"] = sum(outcomes[k] for k in _DECISIVE) / runs if runs else 0.0
    m["fuzz.generate_harness.calls"] = calls("fuzz.generate_harness")
    m["fuzz.generate_harness.s"] = secs("fuzz.generate_harness")
    m["fuzz.generate_harness.failures"] = float(sum(s[7] for s in groups.get("fuzz.generate_harness", ())))

    external = groups.get("fuzz.run.external", ())
    details = [s[6][1] if s[6] else "" for s in external]
    m["fuzz.external.spawns"] = float(sum(
        1 for d in details if not d.startswith(("harness generation", "spawn failed"))))
    m["fuzz.external.timeouts"] = float(sum(1 for d in details if d == "timeout"))
    m["fuzz.external.max_in_flight"] = float(_max_concurrency([(s[3], s[4]) for s in external]))
    triage_wall = secs("cli.triage") or sum(e - s for s, e in timed)
    m["fuzz.external.overlap"] = (
        sum(s[4] - s[3] for s in external) / triage_wall if triage_wall else 0.0)

    for stage in CLI_STAGES:
        m[f"cli.{stage}.s"] = secs(f"cli.{stage}")

    layer_spans = [(s[3], s[4]) for s in spans if not s[2].startswith(ENTRY_PREFIX)]
    wall = sum(e - s for s, e in timed)
    covered = sum(_union_length(layer_spans, s, e) for s, e in timed)
    m["trace.uncovered_share"] = (wall - covered) / wall if wall else 0.0
    m["trace.spans"] = float(len(spans))
    return m


# Per-layer metrics with their units, in report order. Run-level entries are
# filled in by the runner.
PER_LAYER_UNITS = {
    "features.extract_features.calls": "count",
    "features.extract_features.s": "s",
    "features.extract_features.self_s": "s",
    "features.validate_vector.calls": "count",
    "features.validate_vector.s": "s",
    "features.normalize.calls": "count",
    "features.normalize.s": "s",
    "features.fit_normalizer.s": "s",
    "features.write_feature_sidecar.s": "s",
    "features.write_feature_sidecar.bytes": "bytes",
    "features.read_feature_sidecar.calls": "count",
    "features.read_feature_sidecar.s": "s",
    "warnings.parse_report.calls": "count",
    "warnings.parse_report.s": "s",
    "warnings.write_warning_store.s": "s",
    "warnings.read_warning_store.calls": "count",
    "warnings.read_warning_store.s": "s",
    "policy.forward.calls": "count",
    "policy.forward.rows": "rows",
    "policy.forward.s": "s",
    "policy.select_action.calls": "count",
    "policy.select_action.s": "s",
    "policy.unflatten_params.calls": "count",
    "policy.unflatten_params.s": "s",
    "policy.draw_dropout_masks.calls": "count",
    "policy.draw_dropout_masks.s": "s",
    "env.step.calls": "count",
    "env.step.s": "s",
    "trainer.collect_rollouts.calls": "count",
    "trainer.collect_rollouts.s": "s",
    "trainer.collect_rollouts.self_s": "s",
    "trainer.ppo_update.calls": "count",
    "trainer.ppo_update.s": "s",
    "trainer.ppo_update.self_s": "s",
    "trainer.ppo_loss_and_grads.calls": "count",
    "trainer.ppo_loss_and_grads.s": "s",
    "trainer.adam_step.calls": "count",
    "trainer.adam_step.s": "s",
    "trainer.greedy_predictions.s": "s",
    "trainer.play_episode.calls": "count",
    "trainer.play_episode.s": "s",
    "trainer.play_episode.self_s": "s",
    "trainer.save_checkpoint.s": "s",
    "trainer.save_checkpoint.bytes": "bytes",
    "trainer.load_checkpoint.s": "s",
    "fuzz.run.simulated.calls": "count",
    "fuzz.run.simulated.s": "s",
    "fuzz.run.simulated.self_s": "s",
    "fuzz.run.recorded.calls": "count",
    "fuzz.run.recorded.s": "s",
    "fuzz.run.recorded.self_s": "s",
    "fuzz.run.external.calls": "count",
    "fuzz.run.external.s": "s",
    "fuzz.run.external.self_s": "s",
    "fuzz.outcome.crash": "count",
    "fuzz.outcome.sanitizer_violation": "count",
    "fuzz.outcome.clean": "count",
    "fuzz.outcome.inconclusive": "count",
    "fuzz.outcome.infrastructure_failure": "count",
    "fuzz.useful_share": "ratio",
    "fuzz.generate_harness.calls": "count",
    "fuzz.generate_harness.s": "s",
    "fuzz.generate_harness.failures": "count",
    "fuzz.external.spawns": "count",
    "fuzz.external.timeouts": "count",
    "fuzz.external.max_in_flight": "count",
    "fuzz.external.overlap": "ratio",
    "metrics.compute_metrics.calls": "count",
    "metrics.compute_metrics.s": "s",
    "metrics.write_verdicts.s": "s",
    "metrics.write_verdicts.bytes": "bytes",
    "evaluate.evaluate_checkpoint.calls": "count",
    "evaluate.evaluate_checkpoint.s": "s",
    "evaluate.permutation_importance.s": "s",
    "evaluate.masked_batch_predictions.calls": "count",
    "evaluate.masked_batch_predictions.rows": "rows",
    **{f"cli.{stage}.s": "s" for stage in CLI_STAGES},
    "trace.uncovered_share": "ratio",
    "trace.spans": "count",
    "trace.overhead_share": "ratio",
    "trace.absent": "count",
    "proc.peak_rss_mib": "MiB",
    "failed_share": "ratio",
}
