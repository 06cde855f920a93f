"""Classification metrics over per-warning arrays, and the verdict files.

All seven metrics are computed from the confusion counts and the ranked
TP-probability scores. Metrics whose denominators vanish are reported as
absent with a reason, never as NaN; MCC follows the zero-when-any-factor-
is-zero convention. `PredictionRecord`s exist only where verdicts are
read or checked against labels, or written by `evaluate`; `triage` writes
its verdict lines from the play's columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError
from .fuzz import FUZZ_SLOTS, SLOT_OF, FuzzKind
from .warnings import Label, id_lines, text_file, text_lines


@dataclass
class PredictionRecord:
    warning_id: str
    predicted: Label
    score: float
    fuzz_kind: FuzzKind  # the outcome of its fuzz run; NOT_RUN if it was not fuzzed

    @property
    def fuzz_used(self) -> bool:
        return self.fuzz_kind is not FuzzKind.NOT_RUN


@dataclass
class EvalReport:
    """Every field but `undefined` is a line of the report file, in field order."""

    n: int
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    mcc: float
    auc_roc: float | None
    auc_pr: float | None
    fuzz_invocation_rate: float
    undefined: dict[str, str]


def _aucs(scores: np.ndarray, positive: np.ndarray) -> tuple[float, float]:
    """AUC-ROC and average precision (AUC-PR) of `scores` against `positive`,
    both from the groups of tied scores in descending order.

    AUC-ROC is Mann-Whitney's U over n_pos·n_neg: each positive counts the
    negatives scored below it, and half of those tied with it. Average
    precision is the step-wise sum of precision at each recall increment: a
    tie group is one threshold step, with no interpolation, and the steps are
    summed one after another.
    """
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))  # last of each tie group
    cum_tp = np.cumsum(positive[order])[ends]
    cum_fp = ends + 1 - cum_tp
    n_pos, n_neg = int(cum_tp[-1]), int(cum_fp[-1])
    tp, fp = np.diff(cum_tp, prepend=0), np.diff(cum_fp, prepend=0)
    twice_u = int(np.dot(tp, 2 * (n_neg - cum_fp) + fp))  # an integer, so the sum is exact
    precision = cum_tp / (ends + 1)
    average_precision = np.cumsum(np.diff(cum_tp / n_pos, prepend=0.0) * precision)[-1]
    return twice_u / (2 * n_pos * n_neg), float(average_precision)


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float | None, float | None,
                                                              float | None, dict[str, str]]:
    """Precision, recall and F1 from confusion counts, each None where it is
    undefined, and the reason for each one that is."""
    undefined: dict[str, str] = {}
    if tp + fp == 0:
        undefined["precision"] = "no positive predictions (TP+FP = 0)"
    if tp + fn == 0:
        undefined["recall"] = "no positive labels (TP+FN = 0)"
    if undefined:
        undefined["f1"] = "precision or recall undefined"
    elif tp == 0:
        undefined["f1"] = "precision and recall both 0"
    precision = None if "precision" in undefined else tp / (tp + fp)
    recall = None if "recall" in undefined else tp / (tp + fn)
    f1 = None if "f1" in undefined else 2 * precision * recall / (precision + recall)
    return precision, recall, f1, undefined


def confusion(called: np.ndarray, positive: np.ndarray) -> tuple[int, int, int, int]:
    """TP, FP, FN and TN counts from boolean per-warning arrays: whether each
    warning was called a true positive, and whether it is one."""
    tp = int(np.count_nonzero(called & positive))
    fp = int(np.count_nonzero(called)) - tp
    fn = int(np.count_nonzero(positive)) - tp
    return tp, fp, fn, len(called) - tp - fp - fn


def report_from_arrays(called, positive, scores, fuzzed) -> EvalReport:
    """The full report from per-warning arrays: whether each warning was
    called a true positive, whether it is one, its P(TP) score, and whether
    it was fuzzed."""
    called, positive = np.asarray(called, dtype=bool), np.asarray(positive, dtype=bool)
    n = len(called)
    if n == 0:
        raise InputError("no predictions to score")
    tp, fp, fn, tn = confusion(called, positive)
    precision, recall, f1, undefined = precision_recall_f1(tp, fp, fn)

    factors = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = 0.0 if factors == 0 else (tp * tn - fp * fn) / math.sqrt(factors)

    scores = np.asarray(scores, dtype=np.float64)
    auc_roc = auc_pr = None
    if positive.all() or not positive.any():
        undefined["auc_roc"] = "only one class present"
        undefined["auc_pr"] = "only one class present"
    else:
        auc_roc, auc_pr = _aucs(scores, positive)

    return EvalReport(
        n=n, tp=tp, fp=fp, fn=fn, tn=tn,
        accuracy=(tp + tn) / n, precision=precision, recall=recall, f1=f1, mcc=mcc,
        auc_roc=auc_roc, auc_pr=auc_pr, fuzz_invocation_rate=int(np.count_nonzero(fuzzed)) / n,
        undefined=undefined,
    )


def compute_metrics(
    predictions: list[PredictionRecord], labels: dict[str, Label]
) -> EvalReport:
    """The full report from per-warning predictions, whose scores
    `read_verdicts` checked to lie in [0,1], and their `labels`; a label
    sidecar's table names its file for the first prediction it has no label for."""
    return report_from_arrays(
        [p.predicted is Label.TRUE_POSITIVE for p in predictions],
        [labels[p.warning_id] is Label.TRUE_POSITIVE for p in predictions],
        [p.score for p in predictions],
        [p.fuzz_used for p in predictions],
    )


def prediction_records(ids: list[str], called: np.ndarray, scores: np.ndarray,
                       outcomes: np.ndarray) -> list[PredictionRecord]:
    """One verdict per id from per-warning arrays; `outcomes` holds FUZZ_SLOTS
    indices, 0 (NotRun) where the warning was not fuzzed."""
    label = {True: Label.TRUE_POSITIVE, False: Label.FALSE_POSITIVE}  # by whether called TP
    return [PredictionRecord(wid, label[c], s, FUZZ_SLOTS[o])
            for wid, c, s, o in zip(ids, called.tolist(), scores.tolist(), outcomes.tolist())]


def write_report(report: EvalReport) -> bytes:
    """Flat key-value document, one line per metric in field order."""
    lines = []
    for key in [f.name for f in fields(EvalReport) if f.name != "undefined"]:
        value = getattr(report, key)
        if value is None:
            lines.append(f"{key} = undefined ({report.undefined[key]})")
        elif isinstance(value, int):
            lines.append(f"{key} = {value}")
        else:
            lines.append(f"{key} = {value!r}")
    return text_file(lines)


# A verdict's label column by whether the warning was called a true positive,
# and its fuzz flag and kind columns by FUZZ_SLOTS index (0, NotRun: not fuzzed).
_CALL_TEXT = (Label.FALSE_POSITIVE.value, Label.TRUE_POSITIVE.value)
_SLOT_TEXT = ("0\t-", *(f"1\t{kind.value}" for kind in FUZZ_SLOTS[1:]))


def verdict_file(ids: list[str], called, scores, slots) -> bytes:
    """Verdicts file: id, predicted label, score, fuzz flag, fuzz kind, one
    line per id from per-warning columns: whether it was called a true
    positive, its P(TP) score and its fuzz outcome's FUZZ_SLOTS index."""
    return text_file(f"{wid}\t{_CALL_TEXT[c]}\t{s!r}\t{_SLOT_TEXT[o]}" for wid, c, s, o in zip(
        ids, np.asarray(called).tolist(), np.asarray(scores).tolist(), np.asarray(slots).tolist()))


def write_verdicts(predictions: list[PredictionRecord]) -> bytes:
    """The verdicts file of `predictions` (see `verdict_file`)."""
    return verdict_file([p.warning_id for p in predictions],
                        [p.predicted is Label.TRUE_POSITIVE for p in predictions],
                        [p.score for p in predictions],
                        [SLOT_OF[p.fuzz_kind] for p in predictions])


def read_verdicts(data: bytes, source: str) -> list[PredictionRecord]:
    """Parse a verdicts file; a malformed line raises InputError naming `source` and the line,
    and a file with no verdict raises it naming `source`."""
    layout = "id<TAB>label<TAB>score<TAB>fuzz<TAB>kind"

    def verdict(fields: list[str]) -> PredictionRecord:
        wid, predicted, score, flag, kind = fields
        if "\t" in kind:  # a sixth field: no verdict field may hold a tab
            raise ValueError(f"expected {layout!r}")
        record = PredictionRecord(wid, Label(predicted), float(score),
                                  FuzzKind.NOT_RUN if kind == "-" else FuzzKind(kind))
        if not 0.0 <= record.score <= 1.0:
            raise ValueError(f"score must be in [0,1], got {score}")
        if kind == FuzzKind.NOT_RUN.value:  # not fuzzed is written "-"
            raise ValueError("fuzz kind not_run is not an outcome")
        if flag != str(int(record.fuzz_used)):
            raise ValueError(f"fuzz flag {flag!r} must be 0 or 1 and agree with fuzz kind {kind}")
        return record
    records = [record for _, _, record in id_lines(text_lines(data), source, layout, 5, verdict)]
    if not records:
        raise InputError(f"{source}: no verdicts")
    return records
