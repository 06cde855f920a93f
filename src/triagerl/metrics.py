"""Classification metrics over per-warning predictions.

All seven metrics are computed from the confusion counts and the ranked
TP-probability scores. Metrics whose denominators vanish are reported as
absent with a reason, never as NaN; MCC follows the zero-when-any-factor-
is-zero convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, SchemaError, UnlabeledRecordError
from .fuzz import FuzzKind
from .warnings import Label


@dataclass
class PredictionRecord:
    warning_id: str
    predicted: Label
    score: float
    fuzz_used: bool = False
    fuzz_kind: FuzzKind | None = None


@dataclass
class EvalReport:
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
    undefined: dict[str, str] = field(default_factory=dict)


def _auc_roc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Rank statistic (Mann-Whitney U) with tied scores sharing their mean rank."""
    # Each score's tie group spans 0-based sorted positions first..last.
    ordered = np.sort(scores)
    first = np.searchsorted(ordered, scores, "left")
    last = np.searchsorted(ordered, scores, "right") - 1
    ranks = (first + last) / 2.0 + 1.0
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    u = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _auc_pr(scores: np.ndarray, positive: np.ndarray) -> float:
    """Average precision: step-wise sum of precision at each recall increment.

    Tied scores are folded into one threshold step, no interpolation. The
    steps are summed one after another, in descending score order.
    """
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))  # last of each tie group
    cum_tp = np.cumsum(positive[order])[ends]
    recall = cum_tp / int(positive.sum())
    precision = cum_tp / (ends + 1)
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def compute_metrics(
    predictions: list[PredictionRecord], labels: dict[str, Label]
) -> EvalReport:
    """Build the full report from per-warning predictions and ground truth."""
    if not predictions:
        raise EmptyInput("no predictions to score")
    missing = [p.warning_id for p in predictions if p.warning_id not in labels]
    if missing:
        raise UnlabeledRecordError(f"no label for: {', '.join(missing)}")
    for p in predictions:
        if not 0.0 <= p.score <= 1.0:
            raise ValueError(f"score for {p.warning_id} must be in [0,1], got {p.score}")

    positive = np.array([labels[p.warning_id] is Label.TRUE_POSITIVE for p in predictions])
    called = np.array([p.predicted is Label.TRUE_POSITIVE for p in predictions])
    tp, fp = int((called & positive).sum()), int((called & ~positive).sum())
    fn, tn = int((~called & positive).sum()), int((~called & ~positive).sum())

    n = len(predictions)
    undefined: dict[str, str] = {}
    accuracy = (tp + tn) / n

    precision = recall = f1 = None
    if tp + fp == 0:
        undefined["precision"] = "no positive predictions (TP+FP = 0)"
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        undefined["recall"] = "no positive labels (TP+FN = 0)"
    else:
        recall = tp / (tp + fn)
    if precision is None or recall is None:
        undefined["f1"] = "precision or recall undefined"
    elif precision + recall == 0:
        undefined["f1"] = "precision and recall both 0"
    else:
        f1 = 2 * precision * recall / (precision + recall)

    factors = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = 0.0 if factors == 0 else (tp * tn - fp * fn) / math.sqrt(factors)

    scores = np.array([p.score for p in predictions], dtype=np.float64)
    auc_roc = auc_pr = None
    if positive.all() or not positive.any():
        undefined["auc_roc"] = "only one class present"
        undefined["auc_pr"] = "only one class present"
    else:
        auc_roc = _auc_roc(scores, positive)
        auc_pr = _auc_pr(scores, positive)

    fuzz_rate = sum(1 for p in predictions if p.fuzz_used) / n
    return EvalReport(
        n=n, tp=tp, fp=fp, fn=fn, tn=tn,
        accuracy=accuracy, precision=precision, recall=recall, f1=f1, mcc=mcc,
        auc_roc=auc_roc, auc_pr=auc_pr, fuzz_invocation_rate=fuzz_rate,
        undefined=undefined,
    )


_REPORT_KEYS = (
    "n", "tp", "fp", "fn", "tn", "accuracy", "precision", "recall", "f1",
    "mcc", "auc_roc", "auc_pr", "fuzz_invocation_rate",
)


def write_report(report: EvalReport) -> bytes:
    """Flat key-value document in stable key order."""
    lines = []
    for key in _REPORT_KEYS:
        value = getattr(report, key)
        if value is None:
            lines.append(f"{key} = undefined ({report.undefined[key]})")
        elif isinstance(value, int):
            lines.append(f"{key} = {value}")
        else:
            lines.append(f"{key} = {value!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_verdicts(predictions: list[PredictionRecord]) -> bytes:
    """Verdicts file: id, predicted label, score, fuzz flag, fuzz kind."""
    lines = [
        "\t".join(
            [
                p.warning_id,
                p.predicted.value,
                repr(p.score),
                "1" if p.fuzz_used else "0",
                p.fuzz_kind.value if p.fuzz_kind is not None else "-",
            ]
        )
        for p in predictions
    ]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def read_verdicts(data: bytes, source: str = "verdicts") -> list[PredictionRecord]:
    """Parse a verdicts file; a malformed line raises SchemaError naming `source` and the line."""
    out = []
    for n, line in enumerate(data.decode("utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            wid, predicted, score, fuzz_used, fuzz_kind = line.split("\t")
            record = PredictionRecord(
                warning_id=wid,
                predicted=Label(predicted),
                score=float(score),
                fuzz_used=fuzz_used == "1",
                fuzz_kind=None if fuzz_kind == "-" else FuzzKind(fuzz_kind),
            )
            if not 0.0 <= record.score <= 1.0:
                raise ValueError(f"score must be in [0,1], got {score}")
        except ValueError as exc:
            raise SchemaError(f"{source} line {n}: {exc}") from exc
        out.append(record)
    return out
