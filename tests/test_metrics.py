"""Seven-metric report against brute-force confusion and rank oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagerl.errors import InputError
from triagerl.fuzz import FuzzKind
from triagerl.metrics import (
    PredictionRecord,
    _aucs,
    compute_metrics,
    read_verdicts,
    write_report,
    write_verdicts,
)
from triagerl.warnings import Label, read_label_sidecar, write_label_sidecar

TP, FP = Label.TRUE_POSITIVE, Label.FALSE_POSITIVE


def build(preds_labels_scores):
    """[(predicted, actual, score)] -> (predictions, labels)."""
    predictions, labels = [], {}
    for i, (pred, actual, score) in enumerate(preds_labels_scores):
        wid = f"w{i:05d}"
        predictions.append(PredictionRecord(wid, pred, score, FuzzKind.NOT_RUN))
        labels[wid] = actual
    return predictions, labels


# --- Independent oracles -----------------------------------------------------


def oracle_confusion(rows):
    tp = sum(1 for p, a, _ in rows if p is TP and a is TP)
    fp = sum(1 for p, a, _ in rows if p is TP and a is FP)
    fn = sum(1 for p, a, _ in rows if p is FP and a is TP)
    tn = sum(1 for p, a, _ in rows if p is FP and a is FP)
    return tp, fp, fn, tn


def oracle_auc_roc(rows):
    pos = [s for _, a, s in rows if a is TP]
    neg = [s for _, a, s in rows if a is FP]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def oracle_average_precision(rows):
    """Precision times the recall gained, summed one threshold after another:
    each distinct score from the highest down, counting the rows scored at
    least that high."""
    ranked = sorted(rows, key=lambda row: -row[2])
    n_pos = sum(1 for _, a, _ in rows if a is TP)
    ap = 0.0
    prev_recall = 0.0
    tp = fp = 0
    for i, (_, a, s) in enumerate(ranked):
        tp += a is TP
        fp += a is FP
        if i + 1 < len(ranked) and ranked[i + 1][2] == s:  # the threshold s has more rows
            continue
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def reference_auc_roc(scores, positive):
    """Mid-rank Mann-Whitney U over n_pos·n_neg: the rank-sum form `_aucs`
    must match bit for bit."""
    ordered = np.sort(scores)
    first = np.searchsorted(ordered, scores, "left")
    last = np.searchsorted(ordered, scores, "right") - 1
    ranks = (first + last) / 2.0 + 1.0
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    u = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def score_sets(seed, count):
    """`count` seeded (scores, positive) pairs with both classes present, of
    2 to 400 warnings each, most of them heavy in ties: a few distinct
    values (zeros of either sign), scores rounded to 1-3 decimals, or all
    distinct."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 401))
        kind = i % 3
        if kind == 0:
            levels = int(rng.integers(1, 7))
            scores = rng.integers(0, levels, n) / max(levels - 1, 1)
            scores[scores == 0] = rng.choice([0.0, -0.0], int(np.count_nonzero(scores == 0)))
        elif kind == 1:
            scores = np.round(rng.random(n), int(rng.integers(1, 4)))
        else:
            scores = rng.random(n)
        positive = rng.random(n) < rng.uniform(0.02, 0.98)
        positive[rng.choice(n, 2, replace=False)] = [True, False]  # both classes present
        yield scores, positive


# --- Reference numbers and worked examples -----------------------------------


class TestReferenceBaseline:
    def test_all_positive_predictor_at_reference_base_rate(self):
        # 25.6% positives, everything flagged: the raw-analyzer baseline.
        n, n_pos = 1000, 256
        rows = [(TP, TP if i < n_pos else FP, 1.0) for i in range(n)]
        report = compute_metrics(*build(rows))
        assert report.precision == pytest.approx(0.256, abs=1e-3)
        assert report.recall == pytest.approx(1.0)
        assert report.f1 == pytest.approx(0.407, abs=1e-3)

    def test_perfect_classifier(self):
        rows = [(TP, TP, 0.9)] * 5 + [(FP, FP, 0.1)] * 7
        report = compute_metrics(*build(rows))
        for name in ("accuracy", "precision", "recall", "f1", "mcc", "auc_roc", "auc_pr"):
            assert getattr(report, name) == pytest.approx(1.0), name

    def test_hand_confusion_arithmetic(self):
        rows = (
            [(TP, TP, 0.8)] * 3 + [(TP, FP, 0.8)] * 1 + [(FP, TP, 0.2)] * 1 + [(FP, FP, 0.2)] * 5
        )
        report = compute_metrics(*build(rows))
        assert (report.tp, report.fp, report.fn, report.tn) == (3, 1, 1, 5)
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(0.75)
        assert report.f1 == pytest.approx(0.75)
        assert report.mcc == pytest.approx(14 / 24)


class TestOracleEquivalence:
    def test_thousand_random_prediction_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            rows = []
            for _ in range(n):
                pred = TP if rng.random() < 0.5 else FP
                actual = TP if rng.random() < 0.4 else FP
                score = float(rng.integers(0, 5)) / 4.0  # coarse grid forces ties
                rows.append((pred, actual, score))
            report = compute_metrics(*build(rows))
            tp, fp, fn, tn = oracle_confusion(rows)
            assert (report.tp, report.fp, report.fn, report.tn) == (tp, fp, fn, tn)
            assert report.accuracy == (tp + tn) / n
            if tp + fp > 0:
                assert report.precision == tp / (tp + fp)
            else:
                assert report.precision is None
            has_both = 0 < tp + fn < n
            if has_both:
                assert report.auc_roc == pytest.approx(oracle_auc_roc(rows), abs=1e-9)
                assert report.auc_pr == pytest.approx(oracle_average_precision(rows), abs=1e-9)
            else:
                assert report.auc_roc is None

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 6)), min_size=2, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_average_precision_sums_steps_in_oracle_order(self, cases):
        # Exact, not approximate: report files must not change in the last digit.
        rows = [(TP, TP if positive else FP, level / 6.0) for positive, level in cases]
        if all(a is TP for _, a, _ in rows) or all(a is FP for _, a, _ in rows):
            return
        assert compute_metrics(*build(rows)).auc_pr == oracle_average_precision(rows)

    def test_aucs_match_the_references_bit_for_bit(self):
        # Every report line must keep its last digit, so compare the floats' bits.
        for scores, positive in score_sets(seed=3301, count=10_500):
            auc_roc, auc_pr = _aucs(scores, positive)
            rows = [(TP, TP if p else FP, float(s)) for s, p in zip(scores, positive)]
            assert auc_roc.hex() == reference_auc_roc(scores, positive).hex(), (scores, positive)
            assert auc_pr.hex() == oracle_average_precision(rows).hex(), (scores, positive)

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(7)
        rows = [
            (TP, TP if rng.random() < 0.3 else FP, float(rng.random()))
            for _ in range(10_000)
        ]
        report = compute_metrics(*build(rows))
        assert report.auc_roc == pytest.approx(0.5, abs=0.02)

    def test_perfect_ranking_auc_one(self):
        rows = [(FP, TP, 0.9), (FP, TP, 0.8), (FP, FP, 0.2), (FP, FP, 0.1)]
        report = compute_metrics(*build(rows))
        assert report.auc_roc == 1.0


class TestMetricProperties:
    @given(
        counts=st.tuples(
            st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(1, 30)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_f1_consistency(self, counts):
        tp, fp, fn, tn = counts
        rows = [(TP, TP, 0.5)] * tp + [(TP, FP, 0.5)] * fp
        rows += [(FP, TP, 0.5)] * fn + [(FP, FP, 0.5)] * tn
        report = compute_metrics(*build(rows))
        assert report.f1 == pytest.approx(
            2 * report.precision * report.recall / (report.precision + report.recall), abs=1e-9
        )

    @given(
        counts=st.tuples(
            st.integers(1, 20), st.integers(1, 20), st.integers(1, 20), st.integers(1, 20)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mcc_sign_flips_under_complemented_predictions(self, counts):
        tp, fp, fn, tn = counts
        rows = [(TP, TP, 0.5)] * tp + [(TP, FP, 0.5)] * fp
        rows += [(FP, TP, 0.5)] * fn + [(FP, FP, 0.5)] * tn
        flipped = [(FP if p is TP else TP, a, s) for p, a, s in rows]
        mcc = compute_metrics(*build(rows)).mcc
        mcc_flipped = compute_metrics(*build(flipped)).mcc
        assert mcc_flipped == pytest.approx(-mcc, abs=1e-12)

    def test_mcc_zero_when_factor_vanishes(self):
        rows = [(TP, TP, 0.5), (TP, FP, 0.5)]  # no negative predictions
        assert compute_metrics(*build(rows)).mcc == 0.0


class TestUndefinedHandling:
    def test_no_positive_predictions(self):
        rows = [(FP, TP, 0.2), (FP, FP, 0.3)]
        report = compute_metrics(*build(rows))
        assert report.precision is None
        assert "precision" in report.undefined
        assert report.f1 is None
        assert not any(
            isinstance(v, float) and math.isnan(v)
            for v in vars(report).values()
            if isinstance(v, float)
        )

    def test_single_class_aucs_absent(self):
        rows = [(TP, TP, 0.9), (FP, TP, 0.4)]
        report = compute_metrics(*build(rows))
        assert report.auc_roc is None
        assert report.undefined["auc_roc"] == "only one class present"

    def test_empty_input(self):
        with pytest.raises(InputError, match="^no predictions to score$"):
            compute_metrics([], {})

    def test_missing_label_listed(self):
        # The label sidecar's table names its file and the first id it lacks.
        preds = [PredictionRecord("feed" * 4, TP, 0.5, FuzzKind.NOT_RUN),
                 PredictionRecord("beef" * 4, TP, 0.5, FuzzKind.NOT_RUN)]
        labels = read_label_sidecar(write_label_sidecar({"beef" * 4: TP}), "labels.txt")
        with pytest.raises(InputError, match=f"^labels.txt: no label for warning {'feed' * 4}$"):
            compute_metrics(preds, labels)


class TestSerialization:
    def test_verdicts_round_trip(self):
        preds = [
            PredictionRecord("a" * 16, TP, 0.75, fuzz_kind=FuzzKind.CRASH),
            PredictionRecord("b" * 16, FP, 0.25, FuzzKind.NOT_RUN),
        ]
        assert read_verdicts(write_verdicts(preds), "verdicts") == preds

    @pytest.mark.parametrize("line", ["a" * 16 + "\ttp", "a" * 16 + "\ttp\t0.75\t1\tcrash\tx"],
                             ids=["two-fields", "six-fields"])
    def test_a_verdict_line_has_exactly_five_fields(self, line):
        good = "b" * 16 + "\tfp\t0.25\t0\t-"
        with pytest.raises(InputError, match=(
                "^verdicts line 2: expected 'id<TAB>label<TAB>score<TAB>fuzz<TAB>kind'$")):
            read_verdicts(f"{good}\n{line}\n".encode(), "verdicts")

    def test_report_file_stable_and_complete(self):
        rows = [(TP, TP, 0.9), (FP, FP, 0.2)]
        report = compute_metrics(*build(rows))
        text = write_report(report).decode("utf-8")
        keys = [line.split(" = ")[0] for line in text.strip().split("\n")]
        assert keys == [
            "n", "tp", "fp", "fn", "tn", "accuracy", "precision", "recall", "f1",
            "mcc", "auc_roc", "auc_pr", "fuzz_invocation_rate",
        ]
        assert write_report(report) == write_report(report)

    def test_undefined_written_with_reason(self):
        rows = [(FP, TP, 0.2), (FP, FP, 0.3)]
        text = write_report(compute_metrics(*build(rows))).decode("utf-8")
        assert "precision = undefined (no positive predictions (TP+FP = 0))" in text

    def test_fuzz_rate_counted(self):
        preds = [
            PredictionRecord("a" * 16, TP, 0.9, fuzz_kind=FuzzKind.CLEAN),
            PredictionRecord("b" * 16, FP, 0.1, FuzzKind.NOT_RUN),
        ]
        labels = {"a" * 16: TP, "b" * 16: FP}
        assert compute_metrics(preds, labels).fuzz_invocation_rate == 0.5
