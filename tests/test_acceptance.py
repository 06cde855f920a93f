"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ACCEPTANCE line (run with -s to see them inline) and
enforces its runtime budget. Criteria that need training fix their seeds and
configs here so reruns are bit-reproducible.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats as scipy_stats

from triagerl.env import reward_of
from triagerl.errors import IllegalAction
from triagerl.fuzz import FUZZ_SLOTS, FuzzKind, SimOracleConfig, SimulatedBackend
from triagerl.metrics import compute_metrics
from triagerl.policy import draw_dropout_masks, init_params
from triagerl.synthetic import SIGNAL_FEATURE, ambiguity_task, separable_task
from triagerl.trainer import (
    TrainConfig,
    ppo_loss_and_grads,
    save_checkpoint,
    train,
)
from triagerl.evaluate import evaluate_checkpoint, permutation_importance
from triagerl.warnings import Label, Split, stratified_split

from conftest import run_demo_pipeline
from test_env import HAND_REWARD_TABLE
from test_metrics import build, oracle_auc_roc, oracle_average_precision, oracle_confusion
from test_trainer import toy_batch
from test_warnings import make_record

TP, FP = Label.TRUE_POSITIVE, Label.FALSE_POSITIVE


@contextmanager
def criterion(num: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(f"\nACCEPTANCE {num} {name}: FAIL (runtime {elapsed:.1f}s > {budget_seconds}s)")
        pytest.fail(f"criterion {num} exceeded its {budget_seconds}s budget: {elapsed:.1f}s")
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_baseline_row_reproduction():
    with criterion(1, "raw-analyzer baseline reproduction", 1.0):
        n, n_pos = 1000, 256
        rows = [(TP, TP if i < n_pos else FP, 1.0) for i in range(n)]
        report = compute_metrics(*build(rows))
        assert report.precision == pytest.approx(0.256, abs=1e-3)
        assert report.recall == 1.0
        assert report.f1 == pytest.approx(0.407, abs=1e-3)


def test_criterion_2_reward_table_exhaustive():
    with criterion(2, "reward-table exhaustiveness", 1.0):
        from triagerl.env import TriageAction

        checked = 0
        for action in TriageAction:
            for label in (TP, FP):
                for prior in FUZZ_SLOTS:
                    if action is TriageAction.FUZZ and prior is not FuzzKind.NOT_RUN:
                        with pytest.raises(IllegalAction):
                            reward_of(action, label, prior)
                        continue
                    assert reward_of(action, label, prior) == HAND_REWARD_TABLE[(action, label, prior)]
                    checked += 1
        assert checked == len(HAND_REWARD_TABLE) == 26


def test_criterion_3_split_fidelity():
    with criterion(3, "split fidelity", 1.0):
        records = [
            make_record(i, label=TP if i < 1247 else FP) for i in range(4879)
        ]
        assignment = stratified_split(records, (0.70, 0.15, 0.15), seed=0)
        test_ids = [w for w, s in assignment.items() if s is Split.TEST]
        assert len(test_ids) == 732
        positives = {r.id for r in records if r.label is TP}
        test_pos = sum(1 for w in test_ids if w in positives)
        assert abs(test_pos - 0.256 * 732) <= 1.0


CRITERION_4_ORACLE = SimOracleConfig(
    p_crash_given_tp=0.3, p_crash_given_fp=0.3, p_inconclusive=0.25, seed=3
)


def test_criterion_4_ppo_learnability():
    with criterion(4, "PPO learnability", 120.0):
        dataset, vectors = separable_task(n=400, seed=7)
        config = TrainConfig(epochs_max=50, patience=50, seed=7, learning_rate=1e-3)
        backend = SimulatedBackend(CRITERION_4_ORACLE)
        ckpt = train(dataset, vectors, config, backend)
        assert max(h["val_accuracy"] for h in ckpt.history) >= 0.95
        again = train(dataset, vectors, config, backend)
        assert save_checkpoint(ckpt) == save_checkpoint(again)


def test_criterion_5_fuzz_value_property():
    with criterion(5, "fuzz-value property", 300.0):
        dataset, vectors, ambiguous_ids = ambiguity_task(n=600, seed=11)
        backend = SimulatedBackend(
            SimOracleConfig(
                p_crash_given_tp=0.9, p_crash_given_fp=0.02, p_inconclusive=0.8, seed=13
            )
        )
        config = TrainConfig(epochs_max=120, patience=120, seed=11, learning_rate=1e-3)
        ckpt = train(dataset, vectors, config, backend)
        records = dataset.split_records(Split.TEST)

        report_fuzz, preds = evaluate_checkpoint(ckpt, records, vectors, backend)
        report_masked, _ = evaluate_checkpoint(ckpt, records, vectors, backend, mask_fuzz=True)

        ambiguous = [p for p in preds if p.warning_id in ambiguous_ids]
        clear = [p for p in preds if p.warning_id not in ambiguous_ids]
        rate_ambiguous = sum(p.fuzz_used for p in ambiguous) / len(ambiguous)
        rate_clear = sum(p.fuzz_used for p in clear) / len(clear)

        assert rate_ambiguous - rate_clear >= 0.20
        assert 0.0 < report_fuzz.fuzz_invocation_rate < 1.0
        assert report_fuzz.f1 - report_masked.f1 >= 0.05


def test_criterion_6_gradient_correctness():
    with criterion(6, "gradient correctness", 10.0):
        feature_dim = 5
        state_dim = feature_dim + 6
        params = init_params(state_dim, hidden=(4, 3), dropout_rate=0.0, seed=1)
        batch = toy_batch(feature_dim)
        config = TrainConfig(seed=0, dropout_rate=0.0)
        masks = draw_dropout_masks(np.random.default_rng(5), (4, 3), 0.3, n=len(batch))
        for mask_set in (None, masks):
            _, grads, _ = ppo_loss_and_grads(params, batch, config, feature_dim, mask_set)
            analytic = grads.flat
            flat = params.flat
            eps = 1e-6
            fd = np.zeros_like(flat)
            for i in range(len(flat)):
                x = flat[i]
                flat[i] = x + eps
                lu, _, _ = ppo_loss_and_grads(params, batch, config, feature_dim, mask_set)
                flat[i] = x - eps
                ld, _, _ = ppo_loss_and_grads(params, batch, config, feature_dim, mask_set)
                flat[i] = x
                fd[i] = (lu - ld) / (2 * eps)
            significant = np.abs(fd) > 1e-7
            rel = np.abs(analytic - fd)[significant] / np.abs(fd)[significant]
            assert rel.max() < 1e-4


def test_criterion_7_metric_oracle_equivalence():
    with criterion(7, "metric oracle equivalence", 30.0):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            rows = []
            for _ in range(n):
                pred = TP if rng.random() < 0.5 else FP
                actual = TP if rng.random() < 0.4 else FP
                rows.append((pred, actual, float(rng.integers(0, 5)) / 4.0))
            report = compute_metrics(*build(rows))
            tp, fp, fn, tn = oracle_confusion(rows)
            assert (report.tp, report.fp, report.fn, report.tn) == (tp, fp, fn, tn)
            assert report.accuracy == (tp + tn) / n
            assert report.mcc == pytest.approx(
                0.0 if (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn) == 0
                else (tp * tn - fp * fn)
                / np.sqrt(float((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))),
                abs=1e-12,
            )
            if 0 < tp + fn < n:
                assert report.auc_roc == pytest.approx(oracle_auc_roc(rows), abs=1e-9)
                assert report.auc_pr == pytest.approx(oracle_average_precision(rows), abs=1e-9)


def test_criterion_8_simulated_backend_statistics():
    with criterion(8, "simulated-backend statistics", 10.0):
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
        observed = [
            counts[FuzzKind.CRASH], counts[FuzzKind.INCONCLUSIVE], counts[FuzzKind.CLEAN]
        ]
        assert scipy_stats.chisquare(observed, expected).pvalue > 0.01


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "end-to-end determinism", 60.0):
        a = run_demo_pipeline(tmp_path / "a")
        b = run_demo_pipeline(tmp_path / "b")
        outputs = ("warnings", "splits", "features", "manifest", "checkpoint", "trainlog",
                   "reportfile", "verdicts", "recomputed", "importance", "outcomes", "triage")
        for name in outputs:
            assert a[name].read_bytes() == b[name].read_bytes(), f"{name} differs"


def test_criterion_10_importance_sanity():
    with criterion(10, "importance sanity", 60.0):
        dataset, vectors = separable_task(n=300, seed=7)
        config = TrainConfig(epochs_max=25, patience=25, seed=7, learning_rate=1e-3)
        ckpt = train(dataset, vectors, config, SimulatedBackend(CRITERION_4_ORACLE))
        records = dataset.split_records(Split.TEST)
        results = permutation_importance(ckpt, records, vectors, repeats=3, seed=0)
        assert results[0]["feature"] == SIGNAL_FEATURE
        assert results[0]["mean_drop"] > 0.3
