"""Checkpoint evaluation and permutation importance."""

import numpy as np
import pytest

from triagerl.env import RewardSpec
from triagerl.features import MANIFEST, FeatureVector, NormalizerStats, normalize
from triagerl.fuzz import SimOracleConfig, SimulatedBackend
from triagerl.metrics import compute_metrics, read_verdicts, write_verdicts
from triagerl.policy import init_params
from triagerl.synthetic import SIGNAL_FEATURE, separable_task
from triagerl.trainer import PolicyCheckpoint, TrainConfig, train
from triagerl.evaluate import evaluate_checkpoint, permutation_importance, write_importance
from triagerl.trainer import feature_matrix
from triagerl.warnings import Label, Split

import episode_oracle

UNINFORMATIVE_ORACLE = SimOracleConfig(
    p_crash_given_tp=0.3, p_crash_given_fp=0.3, p_inconclusive=0.25, seed=3
)


def identity_normalizer():
    return NormalizerStats(mean=np.zeros(len(MANIFEST)), std=np.ones(len(MANIFEST)))


def uniform_checkpoint():
    params = init_params(len(MANIFEST) + 6, hidden=(8, 6), dropout_rate=0.0, seed=0)
    params.flat[:] = 0.0
    return PolicyCheckpoint(
        params=params,
        normalizer=identity_normalizer(),
        config=TrainConfig(seed=0),
        reward_spec=RewardSpec(),
        history=[],
    )


@pytest.fixture(scope="module")
def trained_separable():
    dataset, vectors = separable_task(n=300, seed=7)
    cfg = TrainConfig(epochs_max=20, patience=20, seed=7, learning_rate=1e-3)
    ckpt = train(dataset, vectors, cfg, SimulatedBackend(UNINFORMATIVE_ORACLE))
    return dataset, vectors, ckpt


class TestEvaluateCheckpoint:
    def test_uniform_policy_ties_break_to_classify_tp(self):
        dataset, vectors = separable_task(n=60, seed=1)
        ckpt = uniform_checkpoint()
        records = dataset.split_records(Split.TEST)
        report, preds = evaluate_checkpoint(
            ckpt, records, vectors, SimulatedBackend(UNINFORMATIVE_ORACLE)
        )
        assert all(p.predicted is Label.TRUE_POSITIVE for p in preds)
        assert report.recall == 1.0
        base_rate = sum(r.label is Label.TRUE_POSITIVE for r in records) / len(records)
        assert report.precision == pytest.approx(base_rate)
        assert report.fuzz_invocation_rate == 0.0  # fuzz loses the three-way tie

    def test_metrics_recomputable_from_persisted_verdicts(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        records = dataset.split_records(Split.TEST)
        backend = SimulatedBackend(UNINFORMATIVE_ORACLE)
        report, preds = evaluate_checkpoint(ckpt, records, vectors, backend)
        restored = read_verdicts(write_verdicts(preds), "verdicts")
        labels = {r.id: r.label for r in records}
        again = compute_metrics(restored, labels)
        assert again == report

    def test_trained_checkpoint_beats_base_rate(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        records = dataset.split_records(Split.TEST)
        report, _ = evaluate_checkpoint(
            ckpt, records, vectors, SimulatedBackend(UNINFORMATIVE_ORACLE)
        )
        assert report.accuracy >= 0.9

    def test_mask_fuzz_never_fuzzes(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        records = dataset.split_records(Split.TEST)
        report, preds = evaluate_checkpoint(
            ckpt, records, vectors, SimulatedBackend(UNINFORMATIVE_ORACLE), mask_fuzz=True
        )
        assert report.fuzz_invocation_rate == 0.0
        assert not any(p.fuzz_used for p in preds)

    def test_batched_masked_path_matches_episode_path(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        records = dataset.split_records(Split.VAL)
        backend = SimulatedBackend(UNINFORMATIVE_ORACLE)
        _, batched = evaluate_checkpoint(ckpt, records, vectors, backend, mask_fuzz=True)
        oracle = episode_oracle.play_all(
            ckpt.params, ckpt.reward_spec,
            normalize(feature_matrix(records, vectors), ckpt.normalizer), records, backend,
            mask_fuzz=True,
        )
        for b, o in zip(batched, oracle, strict=True):
            assert (b.warning_id, b.predicted, b.fuzz_used) == (o.warning_id, o.predicted, False)
            assert b.score == pytest.approx(o.score, abs=1e-12)


class TestPermutationImportance:
    def test_signal_feature_ranks_first_with_large_drop(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        records = dataset.split_records(Split.TEST)
        results = permutation_importance(ckpt, records, vectors, repeats=3, seed=0)
        assert results[0]["feature"] == SIGNAL_FEATURE
        assert results[0]["mean_drop"] > 0.3

    def test_constant_feature_drop_exactly_zero(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        records = dataset.split_records(Split.TEST)
        col = MANIFEST.index_of("metadata_imputed_flag")
        patched = {}
        for wid, v in vectors.items():
            values = v.values.copy()
            values[col] = 1.0
            patched[wid] = FeatureVector(wid, values)
        results = permutation_importance(ckpt, records, patched, repeats=2, seed=0)
        by_name = {r["feature"]: r["mean_drop"] for r in results}
        assert by_name["metadata_imputed_flag"] == 0.0

    def test_same_seed_same_ranking(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        records = dataset.split_records(Split.TEST)
        a = permutation_importance(ckpt, records, vectors, repeats=2, seed=9)
        b = permutation_importance(ckpt, records, vectors, repeats=2, seed=9)
        assert a == b

    def test_repeats_validated(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        with pytest.raises(ValueError):
            permutation_importance(ckpt, dataset.records[:5], vectors, repeats=0, seed=0)

    def test_importance_file_format(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        records = dataset.split_records(Split.TEST)
        results = permutation_importance(ckpt, records, vectors, repeats=1, seed=0)
        text = write_importance(results).decode("utf-8")
        first = text.split("\n", 1)[0].split("\t")
        assert first[0] == "1"
        assert first[1] == results[0]["feature"]
