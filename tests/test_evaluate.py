"""Checkpoint evaluation and permutation importance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagerl.env import RewardSpec
from triagerl.errors import NonFiniteScores
from triagerl.features import MANIFEST, FeatureTable, Kind, NormalizerStats, normalize
from triagerl.fuzz import SimOracleConfig, SimulatedBackend
from triagerl.metrics import compute_metrics, read_verdicts, write_verdicts
from triagerl.policy import init_params
from triagerl.synthetic import SIGNAL_FEATURE, make_synthetic_warning, separable_task
from triagerl.trainer import STATE_DIM, PolicyCheckpoint, TrainConfig, train
from triagerl.evaluate import evaluate_checkpoint, permutation_importance, write_importance
from triagerl.warnings import Label, Split

import episode_oracle
import importance_oracle

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


def mixed_corpus(rng, n):
    """`n` labeled records and a table of raw feature rows whose columns are each
    constant, binary, few-valued or continuous, as the slot's kind allows;
    flag columns may hold -0.0, which validation accepts as 0."""
    columns = []
    for entry in MANIFEST.entries:
        if entry.kind in (Kind.FLAG, Kind.ONE_HOT):
            pool = np.array([0.0, 1.0, -0.0])
        elif entry.kind is Kind.RATIO:
            pool = rng.random(4)
        else:
            pool = rng.integers(0, 30, 4) * rng.choice([1.0, 0.5])
        style = rng.integers(4)  # constant, binary, few-valued, continuous
        if style == 3 and entry.kind not in (Kind.FLAG, Kind.ONE_HOT):
            column = rng.random(n) if entry.kind is Kind.RATIO else rng.exponential(8.0, n)
        else:
            column = rng.choice(pool[:style + 1], n)
        columns.append(column)
    matrix = np.column_stack(columns)
    records = [make_synthetic_warning(i, Label.TRUE_POSITIVE if rng.random() < 0.4
                                      else Label.FALSE_POSITIVE) for i in range(n)]
    return records, FeatureTable.of([r.id for r in records], matrix)


def random_checkpoint(rng, normalizer):
    params = init_params(STATE_DIM, dropout_rate=0.0, seed=int(rng.integers(2**31)))
    params.flat *= rng.uniform(0.5, 4.0)
    params.b_pi[:] = rng.normal(0.0, 0.5, 3)  # init leaves the biases 0
    return PolicyCheckpoint(params=params, normalizer=normalizer, config=TrainConfig(seed=0),
                            reward_spec=RewardSpec(), history=[])


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
            normalize(vectors.rows_of(records), ckpt.normalizer), records, backend,
            mask_fuzz=True,
        )
        assert batched == oracle
        assert not any(p.fuzz_used for p in oracle)


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
        values = vectors.matrix.copy()
        values[:, col] = 1.0
        patched = FeatureTable.of(list(vectors.row), values)
        results = permutation_importance(ckpt, records, patched, repeats=2, seed=0)
        by_name = {r["feature"]: r["mean_drop"] for r in results}
        assert by_name["metadata_imputed_flag"] == 0.0

    def test_same_seed_same_ranking(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        records = dataset.split_records(Split.TEST)
        a = permutation_importance(ckpt, records, vectors, repeats=2, seed=9)
        b = permutation_importance(ckpt, records, vectors, repeats=2, seed=9)
        assert a == b

    def test_importance_file_format(self, trained_separable):
        dataset, vectors, ckpt = trained_separable
        records = dataset.split_records(Split.TEST)
        results = permutation_importance(ckpt, records, vectors, repeats=1, seed=0)
        text = write_importance(results).decode("utf-8")
        first = text.split("\n", 1)[0].split("\t")
        assert first[0] == "1"
        assert first[1] == results[0]["feature"]

    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 40]),
           repeats=st.integers(1, 3), fitted=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_bytes_equal_the_full_replay_oracle(self, seed, n, repeats, fitted):
        rng = np.random.default_rng(seed)
        records, vectors = mixed_corpus(rng, n)
        raw = vectors.rows_of(records)
        normalizer = NormalizerStats(raw.mean(axis=0), raw.std(axis=0)) if fitted else \
            identity_normalizer()
        ckpt = random_checkpoint(rng, normalizer)
        got = permutation_importance(ckpt, records, vectors, repeats=repeats, seed=seed)
        expected = importance_oracle.permutation_importance(ckpt, records, vectors,
                                                            repeats=repeats, seed=seed)
        assert write_importance(got) == write_importance(expected)

    def test_near_tie_bytes_equal_the_oracle_above_the_kernel_switch(self):
        # TP and FP logits an ulp apart: a last-bit change in any row's logits
        # flips its call. At 3,000 rows a 3-column product runs another kernel
        # than the re-plays of a few hundred rows do (OpenBLAS 0.3.31).
        rng = np.random.default_rng(5)
        records, vectors = mixed_corpus(rng, 3000)
        ckpt = random_checkpoint(rng, identity_normalizer())
        ckpt.params.w_pi[:, 1] = ckpt.params.w_pi[:, 0] * (1 + 2**-52)
        ckpt.params.b_pi[1] = ckpt.params.b_pi[0]
        got = permutation_importance(ckpt, records, vectors, repeats=1, seed=7)
        expected = importance_oracle.permutation_importance(ckpt, records, vectors,
                                                            repeats=1, seed=7)
        assert write_importance(got) == write_importance(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_overflow_names_the_oracles_warning(self, seed):
        # Two count columns carry 2**53 in alternate rows; one hidden unit weighs
        # each just below overflow, so the unshuffled rows are finite and a row
        # that a shuffle gives both values overflows.
        rng = np.random.default_rng(seed)
        records, vectors = mixed_corpus(rng, 40)
        a, b = MANIFEST.index_of("mut_borrow_count"), MANIFEST.index_of("smart_pointer_count")
        for i, r in enumerate(records):
            vectors.matrix[vectors.row[r.id], [a, b]] = (2.0**53, 0.0) if i % 2 else (0.0, 2.0**53)
        ckpt = random_checkpoint(rng, identity_normalizer())
        ckpt.params.w1[[a, b], 0] = 1.5e292
        ckpt.params.w2 *= 1e-3
        errors = []
        with np.errstate(over="ignore", invalid="ignore"):
            evaluate_checkpoint(ckpt, records, vectors, None, mask_fuzz=True)  # finite unshuffled
            for importance in (permutation_importance, importance_oracle.permutation_importance):
                with pytest.raises(NonFiniteScores) as caught:
                    importance(ckpt, records, vectors, repeats=2, seed=seed)
                errors.append(str(caught.value))
        assert errors[0] == errors[1]

