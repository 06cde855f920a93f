"""The batched episode engine against the per-warning reference loop."""

import numpy as np
import pytest

from triagerl import env, metrics, trainer
from triagerl.env import RewardSpec
from triagerl.evaluate import permutation_importance
from triagerl.features import MANIFEST, fit_normalizer, normalize
from triagerl.fuzz import SimOracleConfig, SimulatedBackend
from triagerl.metrics import prediction_records
from triagerl.policy import DEFAULT_DROPOUT, forward_cache, init_params
from triagerl.synthetic import separable_task
from triagerl.trainer import (
    STATE_DIM,
    PolicyCheckpoint,
    TrainConfig,
    collect_rollouts,
    run_episodes,
)
from triagerl.warnings import Split

import episode_oracle

SPEC = RewardSpec()
BACKEND = SimulatedBackend(SimOracleConfig(0.6, 0.1, 0.3, seed=2))


@pytest.fixture(scope="module")
def corpus():
    dataset, table = separable_task(n=200, seed=3)
    return dataset.split_records(Split.TRAIN), table


@pytest.fixture(scope="module")
def task(corpus):
    records, table = corpus
    raw = table.rows_of(records)
    return records, normalize(raw, fit_normalizer(raw))


def verdicts(params, feats, records, **kw):
    """The engine's greedy or sampled play as verdicts, for comparison with the oracle's."""
    played = run_episodes(params, feats, records, BACKEND, **kw)
    return prediction_records([r.id for r in records], played.called, played.score,
                              played.outcome)


def policies():
    """Untrained policies: greedy play fuzzes some warnings and not others."""
    return [init_params(STATE_DIM, dropout_rate=DEFAULT_DROPOUT, seed=seed) for seed in range(3)]


def test_greedy_matches_reference_loop(task):
    records, feats = task
    for params in policies():
        for mask_fuzz in (False, True):
            batched = verdicts(params, feats, records, mask_fuzz=mask_fuzz)
            oracle = episode_oracle.play_all(params, SPEC, feats, records, BACKEND, mask_fuzz)
            assert len(batched) == len(oracle)
            for b, o in zip(batched, oracle):
                assert (b.warning_id, b.predicted, b.fuzz_used, b.fuzz_kind) == (
                    o.warning_id, o.predicted, o.fuzz_used, o.fuzz_kind)
                assert b.score == pytest.approx(o.score, abs=1e-12)
            fuzzed = sum(p.fuzz_used for p in oracle)
            assert fuzzed == 0 if mask_fuzz else 0 < fuzzed


def test_sampled_rollouts_match_reference_loop(task):
    records, feats = task
    for params in policies():
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        batch, mean_return = collect_rollouts(params, records, feats, SPEC, BACKEND, rng_a,
                                              gamma=0.9)
        oracle = episode_oracle.collect_rollouts(params, records, feats, SPEC, BACKEND, rng_b, 0.9)
        assert batch.actions.tolist() == oracle["actions"].tolist()
        assert batch.states.tolist() == oracle["states"].tolist()
        assert batch.returns.tolist() == pytest.approx(oracle["returns"].tolist(), abs=1e-12)
        assert batch.behavior_logp.tolist() == pytest.approx(oracle["logp"].tolist(), abs=1e-12)
        # The oracle's per-step rewards, summed per episode, give the same bits.
        assert mean_return == np.bincount(oracle["episode_ids"], weights=oracle["rewards"]).mean()
        raw = batch.returns - forward_cache(params, batch.states)["values"]
        assert batch.advantages.tolist() == pytest.approx(
            ((raw - raw.mean()) / (raw.std() + 1e-8)).tolist(), abs=1e-9)
        assert raw.tolist() == pytest.approx(
            (oracle["returns"] - oracle["values"]).tolist(), abs=1e-12)
        assert rng_a.random() == rng_b.random()  # both consumed the same draws


def test_sampled_verdicts_match_reference_loop(task):
    records, feats = task
    params = policies()[0]
    batched = verdicts(params, feats, records, rng=np.random.default_rng(4))
    oracle = episode_oracle.play_all(params, SPEC, feats, records, BACKEND,
                                     rng=np.random.default_rng(4))
    assert [(p.predicted, p.fuzz_kind) for p in batched] == [(p.predicted, p.fuzz_kind) for p in oracle]


def forward_rows(monkeypatch):
    """The row count of each `forward_cache` call the engine makes from now on."""
    calls = []
    real = trainer.forward_cache

    def counting(params, states, masks=None):
        calls.append(len(states))
        return real(params, states, masks)

    monkeypatch.setattr(trainer, "forward_cache", counting)
    return calls


def test_at_most_two_forward_passes(task, monkeypatch):
    records, feats = task
    calls = forward_rows(monkeypatch)
    params = policies()[0]
    for n in (0, 1, 7, len(records)):
        for rng in (None, np.random.default_rng(0)):
            calls.clear()
            played = run_episodes(params, feats[:n], records[:n], BACKEND, rng=rng)
            assert len(calls) <= 2
            assert sum(calls) == len(played.actions)


def test_a_masked_play_makes_one_forward_pass(task, monkeypatch):
    # No warning can choose to fuzz, so no second decision needs a pass.
    records, feats = task
    calls = forward_rows(monkeypatch)
    for params in policies():
        calls.clear()
        played = run_episodes(params, feats, records, BACKEND, mask_fuzz=True)
        assert calls == [len(records)]
        assert len(played.second_states) == 0


def test_play_and_importance_build_no_verdicts_and_no_rewards(corpus, task, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("verdicts and rewards belong to the file boundary and rollouts")

    monkeypatch.setattr(metrics.PredictionRecord, "__init__", forbidden)
    monkeypatch.setattr(env, "reward_of", forbidden)
    monkeypatch.setattr(trainer, "reward_of", forbidden)
    records, feats = task
    params = policies()[0]
    for mask_fuzz in (False, True):
        played = run_episodes(params, feats, records, BACKEND, mask_fuzz=mask_fuzz)
        assert played.fuzzed.any() != mask_fuzz
    records, table = corpus
    normalizer = fit_normalizer(table.rows_of(records))
    ckpt = PolicyCheckpoint(params=params, normalizer=normalizer, config=TrainConfig(),
                            reward_spec=SPEC, history=[])
    assert len(permutation_importance(ckpt, *corpus, repeats=1, seed=0)) == len(MANIFEST)
