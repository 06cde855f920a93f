"""The batched episode engine against the per-warning reference loop."""

import numpy as np
import pytest

from triagerl import trainer
from triagerl.env import RewardSpec
from triagerl.features import fit_normalizer, normalize
from triagerl.fuzz import SimOracleConfig, SimulatedBackend
from triagerl.policy import init_params
from triagerl.synthetic import separable_task
from triagerl.trainer import STATE_DIM, collect_rollouts, feature_matrix, run_episodes
from triagerl.warnings import Split

import episode_oracle

SPEC = RewardSpec()
BACKEND = SimulatedBackend(SimOracleConfig(0.6, 0.1, 0.3, seed=2))


@pytest.fixture(scope="module")
def task():
    dataset, vectors = separable_task(n=200, seed=3)
    records = dataset.split_records(Split.TRAIN)
    raw = feature_matrix(records, vectors)
    return records, normalize(raw, fit_normalizer(raw))


def policies():
    """Untrained policies: greedy play fuzzes some warnings and not others."""
    return [init_params(STATE_DIM, seed=seed) for seed in range(3)]


def test_greedy_matches_reference_loop(task):
    records, feats = task
    for params in policies():
        for mask_fuzz in (False, True):
            _, batched = run_episodes(params, SPEC, feats, records, BACKEND, mask_fuzz=mask_fuzz)
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
        batch = collect_rollouts(params, records, feats, SPEC, BACKEND, rng_a, gamma=0.9)
        oracle = episode_oracle.collect_rollouts(params, records, feats, SPEC, BACKEND, rng_b, 0.9)
        assert batch.actions.tolist() == oracle["actions"].tolist()
        assert batch.episode_ids.tolist() == oracle["episode_ids"].tolist()
        assert batch.states.tolist() == oracle["states"].tolist()
        assert batch.rewards.tolist() == oracle["rewards"].tolist()
        assert batch.returns.tolist() == pytest.approx(oracle["returns"].tolist(), abs=1e-12)
        assert batch.behavior_logp.tolist() == pytest.approx(oracle["logp"].tolist(), abs=1e-12)
        assert batch.values.tolist() == pytest.approx(oracle["values"].tolist(), abs=1e-12)
        assert rng_a.random() == rng_b.random()  # both consumed the same draws


def test_sampled_verdicts_match_reference_loop(task):
    records, feats = task
    params = policies()[0]
    _, batched = run_episodes(params, SPEC, feats, records, BACKEND, rng=np.random.default_rng(4))
    oracle = episode_oracle.play_all(params, SPEC, feats, records, BACKEND,
                                     rng=np.random.default_rng(4))
    assert [(p.predicted, p.fuzz_kind) for p in batched] == [(p.predicted, p.fuzz_kind) for p in oracle]


def test_at_most_two_forward_passes(task, monkeypatch):
    records, feats = task
    calls = []
    real = trainer.forward_cache

    def counting(params, states, masks=None):
        calls.append(len(states))
        return real(params, states, masks)

    monkeypatch.setattr(trainer, "forward_cache", counting)
    params = policies()[0]
    for n in (0, 1, 7, len(records)):
        for rng in (None, np.random.default_rng(0)):
            calls.clear()
            batch, _ = run_episodes(params, SPEC, feats[:n], records[:n], BACKEND, rng=rng)
            assert len(calls) <= 2
            assert sum(calls) == len(batch)
