"""The batched episode engine against the per-warning reference loop."""

import itertools
import math

import numpy as np
import pytest

from triagerl import env, metrics, trainer
from triagerl.env import RewardSpec, TriageAction
from triagerl.evaluate import permutation_importance
from triagerl.features import MANIFEST, fit_normalizer, normalize
from triagerl.fuzz import SimOracleConfig, SimulatedBackend
from triagerl.metrics import prediction_records
from triagerl.policy import DEFAULT_DROPOUT, init_params
from triagerl.synthetic import separable_task
from triagerl.trainer import (
    FORWARD_BLOCK,
    STATE_DIM,
    PolicyCheckpoint,
    TrainConfig,
    TrajectoryBatch,
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


@pytest.fixture(scope="module")
def tasks(task):
    """`task`, and a task of two blocks and one row: the engine plays its last
    block of first decisions as one row."""
    dataset, table = separable_task(n=2 * FORWARD_BLOCK + 1, seed=4)
    raw = table.rows_of(dataset.records)
    return [task, (dataset.records, normalize(raw, fit_normalizer(raw)))]


def verdicts(params, feats, records, mask_fuzz, **kw):
    """The engine's greedy or sampled play as verdicts, for comparison with the
    oracle's; a masked play has no backend."""
    played = run_episodes(params, feats, records, None if mask_fuzz else BACKEND, **kw)
    return prediction_records([r.id for r in records], played.called, played.score,
                              played.outcome)


def policies():
    """Untrained policies: greedy play fuzzes some warnings and not others."""
    return [init_params(STATE_DIM, dropout_rate=DEFAULT_DROPOUT, seed=seed) for seed in range(3)]


def test_greedy_matches_reference_loop(tasks):
    for (records, feats), params in itertools.product(tasks, policies()):
        for mask_fuzz in (False, True):
            batched = verdicts(params, feats, records, mask_fuzz)
            oracle = episode_oracle.play_all(params, SPEC, feats, records, BACKEND, mask_fuzz)
            assert batched == oracle  # ids, calls, fuzz kinds and the scores' bits
            fuzzed = sum(p.fuzz_used for p in oracle)
            assert fuzzed == 0 if mask_fuzz else 0 < fuzzed


def test_sampled_rollouts_match_reference_loop(tasks):
    for (records, feats), params in itertools.product(tasks, policies()):
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        batch, mean_return = collect_rollouts(params, records, feats, SPEC, BACKEND, rng_a,
                                              gamma=0.9)
        oracle = episode_oracle.collect_rollouts(params, records, feats, SPEC, BACKEND, rng_b, 0.9)
        for got, want in ((batch.states, oracle["states"]), (batch.actions, oracle["actions"]),
                          (batch.returns, oracle["returns"]),
                          (batch.behavior_logp, oracle["logp"])):
            assert np.array_equal(got, want)
        # The oracle's per-step rewards, summed per episode, give the same bits.
        assert mean_return == np.bincount(oracle["episode_ids"], weights=oracle["rewards"]).mean()
        raw = oracle["returns"] - oracle["values"]
        assert np.array_equal(batch.advantages, (raw - raw.mean()) / (raw.std() + 1e-8))
        assert rng_a.random() == rng_b.random()  # both consumed the same draws


def test_sampled_verdicts_match_reference_loop(tasks):
    for (records, feats), params in itertools.product(tasks, policies()):
        for mask_fuzz in (False, True):
            batched = verdicts(params, feats, records, mask_fuzz, rng=np.random.default_rng(4))
            oracle = episode_oracle.play_all(params, SPEC, feats, records, BACKEND, mask_fuzz,
                                             rng=np.random.default_rng(4))
            assert batched == oracle


def never_fuzzes(params):
    """`params` with a fuzz logit so low that its probability is exactly 0."""
    params = params.copy()
    params.b_pi[TriageAction.FUZZ] = -1e3
    return params


def test_a_play_without_fuzzing_reads_through_from_episodes(tasks):
    # No episode fuzzes, so the engine plays no second step; the decisions a
    # rollout reads are the first ones alone, with the oracle's bits.
    records, feats = tasks[1]
    labels = [r.label for r in records]
    for params, mask_fuzz in itertools.product(policies(), (False, True)):
        if not mask_fuzz:
            params = never_fuzzes(params)
        for seed in (None, 6):
            played = run_episodes(params, feats, records, None if mask_fuzz else BACKEND,
                                  rng=None if seed is None else np.random.default_rng(seed))
            assert not played.fuzzed.any()
            assert [len(step) for step in played.states] == [len(records), 0]
            batch, mean_return = TrajectoryBatch.from_episodes(played, labels, SPEC, 0.9)
            oracle = episode_oracle.play_steps(
                params, SPEC, records, feats, BACKEND, mask_fuzz,
                rng=None if seed is None else np.random.default_rng(seed), gamma=0.9)
            for got, want in ((batch.states, oracle["states"]), (batch.actions, oracle["actions"]),
                              (batch.returns, oracle["returns"]),
                              (batch.behavior_logp, oracle["logp"]),
                              (batch.advantages, oracle["returns"] - oracle["values"])):
                assert np.array_equal(got, want)
            assert mean_return == oracle["rewards"].mean()


def forward_rows(monkeypatch):
    """The row count of each `forward_cache` call the engine makes from now on."""
    calls = []
    real = trainer.forward_cache

    def counting(params, states, masks=None):
        calls.append(len(states))
        return real(params, states, masks)

    monkeypatch.setattr(trainer, "forward_cache", counting)
    return calls


def test_each_decision_step_plays_in_blocks(tasks, monkeypatch):
    records, feats = tasks[1]
    calls = forward_rows(monkeypatch)
    params = policies()[0]
    for n in (0, 1, 7, FORWARD_BLOCK, FORWARD_BLOCK + 1, len(records)):
        for rng in (None, np.random.default_rng(0)):
            calls.clear()
            played = run_episodes(params, feats[:n], records[:n], BACKEND, rng=rng)
            m = len(played.states[1])
            assert max(calls, default=0) <= FORWARD_BLOCK
            assert len(calls) == math.ceil(n / FORWARD_BLOCK) + math.ceil(m / FORWARD_BLOCK)
            assert sum(calls) == sum(map(len, played.actions)) == n + m


def test_a_masked_play_makes_one_forward_pass(task, monkeypatch):
    # No warning can choose to fuzz, so no second decision needs a pass.
    records, feats = task
    calls = forward_rows(monkeypatch)
    for params in policies():
        calls.clear()
        played = run_episodes(params, feats, records, None)
        assert calls == [len(records)]
        assert len(played.states[1]) == 0


def test_play_and_importance_build_no_verdicts_and_no_rewards(corpus, task, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("verdicts and rewards belong to the file boundary and rollouts")

    monkeypatch.setattr(metrics.PredictionRecord, "__init__", forbidden)
    monkeypatch.setattr(env, "reward_of", forbidden)
    monkeypatch.setattr(trainer, "reward_of", forbidden)
    records, feats = task
    params = policies()[0]
    for mask_fuzz in (False, True):
        played = run_episodes(params, feats, records, None if mask_fuzz else BACKEND)
        assert played.fuzzed.any() != mask_fuzz
    records, table = corpus
    normalizer = fit_normalizer(table.rows_of(records))
    ckpt = PolicyCheckpoint(params=params, normalizer=normalizer, config=TrainConfig(),
                            reward_spec=SPEC, history=[])
    assert len(permutation_importance(ckpt, *corpus, repeats=1, seed=0)) == len(MANIFEST)
