"""MDP dynamics and the reward function, checked against a hand table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagerl.env import RewardSpec, TriageAction, reward_of
from triagerl.errors import DimensionMismatch, IllegalAction, LengthMismatch
from triagerl.fuzz import FUZZ_SLOTS, FuzzKind, FuzzOutcome
from triagerl.policy import init_params
from triagerl.trainer import STATE_DIM, collect_rollouts, run_episodes
from triagerl.warnings import Label

from test_warnings import make_record

TP, FP = Label.TRUE_POSITIVE, Label.FALSE_POSITIVE
A_TP, A_FP, A_FUZZ = TriageAction.CLASSIFY_TP, TriageAction.CLASSIFY_FP, TriageAction.FUZZ

# Every legal (action, label, prior-outcome) combination, rewards composed by
# hand from the default constants: +15/-15 base, -5 fuzz, +10 crash-grade
# with a correct TP call, +8 clean with a correct FP call, +3 after an
# inconclusive run with any correct call.
HAND_REWARD_TABLE = {
    (A_TP, TP, FuzzKind.NOT_RUN): 15.0,
    (A_TP, FP, FuzzKind.NOT_RUN): -15.0,
    (A_FP, FP, FuzzKind.NOT_RUN): 15.0,
    (A_FP, TP, FuzzKind.NOT_RUN): -15.0,
    (A_FUZZ, TP, FuzzKind.NOT_RUN): -5.0,
    (A_FUZZ, FP, FuzzKind.NOT_RUN): -5.0,
    (A_TP, TP, FuzzKind.CRASH): 25.0,
    (A_TP, FP, FuzzKind.CRASH): -15.0,
    (A_FP, FP, FuzzKind.CRASH): 15.0,
    (A_FP, TP, FuzzKind.CRASH): -15.0,
    (A_TP, TP, FuzzKind.SANITIZER_VIOLATION): 25.0,
    (A_TP, FP, FuzzKind.SANITIZER_VIOLATION): -15.0,
    (A_FP, FP, FuzzKind.SANITIZER_VIOLATION): 15.0,
    (A_FP, TP, FuzzKind.SANITIZER_VIOLATION): -15.0,
    (A_TP, TP, FuzzKind.CLEAN): 15.0,
    (A_TP, FP, FuzzKind.CLEAN): -15.0,
    (A_FP, FP, FuzzKind.CLEAN): 23.0,
    (A_FP, TP, FuzzKind.CLEAN): -15.0,
    (A_TP, TP, FuzzKind.INCONCLUSIVE): 18.0,
    (A_TP, FP, FuzzKind.INCONCLUSIVE): -15.0,
    (A_FP, FP, FuzzKind.INCONCLUSIVE): 18.0,
    (A_FP, TP, FuzzKind.INCONCLUSIVE): -15.0,
    (A_TP, TP, FuzzKind.INFRASTRUCTURE_FAILURE): 15.0,
    (A_TP, FP, FuzzKind.INFRASTRUCTURE_FAILURE): -15.0,
    (A_FP, FP, FuzzKind.INFRASTRUCTURE_FAILURE): 15.0,
    (A_FP, TP, FuzzKind.INFRASTRUCTURE_FAILURE): -15.0,
}


class ForcedBackend:
    """Stub backend returning a fixed outcome (or raising)."""

    def __init__(self, kind=FuzzKind.CRASH, raise_error=None):
        self.kind = kind
        self.raise_error = raise_error

    def run(self, warning, true_label):
        if self.raise_error is not None:
            raise self.raise_error
        return FuzzOutcome(self.kind, 1.0, "forced")


def biased_params(feature_dim, logits):
    """A policy whose action logits are `logits` in every state."""
    params = init_params(feature_dim + len(FUZZ_SLOTS), hidden=(3, 2), dropout_rate=0.0, seed=0)
    params.flat[:] = 0.0
    params.b_pi[:] = logits
    return params


# Greedy first choices; after a fuzz the larger of the first two logits wins.
THEN_TP, THEN_FP = [2.0, 1.0, 10.0], [1.0, 2.0, 10.0]
FIRST = {A_TP: [2.0, 1.0, 0.0], A_FP: [1.0, 2.0, 0.0]}


def play(feats, logits, labels, backend=None, **kw):
    """One episode per label, on feature rows `feats`, under `biased_params`."""
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    records = [make_record(i, label=label) for i, label in enumerate(labels)]
    return run_episodes(biased_params(feats.shape[1], logits), RewardSpec(), feats, records,
                        backend, **kw)


class TestRewardOf:
    def test_correct_classification_without_fuzz(self):
        assert reward_of(A_TP, TP) == 15.0

    def test_fuzz_cost(self):
        assert reward_of(A_FUZZ, TP) == -5.0
        assert reward_of(A_FUZZ, FP) == -5.0

    def test_crash_bonus_composition(self):
        # Terminal +25; whole-episode return at gamma=1 is -5 + 25 = +20.
        terminal = reward_of(A_TP, TP, FuzzKind.CRASH)
        assert terminal == 25.0
        assert reward_of(A_FUZZ, TP) + terminal == 20.0

    def test_full_hand_table(self):
        for (action, label, prior), expected in HAND_REWARD_TABLE.items():
            got = reward_of(action, label, prior)
            assert got == expected, f"{action} {label} {prior}: {got} != {expected}"

    def test_table_is_exhaustive_for_legal_cases(self):
        legal = set(HAND_REWARD_TABLE)
        for action in TriageAction:
            for label in (TP, FP):
                for prior in FUZZ_SLOTS:
                    key = (action, label, prior)
                    if action is A_FUZZ and prior is not FuzzKind.NOT_RUN:
                        with pytest.raises(IllegalAction):
                            reward_of(action, label, prior)
                    else:
                        assert key in legal

    def test_custom_spec(self):
        spec = RewardSpec(correct=1.0, incorrect=-1.0, fuzz_cost=-0.5, bonus_crash_tp=2.0)
        assert reward_of(A_TP, TP, FuzzKind.CRASH, spec) == 3.0
        assert reward_of(A_FUZZ, TP, None, spec) == -0.5


class TestEnv:
    def test_reset_appends_not_run_one_hot(self):
        batch, _ = play([1.0, 2.0, 3.0, 4.0], FIRST[A_TP], [TP])
        assert batch.states.tolist() == [[1.0, 2.0, 3.0, 4.0, 1, 0, 0, 0, 0, 0]]

    def test_state_length_arithmetic(self):
        assert STATE_DIM == 93
        batch, _ = play(np.zeros(87), THEN_TP, [TP], ForcedBackend())
        assert batch.states.shape == (2, 93)

    def test_reset_is_pure(self):
        v = np.array([[0.5, -0.5, 2.0]])
        a, _ = play(v, FIRST[A_FP], [FP])
        b, _ = play(v, FIRST[A_FP], [FP])
        assert a.states.tolist() == b.states.tolist()
        assert v.tolist() == [[0.5, -0.5, 2.0]]

    def test_length_mismatch(self):
        params = biased_params(3, FIRST[A_TP])
        with pytest.raises(LengthMismatch):
            run_episodes(params, RewardSpec(), np.zeros((2, 3)), [make_record(0, label=TP)], None)
        with pytest.raises(DimensionMismatch):
            run_episodes(params, RewardSpec(), np.zeros((1, 4)), [make_record(0, label=TP)], None)

    def test_fuzz_step_encodes_outcome_and_costs(self):
        batch, preds = play(np.zeros(2), THEN_TP, [TP], ForcedBackend(FuzzKind.CRASH))
        assert batch.actions.tolist() == [A_FUZZ, A_TP]
        assert batch.rewards.tolist() == [-5.0, 25.0]
        assert batch.states[1, 2:].tolist() == [0, 1, 0, 0, 0, 0]
        assert preds[0].fuzz_kind is FuzzKind.CRASH

    def test_classification_terminates(self):
        batch, preds = play(np.zeros(2), FIRST[A_FP], [FP])
        assert batch.actions.tolist() == [A_FP]
        assert preds[0].predicted is FP
        assert not preds[0].fuzz_used
        assert batch.rewards.tolist() == [15.0]

    def test_fuzz_twice_is_illegal(self):
        # The policy prefers fuzzing in every state; the second decision is
        # masked, so each episode fuzzes once and then classifies.
        for rng in (None, np.random.default_rng(0)):
            batch, _ = play(np.zeros((5, 2)), [0.0, 0.0, 3.0], [TP] * 5, ForcedBackend(), rng=rng)
            for eid in range(5):
                actions = batch.actions[batch.episode_ids == eid].tolist()
                assert actions.count(A_FUZZ) <= 1
                assert actions[-1] != A_FUZZ

    def test_backend_errors_become_infrastructure_failure(self):
        batch, preds = play(np.zeros(2), THEN_TP, [TP],
                  ForcedBackend(raise_error=RuntimeError("toolchain missing")))
        assert batch.rewards[0] == -5.0
        assert preds[0].fuzz_kind is FuzzKind.INFRASTRUCTURE_FAILURE

    def test_exactly_one_fuzz_slot_always(self):
        for kind in (FuzzKind.CRASH, FuzzKind.CLEAN, FuzzKind.INCONCLUSIVE):
            batch, _ = play(np.zeros((3, 2)), THEN_TP, [TP] * 3, ForcedBackend(kind))
            assert batch.states[:, 2:].sum(axis=1).tolist() == [1.0] * 6


class TestEpisodeReturns:
    def episode_return(self, label, first_action, outcome_kind, final_action):
        if first_action is A_FUZZ:
            logits = THEN_TP if final_action is A_TP else THEN_FP
        else:
            logits = FIRST[first_action]
        batch, _ = play(np.zeros(1), logits, [label], ForcedBackend(outcome_kind))
        return float(batch.rewards.sum())

    def test_no_fuzz_returns(self):
        seen = {
            self.episode_return(label, action, None, None)
            for label in (TP, FP)
            for action in (A_TP, A_FP)
        }
        assert seen == {-15.0, 15.0}

    def test_fuzz_episode_return_set(self):
        seen = set()
        for label in (TP, FP):
            for kind in (FuzzKind.CRASH, FuzzKind.SANITIZER_VIOLATION, FuzzKind.CLEAN,
                         FuzzKind.INCONCLUSIVE, FuzzKind.INFRASTRUCTURE_FAILURE):
                for final in (A_TP, A_FP):
                    seen.add(self.episode_return(label, A_FUZZ, kind, final))
        assert seen == {-20.0, 10.0, 13.0, 18.0, 20.0}

    @given(
        fuzz_cost=st.floats(-30, 30, allow_nan=False),
        correct=st.floats(-30, 30, allow_nan=False),
        bonus=st.floats(-30, 30, allow_nan=False),
        gamma=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_discounted_sum_oracle(self, fuzz_cost, correct, bonus, gamma):
        # A fuzz-then-classify episode: its first return is r1 + gamma*r2.
        spec = RewardSpec(correct=correct, fuzz_cost=fuzz_cost, bonus_crash_tp=bonus)
        batch = collect_rollouts(biased_params(1, [0.0, -50.0, 50.0]), [make_record(0, label=TP)],
                                 np.zeros((1, 1)), spec, ForcedBackend(), np.random.default_rng(0),
                                 gamma)
        rewards = [fuzz_cost, correct + bonus]
        assert batch.rewards.tolist() == rewards
        for t in range(2):
            oracle = sum(gamma ** (k - t) * rewards[k] for k in range(t, 2))
            assert batch.returns[t] == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_gamma_one_return_is_plain_sum(self):
        batch = collect_rollouts(biased_params(1, [0.0, 0.0, 0.0]),
                                 [make_record(i, label=TP) for i in range(40)], np.zeros((40, 1)),
                                 RewardSpec(), ForcedBackend(),
                                 np.random.default_rng(1), 1.0)
        starts = np.flatnonzero(np.diff(batch.episode_ids, prepend=-1))
        sums = np.bincount(batch.episode_ids, weights=batch.rewards)
        assert batch.returns[starts].tolist() == sums.tolist()
        assert len(batch) > 40  # some episodes fuzzed
