"""Rollout collection, the PPO objective, and the training loop."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagerl.env import RewardSpec, TriageAction, reward_of
from triagerl.errors import InputError
from triagerl.features import MANIFEST
from triagerl.fuzz import FUZZ_SLOTS, SimOracleConfig, SimulatedBackend
from triagerl.policy import (DEFAULT_DROPOUT, draw_dropout_masks, forward_cache, init_params,
                             softmax)
from triagerl.synthetic import separable_task
from triagerl.trainer import (
    STATE_DIM,
    Adam,
    TrainConfig,
    TrajectoryBatch,
    collect_rollouts,
    load_checkpoint,
    ppo_loss_and_grads,
    ppo_update,
    save_checkpoint,
    train,
)
from triagerl.evaluate import evaluate_checkpoint
from triagerl.warnings import Label, Split

import ppo_oracle
from test_env import ForcedBackend, biased_params
from test_warnings import make_record

UNINFORMATIVE_ORACLE = SimOracleConfig(
    p_crash_given_tp=0.3, p_crash_given_fp=0.3, p_inconclusive=0.25, seed=3
)


def tiny_episodes(n=6, feature_dim=4, seed=0):
    """(records, feature rows) for n warnings with alternating labels."""
    rng = np.random.default_rng(seed)
    records = [make_record(i, label=Label.TRUE_POSITIVE if i % 2 == 0 else Label.FALSE_POSITIVE)
               for i in range(n)]
    return records, rng.normal(size=(n, feature_dim))


def toy_batch(feature_dim=5, n=12, seed=0):
    rng = np.random.default_rng(seed)
    states = np.hstack([rng.normal(size=(n, feature_dim)), np.zeros((n, 6))])
    states[:, feature_dim] = 1.0
    states[2:4, feature_dim] = 0.0
    states[2:4, feature_dim + 1] = 1.0  # two post-fuzz states
    return TrajectoryBatch(
        states=states,
        actions=rng.integers(0, 2, size=n),
        behavior_logp=np.log(rng.uniform(0.2, 0.8, size=n)),
        returns=rng.normal(size=n) * 10,
        advantages=rng.normal(size=n),
    )


class TestCollectRollouts:
    def setup_method(self):
        self.spec = RewardSpec()
        self.backend = SimulatedBackend(SimOracleConfig(seed=0))
        self.params = init_params(4 + 6, hidden=(8, 6), dropout_rate=DEFAULT_DROPOUT, seed=1)

    def collect(self, seed, gamma=1.0, n=6):
        return collect_rollouts(self.params, *tiny_episodes(n), self.spec, self.backend,
                                np.random.default_rng(seed), gamma)

    def test_returns_are_suffix_sums_within_episodes(self):
        records, feats = tiny_episodes(40)
        batch, _ = self.collect(0, gamma=0.9, n=40)
        assert len(batch) > 40  # some episodes fuzzed
        label_of = {tuple(f): r.label for r, f in zip(records, feats)}
        for t, action in enumerate(batch.actions.tolist()):
            if action == TriageAction.FUZZ:  # the episode's second decision is the next row
                assert batch.states[t + 1, 4] == 0.0
                assert batch.returns[t] == pytest.approx(
                    self.spec.fuzz_cost + 0.9 * batch.returns[t + 1])
            else:
                prior = FUZZ_SLOTS[int(batch.states[t, 4:].argmax())]
                assert batch.returns[t] == reward_of(TriageAction(action),
                                                     label_of[tuple(batch.states[t, :4])],
                                                     prior, self.spec)

    def test_fuzz_episode_return_example(self):
        batch, mean_return = collect_rollouts(biased_params(4, [0.0, -50.0, 50.0]),
                                              *tiny_episodes(1), self.spec, ForcedBackend(),
                                              np.random.default_rng(0), 1.0)
        assert batch.returns.tolist() == [20.0, 25.0]
        assert mean_return == 20.0

    def test_single_step_advantage_is_return_minus_value(self):
        batch, _ = self.collect(3)
        raw = batch.returns - forward_cache(self.params, batch.states)["values"]
        normalized = (raw - raw.mean()) / (raw.std() + 1e-8)
        assert batch.advantages.tolist() == pytest.approx(normalized.tolist())
        assert abs(batch.advantages.mean()) < 1e-9
        assert abs(batch.advantages.std() - 1.0) < 1e-6

    def test_deterministic_for_fixed_seed(self):
        a, a_return = self.collect(7)
        b, b_return = self.collect(7)
        assert a.states.tobytes() == b.states.tobytes()
        assert a.actions.tolist() == b.actions.tolist()
        assert a.returns.tobytes() == b.returns.tobytes()
        assert a_return == b_return

    def test_one_episode_per_warning(self):
        records, feats = tiny_episodes(10)
        batch, _ = collect_rollouts(self.params, records, feats, self.spec, self.backend,
                                    np.random.default_rng(0), 1.0)
        first_rows = np.flatnonzero(batch.states[:, 4] == 1.0)  # the NotRun slot
        assert sorted(map(tuple, batch.states[first_rows, :4])) == sorted(map(tuple, feats))


def surrogate_objective(rho, adv, eps):
    """The policy loss of one minibatch whose probability ratios are `rho`,
    negated back to the mean clipped surrogate."""
    n = len(rho)
    params = init_params(4 + 6, hidden=(4, 3), dropout_rate=0.0, seed=0)
    states = np.hstack([np.random.default_rng(0).normal(size=(n, 4)), np.zeros((n, 6))])
    states[:, 4] = 1.0
    actions = np.zeros(n, dtype=int)
    logp_new = np.log(softmax(forward_cache(params, states)["logits"])[:, 0])
    batch = TrajectoryBatch(
        states=states, actions=actions, behavior_logp=logp_new - np.log(rho),
        returns=np.zeros(n), advantages=np.asarray(adv, dtype=np.float64),
    )
    config = TrainConfig(clip_epsilon=eps, value_loss_weight=0.0, entropy_weight=0.0)
    _, _, parts = ppo_loss_and_grads(params, batch, config, feature_dim=4, dropout_masks=None)
    return -parts["policy_loss"]


class TestPPOObjective:
    def test_clip_formula_by_hand(self):
        # rho=2, A=1, eps=0.2: the clipped branch caps the ratio at 1.2.
        assert surrogate_objective(np.array([2.0]), [1.0], 0.2) == pytest.approx(1.2)

    def test_ratio_one_equals_unclipped(self):
        adv = np.array([1.0, -2.0, 0.5, 3.0, -0.1])
        assert surrogate_objective(np.ones(5), adv, 0.2) == pytest.approx(adv.mean())

    def test_huge_epsilon_never_clips(self):
        # The widest band the config allows; no ratio drawn here leaves it.
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.05, 1.95, size=200)
        adv = rng.normal(size=200)
        assert surrogate_objective(rho, adv, 0.99) == pytest.approx((rho * adv).mean(), abs=1e-9)

    def test_same_params_give_unit_ratio_objective(self):
        backend = SimulatedBackend(SimOracleConfig(seed=0))
        params = init_params(4 + 6, hidden=(8, 6), dropout_rate=0.0, seed=1)
        batch, _ = collect_rollouts(params, *tiny_episodes(), RewardSpec(), backend,
                                    np.random.default_rng(0), 1.0)
        config = TrainConfig(seed=0, dropout_rate=0.0)
        _, _, parts = ppo_loss_and_grads(params, batch, config, feature_dim=4, dropout_masks=None)
        assert parts["policy_loss"] == pytest.approx(-batch.advantages.mean(), abs=1e-9)

    def test_gradient_check_against_central_differences(self):
        # Toy network: 5 features (11-dim state), hidden (4, 3).
        feature_dim = 5
        state_dim = feature_dim + 6
        params = init_params(state_dim, hidden=(4, 3), dropout_rate=0.0, seed=1)
        batch = toy_batch(feature_dim)
        config = TrainConfig(seed=0, dropout_rate=0.0)
        for masks in (None, draw_dropout_masks(np.random.default_rng(5), (4, 3), 0.3, n=len(batch))):
            _, grads, _ = ppo_loss_and_grads(params, batch, config, feature_dim, masks)
            analytic = grads.flat
            flat = params.flat
            eps = 1e-6
            fd = np.zeros_like(flat)
            for i in range(len(flat)):
                x = flat[i]
                flat[i] = x + eps
                lu, _, _ = ppo_loss_and_grads(params, batch, config, feature_dim, masks)
                flat[i] = x - eps
                ld, _, _ = ppo_loss_and_grads(params, batch, config, feature_dim, masks)
                flat[i] = x
                fd[i] = (lu - ld) / (2 * eps)
            significant = np.abs(fd) > 1e-7
            rel = np.abs(analytic - fd)[significant] / np.abs(fd)[significant]
            assert rel.max() < 1e-4

    def test_loss_decreases_on_pinned_batch(self):
        feature_dim = 5
        params = init_params(feature_dim + 6, hidden=(16, 8), dropout_rate=0.0, seed=2)
        batch = toy_batch(feature_dim, n=32, seed=4)
        config = TrainConfig(seed=0, learning_rate=1e-3, minibatch_size=32,
                             ppo_inner_epochs=1, dropout_rate=0.0)
        before, _, _ = ppo_loss_and_grads(params, batch, config, feature_dim, None)
        ppo_update(params, batch, config, np.random.default_rng(0),
                   Adam(config.learning_rate, params.flat.size))
        after, _, _ = ppo_loss_and_grads(params, batch, config, feature_dim, None)
        assert after < before

    def test_non_finite_loss_aborts_with_minibatch(self):
        feature_dim = 5
        params = init_params(feature_dim + 6, hidden=(4, 3), dropout_rate=0.0, seed=2)
        batch = toy_batch(feature_dim)
        batch.advantages[3] = np.inf
        config = TrainConfig(seed=0, dropout_rate=0.0, minibatch_size=64)
        with pytest.raises(InputError, match="minibatch"):
            ppo_update(params, batch, config, np.random.default_rng(0),
                       Adam(config.learning_rate, params.flat.size))


class TestStepAgainstOracle:
    """The lean minibatch step equals the step it replaced, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), dropout=st.booleans(),
           fuzzed=st.sampled_from([0.0, 0.3, 1.0]), spread=st.sampled_from([0.0, 0.15, 2.0]),
           scale=st.sampled_from([0.1, 1.0, 3.0, 30.0]))
    @settings(max_examples=120, deadline=None)
    def test_loss_parts_and_grads_equal_the_oracle(self, seed, n, dropout, fuzzed, spread, scale):
        rng = np.random.default_rng(seed)
        feature_dim = len(MANIFEST)
        params = init_params(STATE_DIM, dropout_rate=0.3 if dropout else 0.0, seed=seed % 1000)
        params.flat *= scale
        states = np.zeros((n, STATE_DIM))
        states[:, :feature_dim] = rng.normal(size=(n, feature_dim))
        post_fuzz = rng.random(n) < fuzzed  # these rows have fuzzed: FUZZ is masked there
        states[np.arange(n), feature_dim + np.where(post_fuzz, rng.integers(1, 6, n), 0)] = 1.0
        actions = np.where(post_fuzz, rng.integers(0, 2, n), rng.integers(0, 3, n))
        masks = (draw_dropout_masks(rng, params.hidden_sizes, params.dropout_rate, n)
                 if dropout else None)
        # Behaviour log-probabilities put the ratios inside the clip band
        # (spread 0 and 0.15 at eps 0.2) or far outside it (spread 2).
        probs = ppo_oracle._fuzz_masked_probs(
            ppo_oracle.forward_cache(params, states, masks)["logits"], post_fuzz)
        with np.errstate(divide="ignore"):
            logp = np.log(probs[np.arange(n), actions])
        batch = TrajectoryBatch(
            states=states, actions=actions,
            behavior_logp=logp - rng.uniform(-spread, spread, n),
            returns=rng.normal(size=n) * 10, advantages=rng.normal(size=n),
        )
        config = TrainConfig(clip_epsilon=0.2, value_loss_weight=rng.uniform(0, 1),
                             entropy_weight=rng.uniform(0, 0.1))
        grads = params.zeros_like()
        grads.flat[:] = np.nan  # every slot must be written
        with np.errstate(divide="ignore", invalid="ignore"):  # the underflowing examples
            want_total, want, want_parts = ppo_oracle.ppo_loss_and_grads(
                params, batch, config, feature_dim, masks)
            total, got, parts = ppo_loss_and_grads(params, batch.minibatch(np.arange(n)), config,
                                                   feature_dim, masks, grads)
        # At scale 30 some probabilities underflow to 0, and so do losses to nan.
        assert np.array_equal([total, *parts.values()], [want_total, *want_parts.values()],
                              equal_nan=True)
        assert list(parts) == list(want_parts)
        if want is None:
            assert got is None and not np.isfinite(total)
        else:
            assert got is grads and np.array_equal(got.flat, want.flat)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # Bias correction makes the first step lr * sign(grad).
        adam = Adam(0.01, 4)
        flat = np.zeros(4)
        grad = np.array([1.0, -2.0, 0.5, 0.0])
        adam.step(flat, grad)
        expected = -0.01 * np.sign(grad) * (np.abs(grad) / (np.abs(grad) + 1e-8))
        assert flat == pytest.approx(expected, abs=1e-6)

    def test_in_place_step_matches_the_textbook_update(self):
        rng = np.random.default_rng(0)
        adam, flat = Adam(0.01, 50), rng.normal(size=50)
        m = v = np.zeros(50)
        expected = flat.copy()
        # Past t = 355, 1 - 0.9**t rounds to 1.0: the steps run past there so
        # that the first-moment bias correction is checked where it is exactly 1.
        for t in range(1, 401):
            grad = rng.normal(size=50)
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad**2
            expected = expected - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            adam.step(flat, grad)
            assert np.array_equal(flat, expected)

    def test_state_accumulates(self):
        adam = Adam(0.1, 2)
        flat = np.zeros(2)
        for _ in range(3):
            adam.step(flat, np.array([1.0, 1.0]))
        assert adam.t == 3
        assert flat[0] < 0


class TestTrainLoop:
    def make_task(self, n=120, seed=7):
        return separable_task(n=n, seed=seed)

    def test_patience_zero_runs_exactly_one_epoch(self):
        dataset, vectors = self.make_task()
        cfg = TrainConfig(epochs_max=10, patience=0, seed=0)
        ckpt = train(dataset, vectors, cfg, SimulatedBackend(UNINFORMATIVE_ORACLE))
        assert len(ckpt.history) == 1

    def test_reproducible_checkpoints(self):
        dataset, vectors = self.make_task()
        cfg = TrainConfig(epochs_max=3, patience=3, seed=5)
        backend = SimulatedBackend(UNINFORMATIVE_ORACLE)
        a = save_checkpoint(train(dataset, vectors, cfg, backend))
        b = save_checkpoint(train(dataset, vectors, cfg, backend))
        assert a == b

    def test_checkpoint_round_trip_preserves_predictions(self):
        dataset, vectors = self.make_task()
        cfg = TrainConfig(epochs_max=3, patience=3, seed=5)
        backend = SimulatedBackend(UNINFORMATIVE_ORACLE)
        ckpt = train(dataset, vectors, cfg, backend)
        restored = load_checkpoint(save_checkpoint(ckpt), "checkpoint")
        val = dataset.split_records(Split.VAL)
        _, before = evaluate_checkpoint(ckpt, val, vectors, backend)
        _, after = evaluate_checkpoint(restored, val, vectors, backend)
        assert before == after
        assert save_checkpoint(restored) == save_checkpoint(ckpt)

    def test_checkpoint_with_a_discount_key_loads_without_it(self):
        dataset, vectors = self.make_task()
        ckpt = train(dataset, vectors, TrainConfig(epochs_max=1, patience=1, seed=5),
                     SimulatedBackend(UNINFORMATIVE_ORACLE))
        data = save_checkpoint(ckpt)
        doc = json.loads(data)
        assert "discount" not in doc["reward_spec"]
        doc["reward_spec"]["discount"] = 1.0  # as checkpoints of format 1 used to carry it
        restored = load_checkpoint(json.dumps(doc, separators=(",", ":")).encode("utf-8"),
                                   "checkpoint")
        assert save_checkpoint(restored) == data

    def test_policy_or_normalizer_of_another_manifest_is_rejected(self):
        dataset, vectors = self.make_task()
        ckpt = train(dataset, vectors, TrainConfig(epochs_max=1, patience=1, seed=5),
                     SimulatedBackend(UNINFORMATIVE_ORACLE))
        for part in ("checkpoint", "normalizer"):
            doc = json.loads(save_checkpoint(ckpt))
            section = doc if part == "checkpoint" else doc["normalizer"]
            section["manifest_digest"] = "feedfacefeedface"
            with pytest.raises(InputError, match=f"^model.ckpt: {part} digest feedfacefeedface "
                                                     f"!= manifest digest {MANIFEST.digest}$"):
                load_checkpoint(json.dumps(doc).encode("utf-8"), source="model.ckpt")

    def test_normalizer_with_a_missing_or_unknown_key_is_rejected(self):
        dataset, vectors = self.make_task()
        ckpt = train(dataset, vectors, TrainConfig(epochs_max=1, patience=1, seed=5),
                     SimulatedBackend(UNINFORMATIVE_ORACLE))
        for edit in (lambda section: section.pop("fitted_on"),
                     lambda section: section.update(extra=1)):
            doc = json.loads(save_checkpoint(ckpt))
            edit(doc["normalizer"])
            with pytest.raises(InputError, match="^model.ckpt: ValueError: normalizer keys must "
                                                  "be mean, std, fitted_on and manifest_digest$"):
                load_checkpoint(json.dumps(doc).encode("utf-8"), source="model.ckpt")

    def test_history_has_required_log_fields(self):
        dataset, vectors = self.make_task()
        cfg = TrainConfig(epochs_max=2, patience=2, seed=1)
        log_lines: list[str] = []
        ckpt = train(dataset, vectors, cfg, SimulatedBackend(UNINFORMATIVE_ORACLE),
                     log_lines=log_lines)
        assert set(ckpt.history[0]) == {"epoch", "mean_return", "val_accuracy", "val_f1", "fuzz_rate"}
        assert len(log_lines) == len(ckpt.history)
        assert log_lines[0].startswith("epoch=1 ")

    def test_learns_separable_task(self):
        dataset, vectors = self.make_task(n=300)
        cfg = TrainConfig(epochs_max=20, patience=20, seed=7, learning_rate=1e-3)
        ckpt = train(dataset, vectors, cfg, SimulatedBackend(UNINFORMATIVE_ORACLE))
        assert max(h["val_accuracy"] for h in ckpt.history) >= 0.9

    def test_fuzz_dies_out_when_uninformative(self):
        # Outcomes independent of the label: the -5 cost should dominate.
        dataset, vectors = self.make_task(n=300)
        cfg = TrainConfig(epochs_max=30, patience=30, seed=7, learning_rate=1e-3)
        ckpt = train(dataset, vectors, cfg, SimulatedBackend(UNINFORMATIVE_ORACLE))
        assert ckpt.history[-1]["fuzz_rate"] < 0.10

    def test_empty_split_rejected(self):
        dataset, vectors = self.make_task()
        dataset.split_assignment = {
            wid: Split.TRAIN for wid in dataset.split_assignment
        }
        cfg = TrainConfig(epochs_max=1, patience=1, seed=0)
        with pytest.raises(InputError, match="^split 'val' has no records$"):
            train(dataset, vectors, cfg, SimulatedBackend(UNINFORMATIVE_ORACLE))


class TestConfigValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            TrainConfig(clip_epsilon=1.5)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma=0.0)

    def test_negative_patience(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=-1)
