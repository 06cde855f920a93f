"""Forward pass, and how the episode engine chooses actions from it."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triagerl.env import RewardSpec, TriageAction
from triagerl.errors import InputError
from triagerl.features import MANIFEST, NormalizerStats
from triagerl.policy import (
    DEFAULT_DROPOUT,
    PolicyParams,
    draw_dropout_masks,
    forward_cache,
    init_params,
    param_layout,
    softmax,
)
from triagerl.trainer import (FORWARD_BLOCK, STATE_DIM, PolicyCheckpoint, TrainConfig,
                              TrajectoryBatch, load_checkpoint, ppo_loss_and_grads,
                              save_checkpoint)
from triagerl.warnings import Label

from test_env import ForcedBackend, play

# Pinned first-run golden output: init seed 0, hidden (6, 4), probe state
# linspace(-1, 1, 10). Cross-checked below against a loop-based oracle.
GOLDEN_PROBE_PROBS = [0.35084191648809376, 0.2883899439132079, 0.36076813959869836]
GOLDEN_PROBE_VALUE = 0.6839513586429133


def zeroed_params(input_dim=4, hidden=(3, 2)):
    params = init_params(input_dim, hidden=hidden, dropout_rate=0.0, seed=0)
    params.flat[:] = 0.0
    return params


def loop_forward(params: PolicyParams, state):
    """Independent oracle: the same architecture via explicit loops."""

    def matvec(w, x):
        rows, cols = w.shape
        return [sum(x[i] * w[i][j] for i in range(rows)) for j in range(cols)]

    h1 = [max(0.0, z + b) for z, b in zip(matvec(params.w1, state), params.b1)]
    h2 = [max(0.0, z + b) for z, b in zip(matvec(params.w2, h1), params.b2)]
    logits = [z + b for z, b in zip(matvec(params.w_pi, h2), params.b_pi)]
    m = max(logits)
    exps = [math.exp(z - m) for z in logits]
    total = sum(exps)
    value = sum(h * w for h, w in zip(h2, params.w_v.ravel())) + params.b_v[0]
    return [e / total for e in exps], value


def forward(params, state, masks=None):
    """Action probabilities and value for one state."""
    cache = forward_cache(params, np.asarray(state, dtype=np.float64)[None], masks)
    return softmax(cache["logits"])[0], float(cache["values"][0])


def play_probs(probs, mask_fuzz=False, **kw):
    """One episode (greedy unless told otherwise) of a policy whose action
    probabilities are `probs` in every state; a masked one has no backend."""
    with np.errstate(divide="ignore"):
        logits = np.log(np.asarray(probs, dtype=np.float64))
    return play(np.zeros(2), np.maximum(logits, -1e3), [Label.TRUE_POSITIVE],
                None if mask_fuzz else ForcedBackend(), **kw)


class TestForward:
    def test_all_zero_weights_uniform(self):
        probs, value = forward(zeroed_params(), np.ones(4))
        assert probs.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        assert value == 0.0

    def test_eval_mode_deterministic(self):
        params = init_params(8, hidden=(5, 4), dropout_rate=DEFAULT_DROPOUT, seed=3)
        state = np.arange(8.0) / 8.0
        a = forward(params, state)
        b = forward(params, state)
        assert a[0].tolist() == b[0].tolist()
        assert a[1] == b[1]

    def test_golden_probe_pinned(self):
        params = init_params(10, hidden=(6, 4), dropout_rate=0.2, seed=0)
        probs, value = forward(params, np.linspace(-1.0, 1.0, 10))
        assert probs.tolist() == pytest.approx(GOLDEN_PROBE_PROBS, abs=1e-12)
        assert value == pytest.approx(GOLDEN_PROBE_VALUE, abs=1e-12)

    def test_golden_probe_matches_loop_oracle(self):
        params = init_params(10, hidden=(6, 4), dropout_rate=0.2, seed=0)
        state = np.linspace(-1.0, 1.0, 10)
        oracle_probs, oracle_value = loop_forward(params, state.tolist())
        probs, value = forward(params, state)
        assert probs.tolist() == pytest.approx(oracle_probs, abs=1e-12)
        assert value == pytest.approx(oracle_value, abs=1e-12)

    def test_dimension_mismatch(self):
        params = init_params(8, hidden=(5, 4), dropout_rate=DEFAULT_DROPOUT, seed=3)
        with pytest.raises(ValueError):
            forward(params, np.zeros(9))

    def test_dropout_masks_scale(self):
        masks = draw_dropout_masks(np.random.default_rng(0), (50, 40), 0.25, n=3)
        for m in masks:
            assert set(np.unique(m)).issubset({0.0, 1.0 / 0.75})

    def test_each_rows_outputs_are_its_own_in_any_batch(self):
        # The sizes straddle the one-row product (gemv) and the size, 2,605
        # rows on OpenBLAS 0.3.31, above which a 3-column product changes kernel.
        # The engine plays blocks of FORWARD_BLOCK rows at multiples of it, and
        # the tails of the benchmark's 20,000 first and 6,667 second decisions.
        rng = np.random.default_rng(0)
        params = init_params(STATE_DIM, dropout_rate=0.0, seed=1)
        states = rng.normal(size=(20_000, STATE_DIM))
        full = forward_cache(params, states)
        blocks = [FORWARD_BLOCK, FORWARD_BLOCK + 1, 20_000 % FORWARD_BLOCK, 6_667 % FORWARD_BLOCK]
        for k in [*range(1, 40), 63, 64, 65, 449, 2604, 2605, 3000, 10_000, *blocks]:
            aligned = range(0, len(states) - k + 1, FORWARD_BLOCK)
            for start in [*rng.integers(0, len(states) - k + 1, 5), *aligned[::6], aligned[-1]]:
                part = forward_cache(params, states[start : start + k])
                for name in ("logits", "values"):
                    assert np.array_equal(part[name].view(np.int64),
                                          full[name][start : start + k].view(np.int64)), (
                        f"{name} of rows {start}..{start + k - 1} differ from a 20,000-row batch's")

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_dropout_off_is_pure(self, seed):
        params = init_params(6, hidden=(4, 3), dropout_rate=0.0, seed=seed)
        state = np.random.default_rng(seed).normal(size=6)
        masks = draw_dropout_masks(np.random.default_rng(99), params.hidden_sizes, 0.0, n=1)
        assert forward(params, state, masks)[0].tolist() == forward(params, state)[0].tolist()


class TestSelectAction:
    def test_uniform_signals(self):
        batch, preds = play_probs([1 / 3, 1 / 3, 1 / 3])
        assert batch.actions.tolist() == [TriageAction.CLASSIFY_TP]  # tie-break by fixed order
        assert batch.behavior_logp[0] == pytest.approx(-math.log(3))
        assert preds[0].score == pytest.approx(0.5)

    def test_confident_distribution(self):
        batch, preds = play_probs([0.9, 0.05, 0.05])
        assert batch.actions.tolist() == [TriageAction.CLASSIFY_TP]
        assert preds[0].score == pytest.approx(0.9 / 0.95)

    def test_one_hot_distribution(self):
        batch, preds = play_probs([1.0, 0.0, 0.0])
        assert batch.actions.tolist() == [TriageAction.CLASSIFY_TP]
        assert batch.behavior_logp[0] == 0.0
        assert preds[0].score == 1.0

    def test_mask_renormalizes(self):
        batch, _ = play_probs([0.2, 0.2, 0.6], mask_fuzz=True)
        assert batch.actions.tolist() == [TriageAction.CLASSIFY_TP]
        assert batch.behavior_logp[0] == pytest.approx(math.log(0.5))

    def test_sampling_respects_probabilities(self):
        batch, _ = play_probs([0.0, 1.0, 0.0], rng=np.random.default_rng(0))
        assert batch.actions.tolist() == [TriageAction.CLASSIFY_FP]

    def test_classify_probability_renormalizes(self):
        _, preds = play_probs([0.3, 0.1, 0.6], mask_fuzz=True)
        assert preds[0].score == pytest.approx(0.75)


class TestDistributionProperties:
    @given(
        logits=st.lists(st.floats(-20, 20, allow_nan=False), min_size=3, max_size=3),
        shift=st.floats(-50, 50, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_softmax_shift_invariance(self, logits, shift):
        base = softmax(np.array(logits))
        shifted = softmax(np.array(logits) + shift)
        assert np.abs(base - shifted).max() < 1e-9

    def test_shift_invariance_through_policy_head_bias(self):
        params = init_params(6, hidden=(4, 3), dropout_rate=0.0, seed=1)
        state = np.linspace(0, 1, 6)
        before = forward(params, state)[0]
        params.b_pi += 17.5
        after = forward(params, state)[0]
        assert np.abs(before - after).max() < 1e-9

    @given(
        probs=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_greedy_argmax_scale_invariant(self, probs, scale):
        p = np.array(probs)
        p = p / p.sum()
        # Near-ties are left out: the logits of two probabilities an ulp apart, such as
        # [1 - 2**-53, 1, 0.125] scaled by 0.25, can round to one value, and the tie then goes
        # to the lower action, as test_uniform_signals pins.
        second, top = np.sort(p)[-2:]
        assume(top - second > 1e-9 * top)
        a1 = play_probs(p)[0].actions[0]
        a2 = play_probs(p * scale)[0].actions[0]
        assert a1 == a2

    @given(logits=st.lists(st.floats(-30, 30, allow_nan=False), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_entropy_bounds(self, logits):
        # The entropy the PPO loss rewards, for one state under these logits.
        params = zeroed_params(input_dim=3)
        params.b_pi[:] = logits
        batch = TrajectoryBatch(
            states=np.array([[1.0, 0.0, 0.0]]), actions=np.array([0]),
            behavior_logp=np.zeros(1), returns=np.zeros(1), advantages=np.zeros(1),
        )
        _, _, parts = ppo_loss_and_grads(params, batch, TrainConfig(), feature_dim=0,
                                         dropout_masks=None)
        assert -1e-12 <= parts["entropy"] <= math.log(3) + 1e-12


class TestFlattening:
    def test_round_trip(self):
        # The named arrays are views into `flat`, in layout order, row-major;
        # a copy owns its own buffer.
        params = init_params(7, hidden=(5, 3), dropout_rate=0.1, seed=4)
        named = np.concatenate([getattr(params, name).ravel() for name, _ in param_layout(7, (5, 3))])
        assert np.array_equal(named, params.flat)
        back = params.copy()
        assert np.array_equal(back.w2, params.w2)
        back.flat[:] = 0.0
        assert not back.w1.any() and params.w1.any()

    def test_wrong_length_rejected(self):
        # The loader reads each weight by the layout: one number moved from
        # the end of w1 to b1 leaves w1 short, and w1 is named.
        params = init_params(STATE_DIM, hidden=(5, 3), dropout_rate=DEFAULT_DROPOUT, seed=4)
        stats = NormalizerStats(mean=np.zeros(len(MANIFEST)), std=np.ones(len(MANIFEST)))
        doc = json.loads(save_checkpoint(PolicyCheckpoint(params, stats, TrainConfig(),
                                                          RewardSpec(), [])))
        doc["weights"]["b1"].insert(0, doc["weights"]["w1"].pop())
        with pytest.raises(InputError, match=rf"^ckpt: ValueError: weights.w1: expected "
                                             rf"{STATE_DIM * 5} numbers, got {STATE_DIM * 5 - 1}$"):
            load_checkpoint(json.dumps(doc).encode(), "ckpt")

    def test_init_bounds_follow_fan_sums(self):
        params = init_params(100, hidden=(50, 20), dropout_rate=DEFAULT_DROPOUT, seed=9)
        bound = math.sqrt(6.0 / (100 + 50))
        assert params.w1.max() <= bound and params.w1.min() >= -bound
        assert params.b1.tolist() == [0.0] * 50
