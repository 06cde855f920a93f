"""Reference oracle: the per-warning episode loop that `run_episodes` replaced.

Each decision is one single-row forward pass followed by one action choice
(`Generator.choice` when an rng is given, else argmax), one warning after
another. Tests compare the batched engine against it on the same parameters
and seeds.
"""

import numpy as np

from triagerl.env import TriageAction, reward_of
from triagerl.errors import InputError
from triagerl.fuzz import FUZZ_SLOTS, FuzzKind, FuzzOutcome
from triagerl.metrics import PredictionRecord
from triagerl.policy import forward_cache, softmax
from triagerl.warnings import Label


def state_vector(feats, kind):
    enc = np.zeros(len(FUZZ_SLOTS))
    enc[FUZZ_SLOTS.index(kind)] = 1.0
    return np.concatenate([feats, enc])


def select_action(probs, masked, rng):
    probs = np.array(probs, dtype=np.float64)
    if masked:
        probs[TriageAction.FUZZ] = 0.0
        probs = probs / probs.sum()
    if rng is None:
        return TriageAction(int(np.argmax(probs)))
    return TriageAction(int(rng.choice(len(TriageAction), p=probs)))


def fuzz(backend, record):
    try:
        return backend.run(record, record.label)
    except InputError:  # a missing recording ends the run
        raise
    except Exception as exc:  # noqa: BLE001 - no other backend error reaches the agent
        return FuzzOutcome(FuzzKind.INFRASTRUCTURE_FAILURE, 0.0, f"backend error: {exc}")


def play_episode(params, reward_spec, record, feats, backend, mask_fuzz=False, rng=None):
    """One episode; returns its verdict and its steps as
    (state, action, logp, reward, value) tuples."""
    kind = FuzzKind.NOT_RUN
    steps = []
    for _ in range(2):
        state = state_vector(feats, kind)
        cache = forward_cache(params, state[None])
        probs, value = softmax(cache["logits"])[0], float(cache["values"][0])
        masked = mask_fuzz or kind is not FuzzKind.NOT_RUN
        action = select_action(probs, masked, rng)
        if masked:
            two_way = np.array([probs[0], probs[1], 0.0])
            prob = two_way[action] / two_way.sum()
        else:
            prob = probs[action]
        logp = float(np.log(prob))
        if action is TriageAction.FUZZ:
            kind = fuzz(backend, record).kind
            steps.append((state, int(action), logp, reward_spec.fuzz_cost, value))
            continue
        reward = reward_of(action, record.label, kind, reward_spec)
        steps.append((state, int(action), logp, reward, value))
        p_tp, p_fp = float(probs[0]), float(probs[1])
        prediction = PredictionRecord(
            warning_id=record.id,
            predicted=Label.TRUE_POSITIVE if action is TriageAction.CLASSIFY_TP
            else Label.FALSE_POSITIVE,
            score=p_tp / (p_tp + p_fp),
            fuzz_kind=None if kind is FuzzKind.NOT_RUN else kind,
        )
        return prediction, steps
    raise AssertionError("episode did not terminate in two steps")


def play_all(params, reward_spec, feats, records, backend, mask_fuzz=False, rng=None):
    return [play_episode(params, reward_spec, r, f, backend, mask_fuzz, rng)[0]
            for r, f in zip(records, feats)]


def collect_rollouts(params, records, feats, reward_spec, backend, rng, gamma=1.0):
    """Shuffle, then one sampled episode per warning; per-step arrays with
    returns as discounted suffix sums within each episode."""
    rows = {k: [] for k in ("states", "actions", "logp", "rewards", "values",
                            "episode_ids", "returns")}
    for episode_id, i in enumerate(rng.permutation(len(records))):
        _, steps = play_episode(params, reward_spec, records[i], feats[i], backend, rng=rng)
        acc, returns = 0.0, []
        for step in reversed(steps):
            acc = step[3] + gamma * acc
            returns.insert(0, acc)
        for (state, action, logp, reward, value), ret in zip(steps, returns):
            for key, v in zip(rows, (state, action, logp, reward, value, episode_id, ret)):
                rows[key].append(v)
    return {k: np.array(v) for k, v in rows.items()}
