"""Reference oracle: the per-warning episode loop that `run_episodes` replaced.

Each decision is one single-row forward pass followed by one action choice
(`Generator.choice` when an rng is given, else argmax), one warning after
another. Fuzzing is masked as the README defines it, in logit space: the
fuzz logit is set to -inf before the softmax. Tests compare the batched
engine against it, bit for bit, on the same parameters and seeds.
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


def masked_probs(logits):
    """The action probabilities of one (1, 3) logit row with fuzzing masked."""
    logits = logits.copy()
    logits[:, TriageAction.FUZZ] = -np.inf
    return softmax(logits)[0]


def select_action(probs, rng):
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
        value = float(cache["values"][0])
        classify = masked_probs(cache["logits"])
        masked = mask_fuzz or kind is not FuzzKind.NOT_RUN
        probs = classify if masked else softmax(cache["logits"])[0]
        action = select_action(probs, rng)
        logp = float(np.log(probs[action]))
        if action is TriageAction.FUZZ:
            kind = fuzz(backend, record).kind
            steps.append((state, int(action), logp, reward_spec.fuzz_cost, value))
            continue
        reward = reward_of(action, record.label, kind, reward_spec)
        steps.append((state, int(action), logp, reward, value))
        prediction = PredictionRecord(
            warning_id=record.id,
            predicted=Label.TRUE_POSITIVE if action is TriageAction.CLASSIFY_TP
            else Label.FALSE_POSITIVE,
            score=float(classify[TriageAction.CLASSIFY_TP]),
            fuzz_kind=kind,
        )
        return prediction, steps
    raise AssertionError("episode did not terminate in two steps")


def play_all(params, reward_spec, feats, records, backend, mask_fuzz=False, rng=None):
    return [play_episode(params, reward_spec, r, f, backend, mask_fuzz, rng)[0]
            for r, f in zip(records, feats)]


def play_steps(params, reward_spec, records, feats, backend, mask_fuzz=False, rng=None,
               gamma=1.0):
    """One episode per warning, in order; per-step arrays with returns as
    discounted suffix sums within each episode."""
    rows = {k: [] for k in ("states", "actions", "logp", "rewards", "values",
                            "episode_ids", "returns")}
    for episode_id, (record, f) in enumerate(zip(records, feats)):
        _, steps = play_episode(params, reward_spec, record, f, backend, mask_fuzz, rng)
        acc, returns = 0.0, []
        for step in reversed(steps):
            acc = step[3] + gamma * acc
            returns.insert(0, acc)
        for (state, action, logp, reward, value), ret in zip(steps, returns):
            for key, v in zip(rows, (state, action, logp, reward, value, episode_id, ret)):
                rows[key].append(v)
    return {k: np.array(v) for k, v in rows.items()}


def collect_rollouts(params, records, feats, reward_spec, backend, rng, gamma=1.0):
    """Shuffle, then one sampled episode per warning (see `play_steps`)."""
    order = rng.permutation(len(records))
    return play_steps(params, reward_spec, [records[i] for i in order], feats[order], backend,
                      rng=rng, gamma=gamma)
