"""The episode engine, PPO training over labeled warnings, and checkpointing.

`run_episodes` plays one episode per warning for rollouts, validation,
evaluation, importance and triage, and returns arrays; only rollouts turn
them into rewards. Advantages are Monte-Carlo returns minus the value
baseline (episodes are at most two steps, so no bootstrapping).
Updates maximize the clipped surrogate with a value-loss penalty and an
entropy bonus; gradients are hand-derived backpropagation through the
two-layer network, optimized by an in-tree Adam.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .env import RewardSpec, TriageAction, check_finite, fuzz_step, reward_of
from .errors import InputError, NonFiniteScores
from .features import MANIFEST, FeatureTable, NormalizerStats, fit_normalizer, normalize
from .fuzz import FUZZ_SLOTS, run_many
from .metrics import report_from_arrays
from .policy import (DEFAULT_DROPOUT, PolicyParams, draw_dropout_masks, forward_cache,
                     init_params, param_layout, softmax)
from .warnings import Dataset, Label, Split, WarningRecord

CHECKPOINT_FORMAT_VERSION = 1
# A state: the manifest's features, then a one-hot of the fuzz outcome slots.
STATE_DIM = len(MANIFEST) + len(FUZZ_SLOTS)
# Adam's moment decay rates and the guard added to its denominator.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Rows per forward pass of the episode engine. Each row's outputs are its own
# in any batch, so the block size changes no bit, only the memory held.
FORWARD_BLOCK = 1024


@dataclass
class TrainConfig:
    epochs_max: int = 200
    minibatch_size: int = 64
    clip_epsilon: float = 0.2
    learning_rate: float = 3e-4
    value_loss_weight: float = 0.5
    entropy_weight: float = 0.01
    ppo_inner_epochs: int = 4
    gamma: float = 1.0
    patience: int = 10
    dropout_rate: float = DEFAULT_DROPOUT
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon must be in (0,1), got {self.clip_epsilon}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0,1], got {self.gamma}")
        for name in ("epochs_max", "minibatch_size", "learning_rate", "ppo_inner_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("value_loss_weight", "entropy_weight", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")


@dataclass
class Episodes:
    """What `run_episodes` played.

    Per episode, in input order: the final (classify) action, its score, and
    the fuzz outcome's slot in FUZZ_SLOTS (0 when the episode did not fuzz).
    Per decision: every episode's first decision, then the second decisions
    of the episodes that fuzzed, both in episode order. The states of the
    two are kept apart: only a rollout needs them joined, in
    `TrajectoryBatch.from_episodes`.
    """

    action: np.ndarray   # (n,) int
    score: np.ndarray    # (n,) P(TP) with fuzzing masked, at the final decision state
    outcome: np.ndarray  # (n,) int
    first_states: np.ndarray   # (n, state_dim)
    second_states: np.ndarray  # (m, state_dim)
    actions: np.ndarray  # (n + m,) int
    logp: np.ndarray     # (n + m,) log-probability of the action taken
    values: np.ndarray   # (n + m,)

    @property
    def called(self) -> np.ndarray:
        """Whether each episode called its warning a true positive."""
        return self.action == TriageAction.CLASSIFY_TP

    @property
    def fuzzed(self) -> np.ndarray:
        """Whether each episode fuzzed: a fuzz outcome is never NotRun."""
        return self.outcome > 0


@dataclass
class TrajectoryBatch:
    """Decisions played by `run_episodes`, one row each, interleaved in
    episode order: episode i's first decision, then its second if it fuzzed,
    then episode i+1."""

    states: np.ndarray        # (n, state_dim)
    actions: np.ndarray       # (n,) int
    behavior_logp: np.ndarray  # (n,) log-probability of the action taken
    returns: np.ndarray       # (n,)
    advantages: np.ndarray    # (n,) returns - values; collect_rollouts normalizes them

    def __len__(self) -> int:
        return len(self.actions)

    def minibatch(self, idx: np.ndarray) -> "TrajectoryBatch":
        """Rows `idx` of the batch."""
        return TrajectoryBatch(self.states[idx], self.actions[idx], self.behavior_logp[idx],
                               self.returns[idx], self.advantages[idx])

    @classmethod
    def from_episodes(cls, episodes: Episodes, labels: list[Label | None],
                      reward_spec: RewardSpec, gamma: float) -> tuple["TrajectoryBatch", float]:
        """The decisions of `episodes`, whose warnings carry `labels`, with
        their returns (a fuzzing episode's first step returns r1 + gamma*r2),
        and the mean undiscounted episode return."""
        n = len(episodes.action)
        fuzzed = episodes.fuzzed
        idx = np.flatnonzero(fuzzed)
        keys = list(zip(episodes.action.tolist(), labels, episodes.outcome.tolist()))
        # One reward_of call per distinct (action, label, outcome): at most 2 x 3 x 6.
        reward = {k: reward_of(TriageAction(k[0]), k[1], FUZZ_SLOTS[k[2]], reward_spec)
                  for k in set(keys)}
        terminal = np.array([reward[k] for k in keys])
        reward1 = np.where(fuzzed, reward_spec.fuzz_cost, terminal)
        reward2 = np.where(fuzzed, terminal, 0.0)  # 0 for an episode that did not fuzz
        return1 = reward1 + gamma * reward2

        # Episode order: episode i's first decision sorts at i, its second at i + 0.5.
        order = np.argsort(np.concatenate([np.arange(n), idx + 0.5]), kind="stable")
        returns = np.concatenate([return1, reward2[idx]])[order]
        batch = cls(
            states=np.concatenate([episodes.first_states, episodes.second_states])[order],
            actions=episodes.actions[order],
            behavior_logp=episodes.logp[order],
            returns=returns,
            advantages=returns - episodes.values[order],
        )
        return batch, float((reward1 + reward2).mean())


def _fuzz_masked_probs(logits: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Action probabilities with fuzzing masked in `rows` (default: all).

    The fuzz logit is set to -inf in place before the softmax, so the
    classify probabilities stay well-defined however large the fuzz logit was.
    """
    logits[rows, TriageAction.FUZZ] = -np.inf
    return softmax(logits)


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Row cumulative probabilities as Generator.choice builds them: u picks count(cdf <= u)."""
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _finite_forward(params: PolicyParams, states: np.ndarray,
                    records: list) -> tuple[np.ndarray, np.ndarray]:
    """Logits and values of `states`, one row per record, played through
    `forward_cache` in blocks of FORWARD_BLOCK rows, so only one block's hidden
    layers are alive at a time; NonFiniteScores names the first record whose
    logits are not finite."""
    n = len(states)
    logits, values = np.empty((n, len(params.b_pi))), np.empty(n)
    for start in range(0, n, FORWARD_BLOCK):
        block = slice(start, start + FORWARD_BLOCK)
        cache = forward_cache(params, states[block])
        logits[block], values[block] = cache["logits"], cache["values"]
    finite = np.isfinite(logits).all(axis=1)
    if not finite.all():
        bad = records[finite.argmin()].id
        raise NonFiniteScores(f"policy scores for warning {bad} are not finite")
    return logits, values


def run_episodes(
    params: PolicyParams,
    feats: np.ndarray,
    records: list[WarningRecord],
    backend,
    mask_fuzz: bool = False,
    rng: np.random.Generator | None = None,
    jobs: int = 1,
) -> Episodes:
    """Play one episode per warning, all of them side by side.

    `feats` holds the normalized feature rows of `records`. One blocked
    forward pass covers every first decision; only the warnings that chose to
    fuzz reach the backend (at most `jobs` calls at a time), and one more
    covers their second decision with fuzzing masked. Greedy ties resolve by
    the fixed action order (TP, FP, Fuzz). Actions are greedy when `rng` is
    None; given `rng`, they are sampled with one rng.random() per decision
    in episode order, the stream that playing the episodes one after another
    would consume. Each episode's score is P(TP) with fuzzing masked at its
    final decision state.
    """
    n, fd = feats.shape
    first = np.zeros((n, fd + len(FUZZ_SLOTS)))
    first[:, :fd] = feats
    first[:, fd] = 1.0  # the NotRun slot
    logits1, values1 = _finite_forward(params, first, records)
    unmasked = None if mask_fuzz else softmax(logits1)  # before masking in place
    classify1 = _fuzz_masked_probs(logits1)
    probs1 = classify1 if mask_fuzz else unmasked
    second_draws = []
    if rng is None:
        act1 = probs1.argmax(axis=1)
    else:
        fuzz, random, chosen = int(TriageAction.FUZZ), rng.random, []
        for c_tp, c_fp, c_fuzz in _cdf(probs1).tolist():
            u = random()
            action = (u >= c_tp) + (u >= c_fp) + (u >= c_fuzz)
            chosen.append(action)
            if action == fuzz:
                second_draws.append(random())
        act1 = np.array(chosen, dtype=np.int64)

    idx = np.flatnonzero(act1 == TriageAction.FUZZ)
    outcome = np.zeros(n, dtype=np.int64)
    outcome[idx] = [FUZZ_SLOTS.index(o.kind) for o in
                    run_many(partial(fuzz_step, backend), [records[i] for i in idx], jobs)]
    second = first[idx]
    second[:, fd:] = np.eye(len(FUZZ_SLOTS))[outcome[idx]]
    logits2, values2 = _finite_forward(params, second, [records[i] for i in idx])
    probs2 = _fuzz_masked_probs(logits2)
    if rng is None:
        act2 = probs2.argmax(axis=1)
    else:
        act2 = (np.array(second_draws)[:, None] >= _cdf(probs2)).sum(axis=1)

    action = act1.copy()
    action[idx] = act2
    score = classify1[:, TriageAction.CLASSIFY_TP].copy()
    score[idx] = probs2[:, TriageAction.CLASSIFY_TP]
    return Episodes(
        action=action,
        score=score,
        outcome=outcome,
        first_states=first,
        second_states=second,
        actions=np.concatenate([act1, act2]),
        logp=np.concatenate([np.log(probs1[np.arange(n), act1]),
                             np.log(probs2[np.arange(len(idx)), act2])]),
        values=np.concatenate([values1, values2]),
    )


def collect_rollouts(
    params: PolicyParams,
    records: list[WarningRecord],
    feats: np.ndarray,
    reward_spec: RewardSpec,
    backend,
    rng: np.random.Generator,
    gamma: float,
) -> tuple[TrajectoryBatch, float]:
    """One sampled episode per warning, played in an order shuffled by rng,
    with advantages normalized over the batch, and the mean undiscounted
    episode return.

    Backend trouble never escapes an episode; it shows up as outcome
    encodings.
    """
    order = rng.permutation(len(records))
    played = [records[i] for i in order]
    episodes = run_episodes(params, feats[order], played, backend, rng=rng)
    batch, mean_return = TrajectoryBatch.from_episodes(episodes, [r.label for r in played],
                                                       reward_spec, gamma)
    adv = batch.advantages
    batch.advantages = (adv - adv.mean()) / (adv.std() + 1e-8)
    return batch, mean_return


def ppo_loss_and_grads(
    params: PolicyParams,
    batch: TrajectoryBatch,
    config: TrainConfig,
    feature_dim: int,
    dropout_masks: tuple[np.ndarray, np.ndarray] | None,
    grads: PolicyParams | None = None,
) -> tuple[float, PolicyParams | None, dict[str, float]]:
    """Total PPO loss and its analytic gradients on one minibatch.

    Loss = -mean(clipped surrogate) + c_v * value MSE - c_e * mean entropy.
    A state whose NotRun slot (column `feature_dim`) is 0 has already fuzzed,
    so fuzzing is masked there, as it was when the state was played. The
    gradients are written into `grads` (a new zero buffer when it is None),
    laid out like `params`; they are None when the loss is not finite.
    """
    n = len(batch)
    cache = forward_cache(params, batch.states, dropout_masks)
    probs = _fuzz_masked_probs(cache["logits"], batch.states[:, feature_dim] == 0.0)
    values = cache["values"]
    positive = probs > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_probs = np.log(probs)
        plogp = np.where(positive, probs * log_probs, 0.0)

    idx = np.arange(n)
    logp_new = log_probs[idx, batch.actions]
    rho = np.exp(logp_new - batch.behavior_logp)
    adv = batch.advantages

    unclipped = rho * adv
    low, high = 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon
    clipped = np.minimum(np.maximum(rho, low), high) * adv
    surrogate = np.minimum(unclipped, clipped)
    entropies = -plogp.sum(axis=1)
    value_err = values - batch.returns

    # Each mean is sum / n, which is how numpy's mean computes it.
    policy_loss = -(surrogate.sum() / n)
    value_loss = float((value_err**2).sum() / n)
    entropy_mean = float(entropies.sum() / n)
    total = float(policy_loss + config.value_loss_weight * value_loss
                  - config.entropy_weight * entropy_mean)
    parts = {"policy_loss": float(policy_loss), "value_loss": value_loss,
             "entropy": entropy_mean, "total": total}
    if not math.isfinite(total):
        # The caller aborts on a non-finite loss; gradients would be garbage.
        return total, None, parts

    # d(surrogate)/d(rho): adv where the unclipped branch is the min (inside
    # the clip band the two branches are equal); 0 where the flat clip is.
    dsurr_drho = np.where(unclipped <= clipped, adv, 0.0)
    dlogp = -(dsurr_drho * rho) / n  # d(policy_loss)/d(logp_new)

    # logits gradient: surrogate term + entropy bonus term.
    dlogits = np.zeros(probs.shape)
    dlogits[idx, batch.actions] = 1.0
    dlogits -= probs
    dlogits *= dlogp[:, None]
    safe_log = np.where(positive, log_probs, 0.0)
    safe_log += entropies[:, None]
    entropy_term = (config.entropy_weight / n) * probs
    entropy_term *= safe_log
    dlogits += entropy_term

    dvalues = 2.0 * config.value_loss_weight * value_err / n

    g = grads if grads is not None else params.zeros_like()
    h2, h1 = cache["h2"], cache["h1"]
    np.matmul(h2.T, dlogits, out=g.w_pi)
    dlogits.sum(axis=0, out=g.b_pi)
    np.matmul(h2.T, dvalues, out=g.w_v[:, 0])
    g.b_v[0] = dvalues.sum()
    dz2 = dlogits @ params.w_pi.T
    dz2 += dvalues[:, None] * params.w_v[:, 0]
    if dropout_masks is not None:
        dz2 *= dropout_masks[1]
    np.multiply(dz2, cache["z2"] > 0, out=dz2)
    np.matmul(h1.T, dz2, out=g.w2)
    dz2.sum(axis=0, out=g.b2)
    dz1 = dz2 @ params.w2.T
    if dropout_masks is not None:
        dz1 *= dropout_masks[0]
    np.multiply(dz1, cache["z1"] > 0, out=dz1)
    np.matmul(batch.states.T, dz1, out=g.w1)
    dz1.sum(axis=0, out=g.b1)
    return total, g, parts


class Adam:
    """Adaptive moment estimation over a flat parameter vector, updated in place."""

    def __init__(self, lr: float):
        self.lr = lr
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """flat -= lr * m_hat / (sqrt(v_hat) + eps), with no new arrays after the first step."""
        if self.m is None:
            self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
            self._scratch = np.empty_like(flat), np.empty_like(flat)
        self.t += 1
        a, b = self._scratch
        self.m *= ADAM_BETA1
        self.m += np.multiply(1 - ADAM_BETA1, grad, out=a)
        self.v *= ADAM_BETA2
        np.square(grad, out=a)
        a *= 1 - ADAM_BETA2
        self.v += a
        np.divide(self.m, 1 - ADAM_BETA1**self.t, out=a)  # m_hat
        a *= self.lr
        np.divide(self.v, 1 - ADAM_BETA2**self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        flat -= a


def ppo_update(
    params: PolicyParams,
    batch: TrajectoryBatch,
    config: TrainConfig,
    rng: np.random.Generator,
    optimizer: Adam,
) -> None:
    """Several passes of shuffled minibatch updates on one rollout batch,
    applied to `params` in place. A non-finite loss raises InputError naming
    the pass and minibatch, and the config keys that scale the loss."""
    grads = params.zeros_like()
    feature_dim = params.input_dim - len(FUZZ_SLOTS)  # the NotRun column
    for inner in range(1, config.ppo_inner_epochs + 1):
        perm = rng.permutation(len(batch))
        for start in range(0, len(batch), config.minibatch_size):
            mb = batch.minibatch(perm[start : start + config.minibatch_size])
            masks = None if params.dropout_rate == 0.0 else draw_dropout_masks(
                rng, params.hidden_sizes, params.dropout_rate, n=len(mb))
            total, _, _ = ppo_loss_and_grads(params, mb, config, feature_dim, masks, grads)
            if not math.isfinite(total):
                raise InputError(
                    f"non-finite loss in PPO pass {inner}, minibatch "
                    f"{start // config.minibatch_size + 1}; train.learning_rate, "
                    "train.value_loss_weight, train.entropy_weight and the reward.* constants "
                    "scale the loss"
                )
            optimizer.step(params.flat, grads.flat)


@dataclass
class PolicyCheckpoint:
    params: PolicyParams
    normalizer: NormalizerStats
    config: TrainConfig
    reward_spec: RewardSpec
    history: list[dict]


def train(
    dataset: Dataset,
    table: FeatureTable,
    config: TrainConfig,
    backend,
    reward_spec: RewardSpec | None = None,
    log_lines: list[str] | None = None,
) -> PolicyCheckpoint:
    """Full training loop with validation-F1 model selection.

    Keeps the parameters with the best greedy validation F1; stops once
    `patience` epochs pass without improvement (patience 0 stops after the
    first epoch) or at epochs_max. Everything is reseeded from config.seed,
    so identical inputs give identical checkpoints.
    """
    reward_spec = reward_spec or RewardSpec()
    train_records = dataset.split_records(Split.TRAIN)
    val_records = dataset.split_records(Split.VAL)
    if not train_records:
        raise InputError("train split is empty")
    if not val_records:
        raise InputError("val split is empty")
    unlabeled = [r.id for r in train_records + val_records if r.label is None]
    if unlabeled:
        raise InputError(f"unlabeled records in splits: {', '.join(unlabeled)}")

    train_raw = table.rows_of(train_records)
    stats = fit_normalizer(train_raw)
    train_feats = normalize(train_raw, stats)
    val_feats = normalize(table.rows_of(val_records), stats)
    val_positive = np.array([r.label is Label.TRUE_POSITIVE for r in val_records])

    params = init_params(STATE_DIM, dropout_rate=config.dropout_rate, seed=config.seed)
    rng_rollout = np.random.default_rng([config.seed, 1])
    rng_update = np.random.default_rng([config.seed, 2])
    optimizer = Adam(config.learning_rate)

    best_params = params.copy()
    best_f1 = -1.0
    stale = 0
    history: list[dict] = []
    # A diverging run overflows on its way to the non-finite loss that ends it;
    # that check reports it, so numpy's warnings would only repeat it. An
    # InputError of an epoch gets the epoch's number and keeps its type.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs_max + 1):
            try:
                batch, mean_return = collect_rollouts(params, train_records, train_feats,
                                                      reward_spec, backend, rng_rollout, config.gamma)
                ppo_update(params, batch, config, rng_update, optimizer)
                val = run_episodes(params, val_feats, val_records, backend)
            except InputError as exc:
                raise type(exc)(f"epoch {epoch}: {exc}") from None
            report = report_from_arrays(val.called, val_positive, val.score, val.fuzzed)
            val_f1 = report.f1 or 0.0
            entry = {
                "epoch": epoch,
                "mean_return": mean_return,
                "val_accuracy": report.accuracy,
                "val_f1": val_f1,
                "fuzz_rate": report.fuzz_invocation_rate,
            }
            history.append(entry)
            if log_lines is not None:
                log_lines.append(
                    "epoch={epoch} mean_return={mean_return:.4f} val_accuracy={val_accuracy:.4f} "
                    "val_f1={val_f1:.4f} fuzz_rate={fuzz_rate:.4f}".format(**entry)
                )

            if val_f1 > best_f1:
                best_f1 = val_f1
                best_params = params.copy()
                stale = 0
            else:
                stale += 1
            if stale >= config.patience:
                break

    return PolicyCheckpoint(
        params=best_params,
        normalizer=stats,
        config=config,
        reward_spec=reward_spec,
        history=history,
    )


# ---------------------------------------------------------------------------
# Checkpoint container: versioned JSON, lossless float round-trip.
# ---------------------------------------------------------------------------


def save_checkpoint(ckpt: PolicyCheckpoint) -> bytes:
    p = ckpt.params
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "manifest_digest": MANIFEST.digest,
        "layer_dims": [p.input_dim, *p.hidden_sizes],
        "dropout_rate": p.dropout_rate,
        "seed": ckpt.config.seed,
        "weights": {name: getattr(p, name).ravel().tolist()
                    for name, _ in param_layout(p.input_dim, p.hidden_sizes)},
        "normalizer": {"mean": ckpt.normalizer.mean.tolist(), "std": ckpt.normalizer.std.tolist(),
                       "fitted_on": "train", "manifest_digest": MANIFEST.digest},
        "config": asdict(ckpt.config),
        "reward_spec": asdict(ckpt.reward_spec),
        "history": ckpt.history,
    }
    return json.dumps(doc, sort_keys=False, separators=(",", ":")).encode("utf-8")


def load_checkpoint(data: bytes, source: str) -> PolicyCheckpoint:
    """Parse a checkpoint; a malformed one, or one whose policy or normalizer
    was built for another manifest, raises InputError naming `source` (and the
    line of a JSON syntax error). A `reward_spec.discount` key, which older
    checkpoints carry, is dropped: `train.gamma` is the discount."""
    try:
        doc = json.loads(data.decode("utf-8"))
        if doc["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {doc['format_version']}")
        stats = doc["normalizer"]
        if sorted(stats) != ["fitted_on", "manifest_digest", "mean", "std"]:
            raise ValueError("normalizer keys must be mean, std, fitted_on and manifest_digest")
        for part, digest in (("checkpoint", doc["manifest_digest"]),
                             ("normalizer", stats["manifest_digest"])):
            if digest != MANIFEST.digest:
                raise InputError(
                    f"{source}: {part} digest {digest} != manifest digest {MANIFEST.digest}")
        if type(doc["seed"]) is not int:
            raise ValueError(f"seed must be an integer, got {doc['seed']!r}")
        if type(doc["dropout_rate"]) not in (int, float) or not 0 <= doc["dropout_rate"] < 1:
            raise ValueError(f"dropout_rate must be a number in [0,1), got {doc['dropout_rate']!r}")
        input_dim, h1, h2 = doc["layer_dims"]
        if input_dim != STATE_DIM:
            raise ValueError(f"input dimension {input_dim} does not fit the manifest")
        flat = np.concatenate([np.array(doc["weights"][name], dtype=np.float64)
                               for name, _ in param_layout(input_dim, (h1, h2))])
        params = PolicyParams(input_dim, (h1, h2), doc["dropout_rate"], flat)
        normalizer = NormalizerStats(np.array(stats["mean"], dtype=np.float64),
                                     np.array(stats["std"], dtype=np.float64))
        if normalizer.mean.shape != (len(MANIFEST),) or normalizer.std.shape != (len(MANIFEST),):
            raise ValueError(f"normalizer statistics must have {len(MANIFEST)} entries each")
        if not all(np.isfinite(v).all() for v in (flat, normalizer.mean, normalizer.std)):
            raise ValueError("weights and normalizer statistics must be finite")
        reward = {k: v for k, v in doc["reward_spec"].items() if k != "discount"}
        return PolicyCheckpoint(
            params=params,
            normalizer=normalizer,
            config=TrainConfig(**doc["config"]),
            reward_spec=RewardSpec(**reward),
            history=doc["history"],
        )
    except json.JSONDecodeError as exc:
        raise InputError(f"{source} line {exc.lineno}: {exc.msg}") from exc
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise InputError(f"{source}: {type(exc).__name__}: {exc}") from exc
