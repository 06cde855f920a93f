"""The episode engine, PPO training over labeled warnings, and checkpointing.

`run_episodes` plays one episode per warning for rollouts, validation,
evaluation, importance and triage. Advantages are Monte-Carlo returns minus
the value baseline (episodes are at most two steps, so no bootstrapping).
Updates maximize the clipped surrogate with a value-loss penalty and an
entropy bonus; gradients are hand-derived backpropagation through the
two-layer network, optimized by an in-tree Adam.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cache, partial

import numpy as np

from .env import RewardSpec, TriageAction, check_finite, fuzz_step, reward_of
from .errors import (
    DigestMismatch,
    DimensionMismatch,
    EmptySplit,
    FeatureValidationError,
    LengthMismatch,
    NonFiniteLoss,
    SchemaError,
    UnlabeledRecordError,
)
from .features import (
    MANIFEST,
    FeatureVector,
    NormalizerStats,
    fit_normalizer,
    normalize,
    validate_vector,
)
from .fuzz import FUZZ_SLOTS, run_many
from .metrics import PredictionRecord, compute_metrics
from .policy import (
    PolicyParams,
    draw_dropout_masks,
    forward_cache,
    init_params,
    param_layout,
    softmax,
)
from .warnings import Dataset, Label, Split, WarningRecord

CHECKPOINT_FORMAT_VERSION = 1
# A state: the manifest's features, then a one-hot of the fuzz outcome slots.
STATE_DIM = len(MANIFEST) + len(FUZZ_SLOTS)


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
    dropout_rate: float = 0.2
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
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")


@dataclass
class TrajectoryBatch:
    """Decisions played by `run_episodes`, one row each, interleaved in
    episode order: episode i's first decision, then its second if it fuzzed,
    then episode i+1."""

    states: np.ndarray        # (n, state_dim)
    actions: np.ndarray       # (n,) int
    behavior_logp: np.ndarray  # (n,) log-probability of the action taken
    rewards: np.ndarray       # (n,)
    values: np.ndarray        # (n,)
    episode_ids: np.ndarray   # (n,) int
    returns: np.ndarray       # (n,)
    advantages: np.ndarray    # (n,) returns - values; collect_rollouts normalizes them

    def __len__(self) -> int:
        return len(self.actions)

    def take(self, idx: np.ndarray) -> "TrajectoryBatch":
        return TrajectoryBatch(*[getattr(self, f.name)[idx] for f in
                                 TrajectoryBatch.__dataclass_fields__.values()])  # type: ignore[arg-type]


def _fuzz_masked_probs(logits: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Action probabilities with fuzzing masked in `rows` (default: all).

    The fuzz logit is set to -inf before the softmax, so the classify
    probabilities stay well-defined however large the fuzz logit was.
    """
    logits = logits.copy()
    logits[rows, TriageAction.FUZZ] = -np.inf
    return softmax(logits)


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Row cumulative probabilities as Generator.choice builds them: u picks count(cdf <= u)."""
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def run_episodes(
    params: PolicyParams,
    reward_spec: RewardSpec,
    feats: np.ndarray,
    records: list[WarningRecord],
    backend,
    mask_fuzz: bool = False,
    rng: np.random.Generator | None = None,
    jobs: int = 1,
    gamma: float = 1.0,
) -> tuple[TrajectoryBatch, list[PredictionRecord]]:
    """Play one episode per warning, all of them side by side.

    `feats` holds the normalized feature rows of `records`. One forward pass
    covers every first decision; only the warnings that chose to fuzz reach
    the backend (at most `jobs` calls at a time), and one more pass covers
    their second decision with fuzzing masked. Greedy ties resolve by the
    fixed action order (TP, FP, Fuzz). Actions are greedy when `rng` is
    None; given `rng`, they are sampled with one rng.random() per decision
    in episode order, the stream that playing the episodes one after another
    would consume. A fuzzing episode's first step returns r1 + gamma*r2.
    Each verdict's score is P(TP) with fuzzing masked at the episode's final
    decision state.
    """
    feats = np.asarray(feats, dtype=np.float64)
    n = len(records)
    if feats.ndim != 2 or len(feats) != n:
        raise LengthMismatch(f"features have shape {feats.shape}, expected {n} rows")
    fd = feats.shape[1]
    first = np.zeros((n, fd + len(FUZZ_SLOTS)))
    first[:, :fd] = feats
    first[:, fd] = 1.0  # the NotRun slot
    cache1 = forward_cache(params, first)
    classify1 = _fuzz_masked_probs(cache1["logits"])
    probs1 = classify1 if mask_fuzz else cache1["probs"]
    second_draws = []
    if rng is None:
        act1 = probs1.argmax(axis=1)
    else:
        act1 = np.empty(n, dtype=np.int64)
        for i, (c_tp, c_fp, c_fuzz) in enumerate(_cdf(probs1).tolist()):
            u = rng.random()
            act1[i] = (u >= c_tp) + (u >= c_fp) + (u >= c_fuzz)
            if act1[i] == TriageAction.FUZZ:
                second_draws.append(rng.random())

    fuzzed = act1 == TriageAction.FUZZ
    idx = np.flatnonzero(fuzzed)
    outcomes = run_many(partial(fuzz_step, backend), [records[i] for i in idx], jobs)
    kinds = np.full(n, None)  # each episode's fuzz outcome kind, None if it did not fuzz
    kinds[idx] = [o.kind for o in outcomes]
    second = first[idx]
    second[:, fd:] = np.eye(len(FUZZ_SLOTS))[[FUZZ_SLOTS.index(k) for k in kinds[idx]]]
    cache2 = forward_cache(params, second)
    probs2 = _fuzz_masked_probs(cache2["logits"])
    if rng is None:
        act2 = probs2.argmax(axis=1)
    else:
        act2 = (np.array(second_draws)[:, None] >= _cdf(probs2)).sum(axis=1)

    final = act1.copy()
    final[idx] = act2
    score = classify1[:, TriageAction.CLASSIFY_TP].copy()
    score[idx] = probs2[:, TriageAction.CLASSIFY_TP]
    predictions = [
        PredictionRecord(r.id, Label.TRUE_POSITIVE if a == TriageAction.CLASSIFY_TP
                         else Label.FALSE_POSITIVE, p, k is not None, k)
        for r, a, p, k in zip(records, final.tolist(), score.tolist(), kinds)
    ]
    # Memoized: at most 2 x 3 x 6 distinct (action, label, outcome) triples occur.
    reward = cache(lambda a, label, kind: reward_of(TriageAction(a), label, kind, reward_spec))
    terminal = np.array([reward(a, r.label, k) for a, r, k in zip(final.tolist(), records, kinds)])
    reward1 = np.where(fuzzed, reward_spec.fuzz_cost, terminal)
    reward2 = terminal[idx]
    return1 = reward1 + gamma * np.where(fuzzed, terminal, 0.0)

    # Episode order: episode i's first decision sorts at i, its second at i + 0.5.
    order = np.argsort(np.concatenate([np.arange(n), idx + 0.5]), kind="stable")

    def interleave(first_rows: np.ndarray, second_rows: np.ndarray) -> np.ndarray:
        return np.concatenate([first_rows, second_rows])[order]

    values = interleave(cache1["values"], cache2["values"])
    returns = interleave(return1, reward2)
    return TrajectoryBatch(
        states=interleave(first, second),
        actions=interleave(act1, act2),
        behavior_logp=interleave(np.log(probs1[np.arange(n), act1]),
                                 np.log(probs2[np.arange(len(idx)), act2])),
        rewards=interleave(reward1, reward2),
        values=values,
        episode_ids=interleave(np.arange(n), idx),
        returns=returns,
        advantages=returns - values,
    ), predictions


def collect_rollouts(
    params: PolicyParams,
    records: list[WarningRecord],
    feats: np.ndarray,
    reward_spec: RewardSpec,
    backend,
    rng: np.random.Generator,
    gamma: float = 1.0,
) -> TrajectoryBatch:
    """One sampled episode per warning, played in an order shuffled by rng,
    with advantages normalized over the batch.

    Backend trouble never escapes an episode; it shows up as outcome
    encodings.
    """
    if not records:
        raise EmptySplit("no episodes to collect")
    order = rng.permutation(len(records))
    batch, _ = run_episodes(params, reward_spec, feats[order], [records[i] for i in order], backend,
                            rng=rng, gamma=gamma)
    adv = batch.advantages
    batch.advantages = (adv - adv.mean()) / (adv.std() + 1e-8)
    return batch


def ppo_loss_and_grads(
    params: PolicyParams,
    batch: TrajectoryBatch,
    config: TrainConfig,
    feature_dim: int,
    dropout_masks: tuple[np.ndarray, np.ndarray] | None = None,
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

    idx = np.arange(n)
    logp_new = np.log(probs[idx, batch.actions])
    rho = np.exp(logp_new - batch.behavior_logp)
    adv = batch.advantages

    unclipped = rho * adv
    clipped = np.clip(rho, 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon) * adv
    surrogate = np.minimum(unclipped, clipped)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    entropies = -plogp.sum(axis=1)
    value_err = values - batch.returns

    policy_loss = -surrogate.mean()
    value_loss = float((value_err**2).mean())
    entropy_mean = float(entropies.mean())
    total = float(policy_loss + config.value_loss_weight * value_loss
                  - config.entropy_weight * entropy_mean)
    parts = {"policy_loss": float(policy_loss), "value_loss": value_loss,
             "entropy": entropy_mean, "total": total}
    if not np.isfinite(total):
        # The caller aborts on a non-finite loss; gradients would be garbage.
        return total, None, parts

    # d(surrogate)/d(rho): the active min branch; the clip is flat outside the band.
    unclipped_active = unclipped <= clipped
    in_band = (rho >= 1.0 - config.clip_epsilon) & (rho <= 1.0 + config.clip_epsilon)
    dsurr_drho = np.where(unclipped_active, adv, np.where(in_band, adv, 0.0))
    dlogp = -(dsurr_drho * rho) / n  # d(policy_loss)/d(logp_new)

    # logits gradient: surrogate term + entropy bonus term.
    one_hot = np.zeros_like(probs)
    one_hot[idx, batch.actions] = 1.0
    dlogits = dlogp[:, None] * (one_hot - probs)
    with np.errstate(divide="ignore", invalid="ignore"):
        safe_log = np.where(probs > 0, np.log(probs), 0.0)
    dlogits += (config.entropy_weight / n) * probs * (safe_log + entropies[:, None])

    dvalues = 2.0 * config.value_loss_weight * value_err / n

    g = grads if grads is not None else params.zeros_like()
    h2, h1 = cache["h2"], cache["h1"]
    np.matmul(h2.T, dlogits, out=g.w_pi)
    dlogits.sum(axis=0, out=g.b_pi)
    np.matmul(h2.T, dvalues, out=g.w_v[:, 0])
    g.b_v[0] = dvalues.sum()
    dh2 = dlogits @ params.w_pi.T + np.outer(dvalues, params.w_v.ravel())
    da2 = dh2 * dropout_masks[1] if dropout_masks is not None else dh2
    dz2 = da2 * (cache["z2"] > 0)
    np.matmul(h1.T, dz2, out=g.w2)
    dz2.sum(axis=0, out=g.b2)
    dh1 = dz2 @ params.w2.T
    da1 = dh1 * dropout_masks[0] if dropout_masks is not None else dh1
    dz1 = da1 * (cache["z1"] > 0)
    np.matmul(cache["states"].T, dz1, out=g.w1)
    dz1.sum(axis=0, out=g.b1)
    return total, g, parts


class Adam:
    """Adaptive moment estimation over a flat parameter vector, updated in place."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        self.m *= self.beta1
        self.m += np.multiply(1 - self.beta1, grad, out=a)
        self.v *= self.beta2
        np.square(grad, out=a)
        a *= 1 - self.beta2
        self.v += a
        np.divide(self.m, 1 - self.beta1**self.t, out=a)  # m_hat
        a *= self.lr
        np.divide(self.v, 1 - self.beta2**self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        flat -= a


def ppo_update(
    params: PolicyParams,
    batch: TrajectoryBatch,
    config: TrainConfig,
    rng: np.random.Generator,
    feature_dim: int,
    optimizer: Adam | None = None,
) -> dict[str, float]:
    """Several passes of shuffled minibatch updates on one rollout batch.

    Updates `params` in place and returns the last minibatch's loss parts.
    """
    optimizer = optimizer or Adam(config.learning_rate)
    grads = params.zeros_like()
    last_parts: dict[str, float] = {}
    for _ in range(config.ppo_inner_epochs):
        perm = rng.permutation(len(batch))
        for start in range(0, len(batch), config.minibatch_size):
            mb_idx = perm[start : start + config.minibatch_size]
            mb = batch.take(mb_idx)
            masks = None
            if params.dropout_rate > 0.0:
                masks = draw_dropout_masks(
                    rng, params.hidden_sizes, params.dropout_rate, n=len(mb)
                )
            total, _, parts = ppo_loss_and_grads(params, mb, config, feature_dim, masks, grads)
            if not np.isfinite(total):
                raise NonFiniteLoss(
                    f"non-finite loss on minibatch starting at {start} "
                    f"(episode ids {sorted(set(mb.episode_ids.tolist()))[:5]}...)"
                )
            optimizer.step(params.flat, grads.flat)
            last_parts = parts
    return last_parts


@dataclass
class PolicyCheckpoint:
    params: PolicyParams
    normalizer: NormalizerStats
    manifest_digest: str
    config: TrainConfig
    reward_spec: RewardSpec
    history: list[dict] = field(default_factory=list)


def feature_matrix(records: list[WarningRecord], vectors: dict[str, FeatureVector]) -> np.ndarray:
    """Raw feature rows of `records`, in order, checked by `validate_vector`:
    shape (len(records), len(MANIFEST))."""
    missing = [r.id for r in records if r.id not in vectors]
    if missing:
        raise FeatureValidationError(f"no feature vector for warning {missing[0]}")
    return validate_vector([vectors[r.id] for r in records], lambda i: f"warning {records[i].id}")


def train(
    dataset: Dataset,
    vectors: dict[str, FeatureVector],
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
        raise EmptySplit("train split is empty")
    if not val_records:
        raise EmptySplit("val split is empty")
    unlabeled = [r.id for r in train_records + val_records if r.label is None]
    if unlabeled:
        raise UnlabeledRecordError(f"unlabeled records in splits: {', '.join(unlabeled)}")

    train_raw = feature_matrix(train_records, vectors)
    stats = fit_normalizer(train_raw)
    train_feats = normalize(train_raw, stats)
    val_feats = normalize(feature_matrix(val_records, vectors), stats)
    val_labels = {r.id: r.label for r in val_records}

    params = init_params(STATE_DIM, dropout_rate=config.dropout_rate, seed=config.seed)
    rng_rollout = np.random.default_rng([config.seed, 1])
    rng_update = np.random.default_rng([config.seed, 2])
    optimizer = Adam(config.learning_rate)

    best_params = params.copy()
    best_f1 = -1.0
    stale = 0
    history: list[dict] = []
    for epoch in range(1, config.epochs_max + 1):
        batch = collect_rollouts(
            params, train_records, train_feats, reward_spec, backend, rng_rollout, config.gamma
        )
        ppo_update(params, batch, config, rng_update, len(MANIFEST), optimizer)

        _, preds = run_episodes(params, reward_spec, val_feats, val_records, backend)
        report = compute_metrics(preds, val_labels)
        val_f1 = report.f1 if report.f1 is not None else 0.0
        entry = {
            "epoch": epoch,
            "mean_return": float(np.bincount(batch.episode_ids, weights=batch.rewards).mean()),
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
        manifest_digest=MANIFEST.digest,
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
        "manifest_digest": ckpt.manifest_digest,
        "layer_dims": [p.input_dim, *p.hidden_sizes],
        "dropout_rate": p.dropout_rate,
        "seed": p.seed,
        "weights": {name: getattr(p, name).ravel().tolist()
                    for name, _ in param_layout(p.input_dim, p.hidden_sizes)},
        "normalizer": {**vars(ckpt.normalizer), "mean": ckpt.normalizer.mean.tolist(),
                       "std": ckpt.normalizer.std.tolist()},
        "config": asdict(ckpt.config),
        "reward_spec": asdict(ckpt.reward_spec),
        "history": ckpt.history,
    }
    return json.dumps(doc, sort_keys=False, separators=(",", ":")).encode("utf-8")


def load_checkpoint(data: bytes, source: str = "checkpoint") -> PolicyCheckpoint:
    """Parse a checkpoint; a malformed one raises SchemaError naming `source`
    (and the line of a JSON syntax error), one whose policy or normalizer was
    built for another manifest DigestMismatch. A `reward_spec.discount` key,
    which older checkpoints carry, is dropped: `train.gamma` is the discount."""
    try:
        doc = json.loads(data.decode("utf-8"))
        if doc["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {doc['format_version']}")
        for part, digest in (("checkpoint", doc["manifest_digest"]),
                             ("normalizer", doc["normalizer"]["manifest_digest"])):
            if digest != MANIFEST.digest:
                raise DigestMismatch(
                    f"{source}: {part} digest {digest} != manifest digest {MANIFEST.digest}"
                )
        input_dim, h1, h2 = doc["layer_dims"]
        if input_dim != STATE_DIM:
            raise ValueError(f"input dimension {input_dim} does not fit the manifest")
        flat = np.concatenate([np.array(doc["weights"][name], dtype=np.float64)
                               for name, _ in param_layout(input_dim, (h1, h2))])
        params = PolicyParams(input_dim, (h1, h2), doc["dropout_rate"], doc["seed"], flat)
        stats = doc["normalizer"]
        normalizer = NormalizerStats(**{**stats, "mean": np.array(stats["mean"], dtype=np.float64),
                                        "std": np.array(stats["std"], dtype=np.float64)})
        if normalizer.mean.shape != (len(MANIFEST),) or normalizer.std.shape != (len(MANIFEST),):
            raise ValueError(f"normalizer statistics must have {len(MANIFEST)} entries each")
        if not all(np.isfinite(v).all() for v in (flat, normalizer.mean, normalizer.std)):
            raise ValueError("weights and normalizer statistics must be finite")
        reward = {k: v for k, v in doc["reward_spec"].items() if k != "discount"}
        return PolicyCheckpoint(
            params=params,
            normalizer=normalizer,
            manifest_digest=doc["manifest_digest"],
            config=TrainConfig(**doc["config"]),
            reward_spec=RewardSpec(**reward),
            history=doc["history"],
        )
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source} line {exc.lineno}: {exc.msg}") from exc
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise SchemaError(f"{source}: {type(exc).__name__}: {exc}") from exc
