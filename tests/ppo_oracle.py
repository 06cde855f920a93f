"""Reference oracle: the PPO minibatch step that the lean one replaced.

`ppo_loss_and_grads` as it stood before the step was slimmed, with the
forward pass and fuzz masking it used: a second softmax over copied logits,
a log per use, new arrays at every gate. Only the forward pass's heads and
its one-row rule follow the policy's, since the step's bits depend on them.
Tests require the trainer's step to equal it bit for bit.
"""

from __future__ import annotations

import numpy as np

from triagerl.env import TriageAction
from triagerl.policy import PolicyParams, softmax
from triagerl.trainer import TrainConfig, TrajectoryBatch


def forward_cache(
    params: PolicyParams, states: np.ndarray, masks: tuple[np.ndarray, np.ndarray] | None = None
) -> dict:
    """Batched forward pass keeping intermediates for backpropagation.

    The heads and the one-row rule are the policy's own (see
    `triagerl.policy.forward_cache`): one dot product per row and head, and
    a one-row batch played as two copies of its row.
    """
    n = len(states)
    if n == 1:
        states = np.repeat(states, 2, axis=0)
        if masks is not None:
            masks = tuple(np.repeat(m, 2, axis=0) for m in masks)
    z1 = states @ params.w1 + params.b1
    a1 = np.maximum(z1, 0.0)
    h1 = a1 * masks[0] if masks is not None else a1
    z2 = h1 @ params.w2 + params.b2
    a2 = np.maximum(z2, 0.0)
    h2 = a2 * masks[1] if masks is not None else a2
    heads = np.vecdot(h2[:, None, :], np.vstack([params.w_pi.T, params.w_v.T]))
    logits = heads[:, :-1] + params.b_pi
    probs = softmax(logits)
    values = heads[:, -1] + params.b_v[0]
    return {
        "states": states[:n], "z1": z1[:n], "h1": h1[:n], "z2": z2[:n], "h2": h2[:n],
        "logits": logits[:n], "probs": probs[:n], "values": values[:n],
    }


def _fuzz_masked_probs(logits: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Action probabilities with fuzzing masked in `rows` (default: all).

    The fuzz logit is set to -inf before the softmax, so the classify
    probabilities stay well-defined however large the fuzz logit was.
    """
    logits = logits.copy()
    logits[rows, TriageAction.FUZZ] = -np.inf
    return softmax(logits)


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
