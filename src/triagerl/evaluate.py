"""Checkpoint evaluation and permutation feature importance.

Evaluation replays one greedy episode per warning (fuzzing permitted unless
masked) and scores the terminal decisions with the full metric report.
Importance shuffles one feature column at a time, re-evaluates with fuzzing
masked, and ranks features by the mean F1 drop.
"""

from __future__ import annotations

import numpy as np

from .env import TriageAction
from .features import MANIFEST, FeatureVector, normalize
from .metrics import EvalReport, PredictionRecord, compute_metrics
from .trainer import PolicyCheckpoint, feature_matrix, run_episodes
from .warnings import Label, WarningRecord


def evaluate_checkpoint(
    ckpt: PolicyCheckpoint,
    records: list[WarningRecord],
    vectors: dict[str, FeatureVector],
    backend,
    mask_fuzz: bool = False,
    jobs: int = 1,
) -> tuple[EvalReport, list[PredictionRecord]]:
    """Play every warning greedily and report metrics plus verdicts."""
    feats = normalize(feature_matrix(records, vectors), ckpt.normalizer)
    _, predictions = run_episodes(
        ckpt.params, ckpt.reward_spec, feats, records, backend, mask_fuzz=mask_fuzz, jobs=jobs
    )
    labels = {r.id: r.label for r in records}
    return compute_metrics(predictions, labels), predictions


def permutation_importance(
    ckpt: PolicyCheckpoint,
    records: list[WarningRecord],
    vectors: dict[str, FeatureVector],
    repeats: int = 1,
    seed: int = 0,
) -> list[dict]:
    """Rank features by mean F1 drop when their column is shuffled.

    Evaluation runs with fuzzing masked so the ranking reflects the static
    decision surface only. Shuffles are seeded; identical seeds give
    identical rankings. Constant columns drop exactly 0.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    matrix = normalize(feature_matrix(records, vectors), ckpt.normalizer)
    positives = np.array([r.label is Label.TRUE_POSITIVE for r in records], dtype=bool)

    def masked_f1(feats: np.ndarray) -> float:
        # Fuzzing is masked: one decision per warning, and the backend is never called.
        batch, _ = run_episodes(ckpt.params, ckpt.reward_spec, feats, records, None, mask_fuzz=True)
        predicted = batch.actions == TriageAction.CLASSIFY_TP
        tp = int(np.sum(predicted & positives))
        if tp == 0:
            return 0.0
        precision, recall = tp / int(predicted.sum()), tp / int(positives.sum())
        return 2 * precision * recall / (precision + recall)

    baseline = masked_f1(matrix)
    rng = np.random.default_rng(seed)
    results = []
    for j, entry in enumerate(MANIFEST.entries):
        drops = []
        for _ in range(repeats):
            perm = rng.permutation(len(records))
            shuffled = matrix.copy()
            shuffled[:, j] = matrix[perm, j]
            drops.append(baseline - masked_f1(shuffled))
        results.append({"feature": entry.name, "mean_drop": float(np.mean(drops))})
    results.sort(key=lambda r: -r["mean_drop"])
    return results


def write_importance(results: list[dict]) -> bytes:
    lines = [f"{rank}\t{r['feature']}\t{r['mean_drop']!r}" for rank, r in enumerate(results, 1)]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
