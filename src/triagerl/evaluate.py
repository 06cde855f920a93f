"""Checkpoint evaluation and permutation feature importance.

Evaluation replays one greedy episode per warning (fuzzing permitted unless
masked) and scores the terminal decisions with the full metric report.
Importance shuffles one feature column at a time, re-evaluates with fuzzing
masked, and ranks features by the mean F1 drop.
"""

from __future__ import annotations

import numpy as np

from .features import MANIFEST, FeatureVector, normalize
from .metrics import EvalReport, PredictionRecord, prediction_records, report_from_arrays
from .trainer import PolicyCheckpoint, feature_matrix, run_episodes
from .warnings import Label, WarningRecord, text_file


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
    played = run_episodes(ckpt.params, feats, records, backend, mask_fuzz=mask_fuzz, jobs=jobs)
    positives = np.array([r.label is Label.TRUE_POSITIVE for r in records])
    report = report_from_arrays(played.called, positives, played.score, played.fuzzed)
    return report, prediction_records([r.id for r in records], played.called, played.score,
                                      played.outcome)


def permutation_importance(
    ckpt: PolicyCheckpoint,
    records: list[WarningRecord],
    vectors: dict[str, FeatureVector],
    repeats: int,
    seed: int,
) -> list[dict]:
    """Rank features by mean F1 drop when their column is shuffled.

    Evaluation runs with fuzzing masked so the ranking reflects the static
    decision surface only, and an undefined F1 counts as 0. Shuffles are
    seeded; identical seeds give identical rankings. Constant columns drop
    exactly 0.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    matrix = normalize(feature_matrix(records, vectors), ckpt.normalizer)
    positives = np.array([r.label is Label.TRUE_POSITIVE for r in records])

    def f1(feats: np.ndarray) -> float:
        # Fuzzing is masked: one decision per warning, and the backend is never called.
        played = run_episodes(ckpt.params, feats, records, None, mask_fuzz=True)
        return report_from_arrays(played.called, positives, played.score, played.fuzzed).f1 or 0.0

    baseline = f1(matrix)
    rng = np.random.default_rng(seed)
    results = []
    for j, entry in enumerate(MANIFEST.entries):
        drops = []
        for _ in range(repeats):
            perm = rng.permutation(len(records))
            shuffled = matrix.copy()
            shuffled[:, j] = matrix[perm, j]
            drops.append(baseline - f1(shuffled))
        results.append({"feature": entry.name, "mean_drop": float(np.mean(drops))})
    results.sort(key=lambda r: -r["mean_drop"])
    return results


def write_importance(results: list[dict]) -> bytes:
    return text_file(f"{rank}\t{r['feature']}\t{r['mean_drop']!r}"
                     for rank, r in enumerate(results, 1))
