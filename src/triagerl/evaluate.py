"""Checkpoint evaluation and permutation feature importance.

Evaluation replays one greedy episode per warning (fuzzing permitted unless
masked) and scores the terminal decisions with the full metric report.
Importance shuffles one feature column at a time, re-plays the rows each
shuffle changed with fuzzing masked, and ranks features by the mean F1 drop.
"""

from __future__ import annotations

import numpy as np

from .features import MANIFEST, FeatureTable, normalize
from .metrics import (EvalReport, PredictionRecord, confusion, precision_recall_f1,
                      prediction_records, report_from_arrays)
from .trainer import PolicyCheckpoint, run_episodes
from .warnings import Label, WarningRecord, text_file


def evaluate_checkpoint(
    ckpt: PolicyCheckpoint,
    records: list[WarningRecord],
    table: FeatureTable,
    backend,
    mask_fuzz: bool = False,
    jobs: int = 1,
) -> tuple[EvalReport, list[PredictionRecord]]:
    """Play every warning greedily, fuzzing through `backend` unless `mask_fuzz`,
    and report metrics plus verdicts."""
    feats = normalize(table.rows_of(records), ckpt.normalizer)
    played = run_episodes(ckpt.params, feats, records, None if mask_fuzz else backend, jobs=jobs)
    positives = np.array([r.label is Label.TRUE_POSITIVE for r in records])
    report = report_from_arrays(played.called, positives, played.score, played.fuzzed)
    return report, prediction_records([r.id for r in records], played.called, played.score,
                                      played.outcome)


def permutation_importance(
    ckpt: PolicyCheckpoint,
    records: list[WarningRecord],
    table: FeatureTable,
    repeats: int,
    seed: int,
) -> list[dict]:
    """Rank features by mean F1 drop when their column is shuffled.

    Evaluation runs with fuzzing masked so the ranking reflects the static
    decision surface only, and an undefined F1 counts as 0. Shuffles are
    seeded; identical seeds give identical rankings. Constant columns drop
    exactly 0.

    The unshuffled matrix is played once. A shuffle re-plays only the rows
    whose value it changed and merges their calls into the unshuffled ones:
    a row's scores depend on the row alone, so each re-played row gets the
    bits it has in a full play, an unchanged row keeps its call, and the
    first row whose scores are not finite is a changed one.
    """
    matrix = normalize(table.rows_of(records), ckpt.normalizer)
    positives = np.array([r.label is Label.TRUE_POSITIVE for r in records])

    def calls(feats: np.ndarray, played: list[WarningRecord]) -> np.ndarray:
        # No backend masks fuzzing: one decision per warning.
        return run_episodes(ckpt.params, feats, played, None).called

    def f1(called: np.ndarray) -> float:
        tp, fp, fn, _ = confusion(called, positives)
        return precision_recall_f1(tp, fp, fn)[2] or 0.0

    unshuffled = calls(matrix, records)
    baseline = f1(unshuffled)
    bits = matrix.view(np.int64)  # compared as bits, -0.0 and 0.0 differ
    rng = np.random.default_rng(seed)
    results = []
    for j, entry in enumerate(MANIFEST.entries):
        drops = []
        for _ in range(repeats):
            perm = rng.permutation(len(records))
            rows = np.flatnonzero(bits[perm, j] != bits[:, j])
            called = unshuffled.copy()
            feats = matrix[rows]
            feats[:, j] = matrix[perm[rows], j]
            called[rows] = calls(feats, [records[i] for i in rows])
            drops.append(baseline - f1(called))
        results.append({"feature": entry.name, "mean_drop": float(np.mean(drops))})
    results.sort(key=lambda r: -r["mean_drop"])
    return results


def write_importance(results: list[dict]) -> bytes:
    return text_file(f"{rank}\t{r['feature']}\t{r['mean_drop']!r}"
                     for rank, r in enumerate(results, 1))
