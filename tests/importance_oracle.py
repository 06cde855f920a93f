"""Reference oracle: permutation importance by full re-play.

Every shuffle copies the whole normalized matrix, plays every row through
the episode engine with fuzzing masked and scores the calls with the full
metric report. Tests compare `evaluate.permutation_importance`, which plays
only the rows a shuffle changed, against it: the same results, the same
`importance.txt` bytes and the same errors.
"""

import numpy as np

from triagerl.features import MANIFEST, normalize
from triagerl.metrics import report_from_arrays
from triagerl.trainer import run_episodes
from triagerl.warnings import Label


def permutation_importance(ckpt, records, table, repeats, seed):
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    matrix = normalize(table.rows_of(records), ckpt.normalizer)
    positives = np.array([r.label is Label.TRUE_POSITIVE for r in records])

    def f1(feats):
        played = run_episodes(ckpt.params, feats, records, None)
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
