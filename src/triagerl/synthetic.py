"""Synthetic datasets for training experiments, tests, and the demo pipeline.

Each task writes its rows straight into one matrix, against the manifest:
noise goes into count/log slots, flags and ratios stay in range, one-hot
groups stay one-hot. The signal sits in the first count slot, which z-scoring
preserves up to an affine map. Building the task's `FeatureTable` checks the rows.
"""

from __future__ import annotations

import numpy as np

from .features import MANIFEST, FeatureTable, Kind
from .warnings import (
    Dataset,
    Label,
    Level,
    WarningRecord,
    stratified_split,
    warning_id,
)

SIGNAL_FEATURE = "generic_param_count"

_ONE_HOT_GROUPS = ("bypass_", "checker_", "level_", "op_")
# The manifest slots of each one-hot group, in manifest order.
_ONE_HOT_SLOTS = [[i for i, e in enumerate(MANIFEST.entries)
                   if e.kind is Kind.ONE_HOT and e.name.startswith(prefix)]
                  for prefix in _ONE_HOT_GROUPS]


def make_synthetic_warning(i: int, label: Label) -> WarningRecord:
    file, analyzer = f"synthetic-0.1.0/src/unit_{i:04d}.rs", "UnsafeDataflow"
    line = 10 + 30 * i
    description = f"synthetic warning {i}"
    return WarningRecord(
        id=warning_id(file, line, 1, line, 40, analyzer, description),
        level=Level.WARNING,
        analyzer=analyzer,
        op_type=None,
        description=description,
        file=file,
        start_line=line,
        start_col=1,
        end_line=line,
        end_col=40,
        code_snippet=f"fn probe_{i}(v: &mut Vec<u8>) {{ unsafe {{ v.set_len(0); }} }}",
        label=label,
    )


def _random_valid_vector(rng: np.random.Generator) -> np.ndarray:
    values = np.zeros(len(MANIFEST))
    for i, entry in enumerate(MANIFEST.entries):
        if entry.kind is Kind.FLAG:
            values[i] = float(rng.integers(0, 2))
        elif entry.kind is Kind.RATIO:
            values[i] = rng.random()
        elif entry.kind is not Kind.ONE_HOT:
            values[i] = rng.normal()
    for slots in _ONE_HOT_SLOTS:
        values[slots[int(rng.integers(0, len(slots)))]] = 1.0
    return values


def _build_task(records: list[WarningRecord], matrix: np.ndarray,
                seed: int) -> tuple[Dataset, FeatureTable]:
    assignment = stratified_split(records, (0.70, 0.15, 0.15), seed)
    return Dataset(records, assignment, "synthetic"), FeatureTable.of([r.id for r in records], matrix)


def separable_task(n: int, seed: int) -> tuple[Dataset, FeatureTable]:
    """The signal feature equals the label, drawn 50/50; everything else is noise."""
    rng = np.random.default_rng(seed)
    signal = MANIFEST.index_of(SIGNAL_FEATURE)
    records, matrix = [], np.zeros((n, len(MANIFEST)))
    for i in range(n):
        label = Label.TRUE_POSITIVE if rng.random() < 0.5 else Label.FALSE_POSITIVE
        records.append(make_synthetic_warning(i, label))
        matrix[i] = _random_valid_vector(rng)
        matrix[i, signal] = 1.0 if label is Label.TRUE_POSITIVE else 0.0
    return _build_task(records, matrix, seed)


def ambiguity_task(n: int, seed: int) -> tuple[Dataset, FeatureTable, set[str]]:
    """Half the warnings are decisively featured, half carry no label signal.

    Clear warnings are true positives a quarter of the time and put +1/-1 in
    the signal slot by label; ambiguous warnings put 0 there and draw labels
    50/50, so only dynamic evidence can resolve them. All other slots are
    constant, so warnings within a group are indistinguishable: nothing but
    the signal and the fuzz encoding can carry information. Returns the
    ambiguous warning ids alongside the dataset.
    """
    rng = np.random.default_rng(seed)
    signal = MANIFEST.index_of(SIGNAL_FEATURE)
    records, matrix = [], np.zeros((n, len(MANIFEST)))
    matrix[:, [slots[0] for slots in _ONE_HOT_SLOTS]] = 1.0  # each one-hot set's first slot
    ambiguous_ids: set[str] = set()
    for i in range(n):
        ambiguous = rng.random() < 0.5
        p_tp = 0.5 if ambiguous else 0.25
        label = Label.TRUE_POSITIVE if rng.random() < p_tp else Label.FALSE_POSITIVE
        rec = make_synthetic_warning(i, label)
        if ambiguous:  # its signal slot stays 0
            ambiguous_ids.add(rec.id)
        else:
            matrix[i, signal] = 1.0 if label is Label.TRUE_POSITIVE else -1.0
        records.append(rec)
    return (*_build_task(records, matrix, seed), ambiguous_ids)


# ---------------------------------------------------------------------------
# A small hand-written corpus for the end-to-end CLI demo and tests.
# ---------------------------------------------------------------------------

_DEMO_SNIPPETS = [
    ("UnsafeDataflow", "ReadFlow", "unsafe dataflow from uninitialized memory",
     "fn drain_into<T: Copy>(v: &mut Vec<T>) {\n    let len = v.len();\n    unsafe { v.set_len(0); }\n    v.retain(|x| probe(x));\n    unsafe { v.set_len(len); }\n}"),
    ("SendSyncVariance", None, "missing Send bound allows cross-thread sharing",
     "pub struct Guard<T> { inner: *mut T }\nunsafe impl<T> Send for Guard<T> {}"),
    ("UnsafeDestructor", None, "unsafe block detected in drop",
     "impl<T: 'static> Drop for Slot<T> {\n    fn drop(&mut self) { unsafe { free(self.ptr); } }\n}"),
    ("UnsafeDataflow", "CopyFlow", "duplicated value reaches generic call while panicking",
     "fn dup_apply<F: Fn(&u8) -> bool>(data: &mut [u8], f: F) {\n    for b in data.iter() {\n        if f(b) { panic!(\"invariant\"); }\n    }\n}"),
    ("UnsafeDataflow", "VecFromRaw", "vector rebuilt from raw parts",
     "fn rebuild(ptr: *mut u8, n: usize) -> Vec<u8> {\n    unsafe { Vec::from_raw_parts(ptr, n, n) }\n}"),
]


def demo_corpus(n: int, seed: int) -> tuple[list[dict], dict[str, Label], dict]:
    """(report objects, labels by id, package metadata doc) for n warnings."""
    rng = np.random.default_rng(seed)
    report = []
    labels: dict[str, Label] = {}
    for i in range(n):
        analyzer, op_type, description, snippet = _DEMO_SNIPPETS[i % len(_DEMO_SNIPPETS)]
        package = f"demo-crate-{i % 3}"
        file = f"{package}-0.{i % 3}.1/src/lib_{i:02d}.rs"
        line = 5 + 7 * i
        obj = {
            "level": "Warning" if i % 4 else "Error",
            "analyzer": analyzer,
            "op_type": op_type,
            "description": description,
            "file": file,
            "start_line": line,
            "start_col": 1,
            "end_line": line + snippet.count("\n"),
            "end_col": 33,
            "code_snippet": snippet,
        }
        report.append(obj)
        wid = warning_id(file, line, 1, obj["end_line"], 33, analyzer, description)
        labels[wid] = Label.TRUE_POSITIVE if rng.random() < 0.4 else Label.FALSE_POSITIVE
    metadata = {
        f"demo-crate-{k}-0.{k}.1": {
            "downloads": int(10 ** (k + 2)),
            "unsafe_prevalence": round(0.1 * (k + 1), 2),
            "loc": 1200 * (k + 1),
        }
        for k in range(3)
    }
    return report, labels, metadata
