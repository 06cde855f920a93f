"""Warning ingestion, identity, labels, clustering, and dataset splits.

Input reports are JSON arrays of analyzer warning objects. Each warning gets
a stable 64-bit content id so that reports, label sidecars, fuzz recordings,
and feature sidecars can be joined reproducibly across runs and machines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import RatioError, SchemaError, UnlabeledRecordError

REPORT_FIELDS = (
    "level",
    "analyzer",
    "op_type",
    "description",
    "file",
    "start_line",
    "start_col",
    "end_line",
    "end_col",
    "code_snippet",
)

_LEVELS = ("Error", "Warning", "Info")


class Level(Enum):
    ERROR = "Error"
    WARNING = "Warning"
    INFO = "Info"


class Label(Enum):
    TRUE_POSITIVE = "tp"
    FALSE_POSITIVE = "fp"


class Split(Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


SPLITS = (Split.TRAIN, Split.VAL, Split.TEST)


class BugPattern(Enum):
    PANIC_SAFETY = "panic_safety"
    HIGHER_ORDER_INVARIANT = "higher_order_invariant"
    SEND_SYNC_VARIANCE = "send_sync_variance"
    UNKNOWN = "unknown"


def warning_id(
    file: str,
    start_line: int,
    start_col: int,
    end_line: int,
    end_col: int,
    analyzer: str,
    description: str,
) -> str:
    """Stable 64-bit id: the 7-tuple joined with 0x1f, SHA-256, first 8 bytes hex.

    Byte-identical inputs give byte-identical ids on every platform. Identical
    warnings collide by design; deduplication is the caller's choice.
    """
    canon = "\x1f".join(
        [file, str(start_line), str(start_col), str(end_line), str(end_col), analyzer, description]
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class WarningRecord:
    """One analyzer warning plus optional ground truth."""

    id: str
    level: Level
    analyzer: str
    op_type: str | None
    description: str
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int
    code_snippet: str
    label: Label | None = None

    def with_label(self, label: Label | None) -> "WarningRecord":
        return replace(self, label=label)


@dataclass
class Dataset:
    """Labeled records plus a split assignment produced under a fixed seed."""

    records: list[WarningRecord]
    split_assignment: dict[str, Split]
    seed: int

    def split_records(self, split: Split) -> list[WarningRecord]:
        return [r for r in self.records if self.split_assignment.get(r.id) == split]


def _field_error(where: str, name: str, why: str) -> SchemaError:
    return SchemaError(f"{where}.{name}: {why}")


def _require_str(obj: dict, where: str, name: str) -> str:
    v = obj[name]
    if not isinstance(v, str):
        raise _field_error(where, name, f"expected string, got {type(v).__name__}")
    return v


def _require_coord(obj: dict, where: str, name: str) -> int:
    v = obj[name]
    if isinstance(v, bool) or not isinstance(v, int):
        raise _field_error(where, name, f"expected integer, got {type(v).__name__}")
    if v < 1:
        raise _field_error(where, name, f"coordinates are 1-based, got {v}")
    return v


def parse_warning(obj, where: str) -> WarningRecord:
    """One report object as a record with its id assigned and no label.

    The object must carry exactly the ten schema keys. The first missing,
    mistyped, or unknown field raises SchemaError naming `where` and the field.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected object, got {type(obj).__name__}")
    for name in REPORT_FIELDS:
        if name not in obj:
            raise _field_error(where, name, "missing field")
    for name in obj:
        if name not in REPORT_FIELDS:
            raise _field_error(where, name, "unknown field")

    level = _require_str(obj, where, "level")
    if level not in _LEVELS:
        raise _field_error(where, "level", f"expected one of {_LEVELS}, got {level!r}")
    op_type = obj["op_type"]
    if op_type is not None and not isinstance(op_type, str):
        raise _field_error(where, "op_type", f"expected string or null, got {type(op_type).__name__}")

    analyzer = _require_str(obj, where, "analyzer")
    description = _require_str(obj, where, "description")
    file = _require_str(obj, where, "file")
    snippet = _require_str(obj, where, "code_snippet")
    start_line = _require_coord(obj, where, "start_line")
    start_col = _require_coord(obj, where, "start_col")
    end_line = _require_coord(obj, where, "end_line")
    end_col = _require_coord(obj, where, "end_col")
    if start_line > end_line:
        raise _field_error(where, "end_line", f"start_line {start_line} > end_line {end_line}")
    if start_line == end_line and start_col > end_col:
        raise _field_error(where, "end_col", f"start_col {start_col} > end_col {end_col} on one line")

    return WarningRecord(
        id=warning_id(file, start_line, start_col, end_line, end_col, analyzer, description),
        level=Level(level),
        analyzer=analyzer,
        op_type=op_type,
        description=description,
        file=file,
        start_line=start_line,
        start_col=start_col,
        end_line=end_line,
        end_col=end_col,
        code_snippet=snippet,
    )


def parse_report(data: bytes, source: str = "report") -> list[WarningRecord]:
    """Parse a report file into records with ids assigned and labels unset.

    The report must be a JSON array of report objects (see `parse_warning`);
    errors name `source` and the object's array index. Input order is kept.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{source} is not well-formed JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise SchemaError(f"{source} must be a JSON array, got {type(doc).__name__}")
    return [parse_warning(obj, f"{source}[{i}]") for i, obj in enumerate(doc)]


def classify_bug_pattern(record: WarningRecord) -> BugPattern:
    """Map a warning to one of the three bug patterns, or UNKNOWN.

    Rules, in order: a Send/Sync-variance analyzer (or send+sync wording)
    means SEND_SYNC_VARIANCE; destructor analyzers mean HIGHER_ORDER_INVARIANT
    (drop-time invariants are caller-supplied semantics); panic wording, or
    any unsafe-dataflow warning by default, means PANIC_SAFETY; explicit
    higher-order/invariant wording means HIGHER_ORDER_INVARIANT. Panic wording
    wins over invariant wording: panic-safety reports routinely describe the
    broken invariant.
    """
    analyzer = record.analyzer.lower()
    text = " ".join(filter(None, [record.description, record.op_type or ""])).lower()
    if "sendsync" in analyzer or "send_sync" in analyzer or ("send" in text and "sync" in text):
        return BugPattern.SEND_SYNC_VARIANCE
    if "destructor" in analyzer:
        return BugPattern.HIGHER_ORDER_INVARIANT
    if "panic" in text:
        return BugPattern.PANIC_SAFETY
    if "higher-order" in text or "higher order" in text or "invariant" in text:
        return BugPattern.HIGHER_ORDER_INVARIANT
    if "unsafedataflow" in analyzer or "dataflow" in analyzer:
        return BugPattern.PANIC_SAFETY
    return BugPattern.UNKNOWN


def _largest_remainder(total: int, ratios: tuple[float, float, float]) -> list[int]:
    """Apportion `total` into len(ratios) integer shares, largest remainder."""
    quotas = [total * r for r in ratios]
    shares = [int(q) for q in quotas]
    fracs = [q - s for q, s in zip(quotas, shares)]
    for k in sorted(range(len(ratios)), key=lambda j: (-fracs[j], j))[: total - sum(shares)]:
        shares[k] += 1
    return shares


def stratified_split(
    records: list[WarningRecord],
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 0,
) -> dict[str, Split]:
    """Assign every labeled record to train/val/test, stratified by class.

    Each class is apportioned to splits independently by largest remainder,
    which keeps every split's positive fraction within one record of the
    global fraction. Tiny datasets are repaired so no split is empty (a move
    is chosen to keep the stratification bound). Deterministic per seed.
    """
    if len(ratios) != 3:
        raise RatioError(f"expected 3 ratios, got {len(ratios)}")
    if any(r <= 0 for r in ratios):
        raise RatioError(f"ratios must be > 0, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # also rejects nan
        raise RatioError(f"ratios must sum to 1, got sum {sum(ratios)!r}")
    unlabeled = [r.id for r in records if r.label is None]
    if unlabeled:
        raise UnlabeledRecordError(f"unlabeled records: {', '.join(unlabeled)}")

    rng = np.random.default_rng(seed)
    by_class: dict[Label, list[str]] = {Label.TRUE_POSITIVE: [], Label.FALSE_POSITIVE: []}
    seen = set()
    for r in records:
        if r.id not in seen:
            seen.add(r.id)
            by_class[r.label].append(r.id)

    buckets: dict[Split, dict[Label, list[str]]] = {s: {c: [] for c in by_class} for s in SPLITS}
    for cls, ids in by_class.items():
        order = rng.permutation(len(ids))
        shuffled = [ids[int(i)] for i in order]
        shares = _largest_remainder(len(ids), tuple(ratios))
        pos = 0
        for split, share in zip(SPLITS, shares):
            buckets[split][cls] = shuffled[pos : pos + share]
            pos += share

    _repair_empty_splits(buckets)

    assignment: dict[str, Split] = {}
    for split in SPLITS:
        for ids in buckets[split].values():
            for wid in ids:
                assignment[wid] = split
    return assignment


def _repair_empty_splits(buckets: dict[Split, dict[Label, list[str]]]) -> None:
    """Move single records from the largest split into empty ones.

    The donated class is the one that keeps the worst per-split deviation
    from the global positive fraction smallest, so the within-one-record
    stratification bound survives the repair.
    """

    def size(split: Split) -> int:
        return sum(len(v) for v in buckets[split].values())

    total = sum(size(s) for s in SPLITS)
    if total < len(SPLITS):
        return
    total_pos = sum(len(buckets[s][Label.TRUE_POSITIVE]) for s in SPLITS)
    p_global = total_pos / total

    def worst_deviation() -> float:
        return max(
            abs(len(buckets[s][Label.TRUE_POSITIVE]) - p_global * size(s)) for s in SPLITS
        )

    while any(size(s) == 0 for s in SPLITS):
        empty = next(s for s in SPLITS if size(s) == 0)
        donor = max(SPLITS, key=lambda s: (size(s), -SPLITS.index(s)))
        best = None
        for cls in (Label.TRUE_POSITIVE, Label.FALSE_POSITIVE):
            if not buckets[donor][cls]:
                continue
            moved = buckets[donor][cls].pop()
            buckets[empty][cls].append(moved)
            dev = worst_deviation()
            buckets[empty][cls].pop()
            buckets[donor][cls].append(moved)
            if best is None or dev < best[0]:
                best = (dev, cls)
        _, cls = best
        buckets[empty][cls].append(buckets[donor][cls].pop())


def cluster_sizes(records: list[WarningRecord], radius: int = 10) -> dict[str, int]:
    """Per-warning size of its same-file proximity cluster.

    Two warnings share a cluster iff a chain of same-file warnings connects
    them with consecutive start_line gaps <= radius. Records with one id
    count once.
    """
    by_file: dict[str, dict[str, int]] = {}
    for r in records:
        by_file.setdefault(r.file, {})[r.id] = r.start_line
    sizes: dict[str, int] = {}
    for lines in by_file.values():
        ids = sorted(lines, key=lines.get)
        start = 0
        for i in range(1, len(ids) + 1):
            if i == len(ids) or lines[ids[i]] - lines[ids[i - 1]] > radius:
                sizes.update(dict.fromkeys(ids[start:i], i - start))
                start = i
    return sizes


# ---------------------------------------------------------------------------
# File interfaces: warning store, label sidecar, split file.
# ---------------------------------------------------------------------------


def write_warning_store(records: list[WarningRecord]) -> bytes:
    """Warning store: one JSON object per line, id first, then the schema keys sorted."""
    lines = []
    for r in records:
        obj = {"id": r.id, **{name: getattr(r, name) for name in sorted(REPORT_FIELDS)}}
        obj["level"] = r.level.value  # keeps its sorted place
        lines.append(json.dumps(obj, ensure_ascii=False))
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def read_warning_store(data: bytes, source: str = "warning store") -> list[WarningRecord]:
    """Parse a warning store; a malformed line raises SchemaError naming `source` and the line."""
    records = []
    for n, line in enumerate(data.decode("utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{source} line {n}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        stored_id = obj.pop("id", None) if isinstance(obj, dict) else None
        record = parse_warning(obj, where + ": warning")
        if stored_id is not None and stored_id != record.id:
            raise SchemaError(f"{where}: stored id {stored_id} disagrees with content id {record.id}")
        records.append(record)
    return records


def write_label_sidecar(labels: dict[str, Label], sources: dict[str, str] | None = None) -> bytes:
    lines = [
        f"{wid}\t{label.value}\t{(sources or {}).get(wid, 'manual')}"
        for wid, label in labels.items()
    ]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def read_label_sidecar(data: bytes, source: str = "label sidecar") -> dict[str, Label]:
    labels: dict[str, Label] = {}
    for n, line in enumerate(data.decode("utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 2)
        if len(parts) < 2:
            raise SchemaError(f"{source} line {n}: expected 'id<TAB>label<TAB>source'")
        wid, token = parts[0], parts[1]
        if token not in ("tp", "fp"):
            raise SchemaError(f"{source} line {n}: label must be tp or fp, got {token!r}")
        labels[wid] = Label(token)
    return labels


def apply_labels(records: list[WarningRecord], labels: dict[str, Label]) -> list[WarningRecord]:
    return [r.with_label(labels.get(r.id)) for r in records]


def write_split_file(
    assignment: dict[str, Split], seed: int, ratios: tuple[float, float, float]
) -> bytes:
    header = f"# seed={seed} ratios={ratios[0]!r},{ratios[1]!r},{ratios[2]!r}"
    lines = [header] + [f"{wid}\t{split.value}" for wid, split in assignment.items()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_split_file(
    data: bytes, source: str = "split file"
) -> tuple[dict[str, Split], int, tuple[float, float, float]]:
    """Parse a split file; a malformed line raises SchemaError naming `source` and the line."""
    lines = data.decode("utf-8").splitlines()
    header = lines[0] if lines else ""
    try:
        if not header.startswith("# seed="):
            raise ValueError(header)
        seed_field, ratios_field = header[2:].split()[:2]
        seed = int(seed_field.split("=", 1)[1])
        ratios = tuple(float(x) for x in ratios_field.split("=", 1)[1].split(","))
    except (IndexError, ValueError):
        raise SchemaError(
            f"{source} line 1: expected '# seed=<n> ratios=<a>,<b>,<c>', got {header!r}"
        ) from None
    assignment = {}
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        wid, _, token = line.partition("\t")
        if token not in ("train", "val", "test"):
            raise SchemaError(f"{source} line {n}: split must be train/val/test, got {token!r}")
        assignment[wid] = Split(token)
    return assignment, seed, ratios
