"""Warning ingestion, identity, labels, clustering, and dataset splits.

Input reports are JSON arrays of analyzer warning objects. Each warning gets
a stable 64-bit content id so that reports, label sidecars, fuzz recordings,
and feature sidecars can be joined reproducibly across runs and machines.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import re
import sys
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InputError


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


SPLITS = tuple(Split)
_LEVELS = {level.value: level for level in Level}
# A "\ud800"-"\udfff" escape alone decodes to a lone surrogate, which UTF-8
# cannot encode; only text holding such an escape is searched for one.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


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
    canon = (f"{file}\x1f{start_line}\x1f{start_col}\x1f{end_line}\x1f{end_col}\x1f"
             f"{analyzer}\x1f{description}")
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


def package_of(record: WarningRecord) -> str:
    """Leading path segment names the package (e.g. 'aarc-0.3.2/src/x.rs')."""
    return record.file.split("/", 1)[0]


@dataclass
class Dataset:
    """Labeled records plus their split assignment; the labels come from `label_source`."""

    records: list[WarningRecord]
    split_assignment: dict[str, Split]
    label_source: str

    def split_records(self, split: Split) -> list[WarningRecord]:
        """The records assigned to `split`, of which there must be some, each
        labeled: an empty split raises InputError naming it, and an unlabeled
        record one naming the label source, the split and every such id."""
        records = [r for r in self.records if self.split_assignment.get(r.id) == split]
        if not records:
            raise InputError(f"split {split.value!r} has no records")
        unlabeled = [r.id for r in records if r.label is None]
        if unlabeled:
            raise InputError(f"{self.label_source}: unlabeled records in split {split.value!r}: "
                             f"{', '.join(unlabeled)}")
        return records


# The report fields are the record's less `id` and `label`, in order; each
# annotation gives the types a value may have and their name in an error.
_VALUE_TYPES = {"Level": ((str,), "string"), "str": ((str,), "string"),
                "str | None": ((str, type(None)), "string or null"), "int": ((int,), "integer")}
_FIELD_TABLE = tuple((f.name, *_VALUE_TYPES[f.type]) for f in fields(WarningRecord)
                     if f.name not in ("id", "label"))
REPORT_FIELDS = tuple(name for name, _, _ in _FIELD_TABLE)
_FIELD_SET = frozenset(REPORT_FIELDS)


# Every tuple of value types, in report order, that a well-typed object has.
_WELL_TYPED = frozenset(itertools.product(*(types for _, types, _ in _FIELD_TABLE)))
_REPORT_VALUES = operator.itemgetter(*REPORT_FIELDS)


def _field_error(name: str, why: str) -> InputError:
    return InputError(f".{name}: {why}")


def parse_warning(obj, escaped: bool) -> WarningRecord:
    """One report object as a record with its id assigned and no label.

    The object must carry exactly the ten schema keys. The first fault raises
    InputError whose message goes on from the object's location, which the
    caller puts before it: ": expected object" when it is none, else ".",
    the field and the fault. Faults are looked for in this order: a missing
    field, an unknown one, a mistyped one (a bool is no integer), a level
    outside `Level`, a coordinate below 1, an end before its start, and,
    when the object's text was `escaped` (see `_SURROGATE_ESCAPE`), a string
    field holding a lone surrogate. Fields are taken in report order.
    """
    if not isinstance(obj, dict):
        raise InputError(f": expected object, got {type(obj).__name__}")
    try:
        values = _REPORT_VALUES(obj)
    except KeyError:
        raise _field_error(next(name for name in REPORT_FIELDS if name not in obj),
                           "missing field") from None
    if len(obj) != len(REPORT_FIELDS):  # it holds every field and another key
        raise _field_error(next(k for k in obj if k not in _FIELD_SET), "unknown field")
    if tuple(map(type, values)) not in _WELL_TYPED:
        for (name, types, called), value in zip(_FIELD_TABLE, values):
            if type(value) not in types:
                raise _field_error(name, f"expected {called}, got {type(value).__name__}")

    (level, analyzer, op_type, description, file,
     start_line, start_col, end_line, end_col, code_snippet) = values
    member = _LEVELS.get(level)
    if member is None:
        raise _field_error("level", f"expected one of {tuple(_LEVELS)}, got {level!r}")
    if start_line < 1 or start_col < 1 or end_line < 1 or end_col < 1:
        name, value = next((name, value) for name, value in zip(REPORT_FIELDS, values)
                           if type(value) is int and value < 1)
        raise _field_error(name, f"coordinates are 1-based, got {value}")
    if start_line > end_line:
        raise _field_error("end_line", f"start_line {start_line} > end_line {end_line}")
    if start_line == end_line and start_col > end_col:
        raise _field_error("end_col", f"start_col {start_col} > end_col {end_col} on one line")
    for name, value in zip(REPORT_FIELDS, values) if escaped else ():
        if type(value) is str and _SURROGATE.search(value):
            raise _field_error(name, "holds a lone surrogate, which UTF-8 cannot encode")

    wid = warning_id(file, start_line, start_col, end_line, end_col, analyzer, description)
    return WarningRecord(wid, member, analyzer, op_type, description, file, start_line, start_col,
                         end_line, end_col, code_snippet)


def parse_report(data: bytes, source: str) -> list[WarningRecord]:
    """Parse a report file into records with ids assigned and labels unset.

    The report must be a JSON array of report objects (see `parse_warning`);
    errors name `source` and the object's array index. Input order is kept.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also too-long integers and too-deep nesting
        raise InputError(f"{source} is not well-formed JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise InputError(f"{source} must be a JSON array, got {type(doc).__name__}")
    escaped = _SURROGATE_ESCAPE.search(data) is not None
    records: list[WarningRecord] = []
    try:
        for obj in doc:
            records.append(parse_warning(obj, escaped))
    except InputError as exc:  # the faulty object is the next one
        raise InputError(f"{source}[{len(records)}]{exc}") from None
    return records


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
    ratios: tuple[float, float, float],
    seed: int,
) -> dict[str, Split]:
    """Assign every record, each of them labeled, to train/val/test,
    stratified by class.

    Each class is apportioned to splits independently by largest remainder,
    which keeps every split's positive fraction within one record of the
    global fraction. Tiny datasets are repaired so no split is empty (a move
    is chosen to keep the stratification bound). Deterministic per seed.
    """
    if len(ratios) != 3:
        raise InputError(f"expected 3 ratios, got {len(ratios)}")
    if any(r <= 0 for r in ratios):
        raise InputError(f"ratios must be > 0, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # also rejects nan
        raise InputError(f"ratios must sum to 1, got sum {sum(ratios)!r}")

    rng = np.random.default_rng(seed)
    first_label = {}  # each id with the label it first comes with
    for r in records:
        first_label.setdefault(r.id, r.label)

    buckets: dict[Split, dict[Label, list[str]]] = {s: {} for s in SPLITS}
    for cls in Label:
        ids = [wid for wid, label in first_label.items() if label is cls]
        shuffled = [ids[i] for i in rng.permutation(len(ids))]
        pos = 0
        for split, share in zip(SPLITS, _largest_remainder(len(ids), ratios)):
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
    """Move single records from the earliest largest split into empty ones.

    The donated class is the first in Label order that leaves the worst
    per-split deviation from the global positive fraction smallest, so the
    within-one-record stratification bound survives the repair.
    """
    counts = {s: (sum(map(len, buckets[s].values())), len(buckets[s][Label.TRUE_POSITIVE]))
              for s in SPLITS}  # each split's (size, positives)
    total = sum(size for size, _ in counts.values())
    if total < len(SPLITS):  # some split must stay empty
        return
    p_global = sum(pos for _, pos in counts.values()) / total

    while (empty := next((s for s in SPLITS if counts[s][0] == 0), None)) is not None:
        donor = max(SPLITS, key=lambda s: counts[s][0])

        def moved(cls: Label) -> dict[Split, tuple[int, int]]:
            """`counts` once one `cls` record moves from `donor` to `empty`."""
            tp = int(cls is Label.TRUE_POSITIVE)
            return {**counts, donor: (counts[donor][0] - 1, counts[donor][1] - tp), empty: (1, tp)}

        cls = min((c for c in Label if buckets[donor][c]),  # by the worst deviation it leaves
                  key=lambda c: max(abs(pos - p_global * size) for size, pos in moved(c).values()))
        buckets[empty][cls].append(buckets[donor][cls].pop())
        counts = moved(cls)


def cluster_sizes(records: list[WarningRecord], radius: int) -> dict[str, int]:
    """Per-warning size of its same-file proximity cluster.

    Two warnings share a cluster iff a chain of same-file warnings connects
    them with consecutive start_line gaps <= radius. Records with one id
    count once.
    """
    where = {r.id: (r.file, r.start_line) for r in records}
    ids = sorted(where, key=where.get)  # in (file, start_line) order
    breaks = [i for i, ((prev_file, prev_line), (file, line))
              in enumerate(itertools.pairwise(map(where.get, ids)), start=1)
              if file != prev_file or line - prev_line > radius]
    counts = np.diff([0, *breaks, len(ids)])  # each cluster's size, in sorted order
    return dict(zip(ids, np.repeat(counts, counts).tolist()))


# ---------------------------------------------------------------------------
# File interfaces: input files, the line-file rule, warning store, label
# sidecar, split file.
# ---------------------------------------------------------------------------


def read_input(path: Path | str) -> bytes:
    """An input file's bytes, which must be UTF-8 text: the one place a file
    is read. A file that is missing, unreadable (such as a directory) or not
    UTF-8 raises InputError naming it, and the line of a bad byte."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise InputError(f"input file does not exist: {path}") from None
    except OSError as exc:
        raise InputError(f"input file cannot be read: {path}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL byte in the path
        raise InputError(f"input file cannot be read: {str(path)!r}: {exc}") from None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path} line {line}: not UTF-8: {exc.reason}") from None
    return data


def text_lines(data: bytes) -> list[tuple[int, str]]:
    r"""(1-based number, text) of each non-blank line of a UTF-8 line file. A
    line ends at "\n"; a "\r" just before the "\n" belongs to the ending."""
    text = data.decode("utf-8").replace("\r\n", "\n")
    return [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]


def text_file(lines) -> bytes:
    r"""The line file holding `lines`, each ended by "\n"."""
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


class Table(dict):
    """A table read from the file `source`, by key: a key may be stated again
    only with the same value (`state`), and looking up a key it lacks raises
    InputError as `<source>: no <name> <key>`."""

    def __init__(self, source: str, name: str):
        self.source, self.name = source, name

    def state(self, rows) -> Table:
        """The table, once each (line number, key, value) of `rows` has set self[key] = value
        in turn: a key stated before with another value raises InputError at its line."""
        for n, key, value in rows:
            if key in self and self[key] != value:  # membership first: nan != nan
                raise InputError(f"{self.source} line {n}: {key} was stated before with another value")
            self[key] = value
        return self

    def __missing__(self, key: str):
        raise InputError(f"{self.source}: no {self.name} {key}")


def id_lines(lines: list[tuple[int, str]], source: str, layout: str, required: int, value):
    r"""(number, id, `value(fields)`) of each `<id>\t<fields>` line of `lines`, split into at most
    the fields `layout` names. Too few fields, an id other than 16 lowercase hex digits or a
    ValueError from `value` raises InputError naming `source` and the line."""
    tabs = layout.count("<TAB>")
    for n, line in lines:
        fields = line.split("\t", tabs)
        try:
            if len(fields) < required:
                raise ValueError(f"expected {layout!r}")
            if len(fields[0]) != 16 or fields[0].encode().translate(None, b"0123456789abcdef"):
                raise ValueError(f"warning id must be 16 lowercase hex digits, got {fields[0]!r}")
            yield n, fields[0], value(fields)
        except ValueError as exc:
            raise InputError(f"{source} line {n}: {exc}") from None


def _member(cls, token: str, rule: str):
    try:
        return cls(token)
    except ValueError:
        raise ValueError(f"{rule}, got {token!r}") from None


# The value types an int or float field may hold: a bool is neither.
_NUMBER_TYPES = {"int": (int,), "float": (int, float)}


def check_fields(config, intervals: dict[str, str]) -> None:
    """Raise ValueError naming the first int or float field of dataclass `config`
    whose value has another type, is not finite as a float or lies outside `intervals[name]`."""
    for f in fields(config):
        if f.type in _NUMBER_TYPES:
            value = getattr(config, f.name)
            if type(value) not in _NUMBER_TYPES[f.type]:
                raise ValueError(f"{f.name}: expected {f.type}, got {value!r}")
            if f.type == "float" and not abs(value) <= sys.float_info.max:  # also nan
                raise ValueError(f"{f.name} must be finite, got {value}")
            interval = intervals.get(f.name, "[-inf,inf]")
            low, high = map(float, interval[1:-1].split(","))
            if (not low <= value <= high or value == low and interval[0] == "("
                    or value == high and interval[-1] == ")"):
                raise ValueError(f"{f.name} must be in {interval}, got {value}")


def number_array(values) -> np.ndarray:
    """JSON list `values` as a float64 array; a value that is not a number (a
    string or a boolean, say) raises ValueError naming the first one."""
    items = values if type(values) is list else [values]
    if not set(map(type, items)) <= {int, float}:
        bad = next(v for v in items if type(v) not in (int, float))
        raise ValueError(f"expected a list of numbers, got {bad!r}")
    return np.array(values, dtype=np.float64)


def write_warning_store(records: list[WarningRecord]) -> bytes:
    """Warning store: one JSON object per line, id first, then the schema keys sorted."""
    lines = []
    for r in records:
        obj = {"id": r.id, **{name: getattr(r, name) for name in sorted(REPORT_FIELDS)}}
        obj["level"] = r.level.value  # keeps its sorted place
        lines.append(json.dumps(obj, ensure_ascii=False))
    return text_file(lines)


def read_warning_store(data: bytes, source: str) -> list[WarningRecord]:
    """Parse a warning store; a malformed line raises InputError naming `source` and the line."""
    records, escaped = [], _SURROGATE_ESCAPE.search(data) is not None
    for n, line in text_lines(data):
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{source} line {n}: {exc}") from exc
        stored_id = obj.pop("id", None) if isinstance(obj, dict) else None
        try:
            record = parse_warning(obj, escaped)
        except InputError as exc:
            raise InputError(f"{source} line {n}: warning{exc}") from None
        if stored_id is not None and stored_id != record.id:
            raise InputError(f"{source} line {n}: stored id {stored_id} disagrees with "
                             f"content id {record.id}")
        records.append(record)
    return records


def write_label_sidecar(labels: dict[str, Label]) -> bytes:
    return text_file(f"{wid}\t{label.value}\tmanual" for wid, label in labels.items())


def read_label_sidecar(data: bytes, source: str) -> Table:
    return Table(source, "label for warning").state(id_lines(
        text_lines(data), source, "id<TAB>label<TAB>source", 2,
        lambda f: _member(Label, f[1], "label must be tp or fp")))


def apply_labels(records: list[WarningRecord], labels: dict[str, Label]) -> None:
    """Set each record's label from `labels`, None where it has none, in place."""
    for r in records:
        r.label = labels.get(r.id)


def write_split_file(
    assignment: dict[str, Split], seed: int, ratios: tuple[float, float, float]
) -> bytes:
    header = f"# seed={seed} ratios={ratios[0]!r},{ratios[1]!r},{ratios[2]!r}"
    return text_file([header] + [f"{wid}\t{split.value}" for wid, split in assignment.items()])


def read_split_file(data: bytes, source: str) -> Table:
    """Parse a split file; a malformed line raises InputError naming `source` and the line.
    The header must take `write_split_file`'s form, each ratio one `float` reads as finite."""
    lines = text_lines(data)
    n, header = lines[0] if lines else (1, "")
    ratios = re.fullmatch(r"# seed=[0-9]+ ratios=([^,\s]+),([^,\s]+),([^,\s]+)", header)
    try:
        if not (ratios and all(abs(float(r)) <= sys.float_info.max for r in ratios.groups())):
            raise ValueError  # also nan
    except ValueError:
        raise InputError(f"{source} line {n}: expected '# seed=<n> ratios=<a>,<b>,<c>', "
                         f"got {header!r}") from None
    return Table(source, "split for warning").state(id_lines(
        lines[1:], source, "id<TAB>split", 2,
        lambda f: _member(Split, f[1], "split must be train/val/test")))
