"""Feature extraction and normalization for analyzer warnings.

Every warning maps to a fixed-order vector described by a versioned manifest
of 87 named slots in three families. `extract_features` writes the vectors
of a whole report into one (N, 87) matrix: code-level slots come from each
warning's snippet, tokenized once, by the documented lexical rules below,
each written beside the slot it fills; the rest come from package metadata,
cluster sizes and the analyzer's fields. A feature sidecar can instead
carry exact values produced out-of-band (e.g. by a compiler plugin).
Vectors are checked against the manifest where they enter the program, by
`read_feature_sidecar` and `validate_vector`.

Lexical rules are approximations by design: they keep the engine testable on
snippets alone while the sidecar path carries exact values when available.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (DigestMismatch, EmptyTrainSet, FeatureValidationError, SchemaError,
                     SnippetTooLarge)
from .warnings import (BugPattern, Level, WarningRecord, classify_bug_pattern, state_once,
                       text_file, text_lines)

MANIFEST_VERSION = 1
EXPECTED_FEATURE_COUNT = 87
MAX_SNIPPET_BYTES = 1 << 20


class Family(Enum):
    MIR_SEMANTIC = "mir_semantic"
    STRUCTURAL = "structural"
    ANALYSIS_SPECIFIC = "analysis_specific"


class Kind(Enum):
    COUNT = "count"
    RATIO = "ratio"
    FLAG = "flag"
    ONE_HOT = "categorical-one-hot"
    LOG_SCALED = "log-scaled"


@dataclass(frozen=True)
class FeatureEntry:
    name: str
    family: Family
    kind: Kind


@dataclass(frozen=True)
class FeatureManifest:
    version: int
    entries: tuple[FeatureEntry, ...]
    digest: str

    def __len__(self) -> int:
        return len(self.entries)

    def index_of(self, name: str) -> int:
        for i, e in enumerate(self.entries):
            if e.name == name:
                return i
        raise KeyError(name)


@dataclass
class FeatureVector:
    warning_id: str
    values: np.ndarray


@dataclass
class PackageMetadata:
    download_count: int
    unsafe_prevalence: float
    total_loc: int

    def __post_init__(self):
        if self.download_count < 0:
            raise ValueError(f"download_count must be >= 0, got {self.download_count}")
        if not 0.0 <= self.unsafe_prevalence <= 1.0:
            raise ValueError(f"unsafe_prevalence must be in [0,1], got {self.unsafe_prevalence}")
        # Above 2**53, float64 no longer holds every integer exactly.
        for key, value in (("downloads", self.download_count), ("loc", self.total_loc)):
            if abs(value) > 2**53:
                raise ValueError(f"{key} does not fit a float exactly: |{key}| must be <= 2**53")


@dataclass
class NormalizerStats:
    mean: np.ndarray
    std: np.ndarray


_CHECKERS = ("unsafe_dataflow", "send_sync_variance", "unsafe_destructor", "other")
_LEVELS = tuple(level.value.lower() for level in Level)
_OP_TYPES = (
    "read_flow", "copy_flow", "write_flow", "vec_from_raw", "vec_set_len", "transmute",
    "ptr_as_ref", "slice_unchecked", "slice_from_raw", "uninitialized", "other", "none",
)
_BYPASS = tuple(p.value for p in BugPattern)

# Count features that carry a ln(1+x) companion slot.
_MIR_PAIRED_COUNTS = (
    "generic_param_count", "generic_nesting_depth", "lifetime_param_count",
    "borrow_nesting_depth", "mut_borrow_count", "smart_pointer_count", "cyclomatic_complexity",
    "loop_nesting_depth", "panic_path_count", "bypass_to_danger_distance", "unsafe_block_count",
    "raw_pointer_count", "transmute_count", "closure_count", "match_arm_count",
    "early_return_count", "fn_item_count", "block_depth_max",
)
_MIR_FLAGS = (
    "trait_bound_flag", "where_clause_flag", "raw_deref_flag", "unsafe_fn_flag",
    "static_mut_flag", "unsafe_trait_impl_flag", "union_field_flag", "drop_impl_flag", "ffi_flag",
)
_STRUCTURAL_PAIRED_COUNTS = ("lines_of_code", "parameter_count", "snippet_bytes", "package_loc")


def _manifest_entries() -> tuple[FeatureEntry, ...]:
    entries: list[FeatureEntry] = []

    def add(name, family, kind):
        entries.append(FeatureEntry(name, family, kind))

    for name in _MIR_PAIRED_COUNTS:
        add(name, Family.MIR_SEMANTIC, Kind.COUNT)
        add(name + "_log", Family.MIR_SEMANTIC, Kind.LOG_SCALED)
    for name in _MIR_FLAGS:
        add(name, Family.MIR_SEMANTIC, Kind.FLAG)
    add("borrow_ratio", Family.MIR_SEMANTIC, Kind.RATIO)
    for cat in _BYPASS:
        add(f"bypass_{cat}", Family.MIR_SEMANTIC, Kind.ONE_HOT)

    add("download_count_log", Family.STRUCTURAL, Kind.LOG_SCALED)
    add("unsafe_prevalence", Family.STRUCTURAL, Kind.RATIO)
    add("public_api_flag", Family.STRUCTURAL, Kind.FLAG)
    for name in _STRUCTURAL_PAIRED_COUNTS:
        add(name, Family.STRUCTURAL, Kind.COUNT)
        add(name + "_log", Family.STRUCTURAL, Kind.LOG_SCALED)
    add("comment_density", Family.STRUCTURAL, Kind.RATIO)
    add("metadata_imputed_flag", Family.STRUCTURAL, Kind.FLAG)
    add("snippet_missing_flag", Family.STRUCTURAL, Kind.FLAG)

    for c in _CHECKERS:
        add(f"checker_{c}", Family.ANALYSIS_SPECIFIC, Kind.ONE_HOT)
    for lv in _LEVELS:
        add(f"level_{lv}", Family.ANALYSIS_SPECIFIC, Kind.ONE_HOT)
    for op in _OP_TYPES:
        add(f"op_{op}", Family.ANALYSIS_SPECIFIC, Kind.ONE_HOT)
    add("op_type_present_flag", Family.ANALYSIS_SPECIFIC, Kind.FLAG)
    add("cluster_size", Family.ANALYSIS_SPECIFIC, Kind.COUNT)
    add("cluster_size_log", Family.ANALYSIS_SPECIFIC, Kind.LOG_SCALED)
    add("clustered_flag", Family.ANALYSIS_SPECIFIC, Kind.FLAG)
    return tuple(entries)


def _digest(version: int, entries: tuple[FeatureEntry, ...]) -> str:
    blob = f"v{version}\n" + "\n".join(f"{e.name}|{e.family.value}|{e.kind.value}" for e in entries)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def build_manifest() -> FeatureManifest:
    entries = _manifest_entries()
    names = [e.name for e in entries]
    assert len(names) == len(set(names)), "manifest names must be unique"
    assert len(entries) == EXPECTED_FEATURE_COUNT, f"manifest has {len(entries)} entries"
    return FeatureManifest(MANIFEST_VERSION, entries, _digest(MANIFEST_VERSION, entries))


MANIFEST = build_manifest()
# Boolean column masks by slot kind.
_BINARY_MASK = np.array([e.kind in (Kind.FLAG, Kind.ONE_HOT) for e in MANIFEST.entries])
_RATIO_MASK = np.array([e.kind is Kind.RATIO for e in MANIFEST.entries])
_ONE_HOT_MASK = np.array([e.kind is Kind.ONE_HOT for e in MANIFEST.entries])
_MAGNITUDE_MASK = np.array([e.kind in (Kind.COUNT, Kind.LOG_SCALED) for e in MANIFEST.entries])


def manifest_export() -> str:
    """Human-readable listing of the manifest for audit."""
    lines = [f"# manifest version={MANIFEST.version} digest={MANIFEST.digest}"]
    for i, e in enumerate(MANIFEST.entries):
        lines.append(f"{i}\t{e.name}\t{e.family.value}\t{e.kind.value}")
    return "\n".join(lines) + "\n"


def validate_vector(matrix: np.ndarray, where) -> np.ndarray:
    """Check an (N, len(MANIFEST)) matrix of raw feature rows; returns it.

    Every value must be finite, flags and one-hots 0 or 1, ratios in [0, 1],
    counts and log-scaled values at most 2**53 in magnitude (above it float64
    no longer holds every integer). The first bad row raises
    FeatureValidationError, named by `where(row)`, with its first bad slot in
    manifest order.
    """
    checks = (
        (~np.isfinite(matrix), "non-finite value in slot {name}"),
        (_BINARY_MASK & (matrix != 0.0) & (matrix != 1.0),
         "{name}: flag must be 0 or 1, got {value}"),
        (_RATIO_MASK & ((matrix < 0.0) | (matrix > 1.0)),
         "{name}: ratio must be in [0,1], got {value}"),
        (_MAGNITUDE_MASK & (np.abs(matrix) > 2**53),
         "{name}: magnitude must be <= 2**53, got {value}"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        row, i = divmod(int(bad.argmax()), len(MANIFEST))
        problem = next(text for mask, text in checks if mask[row, i])
        raise FeatureValidationError(f"{where(row)}: " + problem.format(
            name=MANIFEST.entries[i].name, value=float(matrix[row, i])))
    return matrix


# ---------------------------------------------------------------------------
# Lexical rules. Each snippet is tokenized once: one stream of words, braces
# and ';' serves the word counts, the keyword flags and the loop/brace state
# machine; the '<>' and '()' scans and the line list cover the rest, and a
# keyword regex runs only when its keywords are among the words.
# ---------------------------------------------------------------------------

# A word is `[A-Za-z_]\w*` with Unicode `\w`: it starts at the first ASCII
# letter or underscore of a run of word characters, so '9unsafe' and
# 'éunsafe' hold the word 'unsafe' even though `\bunsafe` matches neither.
# No line break is a word character, so no word spans two lines.
_TOKEN = re.compile(r"[A-Za-z_]\w*|[{};]")
_SMART_POINTERS = frozenset({
    "Box", "Rc", "Arc", "RefCell", "Cell", "Mutex", "RwLock", "Weak", "UnsafeCell",
    "NonNull", "Cow",
})
# Bypass tokens count as substrings of a line: 'forgetful' holds 'forget'.
_BYPASS_TOKEN = re.compile("set_len|from_raw|from_raw_parts|transmute|forget|as_ptr|as_mut_ptr|"
                           "uninit|uninitialized|assume_init|MaybeUninit")
# Text that any panic word contains.
_PANIC_TEXT = re.compile("panic|unwrap|expect|assert")
_LOOP_WORDS = frozenset({"while", "loop", "for"})
_ANGLE = re.compile(r"[<>]")
_PAREN = re.compile(r"[()]")
_NESTING = re.compile(r"[<(\[>)\],]")
_LIFETIME = re.compile(r"'[A-Za-z_]\w*")
_MUT_BORROW = re.compile(r"&\s*mut\b")
_RAW_POINTER = re.compile(r"\*\s*(?:const|mut)\b")
# A pattern that starts with literal text lets the regex engine jump from one
# occurrence of that text to the next, so runs are written `&&*`, not `&+`,
# and each `\b<keyword>...` rule as `<keyword>(?<=\b<keyword>)...`.
_AMP_RUN = re.compile(r"&&*")
_PIPE_RUN = re.compile(r"\|\|*")
_UNSAFE_BLOCK = re.compile(r"unsafe(?<=\bunsafe)\s*\{")
_WHERE = re.compile(r"where(?<=\bwhere)\b")
_UNSAFE_FN = re.compile(r"unsafe(?<=\bunsafe)\s+fn\b")
_STATIC_MUT = re.compile(r"static(?<=\bstatic)\s+mut\b")
_UNSAFE_IMPL = re.compile(r"unsafe(?<=\bunsafe)\s+impl\b")
_DROP_IMPL = re.compile(r"impl(?<=\bimpl)\b[^{;]*\bDrop\b")
_FN_HEAD = re.compile(r"fn(?<=\bfn)\s+[A-Za-z_]\w*\s*(?:<[^>]*>)?\s*\(")


def _is_panic_word(word: str) -> bool:
    # The panic-path rule: panic/unwrap/expect plus the assert family.
    return word in ("panic", "unwrap", "expect") or word.startswith("assert")


def _top_items(text: str) -> list[str]:
    """`text` split at its depth-0 commas, items stripped and empty ones
    dropped; '<', '(' and '[' open a level, '>', ')' and ']' close one (never
    below 0)."""
    items, depth, start = [], 0, 0
    for m in _NESTING.finditer(text):
        ch = m.group()
        if ch == ",":
            if not depth:
                items.append(text[start:m.start()])
                start = m.end()
        elif ch in "<([":
            depth += 1
        elif depth:
            depth -= 1
    items.append(text[start:])
    return [it.strip() for it in items if it.strip()]


def _generic_scan(snippet: str) -> tuple[int, int, int]:
    """(generic_param_count, generic_nesting_depth, trait_bound_flag).

    A '<' right after a word character, or inside a list, opens a generic
    list; '>' closes one unless it follows '-' or '=' (an arrow). The first
    top-level list is the declaration's parameter list: parameters are its
    depth-0 comma items, lifetimes excluded; a ':' in any item sets the
    trait-bound flag.
    """
    depth = max_depth = 0
    start = first = None
    for m in _ANGLE.finditer(snippet):
        i = m.start()
        prev = snippet[i - 1] if i else ""
        if m.group() == "<":
            if depth or prev.isalnum() or prev == "_":
                depth += 1
                max_depth = max(max_depth, depth)
                if start is None:
                    start = i + 1
        elif depth and prev not in "-=":
            depth -= 1
            if not depth and first is None:
                first = snippet[start:i]
    if first is None:
        return 0, max_depth, 0
    items = _top_items(first)
    params = sum(not it.startswith("'") for it in items)
    return params, max_depth, int(any(":" in it for it in items))


def _parameter_count(snippet: str) -> int:
    """Comma items of the first `fn name(...)` parameter list; 0 if there is
    none or it never closes."""
    head = _FN_HEAD.search(snippet)
    if head:
        depth = 1
        for m in _PAREN.finditer(snippet, head.end()):
            depth += 1 if m.group() == "(" else -1
            if not depth:
                return len(_top_items(snippet[head.end():m.start()]))
    return 0


def _loops_and_blocks(tokens: list[str]) -> tuple[int, int, int]:
    """(loop keywords, loop_nesting_depth, block_depth_max) by brace tracking.

    'while', 'loop' and a 'for' that does not follow a word each claim the
    next '{' as a loop body; a word before 'for' makes it an
    `impl Trait for Type` clause. '}' never takes the depth below 0.
    """
    loops = nest = depth = max_depth = pending = 0
    open_loops: list[int] = []
    after_word = False
    for tok in tokens:
        if tok == "{":
            if pending:
                pending -= 1
                open_loops.append(depth)
                nest = max(nest, len(open_loops))
            depth += 1
            max_depth = max(max_depth, depth)
        elif tok == "}":
            depth = max(0, depth - 1)
            if open_loops and open_loops[-1] == depth:
                open_loops.pop()
        elif tok in _LOOP_WORDS and not (after_word and tok == "for"):
            loops += 1
            pending += 1
        after_word = tok not in ("{", "}", ";")
    return loops, nest, max_depth


# The slots `_snippet_row` fills, in its order.
_SNIPPET_SLOTS = (*_MIR_PAIRED_COUNTS, *_MIR_FLAGS, "borrow_ratio", "public_api_flag",
                  "lines_of_code", "parameter_count", "snippet_bytes", "comment_density",
                  "snippet_missing_flag")


def _snippet_row(snippet: str, nbytes: int) -> tuple[float, ...]:
    """The `_SNIPPET_SLOTS` of a non-blank snippet of `nbytes` UTF-8 bytes."""
    tokens = _TOKEN.findall(snippet)
    words = Counter(tokens)
    n_words = len(tokens) - words["{"] - words["}"] - words[";"]
    panics = words["panic"] + words["unwrap"] + words["expect"]
    if "assert" in snippet:
        panics += sum(n for w, n in words.items() if w.startswith("assert"))
    loops, loop_nest, block_depth = _loops_and_blocks(tokens)
    generic_params, generic_depth, bound = _generic_scan(snippet) if "<" in snippet else (0, 0, 0)
    lines = snippet.splitlines()
    code_lines = [ln for ln in lines if ln.strip()]
    comment_lines = (sum(1 for ln in code_lines if "//" in ln or "/*" in ln)
                     if "//" in snippet or "/*" in snippet else 0)
    amps = snippet.count("&")
    raw_pointers = (len(_RAW_POINTER.findall(snippet))
                    if "*" in snippet and ("mut" in words or "const" in words) else 0)
    distance = 0
    if panics and _BYPASS_TOKEN.search(snippet):
        # Lines between the first line holding a bypass token and the first
        # line holding a panic word.
        bypass_at = next(i for i, ln in enumerate(lines) if _BYPASS_TOKEN.search(ln))
        panic_at = next(i for i, ln in enumerate(lines) if _PANIC_TEXT.search(ln)
                        and any(_is_panic_word(w) for w in _TOKEN.findall(ln)))
        distance = abs(bypass_at - panic_at)
    return (
        generic_params,  # generic_param_count
        generic_depth,  # generic_nesting_depth
        len(_LIFETIME.findall(snippet)) if "'" in snippet else 0,  # lifetime_param_count
        max(map(len, _AMP_RUN.findall(snippet))) if amps else 0,  # borrow_nesting_depth: '&' run
        len(_MUT_BORROW.findall(snippet)) if amps and "mut" in words else 0,  # mut_borrow_count
        sum(words[w] for w in _SMART_POINTERS.intersection(words)),  # smart_pointer_count
        # cyclomatic_complexity: 1 + branch keywords + loop keywords + short-circuit operators
        1 + words["if"] + words["match"] + loops + snippet.count("&&") + snippet.count("||"),
        loop_nest,  # loop_nesting_depth
        panics,  # panic_path_count
        distance,  # bypass_to_danger_distance
        len(_UNSAFE_BLOCK.findall(snippet)) if "unsafe" in words and "{" in words else 0,
        raw_pointers,  # raw_pointer_count
        words["transmute"],  # transmute_count
        _PIPE_RUN.findall(snippet).count("|") // 2 if "|" in snippet else 0,  # closure_count
        snippet.count("=>"),  # match_arm_count
        words["return"] + snippet.count("?"),  # early_return_count
        words["fn"],  # fn_item_count
        block_depth,  # block_depth_max
        bound,  # trait_bound_flag
        "where" in words and _WHERE.search(snippet) is not None,  # where_clause_flag
        raw_pointers > 0,  # raw_deref_flag
        "unsafe" in words and "fn" in words and _UNSAFE_FN.search(snippet) is not None,
        "static" in words and "mut" in words and _STATIC_MUT.search(snippet) is not None,
        "unsafe" in words and "impl" in words and _UNSAFE_IMPL.search(snippet) is not None,
        "union" in words,  # union_field_flag
        "impl" in words and "Drop" in words and _DROP_IMPL.search(snippet) is not None,
        "extern" in words,  # ffi_flag
        min(1.0, amps / n_words) if n_words else 0.0,  # borrow_ratio: '&' per word
        "pub" in words,  # public_api_flag
        len(code_lines),  # lines_of_code: non-blank lines
        _parameter_count(snippet) if "fn" in words else 0,  # parameter_count
        nbytes,  # snippet_bytes
        comment_lines / len(code_lines) if code_lines else 0.0,  # comment_density
        False,  # snippet_missing_flag
    )


def _checker_slot(analyzer: str) -> str:
    a = analyzer.lower()
    if "dataflow" in a:
        return "unsafe_dataflow"
    if "sendsync" in a or "send_sync" in a:
        return "send_sync_variance"
    if "destructor" in a:
        return "unsafe_destructor"
    return "other"


def _op_slot(op_type: str | None) -> str:
    if op_type is None or not op_type.strip():
        return "none"
    norm = re.sub(r"(?<!^)(?=[A-Z])", "_", op_type.strip()).lower().replace(" ", "_")
    return norm if norm in _OP_TYPES else "other"


def _columns(names) -> np.ndarray:
    return np.array([MANIFEST.index_of(name) for name in names], dtype=np.intp)


_SNIPPET_COLUMNS = _columns(_SNIPPET_SLOTS)
# A blank snippet imputes its counts and flags as 0 and its ratios as 0.5.
_BLANK_ROW = tuple(0.5 if _RATIO_MASK[c] else float(name == "snippet_missing_flag")
                   for name, c in zip(_SNIPPET_SLOTS, _SNIPPET_COLUMNS))
_PACKAGE_COLUMNS = _columns(("download_count_log", "unsafe_prevalence", "package_loc",
                             "metadata_imputed_flag"))
# A package without metadata: the same imputation, and the imputed flag set.
_IMPUTED_PACKAGE = (0.0, 0.5, 0.0, 1.0)
_CLUSTER_SIZE, _CLUSTERED, _OP_PRESENT = _columns(("cluster_size", "clustered_flag",
                                                   "op_type_present_flag"))
_BYPASS_COLUMNS = _columns(f"bypass_{b}" for b in _BYPASS)
_CHECKER_COLUMNS = _columns(f"checker_{c}" for c in _CHECKERS)
_LEVEL_COLUMNS = _columns(f"level_{lv}" for lv in _LEVELS)
_OP_COLUMNS = _columns(f"op_{op}" for op in _OP_TYPES)
_PAIRED = _MIR_PAIRED_COUNTS + _STRUCTURAL_PAIRED_COUNTS + ("cluster_size",)
_PAIRED_COLUMNS = _columns(_PAIRED)
_LOG_COLUMNS = _columns(name + "_log" for name in _PAIRED)


def extract_features(records: list[WarningRecord], metadata: dict[str, PackageMetadata],
                     sizes: dict[str, int], source: str = "warnings") -> np.ndarray:
    """Raw feature rows of `records`, in order: shape (len(records), len(MANIFEST)).

    Snippet slots follow the lexical rules above; a blank snippet imputes
    them (0 for counts and flags, 0.5 for ratios) and sets
    snippet_missing_flag. Package slots come from `metadata[package_of(r)]`;
    a package without metadata imputes them the same way and sets
    metadata_imputed_flag. cluster_size is `sizes[r.id]`. A snippet above
    MAX_SNIPPET_BYTES of UTF-8 raises SnippetTooLarge naming `source` and
    the warning.
    """
    n = len(records)
    snippet_rows = []
    for r in records:
        snippet = r.code_snippet
        nbytes = len(snippet.encode("utf-8"))
        if nbytes > MAX_SNIPPET_BYTES:
            raise SnippetTooLarge(
                f"{source}: warning {r.id}: snippet is {nbytes} bytes (cap 1 MiB)")
        blank = not snippet or snippet.isspace()
        snippet_rows.append(_BLANK_ROW if blank else _snippet_row(snippet, nbytes))
    packages = {name: (math.log10(1 + m.download_count), m.unsafe_prevalence, m.total_loc, 0.0)
                for name, m in metadata.items()}

    matrix = np.zeros((n, len(MANIFEST)))
    matrix[:, _SNIPPET_COLUMNS] = np.array(snippet_rows, dtype=np.float64).reshape(
        n, len(_SNIPPET_COLUMNS))
    matrix[:, _PACKAGE_COLUMNS] = np.array(
        [packages.get(package_of(r), _IMPUTED_PACKAGE) for r in records], dtype=np.float64
    ).reshape(n, len(_PACKAGE_COLUMNS))
    matrix[:, _CLUSTER_SIZE] = [sizes[r.id] for r in records]
    matrix[:, _CLUSTERED] = matrix[:, _CLUSTER_SIZE] > 1
    matrix[:, _OP_PRESENT] = [r.op_type is not None for r in records]
    rows = np.arange(n)
    for columns, picks in (
        (_BYPASS_COLUMNS, [_BYPASS.index(classify_bug_pattern(r).value) for r in records]),
        (_CHECKER_COLUMNS, [_CHECKERS.index(_checker_slot(r.analyzer)) for r in records]),
        (_LEVEL_COLUMNS, [_LEVELS.index(r.level.value.lower()) for r in records]),
        (_OP_COLUMNS, [_OP_TYPES.index(_op_slot(r.op_type)) for r in records]),
    ):
        matrix[rows, columns[np.array(picks, dtype=np.intp)]] = 1.0
    # ln(1 + x) companions, by math.log1p once per distinct count, so each
    # equals the scalar rule bit for bit whatever numpy's own log1p does.
    counts, inverse = np.unique(matrix[:, _PAIRED_COLUMNS], return_inverse=True)
    logs = np.array([math.log1p(max(0.0, c)) for c in counts.tolist()], dtype=np.float64)
    matrix[:, _LOG_COLUMNS] = logs[inverse].reshape(n, len(_LOG_COLUMNS))
    return matrix


def fit_normalizer(matrix: np.ndarray) -> NormalizerStats:
    """Per-column mean and sample standard deviation (ddof=1) of the raw Train rows."""
    if len(matrix) < 2:
        raise EmptyTrainSet(f"need >= 2 training vectors, got {len(matrix)}")
    return NormalizerStats(
        mean=matrix.mean(axis=0),
        std=matrix.std(axis=0, ddof=1),
    )


def normalize(matrix: np.ndarray, stats: NormalizerStats) -> np.ndarray:
    """z-score each column of an (N, len(MANIFEST)) matrix of raw rows;
    zero-std columns map to 0; one-hots pass through."""
    scaled = np.divide(matrix - stats.mean, stats.std, out=np.zeros_like(matrix),
                       where=stats.std > 0)
    return np.where(_ONE_HOT_MASK, matrix, scaled)


# ---------------------------------------------------------------------------
# File interfaces: feature sidecar and package metadata.
# ---------------------------------------------------------------------------


def write_feature_sidecar(vectors: list[FeatureVector]) -> bytes:
    return text_file(json.dumps({"warning_id": v.warning_id, "manifest_digest": MANIFEST.digest,
                                 "values": v.values.tolist()}, sort_keys=True) for v in vectors)


def read_feature_sidecar(data: bytes, source: str = "feature sidecar") -> dict[str, FeatureVector]:
    """Parse a sidecar and check its vectors with `validate_vector`; a
    malformed or invalid line, one whose digest is not the manifest's, or
    one giving an id another vector, raises naming `source` and the line."""
    vectors: dict[str, FeatureVector] = {}
    rows, lines = [], text_lines(data)
    for n, line in lines:
        where = f"{source} line {n}"
        try:
            obj = json.loads(line)
            wid, digest = obj["warning_id"], obj["manifest_digest"]
            if not isinstance(wid, str):
                raise TypeError(f"warning_id must be a string, got {type(wid).__name__}")
            values = np.array(obj["values"], dtype=np.float64)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise FeatureValidationError(f"{where}: {type(exc).__name__}: {exc}") from exc
        if digest != MANIFEST.digest:
            raise DigestMismatch(
                f"{where}: vector digest {digest} != manifest digest {MANIFEST.digest}")
        if values.shape != (len(MANIFEST),):
            raise FeatureValidationError(
                f"{where}: vector has shape {values.shape}, the manifest has {len(MANIFEST)} slots")
        state_once(vectors, wid, FeatureVector(wid, values), where, FeatureValidationError,
                   same=lambda a, b: np.array_equal(a.values, b.values, equal_nan=True))
        rows.append(values)
    validate_vector(np.array(rows).reshape(len(rows), len(MANIFEST)),
                    lambda i: f"{source} line {lines[i][0]}")
    return vectors


def read_package_metadata(data: bytes, source: str = "package metadata") -> dict[str, PackageMetadata]:
    """Package metadata file: JSON map package -> {downloads, unsafe_prevalence, loc}.

    A malformed file raises SchemaError naming `source` and the line of a
    JSON syntax error, or the package whose entry is bad.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    out = {}
    for name, m in doc.items():
        try:
            out[name] = PackageMetadata(int(m.get("downloads", 0)),
                                        float(m.get("unsafe_prevalence", 0.0)), int(m.get("loc", 0)))
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{source}: package {name!r}: {exc} in {m!r}") from None
    return out


def package_of(record: WarningRecord) -> str:
    """Leading path segment names the package (e.g. 'aarc-0.3.2/src/x.rs')."""
    return record.file.split("/", 1)[0]
