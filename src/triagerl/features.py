"""Feature extraction and normalization for analyzer warnings.

Every warning maps to a fixed-order vector described by a versioned manifest
of 87 named slots in three families. `extract_features` derives code-level
features from the warning's snippet by documented lexical rules; a feature
sidecar can instead carry exact values produced out-of-band (e.g. by a
compiler plugin). Vectors are checked against the manifest where they enter
the program: `read_feature_sidecar` and `validate_vector`.

Lexical rules are approximations by design: they keep the engine testable on
snippets alone while the sidecar path carries exact values when available.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DigestMismatch,
    EmptyTrainSet,
    FeatureValidationError,
    SchemaError,
    SnippetTooLarge,
)
from .warnings import BugPattern, Level, WarningRecord, classify_bug_pattern

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

    # Boolean column masks by kind, computed once per manifest.
    @cached_property
    def binary_mask(self) -> np.ndarray:  # flags and one-hots: 0 or 1
        return np.array([e.kind in (Kind.FLAG, Kind.ONE_HOT) for e in self.entries])

    @cached_property
    def ratio_mask(self) -> np.ndarray:  # in [0, 1]
        return np.array([e.kind is Kind.RATIO for e in self.entries])

    @cached_property
    def one_hot_mask(self) -> np.ndarray:  # normalization passes these through
        return np.array([e.kind is Kind.ONE_HOT for e in self.entries])


@dataclass
class FeatureVector:
    warning_id: str
    values: np.ndarray
    manifest_digest: str


@dataclass
class PackageMetadata:
    name: str
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
    fitted_on: str
    manifest_digest: str


_CHECKERS = ("unsafe_dataflow", "send_sync_variance", "unsafe_destructor", "other")
_LEVELS = ("error", "warning", "info")
_OP_TYPES = (
    "read_flow",
    "copy_flow",
    "write_flow",
    "vec_from_raw",
    "vec_set_len",
    "transmute",
    "ptr_as_ref",
    "slice_unchecked",
    "slice_from_raw",
    "uninitialized",
    "other",
    "none",
)
_BYPASS = tuple(p.value for p in BugPattern)

# Count features that carry a ln(1+x) companion slot.
_MIR_PAIRED_COUNTS = (
    "generic_param_count",
    "generic_nesting_depth",
    "lifetime_param_count",
    "borrow_nesting_depth",
    "mut_borrow_count",
    "smart_pointer_count",
    "cyclomatic_complexity",
    "loop_nesting_depth",
    "panic_path_count",
    "bypass_to_danger_distance",
    "unsafe_block_count",
    "raw_pointer_count",
    "transmute_count",
    "closure_count",
    "match_arm_count",
    "early_return_count",
    "fn_item_count",
    "block_depth_max",
)
_MIR_FLAGS = (
    "trait_bound_flag",
    "where_clause_flag",
    "raw_deref_flag",
    "unsafe_fn_flag",
    "static_mut_flag",
    "unsafe_trait_impl_flag",
    "union_field_flag",
    "drop_impl_flag",
    "ffi_flag",
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


def manifest_export() -> str:
    """Human-readable listing of the manifest for audit."""
    lines = [f"# manifest version={MANIFEST.version} digest={MANIFEST.digest}"]
    for i, e in enumerate(MANIFEST.entries):
        lines.append(f"{i}\t{e.name}\t{e.family.value}\t{e.kind.value}")
    return "\n".join(lines) + "\n"


def validate_vector(vectors: list[FeatureVector], where) -> np.ndarray:
    """The vectors' values stacked into a (len(vectors), len(MANIFEST)) matrix.

    Each vector must carry the manifest digest and one value per slot, every
    value must be finite, flags and one-hots 0 or 1, ratios in [0, 1]. The
    first bad vector raises DigestMismatch or FeatureValidationError, named
    by `where(i)`, with its first bad slot in manifest order.
    """
    size = len(MANIFEST)
    for i, v in enumerate(vectors):
        if v.manifest_digest != MANIFEST.digest:
            raise DigestMismatch(f"{where(i)}: vector digest {v.manifest_digest} "
                                 f"!= manifest digest {MANIFEST.digest}")
        if v.values.shape != (size,):
            raise FeatureValidationError(
                f"{where(i)}: vector has shape {v.values.shape}, the manifest has {size} slots"
            )
    matrix = np.array([v.values for v in vectors], dtype=np.float64).reshape(len(vectors), size)
    non_finite = ~np.isfinite(matrix)
    bad_flag = MANIFEST.binary_mask & (matrix != 0.0) & (matrix != 1.0)
    bad_ratio = MANIFEST.ratio_mask & ((matrix < 0.0) | (matrix > 1.0))
    bad = non_finite | bad_flag | bad_ratio
    if bad.any():
        row, i = divmod(int(bad.argmax()), size)
        name, value = MANIFEST.entries[i].name, float(matrix[row, i])
        if non_finite[row, i]:
            problem = f"non-finite value in slot {name}"
        elif bad_flag[row, i]:
            problem = f"{name}: flag must be 0 or 1, got {value}"
        else:
            problem = f"{name}: ratio must be in [0,1], got {value}"
        raise FeatureValidationError(f"{where(row)}: {problem}")
    return matrix


# ---------------------------------------------------------------------------
# Lexical rules. Each helper documents its exact rule.
# ---------------------------------------------------------------------------

_WORD = re.compile(r"[A-Za-z_]\w*")
_SMART_POINTERS = {
    "Box", "Rc", "Arc", "RefCell", "Cell", "Mutex", "RwLock", "Weak", "UnsafeCell",
    "NonNull", "Cow",
}
_BYPASS_TOKENS = {
    "set_len", "from_raw", "from_raw_parts", "transmute", "forget", "as_ptr",
    "as_mut_ptr", "uninit", "uninitialized", "assume_init", "MaybeUninit",
}


def _split_top_commas(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _generic_scan(snippet: str) -> tuple[int, int, int]:
    """(param_count, nesting_depth, trait_bound_flag) from angle brackets.

    A '<' immediately following an identifier character opens a generic list;
    '>' closes one unless preceded by '-' or '=' (an arrow). The first
    top-level list is the declaration's parameter list: parameters are its
    depth-0 comma items, lifetimes excluded; a ':' in any item sets the
    trait-bound flag.
    """
    depth = 0
    max_depth = 0
    first: list[str] | None = None
    capturing = False
    captured: list[str] = []
    prev = ""
    for ch in snippet:
        if ch == "<" and (depth > 0 or (prev.isalnum() or prev == "_")):
            depth += 1
            max_depth = max(max_depth, depth)
            if depth == 1 and first is None:
                capturing = True
                captured = []
                prev = ch
                continue
        elif ch == ">" and depth > 0 and prev not in "-=":
            depth -= 1
            if capturing and depth == 0:
                first = captured
                capturing = False
        if capturing:
            captured.append(ch)
        prev = ch
    if first is None:
        return 0, max_depth, 0
    items = _split_top_commas("".join(first))
    params = [it for it in items if not it.startswith("'")]
    bound = 1 if any(":" in it for it in items) else 0
    return len(params), max_depth, bound


def _loop_and_brace_depth(snippet: str) -> tuple[int, int, int]:
    """(loop_count, loop_nesting_depth, block_depth_max) by brace tracking.

    'for' preceded by an identifier token is an `impl Trait for Type` clause,
    not a loop.
    """
    loop_count = 0
    max_nest = 0
    brace_depth = 0
    max_brace = 0
    open_loops: list[int] = []
    pending = 0
    prev_word = ""
    for m in re.finditer(r"[A-Za-z_]\w*|[{};]", snippet):
        tok = m.group(0)
        if tok == "{":
            if pending:
                open_loops.append(brace_depth)
                pending -= 1
                max_nest = max(max_nest, len(open_loops))
            brace_depth += 1
            max_brace = max(max_brace, brace_depth)
            prev_word = ""
        elif tok == "}":
            brace_depth = max(0, brace_depth - 1)
            if open_loops and open_loops[-1] == brace_depth:
                open_loops.pop()
            prev_word = ""
        elif tok == ";":
            prev_word = ""
        else:
            if tok in ("while", "loop") or (tok == "for" and not prev_word):
                loop_count += 1
                pending += 1
            prev_word = tok
    return loop_count, max_nest, max_brace


def _first_param_list(snippet: str) -> int:
    """Parameter count of the first `fn name(...)` signature; 0 if none."""
    m = re.search(r"\bfn\s+[A-Za-z_]\w*\s*(?:<[^>]*>)?\s*\(", snippet)
    if not m:
        return 0
    depth = 1
    start = m.end()
    for i in range(start, len(snippet)):
        if snippet[i] == "(":
            depth += 1
        elif snippet[i] == ")":
            depth -= 1
            if depth == 0:
                return len(_split_top_commas(snippet[start:i]))
    return 0


def _line_distance(snippet: str, first_set: set[str], second_rule) -> int:
    """Lines between first bypass-token line and first danger-token line."""
    lines = snippet.splitlines()
    first_at = next(
        (i for i, ln in enumerate(lines) if any(t in ln for t in first_set)), None
    )
    second_at = next((i for i, ln in enumerate(lines) if second_rule(ln)), None)
    if first_at is None or second_at is None:
        return 0
    return abs(first_at - second_at)


def _is_panic_token(tok: str) -> bool:
    # The panic-path rule: panic/unwrap/expect plus the assert family.
    return tok in ("panic", "unwrap", "expect") or tok.startswith("assert")


def _snippet_features(snippet: str) -> dict[str, float]:
    words = _WORD.findall(snippet)
    ident_count = len(words)
    amp_count = snippet.count("&")
    amp_runs = [len(m.group(0)) for m in re.finditer(r"&+", snippet)]
    panic_count = sum(1 for t in words if _is_panic_token(t))
    branch = sum(1 for t in words if t in ("if", "match"))
    loop_count, loop_nest, brace_max = _loop_and_brace_depth(snippet)
    gparams, gnest, bound = _generic_scan(snippet)
    nonempty = [ln for ln in snippet.splitlines() if ln.strip()]
    comment_lines = sum(1 for ln in nonempty if "//" in ln or "/*" in ln)
    single_pipes = len(re.findall(r"(?<!\|)\|(?!\|)", snippet))
    logical_ops = snippet.count("&&") + snippet.count("||")

    feats = {
        "generic_param_count": gparams,
        "generic_nesting_depth": gnest,
        "lifetime_param_count": len(re.findall(r"'[A-Za-z_]\w*", snippet)),
        "borrow_nesting_depth": max(amp_runs, default=0),
        "mut_borrow_count": len(re.findall(r"&\s*mut\b", snippet)),
        "smart_pointer_count": sum(1 for t in words if t in _SMART_POINTERS),
        # 1 + branch keywords + loop keywords + short-circuit operators.
        "cyclomatic_complexity": 1 + branch + loop_count + logical_ops,
        "loop_nesting_depth": loop_nest,
        "panic_path_count": panic_count,
        "bypass_to_danger_distance": _line_distance(
            snippet, _BYPASS_TOKENS, lambda ln: any(_is_panic_token(t) for t in _WORD.findall(ln))
        ),
        "unsafe_block_count": len(re.findall(r"\bunsafe\s*\{", snippet)),
        "raw_pointer_count": len(re.findall(r"\*\s*(?:const|mut)\b", snippet)),
        "transmute_count": sum(1 for t in words if t == "transmute"),
        "closure_count": single_pipes // 2,
        "match_arm_count": snippet.count("=>"),
        "early_return_count": sum(1 for t in words if t == "return") + snippet.count("?"),
        "fn_item_count": sum(1 for t in words if t == "fn"),
        "block_depth_max": brace_max,
        "trait_bound_flag": bound,
        "where_clause_flag": 1 if re.search(r"\bwhere\b", snippet) else 0,
        "raw_deref_flag": 1 if re.search(r"\*\s*(?:const|mut)\b", snippet) else 0,
        "unsafe_fn_flag": 1 if re.search(r"\bunsafe\s+fn\b", snippet) else 0,
        "static_mut_flag": 1 if re.search(r"\bstatic\s+mut\b", snippet) else 0,
        "unsafe_trait_impl_flag": 1 if re.search(r"\bunsafe\s+impl\b", snippet) else 0,
        "union_field_flag": 1 if "union" in words else 0,
        "drop_impl_flag": 1 if re.search(r"\bimpl\b[^{;]*\bDrop\b", snippet) else 0,
        "ffi_flag": 1 if "extern" in words else 0,
        "borrow_ratio": min(1.0, amp_count / ident_count) if ident_count else 0.0,
        "public_api_flag": 1 if "pub" in words else 0,
        "lines_of_code": len(nonempty),
        "parameter_count": _first_param_list(snippet),
        "snippet_bytes": len(snippet.encode("utf-8")),
        "comment_density": comment_lines / len(nonempty) if nonempty else 0.0,
        "snippet_missing_flag": 0,
    }
    return {k: float(v) for k, v in feats.items()}


def _neutral_snippet_features() -> dict[str, float]:
    feats = {name: 0.0 for name in _MIR_PAIRED_COUNTS}
    feats.update({name: 0.0 for name in _MIR_FLAGS})
    feats.update(
        {
            "borrow_ratio": 0.5,
            "public_api_flag": 0.0,
            "lines_of_code": 0.0,
            "parameter_count": 0.0,
            "snippet_bytes": 0.0,
            "comment_density": 0.5,
            "snippet_missing_flag": 1.0,
        }
    )
    return feats


def _one_hot(prefix: str, choices: tuple[str, ...], selected: str) -> dict[str, float]:
    return {f"{prefix}{c}": (1.0 if c == selected else 0.0) for c in choices}


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


def extract_features(
    record: WarningRecord,
    meta: PackageMetadata | None = None,
    *,
    cluster_size: int | None = None,
) -> FeatureVector:
    """Build the warning's raw feature vector in manifest order.

    Snippet features follow the lexical rules above; package and analysis
    features come from the inputs. Missing metadata imputes neutral defaults
    (0 for counts/flags, 0.5 for ratios) and sets the imputation flag.
    """
    snippet = record.code_snippet
    if len(snippet.encode("utf-8")) > MAX_SNIPPET_BYTES:
        raise SnippetTooLarge(f"snippet is {len(snippet.encode('utf-8'))} bytes (cap 1 MiB)")

    feats = _snippet_features(snippet) if snippet.strip() else _neutral_snippet_features()

    if meta is None:
        feats.update(
            {
                "download_count_log": 0.0,
                "unsafe_prevalence": 0.5,
                "package_loc": 0.0,
                "metadata_imputed_flag": 1.0,
            }
        )
    else:
        feats.update(
            {
                "download_count_log": math.log10(1 + meta.download_count),
                "unsafe_prevalence": float(meta.unsafe_prevalence),
                "package_loc": float(meta.total_loc),
                "metadata_imputed_flag": 0.0,
            }
        )

    size = 1 if cluster_size is None else int(cluster_size)
    feats["cluster_size"] = float(size)
    feats["clustered_flag"] = 1.0 if size > 1 else 0.0
    feats["op_type_present_flag"] = 0.0 if record.op_type is None else 1.0

    feats.update(_one_hot("bypass_", _BYPASS, classify_bug_pattern(record).value))
    feats.update(_one_hot("checker_", _CHECKERS, _checker_slot(record.analyzer)))
    feats.update(_one_hot("level_", _LEVELS, {
        Level.ERROR: "error", Level.WARNING: "warning", Level.INFO: "info",
    }[record.level]))
    feats.update(_one_hot("op_", _OP_TYPES, _op_slot(record.op_type)))

    # Fill ln(1+x) companions for every paired count.
    for name in _MIR_PAIRED_COUNTS + _STRUCTURAL_PAIRED_COUNTS + ("cluster_size",):
        feats[name + "_log"] = math.log1p(max(0.0, feats[name]))

    values = np.array([feats[e.name] for e in MANIFEST.entries], dtype=np.float64)
    return FeatureVector(record.id, values, MANIFEST.digest)


def fit_normalizer(matrix: np.ndarray) -> NormalizerStats:
    """Per-column mean and sample standard deviation (ddof=1) of the raw Train rows."""
    if len(matrix) < 2:
        raise EmptyTrainSet(f"need >= 2 training vectors, got {len(matrix)}")
    return NormalizerStats(
        mean=matrix.mean(axis=0),
        std=matrix.std(axis=0, ddof=1),
        fitted_on="train",
        manifest_digest=MANIFEST.digest,
    )


def normalize(matrix: np.ndarray, stats: NormalizerStats) -> np.ndarray:
    """z-score each column of an (N, len(MANIFEST)) matrix of raw rows;
    zero-std columns map to 0; one-hots pass through."""
    scaled = np.divide(matrix - stats.mean, stats.std, out=np.zeros_like(matrix),
                       where=stats.std > 0)
    return np.where(MANIFEST.one_hot_mask, matrix, scaled)


# ---------------------------------------------------------------------------
# File interfaces: feature sidecar and package metadata.
# ---------------------------------------------------------------------------


def write_feature_sidecar(vectors: list[FeatureVector]) -> bytes:
    lines = [
        json.dumps(
            {
                "warning_id": v.warning_id,
                "manifest_digest": v.manifest_digest,
                "values": [float(x) for x in v.values],
            },
            sort_keys=True,
        )
        for v in vectors
    ]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def read_feature_sidecar(data: bytes, source: str = "feature sidecar") -> dict[str, FeatureVector]:
    """Parse a sidecar and check its vectors with `validate_vector`; a
    malformed or invalid line raises naming `source` and the line."""
    vectors, line_numbers = [], []
    for n, line in enumerate(data.decode("utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            vectors.append(FeatureVector(
                obj["warning_id"],
                np.array(obj["values"], dtype=np.float64),
                obj["manifest_digest"],
            ))
        except (ValueError, KeyError, TypeError) as exc:
            raise FeatureValidationError(f"{source} line {n}: {type(exc).__name__}: {exc}") from exc
        line_numbers.append(n)
    validate_vector(vectors, lambda i: f"{source} line {line_numbers[i]}")
    return {v.warning_id: v for v in vectors}


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
            out[name] = PackageMetadata(name, int(m.get("downloads", 0)),
                                        float(m.get("unsafe_prevalence", 0.0)), int(m.get("loc", 0)))
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{source}: package {name!r}: {exc} in {m!r}") from None
    return out


def package_of(record: WarningRecord) -> str:
    """Leading path segment names the package (e.g. 'aarc-0.3.2/src/x.rs')."""
    return record.file.split("/", 1)[0]
