"""Feature extraction and normalization for analyzer warnings.

Every warning maps to a fixed-order vector described by a versioned manifest
of 87 named slots in three families. `extract_features` writes the vectors
of a whole report into one (N, 87) matrix: code-level slots come from the
snippets, all read together by the lexical rules below; the rest from package
metadata, cluster sizes and the analyzer's fields. A feature sidecar can
instead carry exact values produced out-of-band (e.g. by a compiler plugin).
Rows are checked against the manifest once, where they enter the program:
when a `FeatureTable` is built, from a sidecar or in memory.

Lexical rules are approximations by design: they keep the engine testable on
snippets alone while the sidecar path carries exact values when available.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from functools import partial
from enum import Enum
from operator import attrgetter

import numpy as np

from .errors import InputError
from .warnings import (BugPattern, Level, Table, WarningRecord, check_fields,
                       classify_bug_pattern, number_array, package_of, text_file, text_lines)

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
    values: np.ndarray


@dataclass
class PackageMetadata:
    downloads: int
    unsafe_prevalence: float
    loc: int

    # Counts stop at 2**53: above it float64 no longer holds every integer.
    INTERVALS = {"downloads": f"[0,{2**53}]", "unsafe_prevalence": "[0,1]", "loc": f"[0,{2**53}]"}

    def __post_init__(self):
        check_fields(self, self.INTERVALS)


@dataclass
class NormalizerStats:
    mean: np.ndarray
    std: np.ndarray


# Count slots that carry a ln(1+x) companion "<name>_log", by family, in manifest order.
LOG_PAIRED_COUNTS = {
    Family.MIR_SEMANTIC: (
        "generic_param_count", "generic_nesting_depth", "lifetime_param_count",
        "borrow_nesting_depth", "mut_borrow_count", "smart_pointer_count", "cyclomatic_complexity",
        "loop_nesting_depth", "panic_path_count", "bypass_to_danger_distance", "unsafe_block_count",
        "raw_pointer_count", "transmute_count", "closure_count", "match_arm_count",
        "early_return_count", "fn_item_count", "block_depth_max",
    ),
    Family.STRUCTURAL: ("lines_of_code", "parameter_count", "snippet_bytes", "package_loc"),
    Family.ANALYSIS_SPECIFIC: ("cluster_size",),
}
# The one-hot groups: each prefix with its values, one slot "<prefix><value>" per value.
ONE_HOT_GROUPS = {
    "bypass_": tuple(p.value for p in BugPattern),
    "checker_": ("unsafe_dataflow", "send_sync_variance", "unsafe_destructor", "other"),
    "level_": tuple(level.value.lower() for level in Level),
    "op_": ("read_flow", "copy_flow", "write_flow", "vec_from_raw", "vec_set_len", "transmute",
            "ptr_as_ref", "slice_unchecked", "slice_from_raw", "uninitialized", "other", "none"),
}
_MIR_FLAGS = (
    "trait_bound_flag", "where_clause_flag", "raw_deref_flag", "unsafe_fn_flag",
    "static_mut_flag", "unsafe_trait_impl_flag", "union_field_flag", "drop_impl_flag", "ffi_flag",
)


def _manifest_entries() -> tuple[FeatureEntry, ...]:
    """The slots, family by family: each log-paired count is followed by its
    companion, and a one-hot group's slots follow its values' order."""
    paired = {family: [slot for name in names
                       for slot in ((name, Kind.COUNT), (name + "_log", Kind.LOG_SCALED))]
              for family, names in LOG_PAIRED_COUNTS.items()}
    one_hot = {prefix: [(prefix + value, Kind.ONE_HOT) for value in values]
               for prefix, values in ONE_HOT_GROUPS.items()}
    families = (  # in `Family` order
        [*paired[Family.MIR_SEMANTIC], *((name, Kind.FLAG) for name in _MIR_FLAGS),
         ("borrow_ratio", Kind.RATIO), *one_hot["bypass_"]],
        [("download_count_log", Kind.LOG_SCALED), ("unsafe_prevalence", Kind.RATIO),
         ("public_api_flag", Kind.FLAG), *paired[Family.STRUCTURAL],
         ("comment_density", Kind.RATIO), ("metadata_imputed_flag", Kind.FLAG),
         ("snippet_missing_flag", Kind.FLAG)],
        [*one_hot["checker_"], *one_hot["level_"], *one_hot["op_"],
         ("op_type_present_flag", Kind.FLAG), *paired[Family.ANALYSIS_SPECIFIC],
         ("clustered_flag", Kind.FLAG)],
    )
    return tuple(FeatureEntry(name, family, kind)
                 for family, slots in zip(Family, families) for name, kind in slots)


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
_KINDS = {e.name: e.kind for e in MANIFEST.entries}


def manifest_export() -> bytes:
    """Human-readable listing of the manifest for audit."""
    lines = [f"# manifest version={MANIFEST.version} digest={MANIFEST.digest}"]
    for i, e in enumerate(MANIFEST.entries):
        lines.append(f"{i}\t{e.name}\t{e.family.value}\t{e.kind.value}")
    return text_file(lines)


def validate_vector(matrix: np.ndarray, where) -> np.ndarray:
    """Check an (N, len(MANIFEST)) matrix of raw feature rows; returns it.

    Every value must be finite, flags and one-hots 0 or 1, ratios in [0, 1],
    counts and log-scaled values at most 2**53 in magnitude (above it float64
    no longer holds every integer). The first bad row raises
    InputError, named by `where(row)`, with its first bad slot in
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
        raise InputError(f"{where(row)}: " + problem.format(
            name=MANIFEST.entries[i].name, value=float(matrix[row, i])))
    return matrix


class FeatureTable:
    """Raw feature rows by warning id, read from `source`, `ids[i]`'s in
    `matrix[i]`, one per id: an id given again must repeat its row, and the
    first is kept. `validate_vector` checks each row once, here: a bad row i,
    or one unlike its id's first, raises InputError at `where(i)`; nothing that
    reads a table checks again, and an id without a row is named with `source`."""

    def __init__(self, ids: list[str], matrix: np.ndarray, source: str, where):
        self.matrix = validate_vector(matrix, where)
        self.row = Table(source, "feature vector for warning")
        for i, wid in enumerate(ids):
            first = self.row.setdefault(wid, i)
            if first != i and not np.array_equal(matrix[first], matrix[i]):
                raise InputError(f"{where(i)}: {wid} was stated before with another value")

    @classmethod
    def of(cls, ids: list[str], matrix: np.ndarray) -> FeatureTable:
        """The table of in-memory rows, `ids[i]`'s in `matrix[i]`; a bad row names its warning."""
        return cls(ids, matrix, "in-memory rows", lambda i: f"warning {ids[i]}")

    def __getitem__(self, wid: str) -> FeatureVector:
        return FeatureVector(self.matrix[self.row[wid]])

    def rows_of(self, records: list[WarningRecord]) -> np.ndarray:
        """The rows of `records`, in order; the first without one raises InputError."""
        return self.matrix[[self.row[r.id] for r in records]]


# ---------------------------------------------------------------------------
# Lexical rules, in column passes over a whole report: the snippets are joined,
# each followed by "\n", into one array of code points with a per-character
# snippet index. Where a snippet starts and ends comes from the lengths, never
# from a search for the separator, so a snippet may hold any character. Only
# the generic-list walk and the regex rules run per snippet, each on the
# snippets it can match.
# ---------------------------------------------------------------------------

# Character classes: a word character is `\w`, which for every code point is
# `isalnum()` or '_'; a head is `[A-Za-z_]`; a space is `isspace()`; a break
# ends a line for `str.splitlines` (every break is a space); the punctuation
# is what the rules look for.
_WORD_CHAR, _HEAD, _SPACE, _BREAK, _PUNCT = 1, 2, 4, 8, 16
_PUNCTUATION = "{};<>()&|=?'/*"
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _char_class(ch: str) -> int:
    return (_WORD_CHAR * (ch.isalnum() or ch == "_")
            + _HEAD * (ch.isascii() and (ch.isalpha() or ch == "_")) + _SPACE * ch.isspace()
            + _BREAK * (ch in _LINE_BREAKS) + _PUNCT * (ch in _PUNCTUATION))


_ASCII_CLASS = np.array([_char_class(chr(c)) for c in range(128)], dtype=np.uint8)
# In an item list '<', '(' and '[' open a level and '>', ')' and ']' close one.
_NEST_STEP = np.array([(chr(c) in "<([") - (chr(c) in ">)]") for c in range(128)], dtype=np.int64)

# A word is `[A-Za-z_]\w*`: it starts at the first head of a run of word
# characters and ends with the run, so '9unsafe' and 'éunsafe' hold the word
# 'unsafe' even though `\bunsafe` matches neither, and no word spans two
# lines. A snippet counts its words by kind: 0 for any other word, one kind
# per keyword, "assert" for every word that starts with it, and `_SMART` for
# the smart-pointer names.
_KEYWORDS = ("if", "match", "while", "loop", "for", "panic", "unwrap", "expect", "return", "fn",
             "transmute", "union", "extern", "pub", "unsafe", "impl", "static", "mut", "const",
             "Drop", "where", "assert")
_SMART_POINTERS = ("Box", "Rc", "Arc", "RefCell", "Cell", "Mutex", "RwLock", "Weak", "UnsafeCell",
                   "NonNull", "Cow")
_SMART = len(_KEYWORDS) + 1
_KIND = {word: k for k, word in enumerate(_KEYWORDS, 1)} | dict.fromkeys(_SMART_POINTERS, _SMART)
_PANIC_KINDS = [_KIND[w] for w in ("panic", "unwrap", "expect", "assert")]
# The words of `_KIND`, one row each, padded to 10 code points ("assert"
# matches its first 6 only). `_CANDIDATE` maps a word's length (11 for any
# longer one), first and third code point (0 for a 2-letter word) to 1 + the
# one row that can spell it, or to 0.
_SPELLED = tuple(_KIND)
_SPELLING = np.array([[ord(ch) for ch in w.ljust(10, "\0")] for w in _SPELLED], dtype=np.uint32)
_WIDTH, _ROW_KIND = np.array([len(w) for w in _SPELLED]), np.array(list(_KIND.values()))
_CANDIDATE = np.zeros(12 << 14, dtype=np.int8)
for _row, _word in enumerate(_SPELLED):
    for _length in range(6, 12) if _word == "assert" else (len(_word),):
        _CANDIDATE[_length << 14 | ord(_word[0]) << 7 | (_length > 2 and ord(_word[2]))] = _row + 1
assert np.count_nonzero(_CANDIDATE) == len(_SPELLED) + 5, "two words share a candidate key"

# Bypass tokens count as substrings of a line: 'forgetful' holds 'forget'.
_BYPASS_TOKEN = re.compile("set_len|from_raw|from_raw_parts|transmute|forget|as_ptr|as_mut_ptr|"
                           "uninit|uninitialized|assume_init|MaybeUninit")
# A pattern that starts with literal text lets the regex engine jump from one
# occurrence of that text to the next, so each `\b<keyword>...` rule is
# written `<keyword>(?<=\b<keyword>)...`.
_MUT_BORROW = re.compile(r"&\s*mut\b")
_RAW_POINTER = re.compile(r"\*\s*(?:const|mut)\b")
_UNSAFE_BLOCK = re.compile(r"unsafe(?<=\bunsafe)\s*\{")
_WHERE = re.compile(r"where(?<=\bwhere)\b")
_UNSAFE_FN = re.compile(r"unsafe(?<=\bunsafe)\s+fn\b")
_STATIC_MUT = re.compile(r"static(?<=\bstatic)\s+mut\b")
_UNSAFE_IMPL = re.compile(r"unsafe(?<=\bunsafe)\s+impl\b")
_DROP_IMPL = re.compile(r"impl(?<=\bimpl)\b[^{;]*\bDrop\b")
_FN_HEAD = re.compile(r"fn(?<=\bfn)\s+[A-Za-z_]\w*\s*(?:<[^>]*>)?\s*\(")
# Angle codes of the generic-list walk: a '<' after a word character opens a
# list, any other '<' opens one only inside a list, a '>' closes one.
_OPENS, _NESTS, _CLOSES = 1, 2, 3


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in `keys` (all >= 0)."""
    return np.flatnonzero(np.diff(keys, prepend=-1))


def _runs(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of consecutive positions in the sorted `pos`."""
    first = np.flatnonzero(np.diff(pos, prepend=-2) != 1)
    return pos[first], np.diff(first, append=len(pos))


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges [lo, hi) laid end to end: each element's range and the element."""
    size = hi - lo
    return (np.repeat(np.arange(len(lo)), size),
            np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size))


def _walk(step: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The depth after each step, one walk from 0 per run of equal values in
    the sorted `groups`, never below 0: its depth is the height less the
    lowest height so far below 0, taken by one running minimum over all walks,
    walk g lowered by g * span to keep the earlier ones above."""
    height = np.cumsum(step)
    first = _firsts(groups)
    height -= np.repeat(height[first] - step[first], np.diff(first, append=len(step)))
    lift = groups.astype(np.int64) * (2 * len(step) + 1)
    return height - np.minimum(np.minimum.accumulate(height - lift) + lift, 0)


def _item_counts(codes: np.ndarray, cls: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Per range [lo, hi) of the joined text: its items (split at the commas
    outside `_NEST_STEP` brackets, stripped, the empty ones dropped), the items
    that start with "'", and whether it holds a ':'."""
    owner, at = _ranges(lo, hi)
    chars = codes[at]
    split = (chars == ord(",")) & (_walk(_NEST_STEP[np.minimum(chars, 127)], owner) == 0)
    solid = np.flatnonzero(((cls[at] & _SPACE) == 0) & ~split)
    heads = solid[_firsts((np.cumsum(split) + owner)[solid])]
    counts = [np.bincount(owner[which], minlength=len(lo))
              for which in (heads, heads[chars[heads] == ord("'")], chars == ord(":"))]
    return counts[0], counts[1], counts[2] > 0


def _search(rule: re.Pattern, snippets: list[str], rows: np.ndarray):
    """The rows among `rows` whose snippet `rule` matches, and the span of each first match."""
    hits = [rule.search(snippets[i]) for i in rows.tolist()]
    spans = np.array([h.span() for h in hits if h], dtype=np.int64).reshape(-1, 2)
    return rows[[h is not None for h in hits]], spans


def _generic_walk(angles: bytes) -> tuple[int, int, int]:
    """(deepest list, index of the first list's '<', of its closing '>' or -1)."""
    depth = deepest = 0
    first = close = -1
    for i, code in enumerate(angles):
        if code == _OPENS or code == _NESTS and depth:
            depth += 1
            deepest, first = max(deepest, depth), i if first < 0 else first
        elif code == _CLOSES and depth:
            depth -= 1
            close = i if close < 0 and not depth else close
    return deepest, first, close


def _snippet_slots(snippets: list[str], where) -> dict[str, np.ndarray]:
    """Each snippet slot, by name, as a column over the non-empty list `snippets`
    (a blank snippet's row means nothing but snippet_missing_flag). A snippet
    above MAX_SNIPPET_BYTES of UTF-8 raises InputError at `where(row)`."""
    n = len(snippets)
    lengths = np.fromiter(map(len, snippets), dtype=np.int64, count=n)
    ends = np.cumsum(lengths + 1) - 1  # the "\n" after each snippet
    starts = ends - lengths
    codes = np.frombuffer(("\n".join(snippets) + "\n").encode("utf-32-le"), dtype=np.uint32)
    snip = np.repeat(np.arange(n, dtype=np.int32), lengths + 1)
    cls = np.take(_ASCII_CLASS, codes, mode="clip")
    nbytes = lengths.copy()
    wide = np.flatnonzero(codes > 127)  # classified once per distinct code point
    values, inverse = np.unique(codes[wide], return_inverse=True)
    cls[wide] = np.array([_char_class(chr(v)) for v in values.tolist()], dtype=np.uint8)[inverse]
    extra = 1 + (values > 0x7FF).astype(np.int64) + (values > 0xFFFF)
    nbytes += np.bincount(snip[wide], weights=extra[inverse], minlength=n).astype(np.int64)
    too_large = np.flatnonzero(nbytes > MAX_SNIPPET_BYTES)
    if len(too_large):
        row = int(too_large[0])
        raise InputError(f"{where(row)}: snippet is {nbytes[row]} bytes (cap 1 MiB)")

    per = partial(np.bincount, minlength=n)  # per snippet: per(snippet of each, weight)
    at = np.flatnonzero((cls & _PUNCT) != 0)
    at = at[np.argsort(codes[at].astype(np.uint8), kind="stable")]  # by character, then position
    bounds = np.searchsorted(codes[at], np.arange(129))
    place = {ch: at[bounds[ord(ch)]:bounds[ord(ch) + 1]] for ch in _PUNCTUATION}

    def find(chars: str) -> np.ndarray:  # the sorted positions of `chars`
        return np.sort(np.concatenate([place[ch] for ch in chars]))

    # Words, from the first head of each run; kinds by length, first and third letter.
    tok_start, tok_end = np.flatnonzero(np.diff(
        (cls & _WORD_CHAR).view(bool), prepend=False, append=False)).reshape(-1, 2).T
    late = np.flatnonzero((cls[tok_start] & _HEAD) == 0)  # led by a digit or non-ASCII letter
    block, size = _runs(np.flatnonzero((cls & (_WORD_CHAR | _HEAD)) == _WORD_CHAR))
    tok_start[late] = (block + size)[np.searchsorted(block, tok_start[late])]
    held = tok_start < tok_end
    tok_start, tok_end = tok_start[held], tok_end[held]
    tok_len = tok_end - tok_start
    row = _CANDIDATE[np.minimum(tok_len, 11) << 14 | codes[tok_start].astype(np.int64) << 7
                     | np.minimum(codes.take(tok_start + 2, mode="clip"), 127) * (tok_len > 2)]
    cand = np.flatnonzero(row)
    row = row[cand] - 1
    spelled = ((codes.take(tok_start[cand, None] + np.arange(10), mode="clip") == _SPELLING[row])
               | (np.arange(10) >= _WIDTH[row, None])).all(axis=1)
    kind = np.zeros(len(tok_start), dtype=np.int8)
    kind[cand[spelled]] = _ROW_KIND[row[spelled]]
    tok_snip = snip[tok_start].astype(np.int64)
    words = np.bincount(tok_snip * (_SMART + 1) + kind, minlength=n * (_SMART + 1)).reshape(n, -1)
    count = {word: words[:, column] for word, column in _KIND.items()}
    # 'while', 'loop' and a 'for' that does not follow a word each claim the
    # next '{' as a loop body; a word just before 'for' (no '{', '}' or ';'
    # between) makes it an `impl Trait for Type` clause.
    stops = find("{};")
    fors = np.flatnonzero(kind == _KIND["for"])
    prev_stop = np.append(-1, stops)[np.searchsorted(stops, tok_start[fors])]
    prev_word = np.append(-1, tok_start)[fors]
    is_loop = (kind == _KIND["while"]) | (kind == _KIND["loop"])
    is_loop[fors[(prev_word < prev_stop) | (prev_word < starts[tok_snip[fors]])]] = True
    brace = find("{}")
    brace_snip = snip[brace].astype(np.int64)
    opening = codes[brace] == ord("{")
    block_depth = np.zeros(n, dtype=np.int64)
    np.maximum.at(block_depth, brace_snip, _walk(np.where(opening, 1, -1), brace_snip))
    loops = per(tok_snip[is_loop])
    # loop_nesting_depth: each loop word claims the next unclaimed '{' as a
    # loop body, which the '}' back at its depth closes; it is the most bodies
    # open at once. Only the snippets with a loop word take part.
    pos = np.sort(np.concatenate([brace[loops[brace_snip] > 0], tok_start[is_loop]]))
    group = snip[pos].astype(np.int64)
    step = (codes[pos] == ord("{")).astype(np.int64) - (codes[pos] == ord("}"))
    depth = _walk(step, group)
    waiting = np.append(0, _walk(np.choose(step + 1, (0, 1, -1)), group)[:-1])  # unclaimed words
    waiting[_firsts(group)] = 0
    claimed = (step == 1) & (waiting > 0)
    order = np.lexsort((pos, depth - (step == 1), group))
    a, b = order[:-1], order[1:]  # a '{' and its '}' are neighbours in this order
    bodies = claimed.astype(np.int64)
    bodies[b[claimed[a] & (step[b] == -1) & (group[b] == group[a]) & (depth[b] == depth[a] - 1)]] = -1
    nest = np.zeros(n, dtype=np.int64)
    np.maximum.at(nest, group, _walk(bodies, group))

    # Runs of '&' and '|': '&&' and '||' are the pairs in a run, a closure two single '|'.
    amp_start, amp_len = _runs(find("&"))
    amp_snip = snip[amp_start]
    amps, amp_run = per(amp_snip, amp_len), np.zeros(n, dtype=np.int64)
    np.maximum.at(amp_run, amp_snip, amp_len)
    pipe_start, pipe_len = _runs(find("|"))
    pipe_snip = snip[pipe_start]
    eq, quote = find("="), find("'")

    # Lines: a break ends one ("\r\n" is one break, and each snippet's
    # separator ends its last line); a code line holds a non-space, a comment
    # line "//" or "/*".
    breaks = np.flatnonzero((cls & _BREAK) != 0)
    crlf = (codes[breaks] == ord("\n")) & (codes[breaks - 1] == ord("\r"))
    crlf[np.searchsorted(breaks, ends)] = False
    line_end = breaks[~crlf]
    code_lines = per(snip[line_end[np.logical_or.reduceat((cls & _SPACE) == 0,
                                                          np.append(0, line_end[:-1]))]])
    slash = find("/")
    marked = np.searchsorted(line_end, slash[np.isin(codes[slash + 1], (ord("/"), ord("*")))])
    comment_lines = per(snip[line_end[marked[_firsts(marked)]]])

    # bypass_to_danger_distance: lines from the first bypass-token line to the first panic line.
    panic = tok_start[np.isin(kind, _PANIC_KINDS)]
    panic = panic[_firsts(snip[panic])]
    with_bypass, spans = _search(_BYPASS_TOKEN, snippets, snip[panic])
    panic_line = np.searchsorted(line_end, panic[np.isin(snip[panic], with_bypass)])
    distance = np.zeros(n)
    distance[with_bypass] = np.abs(np.searchsorted(line_end, starts[with_bypass] + spans[:, 0])
                                   - panic_line)

    # Generic lists: the first top-level list is the declaration's parameter
    # list; its items less the lifetimes are parameters, and a ':' in it sets
    # the trait-bound flag. A '>' after '-' or '=' is an arrow.
    angle = find("<>")
    is_open = codes[angle] == ord("<")
    code = np.where(is_open, np.where(cls[angle - 1] & _WORD_CHAR, _OPENS, _NESTS), _CLOSES)
    keep = is_open | ~np.isin(codes[angle - 1], (ord("-"), ord("=")))
    angle, code = angle[keep], code[keep]
    owner = snip[angle]
    first = _firsts(owner)
    last = np.append(first[1:], len(owner))
    walked = per(owner[code == _OPENS])[owner[first]] > 0
    first, last = first[walked], last[walked]
    blob = code.astype(np.uint8).tobytes()
    segments = [blob[a:b] for a, b in zip(first.tolist(), last.tolist())]
    memo = {s: _generic_walk(s) for s in set(segments)}
    walks = np.array([memo[s] for s in segments], dtype=np.int64).reshape(-1, 3)
    generic_depth, generic_params, bound = np.zeros(n), np.zeros(n), np.zeros(n)
    generic_depth[owner[first]] = walks[:, 0]
    closed = walks[:, 2] >= 0
    listed = owner[first[closed]]
    items, lifetime_items, colon = _item_counts(codes, cls, angle[first + walks[:, 1]][closed] + 1,
                                                angle[first + walks[:, 2]][closed])
    generic_params[listed], bound[listed] = items - lifetime_items, colon

    # parameter_count: the items of the first `fn name(...)` list, up to the ')' closing its '('.
    with_fn, spans = _search(_FN_HEAD, snippets, np.flatnonzero(count["fn"]))
    paren = find("()")
    head = starts[with_fn] + spans[:, 1]
    owner, at = _ranges(np.searchsorted(paren, head - 1), np.searchsorted(paren, ends[with_fn]))
    shut = np.flatnonzero(_walk(np.where(codes[paren[at]] == ord("("), 1, -1), owner) == 0)
    shut = shut[_firsts(owner[shut])]
    params = np.zeros(n)
    params[with_fn[owner[shut]]] = _item_counts(codes, cls, head[owner[shut]], paren[at[shut]])[0]

    has = {word: count[word] > 0 for word in ("mut", "const", "unsafe", "impl", "static", "fn")}
    rules = {  # slot: (rule, the snippets it can match)
        "mut_borrow_count": (_MUT_BORROW, (amps > 0) & has["mut"]),
        "unsafe_block_count": (_UNSAFE_BLOCK, has["unsafe"] & (per(brace_snip[opening]) > 0)),
        "raw_pointer_count": (_RAW_POINTER, (per(snip[find("*")]) > 0) & (has["mut"] | has["const"])),
        "where_clause_flag": (_WHERE, count["where"] > 0),
        "unsafe_fn_flag": (_UNSAFE_FN, has["unsafe"] & has["fn"]),
        "static_mut_flag": (_STATIC_MUT, has["static"] & has["mut"]),
        "unsafe_trait_impl_flag": (_UNSAFE_IMPL, has["unsafe"] & has["impl"]),
        "drop_impl_flag": (_DROP_IMPL, has["impl"] & (count["Drop"] > 0)),
    }
    found = {}
    for slot, (rule, guard) in rules.items():
        rows = np.flatnonzero(guard)
        found[slot] = np.zeros(n)
        if slot.endswith("_flag"):  # one match sets a flag
            found[slot][rows] = [rule.search(snippets[i]) is not None for i in rows.tolist()]
        else:
            found[slot][rows] = [len(rule.findall(snippets[i])) for i in rows.tolist()]
    n_words = words.sum(axis=1)
    return found | {
        "generic_param_count": generic_params,
        "generic_nesting_depth": generic_depth,
        "lifetime_param_count": per(snip[quote[(cls[quote + 1] & _HEAD) != 0]]),
        "borrow_nesting_depth": amp_run,  # the longest '&' run
        "smart_pointer_count": words[:, _SMART],
        # 1 + branch keywords + loop keywords + short-circuit operators
        "cyclomatic_complexity": (1 + count["if"] + count["match"] + loops
                                  + per(amp_snip, amp_len // 2) + per(pipe_snip, pipe_len // 2)),
        "loop_nesting_depth": nest,
        "panic_path_count": words[:, _PANIC_KINDS].sum(axis=1),
        "bypass_to_danger_distance": distance,
        "transmute_count": count["transmute"],
        "closure_count": per(pipe_snip[pipe_len == 1]) // 2,
        "match_arm_count": per(snip[eq[codes[eq + 1] == ord(">")]]),
        "early_return_count": count["return"] + per(snip[find("?")]),
        "fn_item_count": count["fn"],
        "block_depth_max": block_depth,
        "trait_bound_flag": bound,
        "raw_deref_flag": found["raw_pointer_count"] > 0,
        "union_field_flag": count["union"] > 0,
        "ffi_flag": count["extern"] > 0,
        # '&' per word
        "borrow_ratio": np.minimum(1.0, np.divide(amps, n_words, out=np.zeros(n), where=n_words > 0)),
        "public_api_flag": count["pub"] > 0,
        "lines_of_code": code_lines,
        "parameter_count": params,
        "snippet_bytes": nbytes,
        "comment_density": np.divide(comment_lines, code_lines, out=np.zeros(n),
                                     where=code_lines > 0),
        "snippet_missing_flag": code_lines == 0,
    }


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
    return norm if norm in ONE_HOT_GROUPS["op_"] else "other"


# math.log1p(k) for each integer count k below 4,096.
_LOG1P = np.array([math.log1p(k) for k in range(4096)], dtype=np.float64)
# A package without metadata: download_count_log, unsafe_prevalence and
# package_loc imputed as a blank snippet's slots are, and metadata_imputed_flag set.
_IMPUTED_PACKAGE = (0.0, 0.5, 0.0, 1.0)
# The fields the bypass, checker, level and op slots read, and the one the package slots read.
_ANALYZER_FIELDS = attrgetter("analyzer", "description", "op_type", "level")
_FILE = attrgetter("file")


def _distinct(records: list[WarningRecord], key) -> tuple[np.ndarray, list[WarningRecord]]:
    """The code of each record's `key` (0, 1, ... in order of first
    appearance) and the first record with each code."""
    index: dict = {}
    code = np.array([index.setdefault(k, len(index)) for k in map(key, records)], dtype=np.intp)
    return code, [records[i] for i in np.unique(code, return_index=True)[1].tolist()]


def extract_features(records: list[WarningRecord], metadata: dict[str, PackageMetadata],
                     sizes: dict[str, int], source: str) -> np.ndarray:
    """Raw feature rows of `records`, in order: shape (len(records), len(MANIFEST)).

    Snippet slots follow the lexical rules above; a blank snippet imputes
    them (0 for counts and flags, 0.5 for ratios) and sets
    snippet_missing_flag. Package slots come from `metadata[package_of(r)]`;
    a package without metadata imputes them the same way and sets
    metadata_imputed_flag. cluster_size is `sizes[r.id]`. A snippet above
    MAX_SNIPPET_BYTES of UTF-8 raises InputError naming `source` and
    the warning.
    """
    n = len(records)
    if not n:
        return np.zeros((0, len(MANIFEST)))
    slots = _snippet_slots([r.code_snippet for r in records],
                           lambda row: f"{source}: warning {records[row].id}")
    blank = slots["snippet_missing_flag"]
    columns = {name: np.where(blank, 0.5 if _KINDS[name] is Kind.RATIO
                              else float(name == "snippet_missing_flag"), column)
               for name, column in slots.items()}
    # The package slots depend on the file alone, the analyzer-field slots on
    # `_ANALYZER_FIELDS` alone: each is worked out once per distinct value,
    # on its first record, and spread to the rows by the value's code.
    code, firsts = _distinct(records, _FILE)
    packages = {name: (math.log10(1 + m.downloads), m.unsafe_prevalence, m.loc, 0.0)
                for name, m in metadata.items()}
    package = np.array([packages.get(package_of(r), _IMPUTED_PACKAGE) for r in firsts],
                       dtype=np.float64).reshape(-1, 4)[code]
    columns.update(zip(("download_count_log", "unsafe_prevalence", "package_loc",
                        "metadata_imputed_flag"), package.T))
    columns["cluster_size"] = np.array([sizes[r.id] for r in records], dtype=np.float64)
    columns["clustered_flag"] = columns["cluster_size"] > 1
    code, firsts = _distinct(records, _ANALYZER_FIELDS)
    columns["op_type_present_flag"] = np.array([r.op_type is not None for r in firsts])[code]
    for prefix, picks in (
        ("bypass_", [classify_bug_pattern(r).value for r in firsts]),
        ("checker_", [_checker_slot(r.analyzer) for r in firsts]),
        ("level_", [r.level.value.lower() for r in firsts]),
        ("op_", [_op_slot(r.op_type) for r in firsts]),
    ):
        picks = np.array(picks)
        columns.update((prefix + value, (picks == value)[code]) for value in ONE_HOT_GROUPS[prefix])
    # ln(1 + x) companions by math.log1p, so each equals the scalar rule bit
    # for bit whatever numpy's own log1p does: from `_LOG1P` for an integer
    # count it holds, else once per distinct count.
    paired = [name for names in LOG_PAIRED_COUNTS.values() for name in names]
    counts = np.column_stack([columns[name] for name in paired])
    k = np.clip(counts, 0, len(_LOG1P) - 1).astype(np.intp)
    logs = _LOG1P[k]
    other = k != counts
    distinct, inverse = np.unique(counts[other], return_inverse=True)
    logs[other] = np.array([math.log1p(max(0.0, c)) for c in distinct.tolist()],
                           dtype=np.float64)[inverse]
    columns.update(zip([name + "_log" for name in paired], logs.T))
    assert columns.keys() == _KINDS.keys(), f"slots without columns or columns without slots: " \
        f"{columns.keys() ^ _KINDS.keys()}"
    return np.column_stack([columns[e.name] for e in MANIFEST.entries])


def fit_normalizer(matrix: np.ndarray) -> NormalizerStats:
    """Per-column mean and sample standard deviation (ddof=1) of the raw Train rows."""
    if len(matrix) < 2:
        raise InputError(f"need >= 2 training vectors, got {len(matrix)}")
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


def write_feature_sidecar(ids: list[str], matrix: np.ndarray) -> bytes:
    return text_file(json.dumps({"warning_id": wid, "manifest_digest": MANIFEST.digest,
                                 "values": values}, sort_keys=True)
                     for wid, values in zip(ids, matrix.tolist()))


def read_feature_sidecar(data: bytes, source: str) -> FeatureTable:
    """The table of a sidecar's rows; a malformed or invalid line, one whose
    digest is not the manifest's, or one giving an id another vector, raises
    naming `source` and the line. An id stated twice keeps its first row."""
    ids, rows, lines = [], [], text_lines(data)
    for n, line in lines:
        where = f"{source} line {n}"
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise InputError(f"{where}: expected a JSON object, got {type(obj).__name__}")
            wid, digest = obj["warning_id"], obj["manifest_digest"]
            if not isinstance(wid, str):
                raise TypeError(f"warning_id must be a string, got {type(wid).__name__}")
            values = number_array(obj["values"])
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise InputError(f"{where}: {type(exc).__name__}: {exc}") from exc
        if digest != MANIFEST.digest:
            raise InputError(
                f"{where}: vector digest {digest} != manifest digest {MANIFEST.digest}")
        if values.shape != (len(MANIFEST),):
            raise InputError(
                f"{where}: vector has shape {values.shape}, the manifest has {len(MANIFEST)} slots")
        ids.append(wid)
        rows.append(values)
    return FeatureTable(ids, np.array(rows).reshape(len(rows), len(MANIFEST)), source,
                        lambda i: f"{source} line {lines[i][0]}")


# A package metadata entry's keys, each with the value a missing one takes.
_METADATA_DEFAULTS = {"downloads": 0, "unsafe_prevalence": 0.0, "loc": 0}


def read_package_metadata(data: bytes, source: str) -> dict[str, PackageMetadata]:
    """Package metadata file: JSON map package -> {downloads, unsafe_prevalence, loc}.

    Each entry's values are held to `PackageMetadata`'s types and intervals;
    a missing key takes its default. A malformed file raises InputError
    naming `source` and the line of a JSON syntax error, or the package
    whose entry is bad and the key at fault.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{source} line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a too-long integer or too-deep nesting
        raise InputError(f"{source}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    out = {}
    for name, m in doc.items():
        try:
            values = {**_METADATA_DEFAULTS, **m}
            unknown = [key for key in values if key not in _METADATA_DEFAULTS]
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r}")
            out[name] = PackageMetadata(**values)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{source}: package {name!r}: {exc} in {m!r}") from None
    return out
