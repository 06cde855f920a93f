"""Reference oracle: per-warning feature extraction that `extract_features` replaced.

Each lexical rule runs as its own pass over the snippet (about fifteen regex
scans, three character loops and a re-tokenization of every line), the
features are gathered in a dict by name and read back in manifest order.
Tests compare the one-pass matrix extraction against it slot by slot.
"""

import math
import re

import numpy as np

from triagerl.errors import InputError
from triagerl.features import (
    _BYPASS,
    _CHECKERS,
    _LEVELS,
    _MIR_FLAGS,
    _MIR_PAIRED_COUNTS,
    _OP_TYPES,
    _STRUCTURAL_PAIRED_COUNTS,
    MANIFEST,
    MAX_SNIPPET_BYTES,
    FeatureVector,
)
from triagerl.warnings import Level, classify_bug_pattern

_WORD = re.compile(r"[A-Za-z_]\w*")
_SMART_POINTERS = {
    "Box", "Rc", "Arc", "RefCell", "Cell", "Mutex", "RwLock", "Weak", "UnsafeCell",
    "NonNull", "Cow",
}
_BYPASS_TOKENS = {
    "set_len", "from_raw", "from_raw_parts", "transmute", "forget", "as_ptr",
    "as_mut_ptr", "uninit", "uninitialized", "assume_init", "MaybeUninit",
}


def _split_top_commas(s):
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


def _generic_scan(snippet):
    """(param_count, nesting_depth, trait_bound_flag) from angle brackets.

    A '<' immediately following an identifier character opens a generic list;
    '>' closes one unless preceded by '-' or '=' (an arrow). The first
    top-level list is the declaration's parameter list: parameters are its
    depth-0 comma items, lifetimes excluded; a ':' in any item sets the
    trait-bound flag.
    """
    depth = 0
    max_depth = 0
    first = None
    capturing = False
    captured = []
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


def _loop_and_brace_depth(snippet):
    """(loop_count, loop_nesting_depth, block_depth_max) by brace tracking.

    'for' preceded by an identifier token is an `impl Trait for Type` clause,
    not a loop.
    """
    loop_count = 0
    max_nest = 0
    brace_depth = 0
    max_brace = 0
    open_loops = []
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


def _first_param_list(snippet):
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


def _line_distance(snippet, first_set, second_rule):
    """Lines between first bypass-token line and first danger-token line."""
    lines = snippet.splitlines()
    first_at = next(
        (i for i, ln in enumerate(lines) if any(t in ln for t in first_set)), None
    )
    second_at = next((i for i, ln in enumerate(lines) if second_rule(ln)), None)
    if first_at is None or second_at is None:
        return 0
    return abs(first_at - second_at)


def _is_panic_token(tok):
    # The panic-path rule: panic/unwrap/expect plus the assert family.
    return tok in ("panic", "unwrap", "expect") or tok.startswith("assert")


def snippet_features(snippet):
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


def _neutral_snippet_features():
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


def _one_hot(prefix, choices, selected):
    return {f"{prefix}{c}": (1.0 if c == selected else 0.0) for c in choices}


def _checker_slot(analyzer):
    a = analyzer.lower()
    if "dataflow" in a:
        return "unsafe_dataflow"
    if "sendsync" in a or "send_sync" in a:
        return "send_sync_variance"
    if "destructor" in a:
        return "unsafe_destructor"
    return "other"


def _op_slot(op_type):
    if op_type is None or not op_type.strip():
        return "none"
    norm = re.sub(r"(?<!^)(?=[A-Z])", "_", op_type.strip()).lower().replace(" ", "_")
    return norm if norm in _OP_TYPES else "other"


def extract_features(record, meta=None, *, cluster_size=None):
    """The warning's raw feature vector in manifest order."""
    snippet = record.code_snippet
    if len(snippet.encode("utf-8")) > MAX_SNIPPET_BYTES:
        raise InputError(f"snippet is {len(snippet.encode('utf-8'))} bytes (cap 1 MiB)")

    feats = snippet_features(snippet) if snippet.strip() else _neutral_snippet_features()

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
                "download_count_log": math.log10(1 + meta.downloads),
                "unsafe_prevalence": float(meta.unsafe_prevalence),
                "package_loc": float(meta.loc),
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
    return FeatureVector(values)
