"""Seeded inputs for the benchmark: reports, labels, metadata, outcomes, checkpoint.

Everything here is a pure function of its seed and uses only the documented
file formats, so a change to triagerl's own generators or to its trainer
cannot change what the triage workloads feed the program.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

import numpy as np

# Every analyzer the generator emits, with the weight of each.
_ANALYZERS = (
    ("UnsafeDataflow", 0.55),
    ("SendSyncVariance", 0.17),
    ("UnsafeDestructor", 0.18),
    # No harness template matches this analyzer, so external fuzzing of its
    # warnings fails at harness generation.
    ("RawPointerLint", 0.10),
)
_DATAFLOW_OPS = (
    "ReadFlow", "CopyFlow", "WriteFlow", "VecFromRaw", "VecSetLen", "Transmute",
    "PtrAsRef", "SliceUnchecked", "SliceFromRaw", "Uninitialized", "OffsetFlow",
)
_LEVELS = (("Warning", 0.6), ("Error", 0.25), ("Info", 0.15))
_CALLEES = ("set_len", "from_raw_parts", "ptr_read", "transmute", "assume_init", "copy_nonoverlapping")
_TYPES = ("u8", "u32", "usize", "T", "String", "Vec<T>", "Box<T>", "Arc<T>", "Rc<RefCell<T>>")
_SYLLABLES = ("ra", "ko", "mi", "te", "lu", "an", "vor", "zel", "qui", "bra", "sto", "nex", "dri", "pa")

OUTCOME_KINDS = ("crash", "sanitizer_violation", "clean", "inconclusive", "infrastructure_failure")
_OUTCOME_WEIGHTS = (0.20, 0.10, 0.35, 0.25, 0.10)

# Documented harness-target rules: the first `fn` item in the snippet, else a
# quoted identifier in the description.
_FN_ITEM = re.compile(r"\bfn\s+([A-Za-z_]\w*)")
_QUOTED = re.compile(r"[`']([A-Za-z_]\w*)[`']")


def warning_id(obj: dict) -> str:
    """The documented 16-hex id over the location/analyzer/description 7-tuple."""
    canon = "\x1f".join(str(obj[k]) for k in (
        "file", "start_line", "start_col", "end_line", "end_col", "analyzer", "description"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _pick(rng, weighted):
    return rng.choices([w[0] for w in weighted], [w[1] for w in weighted])[0]


def _ident(rng, parts=2) -> str:
    return "_".join(
        rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES)
        for _ in range(parts)
    )


def _generics(rng) -> str:
    n = rng.randrange(0, 3)
    if n == 0:
        return ""
    params = []
    for k in range(n):
        name = "TUVW"[k]
        bound = rng.random()
        if bound < 0.4:
            params.append(f"{name}: Copy")
        elif bound < 0.6:
            params.append(f"{name}: Fn(&u8) -> bool")
        else:
            params.append(name)
    if rng.random() < 0.3:
        params.insert(0, "'a")
    return "<" + ", ".join(params) + ">"


def _body_line(rng, depth: int) -> str:
    pad = "    " * depth
    v = _ident(rng, 1)
    choice = rng.randrange(0, 14)
    n = rng.randrange(1, 64)
    return pad + (
        f"let {v} = data.len() + {n};",
        f"unsafe {{ data.set_len({v}); }}",
        f"let {v}: *mut u8 = data.as_mut_ptr();",
        f"let {v} = unsafe {{ std::mem::transmute::<u32, f32>({n}) }};",
        f"if {v}.is_empty() {{ panic!(\"{v} empty\"); }}",
        f"let {v} = Box::new({n});",
        f"let {v} = items.get({n}).unwrap();",
        f"// {v}: caller keeps the buffer alive",
        f"for x in data.iter() {{ f(x); }}",
        f"match {v} {{ Some(x) => x, None => return {n}, }};",
        f"let {v} = Arc::new(Mutex::new({n}));",
        f"assert!({v} < {n});",
        f"let {v} = data.iter().map(|x| x + {n}).collect::<Vec<_>>();",
        f"while {v} > 0 && {v} % 2 == 0 {{ {v} -= 1; }}",
    )[choice]


def _fn_snippet(rng, name: str) -> str:
    generics = _generics(rng)
    arg_t = rng.choice(_TYPES)
    head = f"{'pub ' if rng.random() < 0.5 else ''}{'unsafe ' if rng.random() < 0.15 else ''}fn {name}{generics}(data: &mut Vec<{arg_t}>, f: F) -> usize {{"
    lines = [head]
    for _ in range(rng.randrange(1, 5)):
        lines.append(_body_line(rng, 1))
    lines.append("    0")
    lines.append("}")
    return "\n".join(lines)


def _sendsync_snippet(rng, name: str, with_fn: bool) -> str:
    ty = name.title().replace("_", "")
    lines = [
        f"pub struct {ty}<T> {{ inner: *mut T, len: usize }}",
        f"unsafe impl<T> Send for {ty}<T> {{}}",
    ]
    if rng.random() < 0.5:
        lines.append(f"unsafe impl<T> Sync for {ty}<T> {{}}")
    if with_fn:
        lines.append(f"impl<T> {ty}<T> {{")
        lines.append(f"    pub fn {name}(&self) -> &T {{ unsafe {{ &*self.inner }} }}")
        lines.append("}")
    return "\n".join(lines)


def _drop_snippet(rng, name: str) -> str:
    ty = name.title().replace("_", "")
    lines = [f"impl<T: 'static> Drop for {ty}<T> {{", "    fn drop(&mut self) {"]
    for _ in range(rng.randrange(1, 4)):
        lines.append(_body_line(rng, 2))
    lines.append("        unsafe { free(self.ptr); }")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def _warning(rng, file: str, line: int) -> tuple[dict, bool]:
    """One report object plus whether a harness can be rendered for it."""
    analyzer = _pick(rng, _ANALYZERS)
    name = _ident(rng)
    callee = rng.choice(_CALLEES)
    op_type = None
    pattern_known = True
    if analyzer == "UnsafeDataflow":
        op_type = rng.choice(_DATAFLOW_OPS)
        description = (
            f"unsafe dataflow from `{callee}` reaches a generic call",
            "duplicated value reaches generic call while panicking",
            f"value flows into '{callee}' after a length change",
        )[rng.randrange(0, 3)]
        snippet = _fn_snippet(rng, name)
    elif analyzer == "SendSyncVariance":
        description = "missing Send bound allows cross-thread sharing"
        snippet = _sendsync_snippet(rng, name, with_fn=rng.random() < 0.6)
    elif analyzer == "UnsafeDestructor":
        description = "unsafe block detected in drop"
        snippet = _drop_snippet(rng, name)
    else:
        description = f"raw pointer dereference in `{name}`"
        pattern_known = False
        snippet = _fn_snippet(rng, name)
    if rng.random() < 0.02:
        snippet = ""
    obj = {
        "level": _pick(rng, _LEVELS),
        "analyzer": analyzer,
        "op_type": op_type,
        "description": description,
        "file": file,
        "start_line": line,
        "start_col": rng.randrange(1, 9),
        "end_line": line + snippet.count("\n"),
        "end_col": rng.randrange(20, 90),
        "code_snippet": snippet,
    }
    target = _FN_ITEM.search(snippet) or _QUOTED.search(description)
    return obj, pattern_known and target is not None


def corpus(n: int, seed: int) -> dict:
    """A report of n warnings with labels, package metadata and outcomes.

    Warnings come in same-file clusters of several sizes at nearby lines.
    A third of the packages, holding a third of the warnings, have no
    metadata and are imputed. Labels and recorded outcomes are drawn per
    warning; outcomes cover all five kinds. `harness_ok[id]` says whether an
    external harness can be rendered for the warning.
    """
    rng = random.Random(seed)
    n_packages = max(3, n // 10)
    packages = [f"{_ident(rng, 1)}{k}-0.{k % 7}.{k % 3}" for k in range(n_packages)]
    imputed_packages = packages[::3]
    known_packages = [p for k, p in enumerate(packages) if k % 3]
    metadata = {
        p: {
            "downloads": int(10 ** rng.uniform(1, 7)),
            "unsafe_prevalence": round(rng.random(), 3),
            "loc": rng.randrange(200, 200_000),
        }
        for p in known_packages
    }
    report, harness_ok = [], {}
    file_lines: dict[str, int] = {}
    cluster_sizes = (1, 1, 1, 1, 2, 2, 3, 4, 6)
    imputed = 0
    while len(report) < n:
        size = min(rng.choice(cluster_sizes), n - len(report))
        # Keep the imputed share at a third whatever the seed: the triage
        # checkpoint fuzzes exactly these warnings.
        if 3 * imputed < len(report) + size:
            pkg = rng.choice(imputed_packages)
            imputed += size
        else:
            pkg = rng.choice(known_packages)
        file = f"{pkg}/src/{_ident(rng, 1)}_{rng.randrange(0, 8)}.rs"
        line = file_lines.get(file, 0) + rng.randrange(30, 120)
        for _ in range(size):
            obj, ok = _warning(rng, file, line)
            report.append(obj)
            harness_ok[warning_id(obj)] = ok
            line = obj["end_line"] + rng.randrange(1, 6)
        file_lines[file] = line
    ids = [warning_id(o) for o in report]
    if len(set(ids)) != len(ids):
        raise RuntimeError("generated warning ids collide")
    p_tp = {"UnsafeDataflow": 0.45, "SendSyncVariance": 0.35, "UnsafeDestructor": 0.3, "RawPointerLint": 0.2}
    labels = {wid: ("tp" if rng.random() < p_tp[o["analyzer"]] else "fp") for wid, o in zip(ids, report)}
    outcomes = {
        wid: (rng.choices(OUTCOME_KINDS, _OUTCOME_WEIGHTS)[0], round(rng.uniform(0.5, 60.0), 3))
        for wid in ids
    }
    return {"report": report, "ids": ids, "labels": labels, "metadata": metadata,
            "outcomes": outcomes, "harness_ok": harness_ok}


def report_bytes(c: dict) -> bytes:
    return json.dumps(c["report"], indent=1).encode("utf-8")


def labels_bytes(c: dict) -> bytes:
    return "".join(f"{wid}\t{lab}\tgenerated\n" for wid, lab in c["labels"].items()).encode("utf-8")


def metadata_bytes(c: dict) -> bytes:
    return json.dumps(c["metadata"], indent=1, sort_keys=True).encode("utf-8")


def outcomes_bytes(c: dict) -> bytes:
    return "".join(
        f"{wid}\t{kind}\t{elapsed!r}\trecorded {kind}\n" for wid, (kind, elapsed) in c["outcomes"].items()
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# Triage checkpoint, written directly in the checkpoint format.
# ---------------------------------------------------------------------------

FUZZ_SLOTS = 6
HIDDEN = (256, 128)
FUZZ_ACTION = 2


def checkpoint_bytes(seed: int, manifest, train_config: dict, reward_spec: dict) -> bytes:
    """A seeded policy that fuzzes warnings whose package metadata is imputed.

    Two hidden units of each layer are wired by hand so that the decisions
    follow inputs whose distribution the generator fixes: the greedy fuzz
    share follows the share of imputed packages (about a third), and the
    label follows unsafe prevalence and crash-grade fuzz evidence. The other
    units are small seeded random weights that spread the scores. Raw count
    slots get zero input weights, because their log companions carry the same
    information at a usable scale. The normalizer is the identity.
    """
    rng = np.random.default_rng([seed, 2])
    n_features = len(manifest)
    in_dim = n_features + FUZZ_SLOTS
    h1, h2 = HIDDEN
    w1 = rng.normal(0.0, 0.15, size=(in_dim, h1))
    for i, entry in enumerate(manifest.entries):
        if entry.kind.value == "count":
            w1[i, :] = 0.0
    # Unit 0 carries the imputation flag to the fuzz logit; unit 1 carries
    # unsafe prevalence plus crash-grade fuzz evidence to the TP-vs-FP margin.
    imputed = manifest.index_of("metadata_imputed_flag")
    prevalence = manifest.index_of("unsafe_prevalence")
    b1 = rng.normal(0.0, 0.05, size=h1)
    w2 = rng.normal(0.0, 0.08, size=(h1, h2))
    b2 = rng.normal(0.0, 0.05, size=h2)
    w_pi = rng.normal(0.0, 0.05, size=(h2, 3))
    for unit in (0, 1):
        w1[:, unit] = 0.0
        b1[unit] = b2[unit] = 0.0
        w2[:, unit] = 0.0
        w2[unit, :] = 0.0
        w2[unit, unit] = 1.0
    w1[imputed, 0] = 1.0
    w1[prevalence, 1] = 1.0
    w1[n_features + 1, 1] = 1.0  # crash
    w1[n_features + 2, 1] = 1.0  # sanitizer violation
    w_pi[0, :] = (0.0, 0.0, 8.0)
    w_pi[1, :] = (6.0, -6.0, 0.0)
    b_pi = np.array([-3.0, 3.0, -4.0])
    w_v = rng.normal(0.0, 0.1, size=(h2, 1))
    b_v = np.zeros(1)
    weights = {"w1": w1, "b1": b1, "w2": w2, "b2": b2, "w_pi": w_pi, "b_pi": b_pi, "w_v": w_v, "b_v": b_v}
    doc = {
        "format_version": 1,
        "manifest_digest": manifest.digest,
        "layer_dims": [in_dim, h1, h2],
        "dropout_rate": 0.0,
        "seed": seed,
        "weights": {k: v.ravel().tolist() for k, v in weights.items()},
        "normalizer": {
            "mean": [0.0] * n_features,
            "std": [1.0] * n_features,
            "fitted_on": "train",
            "manifest_digest": manifest.digest,
        },
        "config": train_config,
        "reward_spec": reward_spec,
        "history": [],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def fake_fuzz_outcome(warning_id: str) -> str:
    """The outcome kind the fake fuzzer produces for a harness of this id.

    Mirrors the case table in fake_fuzz.sh, keyed by the id's last hex digit.
    """
    last = warning_id[-1]
    if last in "0123":
        return "crash"
    if last in "45":
        return "sanitizer_violation"
    if last in "6789ab":
        return "clean"
    if last in "cd":
        return "inconclusive"  # nonzero exit without a marker
    return "infrastructure_failure"  # build-failure marker


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()
