"""Feature manifest, heuristic extraction, and normalization."""

import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from triagerl.errors import InputError
from triagerl.features import (
    EXPECTED_FEATURE_COUNT,
    MANIFEST,
    FeatureTable,
    FeatureVector,
    Kind,
    PackageMetadata,
    _digest,
    build_manifest,
    extract_features,
    fit_normalizer,
    manifest_export,
    normalize,
    read_feature_sidecar,
    read_package_metadata,
    validate_vector,
    write_feature_sidecar,
)
from triagerl import features as features_mod
from triagerl.cli import run_cli
from triagerl.evaluate import evaluate_checkpoint, permutation_importance
from triagerl.fuzz import SimOracleConfig, SimulatedBackend
from triagerl.synthetic import separable_task
from triagerl.trainer import TrainConfig, train
from triagerl.warnings import (
    Level,
    Split,
    WarningRecord,
    cluster_sizes,
    package_of,
    read_warning_store,
    warning_id,
    write_warning_store,
)

import feature_oracle
from conftest import write_demo_inputs
from test_warnings import AARC_REPORT_OBJECT, make_record

# The core signal set, pinned as a checked-in list; the manifest must
# carry each of these exactly once.
REQUIRED_FEATURES = [
    "generic_param_count",
    "trait_bound_flag",
    "generic_nesting_depth",
    "borrow_ratio",
    "borrow_nesting_depth",
    "smart_pointer_count",
    "cyclomatic_complexity",
    "loop_nesting_depth",
    "panic_path_count",
    "bypass_panic_safety",
    "bypass_higher_order_invariant",
    "bypass_send_sync_variance",
    "bypass_unknown",
    "bypass_to_danger_distance",
    "download_count_log",
    "unsafe_prevalence",
    "public_api_flag",
    "lines_of_code",
    "parameter_count",
    "comment_density",
    "checker_unsafe_dataflow",
    "checker_send_sync_variance",
    "checker_unsafe_destructor",
    "checker_other",
    "level_error",
    "level_warning",
    "level_info",
    "cluster_size",
]


def snippet_record(snippet, **kw):
    return make_record(0, **kw).__class__(
        **{**make_record(0, **kw).__dict__, "code_snippet": snippet}
    )


def features_of(rec, meta=None, cluster_size=1):
    """The one-row feature matrix of `rec`, its package described by `meta`."""
    metadata = {} if meta is None else {package_of(rec): meta}
    return extract_features([rec], metadata, {rec.id: cluster_size}, "warnings")[0]


def sidecar_of(rec, values):
    """A one-line sidecar giving `rec` the row `values`."""
    return write_feature_sidecar([rec.id], values[None, :])


def value_of(row, name):
    return row[MANIFEST.index_of(name)]


class TestManifest:
    def test_exact_count(self):
        assert len(MANIFEST) == EXPECTED_FEATURE_COUNT == 87

    def test_names_unique(self):
        assert len({e.name for e in MANIFEST.entries}) == len(MANIFEST)

    def test_required_features_present_exactly_once(self):
        for name in REQUIRED_FEATURES:
            assert [e.name for e in MANIFEST.entries].count(name) == 1, name

    def test_digest_changes_iff_entries_change(self):
        assert _digest(MANIFEST.version, MANIFEST.entries) == MANIFEST.digest
        perturbed = (MANIFEST.entries[1],) + MANIFEST.entries[1:]
        assert _digest(MANIFEST.version, perturbed) != MANIFEST.digest
        assert build_manifest().digest == MANIFEST.digest

    def test_a_column_without_a_slot_fails(self, monkeypatch):
        # A checker value the manifest has no slot for fills a column no slot reads.
        monkeypatch.setattr(features_mod, "_CHECKERS", features_mod._CHECKERS + ("bogus",))
        with pytest.raises(AssertionError, match="checker_bogus"):
            extract_features([make_record(0)], {}, {make_record(0).id: 1}, "warnings")

    def test_export_lists_every_slot(self):
        text = manifest_export()
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(MANIFEST)
        assert MANIFEST.digest in lines[0]
        assert lines[1].startswith("0\t")


class TestHeuristicExtraction:
    def test_generic_params_and_trait_bound(self):
        # Hand count: parameters T and U; the bound colon on T.
        rec = snippet_record("fn f<T: Clone, U>(x: &T) {}")
        vec = features_of(rec)
        assert value_of(vec, "generic_param_count") == 2
        assert value_of(vec, "trait_bound_flag") == 1
        assert value_of(vec, "parameter_count") == 1
        assert value_of(vec, "fn_item_count") == 1

    def test_empty_snippet_neutral_defaults(self):
        rec = snippet_record("")
        vec = features_of(rec, meta=None)
        assert value_of(vec, "snippet_missing_flag") == 1
        assert value_of(vec, "metadata_imputed_flag") == 1
        assert value_of(vec, "borrow_ratio") == 0.5
        assert value_of(vec, "comment_density") == 0.5
        assert value_of(vec, "unsafe_prevalence") == 0.5
        assert value_of(vec, "generic_param_count") == 0
        assert value_of(vec, "panic_path_count") == 0

    def test_panic_and_unsafe_counting(self):
        snippet = (
            "fn g(v: &mut Vec<u8>) {\n"
            "    unsafe { v.set_len(0); }\n"
            "    v.retain(|x| *x > 0);\n"
            "    assert!(v.is_empty());\n"
            "    other.unwrap();\n"
            "}"
        )
        vec = features_of(snippet_record(snippet))
        assert value_of(vec, "unsafe_block_count") == 1
        assert value_of(vec, "panic_path_count") == 2  # assert + unwrap
        assert value_of(vec, "closure_count") == 1
        # set_len on line 2, first panic token on line 4.
        assert value_of(vec, "bypass_to_danger_distance") == 2

    def test_listing_like_destructor_snippet(self):
        rec = WarningRecord(
            id=warning_id(*(AARC_REPORT_OBJECT[k] for k in
                            ("file", "start_line", "start_col", "end_line", "end_col",
                             "analyzer", "description"))),
            level=Level.WARNING,
            analyzer="UnsafeDestructor",
            op_type=None,
            description="unsafe block detected in drop",
            file="aarc-0.3.2/src/smart_ptrs.rs",
            start_line=118, start_col=1, end_line=118, end_col=33,
            code_snippet="impl<T: 'static> Drop for Arc<T> {...} }",
        )
        vec = features_of(rec)
        assert value_of(vec, "drop_impl_flag") == 1
        assert value_of(vec, "checker_unsafe_destructor") == 1
        assert value_of(vec, "level_warning") == 1
        assert value_of(vec, "bypass_higher_order_invariant") == 1
        assert value_of(vec, "smart_pointer_count") == 1  # Arc
        assert value_of(vec, "lifetime_param_count") == 1  # 'static

    def test_metadata_and_cluster_features(self):
        meta = PackageMetadata(downloads=999, unsafe_prevalence=0.25, loc=5000)
        vec = features_of(snippet_record("fn f() {}"), meta, cluster_size=4)
        assert value_of(vec, "download_count_log") == pytest.approx(3.0)
        assert value_of(vec, "unsafe_prevalence") == 0.25
        assert value_of(vec, "metadata_imputed_flag") == 0
        assert value_of(vec, "cluster_size") == 4
        assert value_of(vec, "clustered_flag") == 1
        assert value_of(vec, "cluster_size_log") == pytest.approx(math.log1p(4))

    def test_snippet_too_large_refused(self, tmp_path, capsys):
        # 1 MiB of UTF-8 passes; one byte more exits 3 naming the file and the warning.
        for size, code in ((1 << 20, 0), ((1 << 20) + 1, 3)):
            rec = snippet_record("x" * size)
            store = tmp_path / f"w{size}.jsonl"
            store.write_bytes(write_warning_store([rec]))
            argv = ["featurize", "--warnings", str(store), "--out", str(tmp_path / "f.jsonl")]
            assert run_cli(argv) == code
            err = capsys.readouterr().err
            if code:
                assert f"{store}: warning {rec.id}: snippet is {size} bytes (cap 1 MiB)" in err, err
        with pytest.raises(InputError, match="cap 1 MiB"):
            features_of(snippet_record("é" * (1 << 19) + "x"))

    def test_deterministic_bit_identical(self):
        rec = snippet_record("fn f<T>(x: &T) { if x.is_good() { panic!(); } }")
        meta = PackageMetadata(10, 0.5, 100)
        a = features_of(rec, meta, cluster_size=2)
        b = features_of(rec, meta, cluster_size=2)
        assert a.tobytes() == b.tobytes()

    @given(st.text(max_size=160))
    @settings(max_examples=80, deadline=None)
    def test_length_and_validity_for_arbitrary_snippets(self, snippet):
        vec = features_of(snippet_record(snippet))
        assert len(vec) == len(MANIFEST)
        assert np.all(np.isfinite(vec))
        for i, entry in enumerate(MANIFEST.entries):
            if entry.kind in (Kind.FLAG, Kind.ONE_HOT):
                assert vec[i] in (0.0, 1.0)
            if entry.kind is Kind.RATIO:
                assert 0.0 <= vec[i] <= 1.0
        validate_vector(vec[None, :], str)

    def test_empty_report_gives_empty_matrix(self):
        assert extract_features([], {}, {}, "warnings").shape == (0, len(MANIFEST))


# Whole snippets at the edges where the one-pass rules could part from the
# per-rule scans: word characters before a keyword, every line separator
# `str.splitlines` knows, a bypass token inside a longer word, comparisons
# and arrows beside '>', unbalanced and nested brackets, char literals beside
# lifetimes, runs of '&' and '|', `impl Trait for Type`, blank snippets.
EDGE_SNIPPETS = [
    "9unsafe { x }", "éunsafe { x }", "x.set_len(0);\n9assert!(x);",
    *(f"a.set_len(1);{sep}b.unwrap();" for sep in
      ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")),
    "let forgetful = 1;\n\nx.unwrap();",
    "if x<y { z }", "9<T, U>", "é<T, U>", "X<a=>b, c>", "F<Fn() -> T, U>",
    "fn f<T>(x: F<Fn() -> T, U>) -> Vec<T> {}",
    "fn f<T(x: (u8, [u8; 2]) {{", "}}} fn g(a, b) { }", "fn h(a, b", "F<'a,\n\t'b, \t>",
    "fn p(f: impl Fn(u8) -> (u8, u8), b: u8) {}", "fn q(a, (b, c)", "fn r(",
    "<<<>>", "F<A<B>, C<D<E>>>", "((())",
    "let c = 'a'; fn f<'a, T: 'a>(x: &'a T)", "a &&& b ||| c; v.map(|x| x)",
    "if a || b || c { v.map(|x| x) }",
    "impl Trait for Type { fn f() { for x in y { loop { } } } }", "a; for x in y { while z {} }",
    "unsafe fn f() {}", "static mut X: u8 = 0;", "unsafe impl Send for X {}",
    "impl<T> Drop for X<T> { fn drop(&mut self) {} }", "fn f<T>() where T: Clone {}",
    "union U { a: u8 }", "extern \"C\" { fn g(); }", "// c\n/* d */\nx?;\nreturn y?",
    "", "   ", "\n\t\u2028",
]
# Rust-like pieces, the edge snippets among them, for random combinations.
SNIPPET_PIECES = [
    *EDGE_SNIPPETS, "fn f", "pub ", "unsafe ", "unsafe {", "9unsafe {", "éunsafe {", "9assert!(",
    "assert_eq!(", "panic!(", ".unwrap()", ".expect(", "return ", "forgetful", "forget(",
    "set_len(", "from_raw_parts", "MaybeUninit", "transmute", "as_mut_ptr", "\n", "\r", "\r\n",
    "\v", "\f", "\x1c", "\x85", "\u2028", "x<y", "->", "=>", "-> T>", "=>>", "<", ">", "(", ")",
    "[", "]", "{", "}", ";", ",", ":", "'a", "'a'", "&", "&&&", "& mut ", "|", "|||", "?",
    "*const ", "* mut ", "impl Trait for Type", "for x in y {", "while ", " where ", "Box<",
    "Arc<Mutex<", "// c", "/* c */", " ", "\t", "x", "9", "é", "_",
]
snippets = st.lists(st.sampled_from(SNIPPET_PIECES) | st.text(max_size=3), max_size=12).map("".join)
# Snippet ends and starts that a rule could read across the boundary between
# two neighbouring snippets, and characters outside ASCII or printable text.
BOUNDARY_ENDS = ["\r", "&", "|", "=", "-", "/", "'", "<", "{", "fn f(", "fn f<T>(a", "word",
                 "unsafe", "impl X", "9"]
BOUNDARY_STARTS = ["\n", "&", ">", "/", "*", "word", "mut", "{", "}", "fn g(a, b) {", "é"]
ODD_CHARACTERS = ["\0", "é", "\u00a0", "\u3000", "\u0663", "\U0001d465", "\x85", "\r\n"]
boundary_snippets = st.builds(
    lambda start, body, end: start + body + end,
    st.sampled_from(["", *BOUNDARY_STARTS]),
    st.lists(st.sampled_from(SNIPPET_PIECES + ODD_CHARACTERS), max_size=6).map("".join),
    st.sampled_from(["", *BOUNDARY_ENDS]))


# Values of the fields the analyzer and package slots read: the descriptions
# and op types hold the words that decide the bypass pattern, and two files
# share a package.
WARNING_FIELDS = {
    "analyzer": ["UnsafeDataflow", "SendSyncVariance", "UnsafeDestructor", "Other"],
    "description": ["warning", "may panic", "Send and Sync", "higher-order invariant"],
    "op_type": [None, "", "VecSetLen", "ReadFlow", "odd", "send sync"],
    "level": list(Level),
    "file": ["pkg0-1.0/src/a.rs", "pkg0-1.0/src/b.rs", "pkg1-1.0/src/a.rs"],
}


def walk_oracle(step, groups):
    """The depth after each step: from 0 at each run of equal groups, never below 0."""
    depth, prev, out = 0, None, []
    for s, g in zip(step.tolist(), groups.tolist()):
        depth = max(0, (depth if g == prev else 0) + s)
        prev = g
        out.append(depth)
    return out


class TestWalk:
    def test_walk_equals_a_clamped_loop_per_group(self):
        # The loop, brace, item and parameter-list rules all read this one
        # walk: groups of one step, groups whose values skip, walks that dip
        # below 0 and the empty walk.
        rng = np.random.default_rng(3401)
        for _ in range(300):
            sizes = rng.integers(1, 8, size=rng.integers(0, 12))
            groups = np.repeat(np.cumsum(rng.integers(1, 4, size=len(sizes))), sizes)
            step = rng.integers(-3, 4, size=len(groups))
            assert features_mod._walk(step, groups).tolist() == walk_oracle(step, groups)


def oracle_matrix(records, metadata, sizes):
    return np.stack([feature_oracle.extract_features(r, metadata.get(package_of(r)),
                                                     cluster_size=sizes[r.id]).values
                     for r in records])


class TestAgainstOracle:
    def test_edge_snippets_equal_the_per_rule_oracle(self):
        records = [WarningRecord(**{**make_record(i).__dict__, "code_snippet": text})
                   for i, text in enumerate(EDGE_SNIPPETS)]
        sizes = {r.id: 1 for r in records}
        got = extract_features(records, {}, sizes, "warnings")
        expected = oracle_matrix(records, {}, sizes)
        for record, row, want in zip(records, got, expected):
            assert row.tobytes() == want.tobytes(), record.code_snippet

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_slot_equals_the_per_rule_oracle(self, data):
        # Each warning repeats one drawn set of analyzer fields and file, or
        # differs from it in exactly one of them: the slots worked out once per
        # distinct value must land on every row that shares it, and on no other.
        texts = data.draw(st.lists(snippets, min_size=1, max_size=6), label="snippets")
        shared = {name: data.draw(st.sampled_from(values), label=name)
                  for name, values in WARNING_FIELDS.items()}
        records = []
        for i, text in enumerate(texts):
            fields = dict(shared)
            changed = data.draw(st.sampled_from([None, *WARNING_FIELDS]), label="changed")
            if changed is not None:
                fields[changed] = data.draw(st.sampled_from(WARNING_FIELDS[changed]), label=changed)
            records.append(WarningRecord(**{**make_record(i, line=10 + i).__dict__,
                                            "code_snippet": text, **fields}))
        metadata = {"pkg0-1.0": PackageMetadata(data.draw(st.integers(0, 2**53)),
                                                0.25, data.draw(st.integers(0, 2**53)))}
        sizes = {r.id: data.draw(st.integers(1, 50)) for r in records}
        got = extract_features(records, metadata, sizes, "warnings")
        assert got.tobytes() == oracle_matrix(records, metadata, sizes).tobytes()

    @given(texts=st.lists(boundary_snippets, min_size=20, max_size=60))
    # No shrinking: each step re-runs the oracle on up to 60 snippets, and a
    # shrinking failure took minutes and most of a gigabyte.
    @settings(max_examples=60, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_many_neighbouring_snippets_equal_the_per_rule_oracle(self, texts):
        # The report's snippets are featurized together, so each must read
        # the same whatever its neighbours end or start with.
        records = [WarningRecord(**{**make_record(i).__dict__, "code_snippet": text})
                   for i, text in enumerate(texts)]
        sizes = {r.id: 1 for r in records}
        got = extract_features(records, {}, sizes, "warnings")
        assert got.tobytes() == oracle_matrix(records, {}, sizes).tobytes()

    def test_log_companions_of_large_counts_equal_the_per_rule_oracle(self):
        # Counts of 4,096 and more, beyond the ln(1+x) table: snippets of
        # 4,095 bytes (the table's last entry), 4,096 and more, and package
        # sizes of 10**9 and 2**53.
        texts = ["x" * 4095, "x" * 4096, "é" * 2048, "fn f() { let x = 1; }\n" * 300,
                 "unsafe { *p }\n" * 1000]
        records = [WarningRecord(**{**make_record(i).__dict__, "code_snippet": text,
                                    "file": f"pkg{i % 2}-1.0/src/a.rs"})
                   for i, text in enumerate(texts)]
        metadata = {"pkg0-1.0": PackageMetadata(10**9, 0.25, 10**9),
                    "pkg1-1.0": PackageMetadata(2**53, 0.5, 2**53)}
        sizes = {r.id: 5000 for r in records}
        got = extract_features(records, metadata, sizes, "warnings")
        assert got[:, MANIFEST.index_of("snippet_bytes")].tolist() == [4095, 4096, 4096, 6600,
                                                                       14000]
        assert got.tobytes() == oracle_matrix(records, metadata, sizes).tobytes()

    def test_demo_sidecar_is_byte_identical_to_the_oracle(self, tmp_path):
        paths = write_demo_inputs(tmp_path)
        store, out = tmp_path / "warnings.jsonl", tmp_path / "features.jsonl"
        assert run_cli(["ingest", "--report", str(paths["report"]), "--out", str(store)]) == 0
        assert run_cli(["featurize", "--warnings", str(store), "--meta", str(paths["meta"]),
                        "--out", str(out), "--config", str(paths["config"])]) == 0
        records = read_warning_store(store.read_bytes(), "warning store")
        metadata = read_package_metadata(paths["meta"].read_bytes(), "package metadata")
        sizes = cluster_sizes(records, 10)  # the demo config's cluster_radius
        expected = write_feature_sidecar([r.id for r in records],
                                         oracle_matrix(records, metadata, sizes))
        assert out.read_bytes() == expected


def read_back(rec, values):
    """A row written to a sidecar and read back, the way precomputed ones enter."""
    return read_feature_sidecar(sidecar_of(rec, values), source="f.jsonl")


class TestPrecomputedMode:
    def test_passthrough_exact(self, tmp_path):
        # The rows differ from the ones extraction gives, so only taken rows match them.
        rec = snippet_record("fn f() {}")
        values = features_of(rec)
        flag = MANIFEST.index_of("public_api_flag")
        values[flag] = 1.0 - values[flag]
        values[MANIFEST.index_of("borrow_ratio")] = 1 / 3
        assert np.array_equal(read_back(rec, values)[rec.id].values, values)
        store, sidecar, out = tmp_path / "w.jsonl", tmp_path / "s.jsonl", tmp_path / "f.jsonl"
        store.write_bytes(write_warning_store([rec]))
        sidecar.write_bytes(sidecar_of(rec, values))
        assert run_cli(["featurize", "--warnings", str(store), "--sidecar", str(sidecar),
                        "--out", str(out)]) == 0
        assert out.read_bytes() == sidecar.read_bytes()

    def test_digest_mismatch(self):
        rec = snippet_record("fn f() {}")
        good = sidecar_of(rec, features_of(rec))
        bad = good.replace(MANIFEST.digest.encode(), b"0" * 16)
        with pytest.raises(InputError, match=f"^f.jsonl line 2: vector digest {'0' * 16} "
                                                 f"!= manifest digest {MANIFEST.digest}$"):
            read_feature_sidecar(good + bad, source="f.jsonl")

    def test_invalid_values_rejected(self):
        rec = snippet_record("fn f() {}")
        values = np.zeros(len(MANIFEST))
        values[MANIFEST.index_of("borrow_ratio")] = 2.0
        with pytest.raises(InputError, match="^f.jsonl line 1: borrow_ratio"):
            read_back(rec, values)

    def test_first_bad_slot_in_manifest_order_is_reported(self):
        rec = snippet_record("fn f() {}")
        values = features_of(rec)
        values[MANIFEST.index_of("public_api_flag")] = 0.5
        values[MANIFEST.index_of("borrow_ratio")] = 2.0
        ratio = r"^f.jsonl line 1: borrow_ratio: ratio must be in \[0,1\], got 2.0$"
        with pytest.raises(InputError, match=ratio):
            read_back(rec, values)
        values[MANIFEST.index_of("trait_bound_flag")] = 0.5
        flag = "^f.jsonl line 1: trait_bound_flag: flag must be 0 or 1, got 0.5$"
        with pytest.raises(InputError, match=flag):
            read_back(rec, values)

    def test_sidecar_required(self, tmp_path, capsys):
        # A sidecar's rows are taken as they are, so no package metadata goes with one.
        rec = snippet_record("fn f() {}")
        store, sidecar = tmp_path / "w.jsonl", tmp_path / "s.jsonl"
        store.write_bytes(write_warning_store([rec]))
        sidecar.write_bytes(b"")
        argv = ["featurize", "--warnings", str(store), "--sidecar", str(sidecar),
                "--out", str(tmp_path / "f.jsonl")]
        assert run_cli(argv + ["--meta", str(tmp_path / "meta.json")]) == 2
        assert "argument --meta: not allowed with argument --sidecar" in capsys.readouterr().err
        assert run_cli(argv) == 3
        assert f"no feature vector for warning {rec.id}" in capsys.readouterr().err


def fit(vectors):
    return fit_normalizer(np.stack([v.values for v in vectors]))


def normalized(vectors, stats):
    """The normalized matrix of `vectors`' raw rows."""
    return normalize(np.stack([v.values for v in vectors]), stats)


def column_vectors(column_name, column_values):
    """Vectors that vary only in one named column."""
    out = []
    for i, v in enumerate(column_values):
        values = np.zeros(len(MANIFEST))
        values[MANIFEST.index_of(column_name)] = v
        out.append(FeatureVector(values))
    return out


class TestNormalizer:
    def test_hand_computed_sample_sd(self):
        vectors = column_vectors("lines_of_code", [1.0, 2.0, 3.0])
        stats = fit(vectors)
        col = MANIFEST.index_of("lines_of_code")
        assert stats.mean[col] == pytest.approx(2.0)
        assert stats.std[col] == pytest.approx(1.0)  # ddof=1
        assert normalized(vectors, stats)[:, col].tolist() == pytest.approx([-1.0, 0.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        vectors = column_vectors("lines_of_code", [7.0, 7.0, 7.0])
        stats = fit(vectors)
        col = MANIFEST.index_of("lines_of_code")
        assert (normalized(vectors, stats)[:, col] == 0.0).all()

    def test_apply_to_unseen_value(self):
        stats = fit(column_vectors("lines_of_code", [1.0, 2.0, 3.0]))
        unseen = column_vectors("lines_of_code", [4.0])[0]
        assert normalized([unseen], stats)[0, MANIFEST.index_of("lines_of_code")] == pytest.approx(2.0)

    def test_one_hot_bypasses_z_score(self):
        vectors = column_vectors("checker_unsafe_dataflow", [1.0, 0.0, 1.0])
        stats = fit(vectors)
        col = MANIFEST.index_of("checker_unsafe_dataflow")
        assert normalized(vectors, stats)[:, col].tolist() == [1.0, 0.0, 1.0]

    def test_empty_train_set(self):
        with pytest.raises(InputError, match="^need >= 2 training vectors, got 1$"):
            fit(column_vectors("lines_of_code", [1.0]))

    def test_matrix_matches_per_slot_reference(self):
        # The per-slot rule the column operations replace, compared exactly.
        rng = np.random.default_rng(3)
        vectors = [FeatureVector(rng.integers(0, 2, len(MANIFEST)) * rng.normal(size=len(MANIFEST)))
                   for i in range(9)]
        vectors[0].values[:] = vectors[1].values  # rows 0 and 1 agree ...
        stats = fit(vectors)
        stats.std[::7] = 0.0  # ... and some columns are constant
        expected = np.zeros((len(vectors), len(MANIFEST)))
        for r, v in enumerate(vectors):
            for i, entry in enumerate(MANIFEST.entries):
                if entry.kind is Kind.ONE_HOT:
                    expected[r, i] = v.values[i]
                elif stats.std[i] > 0:
                    expected[r, i] = (v.values[i] - stats.mean[i]) / stats.std[i]
        assert np.array_equal(normalized(vectors, stats), expected)

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 24))
    @settings(max_examples=30, deadline=None)
    def test_normalized_train_matrix_is_standard(self, seed, n):
        rng = np.random.default_rng(seed)
        vectors = []
        for i in range(n):
            values = np.zeros(len(MANIFEST))
            for j, entry in enumerate(MANIFEST.entries):
                if entry.kind in (Kind.COUNT, Kind.LOG_SCALED):
                    values[j] = rng.normal()
                elif entry.kind is Kind.RATIO:
                    values[j] = rng.random()
            vectors.append(FeatureVector(values))
        stats = fit(vectors)
        matrix = normalized(vectors, stats)
        for j, entry in enumerate(MANIFEST.entries):
            if entry.kind is Kind.ONE_HOT:
                continue
            raw = np.array([v.values[j] for v in vectors])
            if raw.std() == 0:
                assert np.all(matrix[:, j] == 0.0)
            else:
                assert abs(matrix[:, j].mean()) < 1e-9
                assert abs(matrix[:, j].std(ddof=1) - 1.0) < 1e-6


class TestSidecarIO:
    def test_round_trip(self):
        rec = snippet_record("fn f() {}")
        vec = features_of(rec)
        data = sidecar_of(rec, vec)
        parsed = read_feature_sidecar(data, "feature sidecar")
        assert parsed[rec.id].values.tolist() == vec.tolist()
        assert json.loads(data)["manifest_digest"] == MANIFEST.digest


class TestFeatureTable:
    @pytest.mark.parametrize("slot, value, problem", [
        ("public_api_flag", 0.5, "public_api_flag: flag must be 0 or 1, got 0.5"),
        ("borrow_ratio", 1.5, "borrow_ratio: ratio must be in [0,1], got 1.5"),
        ("lines_of_code", math.nan, "non-finite value in slot lines_of_code"),
    ], ids=["flag", "ratio", "nan"])
    def test_a_bad_in_memory_row_names_its_warning_when_built(self, slot, value, problem):
        records = [make_record(i) for i in range(3)]
        matrix = np.stack([features_of(r) for r in records])
        matrix[1, MANIFEST.index_of(slot)] = value
        with pytest.raises(InputError) as caught:
            FeatureTable.of([r.id for r in records], matrix)
        assert str(caught.value) == f"warning {records[1].id}: {problem}"

    def test_sidecar_and_in_memory_tables_give_the_same_rows(self):
        records = [make_record(i) for i in range(5)]
        matrix = np.stack([features_of(r) for r in records])
        matrix[2, MANIFEST.index_of("public_api_flag")] = -0.0
        ids = [r.id for r in records]
        in_memory = FeatureTable.of(ids, matrix)
        from_sidecar = read_feature_sidecar(write_feature_sidecar(ids, matrix), "f.jsonl")
        asked = [records[i] for i in (3, 0, 2, 2, 4)]
        assert in_memory.rows_of(asked).tobytes() == from_sidecar.rows_of(asked).tobytes()
        assert in_memory.rows_of(asked).tobytes() == matrix[[3, 0, 2, 2, 4]].tobytes()
        assert in_memory[ids[2]].values.tobytes() == matrix[2].tobytes()

    def test_an_id_keeps_its_first_row_and_may_not_take_another(self):
        records = [make_record(i) for i in range(2)]
        matrix = np.stack([features_of(r) for r in [*records, records[0]]])
        ids = [records[0].id, records[1].id, records[0].id]
        assert FeatureTable.of(ids, matrix).row == {ids[0]: 0, ids[1]: 1}
        flag = MANIFEST.index_of("public_api_flag")
        matrix[2, flag] = 1.0 - matrix[2, flag]
        with pytest.raises(InputError, match=f"^warning {ids[0]}: {ids[0]} was stated before "
                                             "with another value$"):
            FeatureTable.of(ids, matrix)

    def test_a_record_without_a_row_is_named(self):
        # The table's source leads the message: the sidecar file, or in-memory rows.
        records = [make_record(i) for i in range(3)]
        row = features_of(records[0])[None, :]
        for table, source in ((read_feature_sidecar(write_feature_sidecar([records[0].id], row),
                                                    "f.jsonl"), "f.jsonl"),
                              (FeatureTable.of([records[0].id], row), "in-memory rows")):
            with pytest.raises(InputError, match=f"^{source}: no feature vector for warning "
                                                 f"{records[1].id}$"):
                table.rows_of(records)

    def test_an_empty_sidecar_reads_as_an_empty_table(self):
        table = read_feature_sidecar(b"", "f.jsonl")
        assert table.row == {} and table.matrix.shape == (0, len(MANIFEST))
        assert table.rows_of([]).shape == (0, len(MANIFEST))

    def test_readers_of_a_table_check_no_row_again(self, monkeypatch):
        calls = []
        real = features_mod.validate_vector

        def counting(matrix, where):
            calls.append(len(matrix))
            return real(matrix, where)

        monkeypatch.setattr(features_mod, "validate_vector", counting)
        dataset, table = separable_task(n=60, seed=1)
        assert calls == [60]  # built, and checked, once
        calls.clear()
        backend = SimulatedBackend(SimOracleConfig(0.6, 0.1, 0.3, seed=2))
        ckpt = train(dataset, table, TrainConfig(epochs_max=1, patience=1, seed=0), backend)
        records = dataset.split_records(Split.TEST)
        evaluate_checkpoint(ckpt, records, table, backend)
        permutation_importance(ckpt, records, table, repeats=1, seed=0)
        assert calls == []
