"""Feature manifest, heuristic extraction, and normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagerl.errors import DigestMismatch, EmptyTrainSet, FeatureValidationError, SnippetTooLarge
from triagerl.features import (
    EXPECTED_FEATURE_COUNT,
    MANIFEST,
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
    write_feature_sidecar,
)
from triagerl.cli import run_cli
from triagerl.trainer import feature_matrix
from triagerl.warnings import Level, WarningRecord, warning_id, write_warning_store

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


def value_of(vec, name):
    return vec.values[MANIFEST.index_of(name)]


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
        vec = extract_features(rec)
        assert value_of(vec, "generic_param_count") == 2
        assert value_of(vec, "trait_bound_flag") == 1
        assert value_of(vec, "parameter_count") == 1
        assert value_of(vec, "fn_item_count") == 1

    def test_empty_snippet_neutral_defaults(self):
        rec = snippet_record("")
        vec = extract_features(rec, meta=None)
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
        vec = extract_features(snippet_record(snippet))
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
        vec = extract_features(rec)
        assert value_of(vec, "drop_impl_flag") == 1
        assert value_of(vec, "checker_unsafe_destructor") == 1
        assert value_of(vec, "level_warning") == 1
        assert value_of(vec, "bypass_higher_order_invariant") == 1
        assert value_of(vec, "smart_pointer_count") == 1  # Arc
        assert value_of(vec, "lifetime_param_count") == 1  # 'static

    def test_metadata_and_cluster_features(self):
        meta = PackageMetadata("demo", download_count=999, unsafe_prevalence=0.25, total_loc=5000)
        vec = extract_features(snippet_record("fn f() {}"), meta, cluster_size=4)
        assert value_of(vec, "download_count_log") == pytest.approx(3.0)
        assert value_of(vec, "unsafe_prevalence") == 0.25
        assert value_of(vec, "metadata_imputed_flag") == 0
        assert value_of(vec, "cluster_size") == 4
        assert value_of(vec, "clustered_flag") == 1
        assert value_of(vec, "cluster_size_log") == pytest.approx(math.log1p(4))

    def test_snippet_too_large_refused(self):
        rec = snippet_record("x" * (1 << 20 + 1))
        with pytest.raises(SnippetTooLarge):
            extract_features(rec)

    def test_deterministic_bit_identical(self):
        rec = snippet_record("fn f<T>(x: &T) { if x.is_good() { panic!(); } }")
        meta = PackageMetadata("d", 10, 0.5, 100)
        a = extract_features(rec, meta, cluster_size=2)
        b = extract_features(rec, meta, cluster_size=2)
        assert a.values.tobytes() == b.values.tobytes()

    @given(st.text(max_size=160))
    @settings(max_examples=80, deadline=None)
    def test_length_and_validity_for_arbitrary_snippets(self, snippet):
        vec = extract_features(snippet_record(snippet))
        assert len(vec.values) == len(MANIFEST)
        assert np.all(np.isfinite(vec.values))
        for i, entry in enumerate(MANIFEST.entries):
            if entry.kind in (Kind.FLAG, Kind.ONE_HOT):
                assert vec.values[i] in (0.0, 1.0)
            if entry.kind is Kind.RATIO:
                assert 0.0 <= vec.values[i] <= 1.0


def read_back(*vectors):
    """Vectors written to a sidecar and read back, the way precomputed ones enter."""
    return read_feature_sidecar(write_feature_sidecar(list(vectors)), source="f.jsonl")


class TestPrecomputedMode:
    def test_passthrough_exact(self, tmp_path):
        rec = snippet_record("fn f() {}")
        base = extract_features(rec)
        assert np.array_equal(read_back(base)[rec.id].values, base.values)
        store, sidecar, out = tmp_path / "w.jsonl", tmp_path / "s.jsonl", tmp_path / "f.jsonl"
        store.write_bytes(write_warning_store([rec]))
        sidecar.write_bytes(write_feature_sidecar([base]))
        assert run_cli(["featurize", "--warnings", str(store), "--mode", "precomputed",
                        "--sidecar", str(sidecar), "--out", str(out)]) == 0
        assert out.read_bytes() == sidecar.read_bytes()

    def test_digest_mismatch(self):
        rec = snippet_record("fn f() {}")
        bad = FeatureVector(rec.id, np.zeros(len(MANIFEST)), "0" * 16)
        with pytest.raises(DigestMismatch, match=f"^f.jsonl line 2: vector digest {'0' * 16} "
                                                 f"!= manifest digest {MANIFEST.digest}$"):
            read_back(extract_features(rec), bad)

    def test_invalid_values_rejected(self):
        rec = snippet_record("fn f() {}")
        values = np.zeros(len(MANIFEST))
        values[MANIFEST.index_of("borrow_ratio")] = 2.0
        bad = FeatureVector(rec.id, values, MANIFEST.digest)
        with pytest.raises(FeatureValidationError, match="^f.jsonl line 1: borrow_ratio"):
            read_back(bad)

    def test_first_bad_slot_in_manifest_order_is_reported(self):
        rec = snippet_record("fn f() {}")
        values = extract_features(rec).values.copy()
        values[MANIFEST.index_of("public_api_flag")] = 0.5
        values[MANIFEST.index_of("borrow_ratio")] = 2.0
        bad = FeatureVector(rec.id, values, MANIFEST.digest)
        ratio = r"^f.jsonl line 1: borrow_ratio: ratio must be in \[0,1\], got 2.0$"
        with pytest.raises(FeatureValidationError, match=ratio):
            read_back(bad)
        values[MANIFEST.index_of("trait_bound_flag")] = 0.5
        flag = "^f.jsonl line 1: trait_bound_flag: flag must be 0 or 1, got 0.5$"
        with pytest.raises(FeatureValidationError, match=flag):
            read_back(bad)

    def test_sidecar_required(self, tmp_path, capsys):
        rec = snippet_record("fn f() {}")
        store, sidecar = tmp_path / "w.jsonl", tmp_path / "s.jsonl"
        store.write_bytes(write_warning_store([rec]))
        sidecar.write_bytes(b"")
        argv = ["featurize", "--warnings", str(store), "--mode", "precomputed",
                "--out", str(tmp_path / "f.jsonl")]
        assert run_cli(argv) == 2
        assert "--sidecar" in capsys.readouterr().err
        assert run_cli(argv + ["--sidecar", str(sidecar)]) == 3
        assert f"sidecar has no vector for warning {rec.id}" in capsys.readouterr().err


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
        out.append(FeatureVector(f"w{i}", values, MANIFEST.digest))
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
        with pytest.raises(EmptyTrainSet):
            fit(column_vectors("lines_of_code", [1.0]))

    def test_digest_mismatch(self):
        # In-memory vectors are checked where they meet the policy; a
        # normalizer's digest is checked when its checkpoint is loaded.
        stranger = FeatureVector("x", np.zeros(len(MANIFEST)), "f" * 16)
        rec = make_record(0)
        with pytest.raises(DigestMismatch, match=f"^warning {rec.id}: vector digest {'f' * 16} "
                                                 f"!= manifest digest {MANIFEST.digest}$"):
            feature_matrix([rec], {rec.id: stranger})

    def test_matrix_matches_per_slot_reference(self):
        # The per-slot rule the column operations replace, compared exactly.
        rng = np.random.default_rng(3)
        vectors = [FeatureVector(f"w{i}", rng.integers(0, 2, len(MANIFEST)) * rng.normal(size=len(MANIFEST)),
                                 MANIFEST.digest) for i in range(9)]
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
            vectors.append(FeatureVector(f"w{i}", values, MANIFEST.digest))
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
        vec = extract_features(rec)
        parsed = read_feature_sidecar(write_feature_sidecar([vec]))
        assert parsed[rec.id].values.tolist() == vec.values.tolist()
        assert parsed[rec.id].manifest_digest == MANIFEST.digest
