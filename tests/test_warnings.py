"""Warning store: parsing, identity, splits, clustering."""

import hashlib
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagerl.errors import InputError
from triagerl.warnings import (
    REPORT_FIELDS,
    Label,
    Level,
    Split,
    SPLITS,
    WarningRecord,
    cluster_sizes,
    id_lines,
    parse_report,
    read_label_sidecar,
    read_split_file,
    read_warning_store,
    stratified_split,
    text_file,
    text_lines,
    warning_id,
    write_label_sidecar,
    write_split_file,
    write_warning_store,
)

# Warning ids for the line-file tests.
AA, BB, CC = "aa" * 8, "bb" * 8, "cc" * 8

AARC_REPORT_OBJECT = {
    "level": "Warning",
    "analyzer": "UnsafeDestructor",
    "op_type": None,
    "description": "unsafe block detected in drop",
    "file": "aarc-0.3.2/src/smart_ptrs.rs",
    "start_line": 118,
    "start_col": 1,
    "end_line": 118,
    "end_col": 33,
    "code_snippet": "impl<T: 'static> Drop for Arc<T> {...} }",
}


def as_report(objs) -> bytes:
    return json.dumps(objs).encode("utf-8")


def make_record(i=0, file="pkg-1.0.0/src/lib.rs", line=10, label=None, analyzer="UnsafeDataflow"):
    desc = f"warning {i}"
    return WarningRecord(
        id=warning_id(file, line, 1, line, 5, analyzer, desc),
        level=Level.WARNING,
        analyzer=analyzer,
        op_type=None,
        description=desc,
        file=file,
        start_line=line,
        start_col=1,
        end_line=line,
        end_col=5,
        code_snippet="fn f() {}",
        label=label,
    )


class TestParseReport:
    def test_aarc_destructor_object(self):
        records = parse_report(as_report([AARC_REPORT_OBJECT]), "report")
        assert len(records) == 1
        r = records[0]
        assert r.analyzer == "UnsafeDestructor"
        assert r.file == "aarc-0.3.2/src/smart_ptrs.rs"
        assert r.start_line == 118
        assert r.end_col == 33
        assert r.level is Level.WARNING
        assert r.op_type is None
        assert r.label is None

    def test_empty_array(self):
        assert parse_report(b"[]", "report") == []

    def test_surrogate_pair_escape_is_one_character_and_a_lone_one_is_refused(self):
        pair = json.dumps([{**AARC_REPORT_OBJECT, "code_snippet": "x\U0001f600"}]).encode()
        assert b"\\ud83d\\ude00" in pair
        assert parse_report(pair, "report")[0].code_snippet == "x\U0001f600"
        lone = pair.replace(b"\\ud83d", b"")
        with pytest.raises(InputError, match=r"^report\[0\]\.code_snippet: holds a lone surrogate"):
            parse_report(lone, "report")
        store = write_warning_store(parse_report(pair, "report"))
        store = store.replace("\U0001f600".encode(), b"\\ude00")
        with pytest.raises(InputError, match=r"^warning store line 1: warning\.code_snippet: holds"):
            read_warning_store(store, "warning store")

    def test_duplicate_objects_share_id(self):
        records = parse_report(as_report([AARC_REPORT_OBJECT, AARC_REPORT_OBJECT]), "report")
        assert len(records) == 2
        assert records[0].id == records[1].id

    def test_id_matches_documented_hash(self):
        # Independent recomputation of the documented canonical encoding.
        r = parse_report(as_report([AARC_REPORT_OBJECT]), "report")[0]
        canon = "\x1f".join(
            [
                "aarc-0.3.2/src/smart_ptrs.rs", "118", "1", "118", "33",
                "UnsafeDestructor", "unsafe block detected in drop",
            ]
        )
        assert r.id == hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
        assert len(r.id) == 16

    def test_missing_field_names_field_and_index(self):
        obj = dict(AARC_REPORT_OBJECT)
        del obj["code_snippet"]
        with pytest.raises(InputError, match=r"report\[0\].code_snippet.*missing"):
            parse_report(as_report([obj]), "report")

    def test_mistyped_field(self):
        obj = dict(AARC_REPORT_OBJECT, start_line="118")
        with pytest.raises(InputError, match=r"report\[1\].start_line"):
            parse_report(as_report([AARC_REPORT_OBJECT, obj]), "report")

    def test_unknown_field(self):
        obj = dict(AARC_REPORT_OBJECT, severity="high")
        with pytest.raises(InputError, match="severity"):
            parse_report(as_report([obj]), "report")

    def test_bad_level(self):
        obj = dict(AARC_REPORT_OBJECT, level="Critical")
        with pytest.raises(InputError, match="level"):
            parse_report(as_report([obj]), "report")

    def test_coordinates_one_based(self):
        obj = dict(AARC_REPORT_OBJECT, start_col=0)
        with pytest.raises(InputError, match="start_col"):
            parse_report(as_report([obj]), "report")

    def test_line_order_enforced(self):
        obj = dict(AARC_REPORT_OBJECT, start_line=120)
        with pytest.raises(InputError, match="end_line"):
            parse_report(as_report([obj]), "report")

    @pytest.mark.parametrize("fault, message", [
        (lambda o: {k: v for k, v in o.items() if k != "code_snippet"},
         ".code_snippet: missing field"),
        (lambda o: {**o, "severity": "high"}, ".severity: unknown field"),
        (lambda o: {**o, "start_line": "118"}, ".start_line: expected integer, got str"),
        (lambda o: 5, ": expected object, got int"),
        # Two faults: the first in parse_warning's documented order is reported.
        (lambda o: {**{k: v for k, v in o.items() if k != "file"}, "start_line": "118"},
         ".file: missing field"),
        (lambda o: {**o, "severity": "high", "analyzer": 7}, ".severity: unknown field"),
        (lambda o: {**o, "start_col": 0, "level": "Critical"},
         ".level: expected one of ('Error', 'Warning', 'Info'), got 'Critical'"),
        (lambda o: {**o, "end_line": 100, "start_col": 0},
         ".start_col: coordinates are 1-based, got 0"),
    ], ids=["missing", "unknown", "mistyped", "not-object", "missing-and-mistyped",
            "unknown-and-mistyped", "level-and-coordinate", "coordinate-and-order"])
    def test_fault_past_the_first_object_names_its_index_and_line(self, fault, message):
        objs = [dict(AARC_REPORT_OBJECT, start_line=100 + i, end_line=100 + i) for i in range(5)]
        with pytest.raises(InputError) as report_error:
            parse_report(as_report([*objs[:3], fault(objs[3]), objs[4]]), "report")
        assert str(report_error.value) == f"report[3]{message}"
        lines = write_warning_store(parse_report(as_report(objs), "report")).split(b"\n")
        lines[3] = json.dumps(fault(objs[3])).encode()
        with pytest.raises(InputError) as store_error:
            read_warning_store(b"\n".join(lines), "warning store")
        assert str(store_error.value) == f"warning store line 4: warning{message}"

    def test_not_an_array(self):
        with pytest.raises(InputError, match="array"):
            parse_report(b"{}", "report")

    def test_malformed_json(self):
        with pytest.raises(InputError, match="JSON"):
            parse_report(b"[{]", "report")


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x1f"),
    min_size=1,
    max_size=24,
)


@st.composite
def record_strategy(draw):
    start_line = draw(st.integers(1, 500))
    end_line = draw(st.integers(start_line, start_line + 50))
    start_col = draw(st.integers(1, 80))
    end_col = draw(st.integers(start_col, 120)) if start_line == end_line else draw(st.integers(1, 120))
    file = draw(_text)
    analyzer = draw(_text)
    description = draw(_text)
    return WarningRecord(
        id=warning_id(file, start_line, start_col, end_line, end_col, analyzer, description),
        level=draw(st.sampled_from(list(Level))),
        analyzer=analyzer,
        op_type=draw(st.none() | _text),
        description=description,
        file=file,
        start_line=start_line,
        start_col=start_col,
        end_line=end_line,
        end_col=end_col,
        code_snippet=draw(st.text(max_size=80)),
    )


class TestRoundTrip:
    @given(st.lists(record_strategy(), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_parse_serialize_identity(self, records):
        report = [{name: getattr(r, name) for name in REPORT_FIELDS} | {"level": r.level.value}
                  for r in records]
        assert parse_report(json.dumps(report).encode("utf-8"), "report") == records

    @given(st.lists(record_strategy(), max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_warning_store_round_trip(self, records):
        assert read_warning_store(write_warning_store(records), "warning store") == records


class TestStratifiedSplit:
    def test_reference_corpus_split_size(self):
        # 4,879 warnings with 1,247 positives at 0.70/0.15/0.15.
        records = [
            make_record(i, label=Label.TRUE_POSITIVE if i < 1247 else Label.FALSE_POSITIVE)
            for i in range(4879)
        ]
        assignment = stratified_split(records, (0.70, 0.15, 0.15), seed=0)
        test_ids = [w for w, s in assignment.items() if s is Split.TEST]
        assert len(test_ids) == 732
        positives = {r.id for r in records if r.label is Label.TRUE_POSITIVE}
        test_pos = sum(1 for w in test_ids if w in positives)
        assert abs(test_pos - 0.256 * len(test_ids)) <= 1.0

    def test_symmetric_ten_records(self):
        records = [
            make_record(i, label=Label.TRUE_POSITIVE if i < 5 else Label.FALSE_POSITIVE)
            for i in range(10)
        ]
        for seed in (0, 1, 99):
            assignment = stratified_split(records, (0.5, 0.25, 0.25), seed=seed)
            positives = {r.id for r in records if r.label is Label.TRUE_POSITIVE}
            for split in SPLITS:
                ids = [w for w, s in assignment.items() if s is split]
                pos = sum(1 for w in ids if w in positives)
                assert pos * 2 == len(ids), f"{split} not exactly half positive at seed {seed}"

    def test_deterministic(self):
        records = [
            make_record(i, label=Label.TRUE_POSITIVE if i % 3 == 0 else Label.FALSE_POSITIVE)
            for i in range(57)
        ]
        a = stratified_split(records, (0.7, 0.15, 0.15), seed=42)
        b = stratified_split(records, (0.7, 0.15, 0.15), seed=42)
        assert a == b

    def test_ratio_errors(self):
        records = [make_record(i, label=Label.TRUE_POSITIVE) for i in range(3)]
        with pytest.raises(InputError, match="^ratios must sum to 1, got sum "):
            stratified_split(records, (0.5, 0.25, 0.3), seed=0)
        with pytest.raises(InputError, match=r"^ratios must be > 0, got \(1\.0, 0\.0, 0\.0\)$"):
            stratified_split(records, (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(InputError, match="^expected 3 ratios, got 2$"):
            stratified_split(records, (0.5, 0.5), seed=0)  # type: ignore[arg-type]
        with pytest.raises(InputError, match="sum nan"):
            stratified_split(records, (float("nan"), 0.5, 0.5), seed=0)

    def test_assignments_keep_their_pinned_bytes(self):
        # 2,400 seeded record sets of 0-100 records, every third one of 3-9
        # records (small enough that apportioning leaves a split empty and the
        # repair moves records), with ids drawn with repeats so that an id can
        # come again with either label. Every assignment, items in order,
        # feeds one SHA-256, pinned so that a restated split must keep every
        # assignment and its order.
        rng = random.Random(3701)
        triples = [(0.7, 0.15, 0.15), (0.98, 0.01, 0.01), (0.5, 0.25, 0.25),
                   (1 / 3, 1 / 3, 1 / 3), (0.1, 0.1, 0.8), (0.01, 0.98, 0.01)]
        digest = hashlib.sha256()
        for k in range(2400):
            n = rng.randrange(3, 10) if k % 3 == 0 else rng.randrange(101)
            records = [make_record(rng.randrange(n), label=rng.choice(list(Label)))
                       for _ in range(n)]
            assignment = stratified_split(records, triples[k % 6], seed=rng.randrange(2**32))
            digest.update("".join(f"{w}\t{s.value}\n" for w, s in assignment.items()).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == (
            "02da01c9d8fb2411d99240d242ec8abdaa0d141538d7c42b937b8d46baa4916b")

    @given(
        n_pos=st.integers(1, 40),
        n_neg=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_partition_and_stratification_property(self, n_pos, n_neg, seed):
        if n_pos + n_neg < 3:
            n_neg = 3 - n_pos
        records = [make_record(i, label=Label.TRUE_POSITIVE) for i in range(n_pos)]
        records += [make_record(1000 + i, label=Label.FALSE_POSITIVE) for i in range(n_neg)]
        assignment = stratified_split(records, (0.70, 0.15, 0.15), seed=seed)

        assert set(assignment) == {r.id for r in records}
        n = len(records)
        p_global = n_pos / n
        positives = {r.id for r in records if r.label is Label.TRUE_POSITIVE}
        for split in SPLITS:
            ids = [w for w, s in assignment.items() if s is split]
            assert ids, f"{split} is empty"
            pos = sum(1 for w in ids if w in positives)
            assert abs(pos - p_global * len(ids)) <= 1.0 + 1e-9


def brute_force_clusters(records, radius):
    """All-pairs union-find oracle for the cluster relation."""
    parent = list(range(len(records)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(records):
        for j, b in enumerate(records):
            if a.file == b.file and abs(a.start_line - b.start_line) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i, r in enumerate(records):
        groups.setdefault(find(i), set()).add(r.id)
    return {frozenset(g) for g in groups.values()}


def record_sets(seed, count):
    """`count` seeded (records, radius) pairs: 0 to 40 warnings over one to
    five shared files and some files of their own, ids repeated, in random
    order; the radius is 0 in a third of them, and one set in 50 has its
    line numbers about the int64 limit."""
    rng = random.Random(seed)
    for i in range(count):
        files = [f"pkg/src/{name}.rs" for name in "abcde"[:rng.randint(1, 5)]]
        base = 2**63 - 200 if i % 50 == 0 else 0
        top = 400 if base else rng.choice([5, 60, 400])
        records = [make_record(j, file=f"solo/{j}.rs" if rng.random() < 0.2 else rng.choice(files),
                               line=base + rng.randint(1, top))
                   for j in range(rng.randrange(41))]
        records += rng.choices(records, k=rng.randrange(len(records) + 1)) if records else []
        rng.shuffle(records)
        yield records, rng.choice([0, 0, 1, 3, 10, 50])


class TestClusterWarnings:
    def test_adjacent_same_file(self):
        records = [make_record(0, line=10), make_record(1, line=12)]
        assert cluster_sizes(records, radius=5) == {r.id: 2 for r in records}

    def test_different_files_distinct(self):
        records = [make_record(0, file="a/x.rs", line=10), make_record(1, file="b/x.rs", line=10)]
        assert cluster_sizes(records, radius=5) == {r.id: 1 for r in records}

    def test_transitive_chain(self):
        # 10 and 18 are further apart than the radius, but 14 links them.
        records = [make_record(i, line=ln) for i, ln in enumerate((10, 14, 18))]
        assert cluster_sizes(records, radius=5) == {r.id: 3 for r in records}

    def test_gap_equal_to_radius_joins(self):
        records = [make_record(i, line=ln) for i, ln in enumerate((10, 15, 21))]
        sizes = cluster_sizes(records, radius=5)
        assert [sizes[r.id] for r in records] == [2, 2, 1]
        assert set(cluster_sizes(records, radius=6).values()) == {3}
        assert set(cluster_sizes(records, radius=0).values()) == {1}

    def test_duplicate_ids_count_once(self):
        a, b = make_record(0, line=10), make_record(1, line=12)
        assert cluster_sizes([a, b, a, a], radius=5) == {a.id: 2, b.id: 2}

    def test_empty_input(self):
        assert cluster_sizes([], radius=5) == {}

    def test_matches_brute_force_oracle_on_seeded_sets(self):
        for records, radius in record_sets(seed=3302, count=3_200):
            expected = {wid: len(group) for group in brute_force_clusters(records, radius)
                        for wid in group}
            assert cluster_sizes(records, radius) == expected, (records, radius)

    @given(
        lines=st.lists(st.integers(1, 60), min_size=1, max_size=50),
        files=st.data(),
        radius=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_oracle(self, lines, files, radius):
        records = [
            make_record(
                i,
                file=files.draw(st.sampled_from(["a/x.rs", "b/y.rs", "c/z.rs"])),
                line=line,
            )
            for i, line in enumerate(lines)
        ]
        records += records[: len(records) // 2]  # repeated ids count once
        sizes = cluster_sizes(records, radius=radius)
        expected = {wid: len(group) for group in brute_force_clusters(records, radius)
                    for wid in group}
        assert sizes == expected

    def test_cluster_sizes(self):
        records = [make_record(i, line=ln) for i, ln in enumerate((10, 12, 400))]
        sizes = cluster_sizes(records, radius=5)
        assert [sizes[r.id] for r in records] == [2, 2, 1]


class TestFileInterfaces:
    def test_text_file_ends_every_line(self):
        for lines in ([], ["a"], ["a", "", "b\tc"]):
            assert text_file(lines) == ("\n".join(lines) + "\n" if lines else "").encode()

    def test_text_lines_number_the_non_blank_lines(self):
        assert text_lines(b"a\r\n\n  \r\nb\rc\nd") == [(1, "a"), (4, "b\rc"), (5, "d")]

    def test_label_sidecar_rejects_two_labels_for_one_id(self):
        read_label_sidecar(f"{AA}\ttp\n{BB}\tfp\n{AA}\ttp\tmanual\n".encode(), "label sidecar")
        with pytest.raises(InputError, match=f"label sidecar line 3: {AA} was stated before"):
            read_label_sidecar(f"{AA}\ttp\n{BB}\tfp\n{AA}\tfp\n".encode(), "label sidecar")

    def test_label_sidecar_round_trip(self):
        labels = {"aa00" * 4: Label.TRUE_POSITIVE, "bb11" * 4: Label.FALSE_POSITIVE}
        assert read_label_sidecar(write_label_sidecar(labels), "label sidecar") == labels

    def test_label_sidecar_rejects_bad_token(self):
        with pytest.raises(InputError, match="tp or fp"):
            read_label_sidecar(b"deadbeefdeadbeef\tmaybe\tsource\n", "label sidecar")

    @pytest.mark.parametrize("wid", [
        "0123456789abcde", "0123456789abcdef0", "0123456789ABCDEF", "0123456789abcdeg",
        "0123456789abcde\uff10", "0123456789abcdef ", "", "true",
    ], ids=["15-digits", "17-digits", "upper-case", "g", "full-width-digit", "trailing-space",
            "empty", "word"])
    def test_a_warning_id_is_16_lowercase_hex_digits(self, wid):
        # The bad id sits between two good lines: the lines are checked together
        # first, and the bad one is named by its own number.
        lines = [(1, f"{AA}\tx"), (2, f"{wid}\tx"), (3, f"{BB}\tx")]
        with pytest.raises(InputError, match=re.escape(
                f"file line 2: warning id must be 16 lowercase hex digits, got {wid!r}")):
            list(id_lines(lines, "file", "id<TAB>value", 2, lambda fields: fields[1]))
        assert list(id_lines([lines[0], lines[2]], "file", "id<TAB>value", 2,
                             lambda fields: fields[1])) == [(1, AA, "x"), (3, BB, "x")]

    def test_a_line_with_too_few_fields_names_the_layout_before_its_id(self):
        with pytest.raises(InputError, match="^file line 4: expected 'id<TAB>a<TAB>b'$"):
            list(id_lines([(4, "true")], "file", "id<TAB>a<TAB>b", 2, lambda fields: fields))

    def test_every_written_split_header_reads_back(self):
        # Seeds below 2**64 and positive ratios from subnormal to about 9e307.
        rng = random.Random(3702)
        for _ in range(2000):
            ratios = tuple(math.ldexp(1 - rng.random(), rng.randrange(-1000, 1024)) for _ in range(3))
            data = write_split_file({AA: Split.TEST}, rng.randrange(2**64), ratios)
            assert read_split_file(data, "split file") == {AA: Split.TEST}, data

    def test_split_file_round_trip(self):
        assignment = {AA: Split.TRAIN, BB: Split.VAL, CC: Split.TEST}
        data = write_split_file(assignment, seed=9, ratios=(0.7, 0.15, 0.15))
        assert data.startswith(b"# seed=9 ratios=0.7,0.15,0.15\n")
        assert read_split_file(data, "split file") == assignment
