import json

import pytest

from tablerank.corpus import (
    Query,
    Table,
    TableCorpus,
    TaskType,
    load_corpus,
    save_corpus,
    validate_query,
    validate_table,
)
from tablerank.errors import IOFailure, SchemaViolation

from conftest import make_table


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


GOOD_RECORD = {
    "id": "t1",
    "caption": "NFL 2019",
    "headers": ["Team", "Wins"],
    "entries": [["Broncos", "7"], ["Chiefs", "12"]],
    "metadata": {"source": "unit"},
}


class TestLoadJsonl:
    def test_single_table(self, tmp_path):
        p = tmp_path / "c.jsonl"
        _write_jsonl(p, [GOOD_RECORD])
        corpus = load_corpus(p)
        assert len(corpus) == 1
        t = corpus.get("t1")
        assert t.n_cols == 2 and t.n_rows == 2
        assert t.entries[0] == ["Broncos", "7"]

    def test_ragged_row_is_schema_violation(self, tmp_path):
        bad = dict(GOOD_RECORD, entries=[["Broncos"]])
        p = tmp_path / "c.jsonl"
        _write_jsonl(p, [bad])
        with pytest.raises(SchemaViolation) as err:
            load_corpus(p)
        assert any("t1" == tid for tid, _ in err.value.violations)

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        corpus = load_corpus(p)
        assert len(corpus) == 0

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        _write_jsonl(p, [GOOD_RECORD, GOOD_RECORD])
        with pytest.raises(SchemaViolation) as err:
            load_corpus(p)
        assert any("duplicate" in reason for _, reason in err.value.violations)

    def test_all_violations_collected(self, tmp_path):
        bad1 = dict(GOOD_RECORD, id="a", entries=[["x"]])
        bad2 = dict(GOOD_RECORD, id="b", headers=[])
        p = tmp_path / "c.jsonl"
        _write_jsonl(p, [bad1, bad2])
        with pytest.raises(SchemaViolation) as err:
            load_corpus(p)
        ids = {tid for tid, _ in err.value.violations}
        assert {"a", "b"} <= ids

    def test_invalid_json_line_reported(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("{not json}\n")
        with pytest.raises(SchemaViolation) as err:
            load_corpus(p)
        assert "<line 1>" in dict(err.value.violations)

    def test_missing_path(self, tmp_path):
        with pytest.raises(IOFailure):
            load_corpus(tmp_path / "missing.jsonl")

    @pytest.mark.parametrize("change, reason", [
        ({"headers": "ab"}, "headers must be a JSON array, got 'ab'"),
        ({"entries": "xyz"}, "entries must be a JSON array, got 'xyz'"),
        ({"entries": [["Broncos", "7"], "12"]}, "row 1 must be a JSON array, got '12'"),
        ({"entries": [["Broncos", {"n": 7}]]}, "cell value of unsupported type dict"),
        ({"metadata": ["source", "unit"]}, "metadata must be a JSON object, got ['source', 'unit']"),
        ({"metadata": []}, "metadata must be a JSON object, got []"),
        ({"metadata": 0}, "metadata must be a JSON object, got 0"),
        ({"metadata": False}, "metadata must be a JSON object, got False"),
        ({"metadata": ""}, "metadata must be a JSON object, got ''"),
    ], ids=["string-headers", "string-entries", "string-row", "object-cell", "list-metadata",
            "empty-list-metadata", "zero-metadata", "false-metadata", "empty-string-metadata"])
    def test_malformed_record_is_a_line_numbered_violation(self, tmp_path, change, reason):
        p = tmp_path / "c.jsonl"
        _write_jsonl(p, [GOOD_RECORD, dict(GOOD_RECORD, id="t2", **change)])
        with pytest.raises(SchemaViolation) as err:
            load_corpus(p)
        assert err.value.violations == [("<line 2>", f"malformed record: {reason}")]

    def test_absent_or_null_metadata_is_empty(self, tmp_path):
        absent = {k: v for k, v in GOOD_RECORD.items() if k != "metadata"}
        p = tmp_path / "c.jsonl"
        _write_jsonl(p, [absent, dict(GOOD_RECORD, id="t2", metadata=None)])
        assert [t.metadata for t in load_corpus(p)] == [{}, {}]

    def test_numeric_cells_become_text(self, tmp_path):
        rec = dict(GOOD_RECORD, entries=[[7, 2.5], [True, None]])
        p = tmp_path / "c.jsonl"
        _write_jsonl(p, [rec])
        t = load_corpus(p).get("t1")
        assert t.entries == [["7", "2.5"], ["true", ""]]


class TestCsvDir:
    def test_import(self, tmp_path):
        d = tmp_path / "csvs"
        d.mkdir()
        (d / "teams.csv").write_text("Team,Wins\nBroncos,7\n")
        (d / "cities.csv").write_text("City,Pop\nSpringfield,30000\n")
        corpus = load_corpus(d, format="csv_dir")
        assert corpus.ids() == ["cities", "teams"]  # sorted filename order
        t = corpus.get("teams")
        assert t.headers == ["Team", "Wins"]
        assert t.caption == ""
        assert t.metadata["source_file"] == "teams.csv"

    def test_header_only_file_rejected(self, tmp_path):
        d = tmp_path / "csvs"
        d.mkdir()
        (d / "empty.csv").write_text("A,B\n")
        with pytest.raises(SchemaViolation):
            load_corpus(d, format="csv_dir")

    def test_csv_dir_on_plain_file_is_io_failure(self, tmp_path):
        f = tmp_path / "not_a_dir.csv"
        f.write_text("A,B\n1,2\n")
        with pytest.raises(IOFailure):
            load_corpus(f, format="csv_dir")

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        with pytest.raises(ValueError):
            load_corpus(p, format="parquet")


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, tiny_corpus):
        p = tmp_path / "saved.jsonl"
        save_corpus(tiny_corpus, p)
        loaded = load_corpus(p)
        assert loaded.ids() == tiny_corpus.ids()
        for a, b in zip(loaded, tiny_corpus):
            assert (a.id, a.caption, a.headers, a.entries, a.metadata) == (
                b.id, b.caption, b.headers, b.entries, b.metadata)

    def test_iteration_order_stable_across_loads(self, tmp_path, tiny_corpus):
        p = tmp_path / "saved.jsonl"
        save_corpus(tiny_corpus, p)
        assert load_corpus(p).ids() == load_corpus(p).ids()

    def test_save_bytes_deterministic(self, tmp_path, tiny_corpus):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(tiny_corpus, p1)
        save_corpus(tiny_corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidateTable:
    def test_well_formed(self):
        assert validate_table(make_table("ok")) == []

    def test_ragged_row_reported_with_index(self):
        t = make_table("bad", entries=[["1", "2"], ["3"]])
        assert validate_table(t) == ["row 1 has 1 cells, expected 2"]

    def test_empty_headers_and_no_rows(self):
        t = Table(id="x", caption="", headers=[], entries=[])
        assert validate_table(t) == ["table must have at least one column",
                                     "table must have at least one entry row"]

    def test_duplicate_check_is_corpus_level(self):
        # Two tables with the same id each validate clean on their own.
        assert validate_table(make_table("same")) == []
        assert validate_table(make_table("same")) == []
        with pytest.raises(SchemaViolation):
            TableCorpus([make_table("same"), make_table("same")])


class TestValidateQuery:
    def test_good_tfv(self):
        q = Query(id="q", text="Is it true?", task_type=TaskType.TFV, gold_answer=1)
        assert validate_query(q) == []

    def test_blank_text(self):
        q = Query(id="q", text="   ", task_type=TaskType.SINGLE_HOP)
        assert validate_query(q) == ["query text is empty after trimming"]

    def test_bad_tfv_label(self):
        q = Query(id="q", text="claim", task_type=TaskType.TFV, gold_answer=2)
        assert validate_query(q) == ["TFV answer must be 0 or 1, got 2"]
