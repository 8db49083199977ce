import dataclasses
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

import tablerank.benchmark as benchmark
from tablerank.benchmark import (
    BenchmarkDataset,
    SourceQuery,
    _combine_queries,
    _row_cosine,
    _split_root,
    _tfidf_row,
    build_benchmark,
    decontextualize,
    filter_queries,
    filter_small,
    load_benchmark,
    load_source_queries,
    save_benchmark,
)
from tablerank.corpus import Table, TableCorpus, TaskType
from tablerank.errors import SchemaViolation
from tablerank.features import STOPWORDS, HeuristicVectorizer, fit_heuristic, token_ids, tokenize

from conftest import reference_fit_heuristic, reference_transform, representative_score



def grid(n_rows, n_cols, tag=""):
    return [[f"r{i}c{j}{tag}" for j in range(n_cols)] for i in range(n_rows)]


def table_with_shape(tid, n_rows, n_cols, caption="Denver Broncos 2019 season"):
    return Table(
        id=tid,
        caption=caption,
        headers=[f"h{j}" for j in range(n_cols)],
        entries=grid(n_rows, n_cols),
        metadata={"origin": "test"},
    )


def sq(qid, root, text, task=TaskType.SINGLE_HOP, answer="x"):
    return SourceQuery(id=qid, root_table_id=root, text=text, task_type=task, answer=answer)


class TestFilterSmall:
    def test_three_by_three_removed(self):
        corpus = TableCorpus([table_with_shape("t", 3, 3)])
        assert len(filter_small(corpus)) == 0

    def test_one_small_dimension_kept(self):
        corpus = TableCorpus([table_with_shape("t", 3, 10)])  # 3 rows, 10 cols
        assert len(filter_small(corpus)) == 1
        corpus = TableCorpus([table_with_shape("u", 10, 3)])  # 10 rows, 3 cols
        assert len(filter_small(corpus)) == 1

    def test_large_table_kept(self):
        corpus = TableCorpus([table_with_shape("t", 10, 10)])
        assert len(filter_small(corpus)) == 1

    def test_survivors_split_into_two_and_three_parts(self):
        # build_benchmark relies on this: a root that filter_small keeps fits
        # 2 and 3 parts by rows or by columns, and whichever mode fits gives
        # that many parts: row parts hold at least one row, column parts
        # every row and at least two columns.
        shapes = np.random.default_rng(5).integers([0, 1], 9, size=(300, 2))
        corpus = TableCorpus([table_with_shape(f"t{i}", int(r), int(c)) for i, (r, c) in enumerate(shapes)])
        survivors = filter_small(corpus)
        assert 0 < len(survivors) < len(corpus)  # fixture precondition
        for t in survivors:
            for parts in (2, 3):
                modes = [m for m, fits in (("row", parts <= t.n_rows), ("column", parts <= t.n_cols - 1)) if fits]
                assert modes, (t.n_rows, t.n_cols, parts)
                for mode in modes:
                    subs = _split_root(t, parts, mode, seed=0)
                    assert len(subs) == parts, (t.n_rows, t.n_cols, parts, mode)
                    if mode == "row":
                        assert all(s.n_rows >= 1 for s in subs)
                    else:
                        assert all(s.n_rows == t.n_rows and s.n_cols >= 2 for s in subs)


class TestSplitRows:
    def test_four_rows_two_parts(self):
        t = table_with_shape("t", 4, 2)
        subs = _split_root(t, 2, "row", seed=0)
        assert [s.n_rows for s in subs] == [2, 2]
        for s in subs:
            assert s.headers == t.headers
            assert s.metadata == t.metadata

    def test_five_rows_three_parts_balanced(self):
        t = table_with_shape("t", 5, 2)
        subs = _split_root(t, 3, "row", seed=0)
        assert sorted(s.n_rows for s in subs) == [1, 2, 2]

    def test_row_multiset_preserved(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n_rows = int(rng.integers(2, 12))
            n = int(rng.integers(2, min(3, n_rows) + 1))
            t = table_with_shape(f"t{trial}", n_rows, 3)
            subs = _split_root(t, n, "row", seed=trial)
            got = Counter(tuple(r) for s in subs for r in s.entries)
            assert got == Counter(tuple(r) for r in t.entries)


class TestSplitCols:
    def test_five_cols_two_parts(self):
        t = table_with_shape("t", 3, 5)
        subs = _split_root(t, 2, "column", seed=0)
        assert [s.n_cols for s in subs] == [3, 3]  # shared first column + 2 each

    def test_first_column_everywhere(self):
        t = table_with_shape("t", 4, 6)
        subs = _split_root(t, 3, "column", seed=1)
        for s in subs:
            assert s.headers[0] == t.headers[0]
            assert [row[0] for row in s.entries] == [row[0] for row in t.entries]

    def test_non_first_columns_disjointly_cover(self):
        t = table_with_shape("t", 3, 7)
        subs = _split_root(t, 3, "column", seed=2)
        seen = [h for s in subs for h in s.headers[1:]]
        assert sorted(seen) == sorted(t.headers[1:])

    def test_header_cells_stay_aligned(self):
        t = table_with_shape("t", 3, 5)
        col_of = {h: [row[j] for row in t.entries] for j, h in enumerate(t.headers)}
        for s in _split_root(t, 2, "column", seed=3):
            for j, h in enumerate(s.headers):
                assert [row[j] for row in s.entries] == col_of[h]


class TestDebias:
    def test_sibling_captions_distinct(self):
        t = table_with_shape("t", 6, 4)
        for mode in ("row", "column"):
            captions = [s.caption for s in _split_root(t, 3, mode, seed=5)]
            assert len(set(captions)) == 3

    def test_row_mode_preserves_row_multiset(self):
        t = table_with_shape("t", 8, 3)
        out = _split_root(t, 2, "row", seed=7)
        assert Counter(tuple(r) for s in out for r in s.entries) == Counter(tuple(r) for r in t.entries)
        assert all(s.metadata == t.metadata for s in out)

    def test_column_mode_keeps_first_column_and_cells(self):
        t = table_with_shape("t", 4, 6)
        col_of = {h: [row[j] for row in t.entries] for j, h in enumerate(t.headers)}
        out = _split_root(t, 2, "column", seed=9)
        for s in out:
            assert s.headers[0] == t.headers[0]
            assert s.metadata == t.metadata
            for j, h in enumerate(s.headers):
                assert [row[j] for row in s.entries] == col_of[h]

    def test_deterministic(self):
        t = table_with_shape("t", 6, 4)
        for mode in ("row", "column"):
            a = _split_root(t, 2, mode, seed=11)
            b = _split_root(t, 2, mode, seed=11)
            assert [(s.caption, s.headers, s.entries) for s in a] == [(s.caption, s.headers, s.entries) for s in b]


def _cuts(subs):
    """(rows, cols) of each sub-table of a ``table_with_shape`` root, read
    back from its cells, after checking the cells match the headers."""
    out = []
    for s in subs:
        rows = [int(row[0].split("c")[0][1:]) for row in s.entries]
        cols = [int(h[1:]) for h in s.headers]
        assert s.entries == [[f"r{i}c{j}" for j in cols] for i in rows]
        out.append((rows, cols))
    return out


class TestPinnedCuts:
    # Exact outputs for seed 5, so a changed RNG stream, cut or order fails here.
    def test_debias_row_mode(self):
        out = _split_root(table_with_shape("t", 11, 3), 3, "row", seed=5)
        assert _cuts(out) == [([10, 7, 3, 1], [0, 1, 2]), ([6, 4, 2, 0], [0, 1, 2]), ([5, 9, 8], [0, 1, 2])]
        assert [s.id for s in out] == ["t::part1", "t::part2", "t::part3"]
        assert [s.caption for s in out] == [
            "Denver Broncos 2019 season",
            "Overview of Denver Broncos 2019 campaign",
            "Details on Denver Broncos 2019 season",
        ]

    def test_debias_column_mode(self):
        out = _split_root(table_with_shape("t", 2, 11), 3, "column", seed=5)
        assert _cuts(out) == [([0, 1], [0, 7, 8, 3, 5]), ([0, 1], [0, 10, 1, 6]), ([0, 1], [0, 4, 9, 2])]
        assert [s.id for s in out] == ["t::part1", "t::part2", "t::part3"]
        assert all(s.metadata == {"origin": "test"} for s in out)


class TestFilterQueries:
    def test_high_stopword_ratio_dropped(self):
        q = sq("q1", "root", "is it the the a of")
        toks = tokenize(q.text)
        ratio = sum(1 for t in toks if t in STOPWORDS) / len(toks)
        assert ratio > 0.7  # derived with the module's own stopword list
        assert filter_queries([q]) == []

    def test_short_query_dropped(self):
        assert filter_queries([sq("q1", "root", "who won this")]) == []

    def test_near_duplicate_second_dropped(self):
        # Same bag of words, reordered: TF-IDF cosine is exactly 1.0.
        a = sq("q1", "root", "which team scored the most points overall")
        b = sq("q2", "root", "the most points overall which team scored")
        kept = filter_queries([a, b])
        assert [q.id for q in kept] == ["q1"]

    def test_same_text_different_roots_both_kept(self):
        a = sq("q1", "root1", "which team scored the most points overall")
        b = sq("q2", "root2", "which team scored the most points overall")
        kept = filter_queries([a, b])
        assert [q.id for q in kept] == ["q1", "q2"]

    def test_order_stable(self):
        queries = [
            sq("q1", "r", "what player recorded the highest score"),
            sq("q2", "r", "how many matches were played in march"),
            sq("q3", "r", "which city reported the largest population"),
        ]
        kept = filter_queries(queries)
        assert [q.id for q in kept] == ["q1", "q2", "q3"]


def reference_filter_queries(queries, stopword_ratio=0.7, min_tokens=5, redundancy_cosine=0.9):
    """The filter as it was when it compared 1 x V scipy rows per pair."""
    if not queries:
        return []
    vectorizer = reference_fit_heuristic([q.text for q in queries])
    kept = []
    kept_vecs = {}
    for q in queries:
        toks = tokenize(q.text)
        if len(toks) < min_tokens:
            continue
        ratio = sum(1 for t in toks if t in STOPWORDS) / len(toks)
        if ratio > stopword_ratio:
            continue
        vec = reference_transform(vectorizer, q.text)
        redundant = any(
            representative_score(vec, prev) >= redundancy_cosine
            for prev in kept_vecs.get(q.root_table_id, [])
        )
        if redundant:
            continue
        kept.append(q)
        kept_vecs.setdefault(q.root_table_id, []).append(vec)
    return kept


def _gold_style_queries(seed, n_roots=6, per_root=5):
    """Same-root queries from the gold source template that differ in one
    token (a header or an entity), so same-root cosines sit near 0.9."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(n_roots):
        caption = " ".join([f"domain{r % 3}"] * 4 + [f"ent{r}a", f"ent{r}b", f"ent{r}c", "records"])
        for qn in range(per_root):
            header = f"h{r}x{int(rng.integers(0, 3))}"
            ent = f"ent{r}{'abc'[int(rng.integers(0, 3))]}"
            text = f"what is the value of {header} for {ent} in the {caption} table?"
            out.append(sq(f"root{r}-q{qn}", f"root{r}", text))
    return out


def _duplicate_queries(seed):
    rng = np.random.default_rng(seed)
    base = [f"which player scored goal number {i} in match {i + 1} overall" for i in range(4)]
    return [sq(f"q{i}", f"r{int(rng.integers(0, 2))}", base[int(rng.integers(0, 4))]) for i in range(16)]


def _cross_root_queries(seed):
    rng = np.random.default_rng(seed)
    text = "how many medals did the national team win in total"
    return [sq(f"q{i}", f"root{int(rng.integers(0, 5))}", text) for i in range(10)]


def _vague_queries(seed):
    rng = np.random.default_rng(seed)
    words = sorted(STOPWORDS) + ["team", "score", "player", "season", "goals", "coach"]
    out = []
    for i in range(40):
        n = int(rng.integers(1, 9))
        out.append(sq(f"q{i}", f"r{i % 4}", " ".join(rng.choice(words, size=n))))
    return out


_QUERY_SETS = {
    "gold-style": _gold_style_queries,
    "duplicates": _duplicate_queries,
    "cross-root": _cross_root_queries,
    "vague": _vague_queries,
}


def _same_root_pairs(queries):
    by_root = {}
    for q in queries:
        by_root.setdefault(q.root_table_id, []).append(q)
    return [(a, b) for group in by_root.values() for i, a in enumerate(group) for b in group[:i]]


def _row(v: HeuristicVectorizer, text: str):
    return _tfidf_row(v.matrix(token_ids([tokenize(text)])), 0)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


class TestFilterQueriesOracle:
    @pytest.mark.parametrize("name", sorted(_QUERY_SETS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_kept_ids_as_reference(self, name, seed):
        queries = _QUERY_SETS[name](seed)
        got = [q.id for q in filter_queries(queries)]
        assert got == [q.id for q in reference_filter_queries(queries)]

    def test_fixtures_reach_every_branch(self):
        # The oracle cases above only mean something if they drop queries
        # for each reason and keep some.
        gold = _gold_style_queries(0)
        v = reference_fit_heuristic([q.text for q in gold])
        cosines = [
            representative_score(reference_transform(v, a.text), reference_transform(v, b.text))
            for a, b in _same_root_pairs(gold)
        ]
        assert any(0.8 < c < 0.9 for c in cosines) and any(c >= 0.9 for c in cosines)
        vague = _vague_queries(0)
        assert 0 < len(filter_queries(vague)) < len(vague)
        dups = _duplicate_queries(0)
        assert 0 < len(filter_queries(dups)) < len(dups)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_threshold_on_both_sides_of_a_pair_cosine(self, seed, monkeypatch):
        queries = _gold_style_queries(seed, n_roots=1, per_root=2)
        v = reference_fit_heuristic([q.text for q in queries])
        a, b = queries
        c = representative_score(reference_transform(v, b.text), reference_transform(v, a.text))
        assert 0.0 < c < 1.0
        for threshold, n_kept in ((np.nextafter(c, 0.0), 1), (c, 1), (np.nextafter(c, 2.0), 2)):
            monkeypatch.setattr(benchmark, "REDUNDANCY_COSINE", float(threshold))
            got = filter_queries(queries)
            assert [q.id for q in got] == [q.id for q in reference_filter_queries(queries, redundancy_cosine=float(threshold))]
            assert len(got) == n_kept

    @pytest.mark.parametrize("name", sorted(_QUERY_SETS))
    def test_pair_cosines_bitwise_equal_representative_score(self, name):
        queries = _QUERY_SETS[name](0)
        v = fit_heuristic(token_ids(tokenize(q.text) for q in queries))
        pairs = _same_root_pairs(queries)
        assert pairs
        for a, b in pairs:
            got = _row_cosine(_row(v, b.text), _row(v, a.text))
            want = representative_score(reference_transform(v, b.text), reference_transform(v, a.text))
            assert _bits(got) == _bits(want), (a.text, b.text)

    def test_zero_row_scores_zero(self):
        v = fit_heuristic(token_ids([["team", "wins"], ["city", "rain"]]))
        empty = _row(v, "nothing known")
        assert empty[2] == 0.0
        assert _row_cosine(empty, _row(v, "team wins")) == 0.0
        assert _row_cosine(_row(v, "team wins"), empty) == 0.0


def test_filter_queries_builds_no_scipy_rows(monkeypatch):
    """The filter builds one tf-idf matrix for all queries and compares
    plain (columns, values) slices of it: no pair goes through
    representative_score and no query becomes its own 1 x V scipy row."""
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(benchmark, "representative_score",
                        counting("score", representative_score), raising=False)
    monkeypatch.setattr(HeuristicVectorizer, "matrix",
                        counting("matrix", HeuristicVectorizer.matrix))
    queries = _gold_style_queries(0)
    kept = filter_queries(queries)
    assert 0 < len(kept) < len(queries)
    assert calls == Counter(matrix=1)


class TestCombineQueries:
    def test_both_texts_in_order(self):
        a = sq("q1", "r", "Who won the game?")
        b = sq("q2", "r", "How many points were scored?")
        combined = _combine_queries([a, b], 4)
        ia = combined.text.index("Who won the game?")
        ib = combined.text.index("How many points were scored?")
        assert ia < ib

    def test_based_on_substitutes_previous_query(self, monkeypatch):
        monkeypatch.setattr(benchmark, "CONNECTORS", ("Based on [previous query]",))
        a = sq("q1", "r", "Who won the game?")
        b = sq("q2", "r", "How many points?")
        combined = _combine_queries([a, b], 0)
        assert combined.text.count("Who won the game?") == 2
        assert "Based on Who won the game?" in combined.text

    def test_qa_answers_become_list_and_multi_hop(self):
        a = sq("q1", "r", "first question", answer="alpha")
        b = sq("q2", "r", "second question", answer="beta")
        combined = _combine_queries([a, b], 1)
        assert combined.gold_answer == ["alpha", "beta"]
        assert combined.task_type == TaskType.MULTI_HOP

    def test_unanswered_source_leaves_no_answer(self):
        a = sq("q1", "r", "first question", answer="v1")
        b = sq("q2", "r", "second question", answer=None)
        combined = _combine_queries([a, b], 1)
        assert combined.gold_answer is None
        assert combined.task_type == TaskType.MULTI_HOP

    def test_unanswered_merge_saves_null(self, tmp_path):
        root = table_with_shape("root", 6, 5)
        queries = [sq("q1", "root", "which player scored the most goals overall", answer="v1"),
                   sq("q2", "root", "how many matches were played during march", answer=None)]
        ds = build_benchmark(TableCorpus([root]), queries, seed=0)
        assert [e.query.id for e in ds.examples] == ["q1+q2"]
        save_benchmark(ds, tmp_path)
        assert json.loads((tmp_path / "examples.jsonl").read_text())["gold_answer"] is None
        assert load_benchmark(tmp_path).examples[0].query.gold_answer is None

    def test_tfv_labels_conjoin(self):
        a = sq("q1", "r", "claim one", task=TaskType.TFV, answer=1)
        b = sq("q2", "r", "claim two", task=TaskType.TFV, answer=0)
        combined = _combine_queries([a, b], 1)
        assert combined.task_type == TaskType.TFV
        assert combined.gold_answer == 0

    def test_three_way_combination(self):
        qs = [sq(f"q{i}", "r", f"question number {i} text", answer=f"a{i}") for i in range(3)]
        combined = _combine_queries(qs, 2)
        positions = [combined.text.index(q.text) for q in qs]
        assert positions == sorted(positions)
        assert combined.gold_answer == ["a0", "a1", "a2"]
        assert combined.task_type == TaskType.MULTI_HOP


class TestDecontextualize:
    def test_reference_replacement(self):
        out = decontextualize("How many did they win?", "Denver Broncos 2019 season")
        assert out == "How many did Denver Broncos 2019 season win?"

    def test_no_markers_unchanged(self):
        text = "How many games were played?"
        assert decontextualize(text, "Denver Broncos 2019 season") == text

    def test_idempotent(self):
        caption = "Denver Broncos 2019 season"
        once = decontextualize("What does this show about it?", caption)
        assert decontextualize(once, caption) == once

    def test_empty_caption_unchanged(self):
        assert decontextualize("What is this?", "   ") == "What is this?"

    def test_marker_bearing_caption_left_alone(self):
        # Replacing with a caption that contains a marker would break
        # idempotence, so the text passes through untouched.
        text = "What is this?"
        assert decontextualize(text, "all of it combined") == text

    def test_case_insensitive_markers(self):
        out = decontextualize("It lists many teams.", "Denver Broncos 2019 season")
        assert out == "Denver Broncos 2019 season lists many teams."

    @pytest.mark.parametrize("caption", [r"Prices in C:\data", r"Group \1 totals", r"Ratio a\b"],
                             ids=["bad-escape", "group-reference", "backspace-escape"])
    def test_backslash_in_caption_stays_literal(self, caption):
        assert decontextualize("what is it worth", caption) == f"what is {caption} worth"


def _benchmark_sources(n_roots=12, seed=0):
    rng = np.random.default_rng(seed)
    tables, queries = [], []
    for r in range(n_roots):
        n_rows = int(rng.integers(4, 9))
        n_cols = int(rng.integers(4, 8))
        tid = f"root{r:02d}"
        caption = f"ent{r}a ent{r}b ent{r}c records"
        tables.append(Table(id=tid, caption=caption,
                            headers=[f"h{r}x{j}" for j in range(n_cols)],
                            entries=grid(n_rows, n_cols, tag=f"r{r}"), metadata={}))
        for qn in range(3):
            queries.append(sq(
                f"{tid}-q{qn}", tid,
                f"what is the value of h{r}x{qn} for ent{r}a in the listed {caption}?",
                answer=f"r0c{qn}r{r}",
            ))
    return TableCorpus(tables), queries


def _pinned_sources():
    """Twelve free roots plus one that only column splits fit into 3 parts
    and one that only row splits fit, with TFV and single-query roots."""
    corpus, queries = _benchmark_sources()
    tables = list(corpus) + [table_with_shape("wide", 2, 8, caption="Annual population statistics"),
                             table_with_shape("tall", 10, 2, caption="Season results summary")]
    queries = queries + [
        sq("wide-c0", "wide", "the annual population statistics list eight regions", task=TaskType.TFV, answer=1),
        sq("wide-c1", "wide", "every region grew its resident count during the decade", task=TaskType.TFV, answer=0),
        sq("tall-q0", "tall", "which season produced the best overall results summary entry?", answer="r0c1"),
    ]
    return TableCorpus(tables), queries


class TestBuildBenchmark:
    # sha256 of the saved files for _pinned_sources() at seed 2, so a
    # changed cut, permutation, caption or merge fails here.
    PINNED_SHA256 = {
        "tables.jsonl": "0d7b64353fa4bc142e3abf73ce927aaea657226abea5fbe9538393abaff48311",
        "examples.jsonl": "10a7d2b5bf4be1c1af8b8089c7a6ed84100ebcb4a6febe1732b6dc214f976f63",
    }

    def test_pinned_dataset_bytes(self, tmp_path):
        ds = build_benchmark(*_pinned_sources(), seed=2)
        by_root = Counter(t.id.split("::")[0] for t in ds.tables)
        assert set(Counter(e.difficulty for e in ds.examples)) == {"Easy", "Medium", "Hard"}
        assert by_root["wide"] == 3 and all(t.n_rows == 2 for t in ds.tables if t.id.startswith("wide::"))
        assert by_root["tall"] == 3 and all(t.n_cols == 2 for t in ds.tables if t.id.startswith("tall::"))
        split = [t for t in ds.tables if "::" in t.id]
        assert 0 < sum(_was_row_split(ds, t) for t in split) < len(split)
        save_benchmark(ds, tmp_path)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.PINNED_SHA256}
        assert got == self.PINNED_SHA256

    def test_deterministic_dataset_bytes(self, tmp_path):
        corpus, queries = _benchmark_sources()
        ds1 = build_benchmark(corpus, queries, seed=33)
        ds2 = build_benchmark(corpus, queries, seed=33)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        save_benchmark(ds1, d1)
        save_benchmark(ds2, d2)
        for name in ("tables.jsonl", "examples.jsonl", "stats.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_difficulty_matches_split_width(self):
        corpus, queries = _benchmark_sources()
        ds = build_benchmark(corpus, queries, seed=7)
        by_root = {}
        for t in ds.tables:
            root = t.id.split("::")[0]
            by_root.setdefault(root, []).append(t.id)
        for e in ds.examples:
            parts = len(by_root[e.root_table_id])
            assert e.difficulty == {1: "Easy", 2: "Medium", 3: "Hard"}[parts]
            assert e.gold_table_ids == set(by_root[e.root_table_id])

    def test_easy_examples_have_single_gold(self):
        corpus, queries = _benchmark_sources(n_roots=30, seed=5)
        ds = build_benchmark(corpus, queries, seed=1)
        easy = [e for e in ds.examples if e.difficulty == "Easy"]
        assert easy, "want at least one unsplit root in the fixture"
        for e in easy:
            assert len(e.gold_table_ids) == 1
            assert e.gold_table_ids == {e.root_table_id}

    def test_mode_balance(self):
        corpus, queries = _benchmark_sources(n_roots=40, seed=2)
        ds = build_benchmark(corpus, queries, seed=9)
        rows = sum(1 for t in ds.tables if "::" in t.id and _was_row_split(ds, t))
        cols = sum(1 for t in ds.tables if "::" in t.id) - rows
        assert abs(rows - cols) <= 3

    def test_round_trip(self, tmp_path):
        corpus, queries = _benchmark_sources()
        ds = build_benchmark(corpus, queries, seed=3)
        save_benchmark(ds, tmp_path / "out")
        loaded = load_benchmark(tmp_path / "out")
        assert loaded.tables.ids() == ds.tables.ids()
        assert len(loaded.examples) == len(ds.examples)
        for a, b in zip(loaded.examples, ds.examples):
            assert (a.query.id, a.query.text, a.gold_table_ids, a.difficulty) == (
                b.query.id, b.query.text, b.gold_table_ids, b.difficulty)

    def test_bad_example_lines_reported_together(self, tmp_path):
        corpus, queries = _benchmark_sources()
        save_benchmark(build_benchmark(corpus, queries, seed=3), tmp_path / "out")
        path = tmp_path / "out" / "examples.jsonl"
        lines = path.read_text().splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        first["task_type"] = "Nope"
        del second["difficulty"]
        lines[:3] = [json.dumps(first), json.dumps(second), lines[2][:-5]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaViolation) as info:
            load_benchmark(tmp_path / "out")
        assert [where for where, _ in info.value.violations] == [
            "<examples.jsonl line 1>", "<examples.jsonl line 2>", "<examples.jsonl line 3>"]
        reasons = [reason for _, reason in info.value.violations]
        assert "'Nope' is not a valid TaskType" in reasons[0]
        assert reasons[1] == "missing key 'difficulty'"
        assert reasons[2].startswith("invalid JSON")

    @pytest.mark.parametrize("change, reason", [
        ({"text": "   "}, "query text is empty after trimming"),
        ({"text": 5}, "text must be a string, got 5"),
        ({"gold_table_ids": "root00"}, "gold_table_ids must be a list of strings, got 'root00'"),
        ({"gold_table_ids": ["root00", 3]}, "gold_table_ids must be a list of strings, got ['root00', 3]"),
        ({"gold_table_ids": ["root00", "nope"]}, "gold table ids ['nope'] are not tables of the dataset"),
        ({"task_type": "TFV", "gold_answer": 2}, "TFV answer must be 0 or 1, got 2"),
        ({"task_type": "TFV", "gold_answer": True}, "TFV answer must be 0 or 1, got True"),
        ({"task_type": "TFV", "gold_answer": False}, "TFV answer must be 0 or 1, got False"),
        ({"task_type": "TFV", "gold_answer": 1.0}, "TFV answer must be 0 or 1, got 1.0"),
        ({"task_type": "TFV", "gold_answer": 0.0}, "TFV answer must be 0 or 1, got 0.0"),
        ({"id": ["x"]}, "id must be a string, got ['x']"),
        ({"id": 7}, "id must be a string, got 7"),
        ({"root_table_id": {"a": 1}}, "root_table_id must be a string, got {'a': 1}"),
        ({"difficulty": 7}, "difficulty must be Easy, Medium or Hard, got 7"),
        ({"difficulty": "easy"}, "difficulty must be Easy, Medium or Hard, got 'easy'"),
        ({"difficulty": ["Easy"]}, "difficulty must be Easy, Medium or Hard, got ['Easy']"),
    ], ids=["blank-text", "number-text", "string-gold", "number-in-gold", "unknown-gold", "bad-tfv-label",
            "true-tfv-label", "false-tfv-label", "float-one-tfv-label", "float-zero-tfv-label", "list-id", "number-id", "dict-root-id", "number-difficulty", "lowercase-difficulty",
            "list-difficulty"])
    def test_malformed_example_is_a_line_numbered_violation(self, tmp_path, change, reason):
        corpus, queries = _benchmark_sources()
        save_benchmark(build_benchmark(corpus, queries, seed=3), tmp_path / "out")
        path = tmp_path / "out" / "examples.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), **change})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaViolation) as info:
            load_benchmark(tmp_path / "out")
        assert info.value.violations == [("<examples.jsonl line 2>", f"malformed record: {reason}")]

    def test_stats_json_is_not_read(self, tmp_path):
        # The summary is written for readers: a dataset loads whatever the file holds, or without it.
        assert [f.name for f in dataclasses.fields(BenchmarkDataset)] == ["tables", "examples"]
        corpus, queries = _benchmark_sources()
        save_benchmark(build_benchmark(corpus, queries, seed=3), tmp_path / "out")
        want = load_benchmark(tmp_path / "out")
        stats = tmp_path / "out" / "stats.json"
        for content in (b'{"total_tables": ', b"\xff\xfe", None):  # truncated, not UTF-8, missing
            if content is None:
                stats.unlink()
            else:
                stats.write_bytes(content)
            loaded = load_benchmark(tmp_path / "out")
            assert loaded.tables.ids() == want.tables.ids()
            assert [e.query.id for e in loaded.examples] == [e.query.id for e in want.examples]

    def test_stats_shape(self, tmp_path):
        corpus, queries = _benchmark_sources()
        ds = build_benchmark(corpus, queries, seed=3)
        save_benchmark(ds, tmp_path / "out")
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert set(stats["per_task"]) == {"TFV", "SingleHopTQA", "MultiHopTQA"}
        for row in stats["per_task"].values():
            assert {"n_queries", "n_tables", "avg_rows", "avg_cols"} <= set(row)
        assert stats["total_tables"] == len(ds.tables)

    @pytest.mark.parametrize("bad, reason", [
        (table_with_shape("empty", 0, 5), "table must have at least one entry row"),
        (dataclasses.replace(table_with_shape("ragged", 5, 5), entries=grid(4, 5) + [["x"] * 4]),
         "row 4 has 4 cells, expected 5"),
    ], ids=["zero-row", "ragged"])
    def test_invalid_root_refused_before_any_split(self, bad, reason):
        corpus, queries = _benchmark_sources(n_roots=3)
        for seed in range(4):  # whether the root would stay whole or be cut
            with pytest.raises(SchemaViolation) as info:
                build_benchmark(TableCorpus(list(corpus) + [bad]), queries, seed=seed)
            assert info.value.violations == [(bad.id, reason)]

    def test_roots_without_queries_still_contribute_tables(self):
        corpus, queries = _benchmark_sources(n_roots=8)
        silent_roots = {"root00", "root03"}
        kept = [q for q in queries if q.root_table_id not in silent_roots]
        ds = build_benchmark(corpus, kept, seed=6)
        emitted_roots = {t.id.split("::")[0] for t in ds.tables}
        assert silent_roots <= emitted_roots
        assert all(e.root_table_id not in silent_roots for e in ds.examples)


def _was_row_split(ds, t):
    root = t.id.split("::")[0]
    siblings = [s for s in ds.tables if s.id.startswith(root + "::")]
    # Row-split siblings share the full header tuple.
    return all(tuple(s.headers) == tuple(siblings[0].headers) for s in siblings) and len(
        set(tuple(s.headers) for s in siblings)
    ) == 1


class TestLoadSourceQueries:
    def test_tfv_answer_must_be_zero_or_one(self, tmp_path):
        def rec(qid, **answer):
            return json.dumps({"id": qid, "root_table_id": "r", "text": f"claim {qid} holds",
                               "task_type": "TFV", **answer})

        lines = [rec("a", answer=1), rec("b", answer="yes"), rec("c"), rec("d", answer=0),
                 rec("e", answer=2), rec("f", answer=None), rec("g", answer=True), rec("h", answer=1.0)]
        path = tmp_path / "queries.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaViolation) as info:
            load_source_queries(path)
        assert info.value.violations == [
            ("<queries.jsonl line 2>", "malformed record: TFV answer must be 0 or 1, got 'yes'"),
            ("<queries.jsonl line 3>", "malformed record: TFV answer must be 0 or 1, got None"),
            ("<queries.jsonl line 5>", "malformed record: TFV answer must be 0 or 1, got 2"),
            ("<queries.jsonl line 6>", "malformed record: TFV answer must be 0 or 1, got None"),
            ("<queries.jsonl line 7>", "malformed record: TFV answer must be 0 or 1, got True"),
            ("<queries.jsonl line 8>", "malformed record: TFV answer must be 0 or 1, got 1.0"),
        ]

    @pytest.mark.parametrize("change, reason", [
        ({"text": ["what", "is"]}, "text must be a string, got ['what', 'is']"),
        ({"text": 5}, "text must be a string, got 5"),
        ({"root_table_id": {"a": 1}}, "root_table_id must be a string or an integer, got {'a': 1}"),
        ({"id": None}, "id must be a string or an integer, got None"),
        ({"id": True}, "id must be a string or an integer, got True"),
    ], ids=["list-text", "number-text", "object-root", "null-id", "bool-id"])
    def test_malformed_record_is_a_line_numbered_violation(self, tmp_path, change, reason):
        rec = {"id": "a", "root_table_id": "r", "text": "what is it", "task_type": "SingleHopTQA"}
        path = tmp_path / "queries.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, "id": "b", **change}) + "\n")
        with pytest.raises(SchemaViolation) as info:
            load_source_queries(path)
        assert info.value.violations == [("<queries.jsonl line 2>", f"malformed record: {reason}")]

    def test_valid_tfv_labels_and_unlabelled_qa_load(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text(
            json.dumps({"id": "a", "root_table_id": "r", "text": "t", "task_type": "TFV", "answer": 1}) + "\n"
            + json.dumps({"id": "b", "root_table_id": "r", "text": "t", "task_type": "TFV", "answer": 0}) + "\n"
            + json.dumps({"id": "c", "root_table_id": "r", "text": "t", "task_type": "SingleHopTQA"}) + "\n"
            + json.dumps({"id": 7, "root_table_id": 12, "text": "t", "task_type": "SingleHopTQA"}) + "\n"
        )
        assert [(q.id, q.root_table_id, q.answer) for q in load_source_queries(path)] == [
            ("a", "r", 1), ("b", "r", 0), ("c", "r", None), ("7", "12", None)]
