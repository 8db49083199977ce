"""Benchmark construction: turn single-table QA sources into a multi-table set.

Each sufficiently large root table is left whole or cut row-wise or
column-wise into 2-3 sub-tables, and the cut debiases the siblings in the
same pass (caption rewording plus a random row/column order per sibling).
The root's surviving queries are merged into one combined, decontextualized
query whose gold set is every sub-table derived from that root. Difficulty
mirrors the split width: Easy = no split, Medium = 2 parts, Hard = 3 parts.
The whole pipeline is a pure function of (sources, seed).

Output layout (documented in docs/FORMATS.md): ``tables.jsonl`` in the
canonical corpus format, ``examples.jsonl`` with one example per line, and a
``stats.json`` summary per task type, which is written for readers and which
``load_benchmark`` does not read.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Query, Table, TableCorpus, TaskType, json_error, load_corpus, read_text, save_corpus, tfv_label_error, validate_query, validate_table
from .errors import IOFailure, SchemaViolation
from .features import STOPWORDS, SparseRows, fit_heuristic, token_ids, tokenize
from .linearize import normalize_whitespace

MIN_SPLIT_DIM = 3  # tables with at most this many rows AND columns are dropped
STOPWORD_RATIO = 0.7
MIN_TOKENS = 5
REDUNDANCY_COSINE = 0.9

DIFFICULTY_BY_PARTS = {1: "Easy", 2: "Medium", 3: "Hard"}

CONNECTORS = ("AND", "Furthermore", "Based on [previous query]")

# Deterministic caption rewriting: a small synonym lexicon plus rephrasing
# templates, cycled per sibling so siblings never share a caption.
_SYNONYMS = {
    "season": "campaign",
    "seasons": "campaigns",
    "statistics": "figures",
    "stats": "figures",
    "list": "roster",
    "results": "outcomes",
    "games": "matches",
    "game": "match",
    "record": "log",
    "records": "logs",
    "summary": "digest",
    "overview": "profile",
    "report": "briefing",
    "data": "information",
    "history": "timeline",
    "players": "members",
    "teams": "clubs",
    "schedule": "calendar",
    "scores": "totals",
    "annual": "yearly",
    "total": "overall",
    "number": "count",
    "average": "mean",
    "population": "residents",
}

_TEMPLATES = (
    "{c}",
    "Overview of {c}",
    "Details on {c}",
    "{c} at a glance",
    "Reference for {c}",
    "A breakdown of {c}",
    "Key facts: {c}",
)

_DECONTEXT_MARKERS = ("it", "this", "that", "they", "these", "there", "here")
_DECONTEXT_RE = re.compile(r"\b(" + "|".join(_DECONTEXT_MARKERS) + r")\b", re.IGNORECASE)


@dataclass
class SourceQuery:
    """A raw single-table query attached to its root table."""

    id: str
    root_table_id: str
    text: str
    task_type: TaskType
    answer: object


@dataclass
class BenchmarkExample:
    query: Query
    gold_table_ids: set[str]
    difficulty: str
    root_table_id: str


@dataclass
class BenchmarkDataset:
    tables: TableCorpus
    examples: list[BenchmarkExample]


def filter_small(corpus: TableCorpus) -> TableCorpus:
    """Drop tables whose row AND column counts are both at most 3."""
    kept = [t for t in corpus if not (t.n_cols <= MIN_SPLIT_DIM and t.n_rows <= MIN_SPLIT_DIM)]
    return TableCorpus(kept)


def _take(t: Table, rows: list[int], cols: list[int], id: str, caption: str) -> Table:
    """``t`` cut to ``rows`` and ``cols``, in that order, under ``id`` and
    ``caption``."""
    return Table(
        id=id,
        caption=caption,
        headers=[t.headers[c] for c in cols],
        entries=[[t.entries[r][c] for c in cols] for r in rows],
        metadata=dict(t.metadata),
    )


def _reword_caption(caption: str, variant: int) -> str:
    words = caption.split()
    if variant % 2 == 1:
        words = [_SYNONYMS.get(w.lower(), w) for w in words]
    body = " ".join(words)
    template = _TEMPLATES[variant % len(_TEMPLATES)]
    return template.format(c=body) if body else template.format(c="untitled table")


def _split_root(t: Table, parts: int, mode: str, seed: int) -> list[Table]:
    """Cut ``t`` into ``parts`` debiased siblings ``<id>::part1`` onwards.

    ``mode`` "row" shuffles the rows and deals them into contiguous
    near-equal parts; "column" does the same with every column but the
    first, which each part keeps in front. Each sibling then gets a distinct
    reworded caption and its own random order of the rows (or non-leading
    columns) it holds. Precondition, which ``build_benchmark`` guarantees:
    ``parts`` is 2 or 3 and at most ``t.n_rows`` in row mode, or at most
    ``t.n_cols - 1`` in column mode, so no part is empty.
    """
    by_row = mode == "row"
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0 if by_row else 1]))
    cut = rng.permutation(t.n_rows if by_row else t.n_cols - 1)
    captions: list[str] = []
    out: list[Table] = []
    for i, piece in enumerate(np.array_split(cut, parts)):
        variant = i
        while _reword_caption(t.caption, variant) in captions:
            variant += 1
        captions.append(_reword_caption(t.caption, variant))
        order = piece[np.random.default_rng(np.random.SeedSequence([seed, 2, i])).permutation(len(piece))]
        if by_row:
            rows, cols = order.tolist(), list(range(t.n_cols))
        else:
            rows, cols = list(range(t.n_rows)), [0] + (order + 1).tolist()
        out.append(_take(t, rows, cols, f"{t.id}::part{i + 1}", captions[i]))
    return out


# A tf-idf row as (ascending columns, values, L2 norm).
_Row = tuple[np.ndarray, np.ndarray, float]


def _tfidf_row(m: SparseRows, i: int) -> _Row:
    """Row i of canonical CSR tf-idf rows as plain arrays."""
    lo, hi = m.indptr[i], m.indptr[i + 1]
    cols, vals = m.indices[lo:hi], m.data[lo:hi]
    return cols, vals, float(np.sqrt(np.sum(vals * vals)))


def _row_cosine(a: _Row, b: _Row) -> float:
    """Cosine of two tf-idf rows, bitwise equal to the pairwise sparse cosine
    ``a.multiply(b).sum() / (|a| * |b|)`` of their canonical CSR forms:
    scipy's ``multiply(...).sum()`` is ``np.sum`` over the products of the
    shared columns in ascending column order, which is what is summed here.
    A zero row scores 0."""
    cols, vals, norm = a
    pcols, pvals, pnorm = b
    if norm == 0.0 or pnorm == 0.0:
        return 0.0
    _, ia, ib = np.intersect1d(cols, pcols, assume_unique=True, return_indices=True)
    return float(np.sum(vals[ia] * pvals[ib])) / (norm * pnorm)


def filter_queries(queries: Sequence[SourceQuery]) -> list[SourceQuery]:
    """Drop vague and redundant queries; survivors keep their input order.

    A query goes if its stopword ratio exceeds STOPWORD_RATIO, it has fewer
    than MIN_TOKENS tokens, or its TF-IDF cosine against an already kept
    query of the same root reaches REDUNDANCY_COSINE.
    """
    if not queries:
        return []
    token_lists = [tokenize(q.text) for q in queries]
    tok = token_ids(token_lists)
    tfidf = fit_heuristic(tok).matrix(tok)
    kept: list[SourceQuery] = []
    kept_rows: dict[str, list[_Row]] = {}
    for i, (q, toks) in enumerate(zip(queries, token_lists)):
        if len(toks) < MIN_TOKENS:
            continue
        ratio = sum(1 for t in toks if t in STOPWORDS) / len(toks)
        if ratio > STOPWORD_RATIO:
            continue
        row = _tfidf_row(tfidf, i)
        same_root = kept_rows.setdefault(q.root_table_id, [])
        if any(_row_cosine(row, prev) >= REDUNDANCY_COSINE for prev in same_root):
            continue
        kept.append(q)
        same_root.append(row)
    return kept


def _combine_queries(queries: Sequence[SourceQuery], seed: int) -> Query:
    """Merge the queries into one multi-part query.

    Connectors are drawn per junction from CONNECTORS; the
    "[previous query]" slot, when present, is filled with the preceding
    query's text. Answers become the list of source answers, or ``None`` if
    any source has none; the task is promoted to multi-hop whenever the
    sources span more than one answer cell. All-claim inputs stay TFV with
    the conjunction of their labels. Precondition, which ``build_benchmark``
    guarantees: 2 or 3 queries, all of one root.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))

    text = normalize_whitespace(queries[0].text)
    prev = text
    for q in queries[1:]:
        connector = CONNECTORS[int(rng.integers(len(CONNECTORS)))]
        piece = connector.replace("[previous query]", prev)
        nxt = normalize_whitespace(q.text)
        text = f"{text} {piece} {nxt}"
        prev = nxt

    task_types = {q.task_type for q in queries}
    if task_types == {TaskType.TFV}:
        answer: object = int(all(int(q.answer) == 1 for q in queries))
        task = TaskType.TFV
    else:
        parts: list[str] = []
        for q in queries:
            if isinstance(q.answer, (list, tuple)):
                parts.extend(str(a) for a in q.answer)
            else:
                parts.append(str(q.answer))
        answer = None if any(q.answer is None for q in queries) else parts
        task = TaskType.MULTI_HOP if len(parts) > 1 else queries[0].task_type
    return Query(
        id="+".join(q.id for q in queries),
        text=text,
        task_type=task,
        gold_answer=answer,
    )


def decontextualize(query_text: str, root_caption: str) -> str:
    """Replace discourse markers and demonstrative pronouns with the root
    caption. Idempotent: captions that themselves contain a marker word are
    left alone rather than risk re-replacement."""
    caption = normalize_whitespace(root_caption)
    if not caption:
        return query_text
    if _DECONTEXT_RE.search(caption):
        return query_text
    # A function, not a template: a backslash in the caption stays literal.
    return normalize_whitespace(_DECONTEXT_RE.sub(lambda _: caption, query_text))


def build_benchmark(
    sources: TableCorpus,
    source_queries: Sequence[SourceQuery],
    seed: int = 0,
) -> BenchmarkDataset:
    """Run the full construction pipeline. Reproducible from the seed.

    Every source root must hold to the table contract that ``load_corpus``
    enforces (``corpus.validate_table``): before any split, the roots that
    break it are refused together in one SchemaViolation of (root id,
    message), so no invalid sub-table is ever written."""
    violations = [(t.id, message) for t in sources for message in validate_table(t)]
    if violations:
        raise SchemaViolation(violations)
    corpus = filter_small(sources)
    queries = filter_queries(source_queries)
    by_root: dict[str, list[SourceQuery]] = {}
    for q in queries:
        by_root.setdefault(q.root_table_id, []).append(q)

    master = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    mode_counts = {"row": 0, "column": 0}
    out_tables: list[Table] = []
    examples: list[BenchmarkExample] = []

    for root in corpus:
        root_seed = int(np.random.SeedSequence([seed, 5, _stable_id_key(root.id)]).generate_state(1)[0])
        parts = int(master.integers(1, 4))
        if parts == 1:
            subs = [root]
        else:
            # filter_small keeps more than 3 rows or more than 3 columns, so
            # 2 or 3 parts always fit one way or the other.
            by_row, by_column = parts <= root.n_rows, parts <= root.n_cols - 1
            if by_row and by_column:
                # Keep row-wise and column-wise sub-table counts balanced.
                if mode_counts["row"] < mode_counts["column"]:
                    mode = "row"
                elif mode_counts["column"] < mode_counts["row"]:
                    mode = "column"
                else:
                    mode = ("row", "column")[int(master.integers(2))]
            else:
                mode = "row" if by_row else "column"
            subs = _split_root(root, parts, mode, root_seed)
            mode_counts[mode] += len(subs)
        out_tables.extend(subs)

        root_queries = by_root.get(root.id, [])
        if not root_queries:
            continue
        if len(root_queries) >= 2:
            take = 3 if len(root_queries) >= 3 and master.integers(2) == 1 else 2
            combined = _combine_queries(root_queries[:take], root_seed)
        else:
            src = root_queries[0]
            combined = Query(
                id=src.id,
                text=normalize_whitespace(src.text),
                task_type=src.task_type,
                gold_answer=src.answer,
            )
        combined.text = decontextualize(combined.text, root.caption)
        examples.append(
            BenchmarkExample(
                query=combined,
                gold_table_ids={s.id for s in subs},
                difficulty=DIFFICULTY_BY_PARTS[parts],
                root_table_id=root.id,
            )
        )

    return BenchmarkDataset(tables=TableCorpus(out_tables), examples=examples)


def _stable_id_key(table_id: str) -> int:
    # Root-scoped sub-seed that does not depend on corpus position.
    return int.from_bytes(hashlib.blake2b(table_id.encode("utf-8"), digest_size=4).digest(), "little")


def _summarize(tables: TableCorpus, examples: list[BenchmarkExample]) -> dict:
    stats: dict = {"total_tables": len(tables), "total_queries": len(examples), "per_task": {}}
    for task in TaskType:
        exs = [e for e in examples if e.query.task_type == task]
        gold_ids = sorted({tid for e in exs for tid in e.gold_table_ids})
        gold_tables = [tables.get(tid) for tid in gold_ids if tid in tables]
        stats["per_task"][task.value] = {
            "n_queries": len(exs),
            "n_tables": len(gold_tables),
            "avg_rows": round(float(np.mean([t.n_rows for t in gold_tables])), 2) if gold_tables else 0.0,
            "avg_cols": round(float(np.mean([t.n_cols for t in gold_tables])), 2) if gold_tables else 0.0,
        }
    stats["per_difficulty"] = {
        d: sum(1 for e in examples if e.difficulty == d) for d in ("Easy", "Medium", "Hard")
    }
    return stats


# ---------------------------------------------------------------------------
# Dataset and source-query persistence
# ---------------------------------------------------------------------------


def _example_record(e: BenchmarkExample) -> dict:
    return {
        "difficulty": e.difficulty,
        "gold_answer": e.query.gold_answer,
        "gold_table_ids": sorted(e.gold_table_ids),
        "id": e.query.id,
        "root_table_id": e.root_table_id,
        "task_type": e.query.task_type.value,
        "text": e.query.text,
    }


def save_benchmark(ds: BenchmarkDataset, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(ds.tables, out / "tables.jsonl")
    stats = _summarize(ds.tables, ds.examples)
    try:
        with (out / "examples.jsonl").open("wb") as f:
            for e in ds.examples:
                f.write(json.dumps(_example_record(e), sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8"))
                f.write(b"\n")
        (out / "stats.json").write_bytes(
            json.dumps(stats, sort_keys=True, ensure_ascii=False, indent=2).encode("utf-8") + b"\n"
        )
    except OSError as exc:
        raise IOFailure(f"cannot write benchmark to {out}: {exc}") from exc


def _parse_records(lines: list[str], name: str, build: Callable[[dict], object]) -> list:
    """``build`` applied to each non-blank JSON line. Bad JSON, a non-object
    line, a missing key and a bad value (such as an unknown task type) are
    collected per line and raised together as one SchemaViolation."""
    out = []
    violations: list[tuple[str, str]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"<{name} line {lineno}>"
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            violations.append((where, json_error(exc)))
            continue
        if not isinstance(rec, dict):
            violations.append((where, "record is not an object"))
            continue
        try:
            out.append(build(rec))
        except KeyError as exc:
            violations.append((where, f"missing key {exc.args[0]!r}"))
        except (TypeError, ValueError) as exc:
            violations.append((where, f"malformed record: {exc}"))
    if violations:
        raise SchemaViolation(violations)
    return out


def _example_from_record(rec: dict, tables: TableCorpus) -> BenchmarkExample:
    text, gold = rec["text"], rec["gold_table_ids"]
    if not isinstance(text, str):
        raise ValueError(f"text must be a string, got {text!r}")
    if not isinstance(gold, list) or not all(isinstance(tid, str) for tid in gold):
        raise ValueError(f"gold_table_ids must be a list of strings, got {gold!r}")
    unknown = [tid for tid in gold if tid not in tables]
    if unknown:
        raise ValueError(f"gold table ids {unknown} are not tables of the dataset")
    for key in ("id", "root_table_id"):
        if not isinstance(rec[key], str):
            raise ValueError(f"{key} must be a string, got {rec[key]!r}")
    if rec["difficulty"] not in DIFFICULTY_BY_PARTS.values():
        raise ValueError(f"difficulty must be Easy, Medium or Hard, got {rec['difficulty']!r}")
    q = Query(
        id=rec["id"],
        text=text,
        task_type=TaskType(rec["task_type"]),
        gold_answer=rec["gold_answer"],
    )
    messages = validate_query(q)
    if messages:
        raise ValueError("; ".join(messages))
    return BenchmarkExample(
        query=q,
        gold_table_ids=set(gold),
        difficulty=rec["difficulty"],
        root_table_id=rec["root_table_id"],
    )


def load_benchmark(in_dir: str | Path) -> BenchmarkDataset:
    src = Path(in_dir)
    tables = load_corpus(src / "tables.jsonl", format="jsonl")
    lines = read_text(src / "examples.jsonl").splitlines()
    examples = _parse_records(lines, "examples.jsonl", lambda rec: _example_from_record(rec, tables))
    return BenchmarkDataset(tables=tables, examples=examples)


def _id_text(rec: dict, key: str) -> str:
    """``rec[key]`` as text: a string, or an integer written out."""
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"{key} must be a string or an integer, got {value!r}")
    return str(value)


def _source_query_from_record(rec: dict) -> SourceQuery:
    text = rec["text"]
    if not isinstance(text, str):
        raise ValueError(f"text must be a string, got {text!r}")
    q = SourceQuery(
        id=_id_text(rec, "id"),
        root_table_id=_id_text(rec, "root_table_id"),
        text=text,
        task_type=TaskType(rec["task_type"]),
        answer=rec.get("answer"),
    )
    # Unlike an example's gold answer, a source's TFV label may not be null.
    if q.task_type == TaskType.TFV and (bad := tfv_label_error(q.answer)):
        raise ValueError(bad)
    return q


def load_source_queries(path: str | Path) -> list[SourceQuery]:
    """Read raw source queries (one JSON record per line). Every bad line is
    reported, by line number, in one SchemaViolation."""
    p = Path(path)
    return _parse_records(read_text(p).splitlines(), p.name, _source_query_from_record)
