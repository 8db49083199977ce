"""Workload definitions and their seeded input generators.

The generators are frozen copies of the topic-blob fixtures in
``tests/conftest.py`` and the gold root-table generator in
``tests/test_acceptance.py``. They are copied rather than imported so that an
edit to the tests cannot silently change a workload. They write plain JSONL
files in the documented corpus and source-query formats and use nothing from
the library, so the program under test receives only these files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SINGLE_HOP = "SingleHopTQA"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "blob": topic-blob corpus; "gold": root tables through build_benchmark
    size: int            # blob: tables; gold: root tables
    n_topics: int        # blob topics; gold caption domains
    dimension: int       # builtin hash-embedder dimension
    K: int               # clusters per feature family
    k: int = 100         # typical nodes per cluster
    tau: float = 0.5
    top_n: int = 10
    n_queries: int = 70   # distinct queries per corpus; recall comes from each one's first run
    query_words: int = 6  # words per blob query, drawn with replacement from the topic's pool
    rounds: int = 3       # corpora per run: one set-up and one query server each
    build_seed: int = 13  # index k-means seed: a program setting, not an input


WORKLOADS = {
    w.name: w
    for w in (
        # Five topics of 600 tables: four in five queries get a union of
        # 1,200 candidates and the rest 600, on every seed, so the fine stage
        # dominates a query and the latency tail does not depend on the seed.
        # With 6-word queries, some seeds had a query or two with a union of
        # 1,800 (three topics), whose n x n arrays raised the query process's
        # peak RSS by half; with 12-word queries that was 2 in 9,000.
        Workload("blob-wide", "blob", size=3_000, n_topics=5, dimension=128, K=5, query_words=12),
        # 60 topics and 60 clusters per family: scoring 4,000 typical nodes
        # per family dominates a query, unions stay at 67-270 candidates,
        # and k-means dominates set-up.
        Workload("blob-narrow", "blob", size=4_000, n_topics=60, dimension=128, K=60, n_queries=60),
        # Real table bodies in prompts, a large TF-IDF vocabulary, the
        # benchmark builder in set-up and gold sets for recall.
        Workload("gold-e2e", "gold", size=1_000, n_topics=10, dimension=512, K=20, n_queries=200),
    )
}


def _jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True, ensure_ascii=False, separators=(",", ":")))
            f.write("\n")


def _table(tid: str, caption: str, headers: list[str], entries: list[list[str]]) -> dict:
    return {"id": tid, "caption": caption, "headers": headers, "entries": entries, "metadata": {}}


# ---------------------------------------------------------------------------
# Topic blobs (from tests/conftest.py)
# ---------------------------------------------------------------------------


def topic_caption_pool(topic: int) -> list[str]:
    return [f"tp{topic}c{j:02d}" for j in range(4 + topic)]


def topic_header_pool(topic: int) -> list[str]:
    return [f"tp{topic}h{j:02d}" for j in range(2)]


def make_topic_corpus(n_tables: int, n_topics: int, seed: int) -> list[dict]:
    """Well-separated topic blobs: table i belongs to topic i % n_topics."""
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(n_tables):
        topic = i % n_topics
        caption = " ".join(rng.permutation(topic_caption_pool(topic)))
        headers = topic_header_pool(topic)
        tables.append(_table(f"t{i:05d}", caption, headers, [["x"] * len(headers)]))
    return tables


def make_topic_query(topic: int, seed: int, length: int = 6) -> dict:
    rng = np.random.default_rng(seed)
    pool = topic_caption_pool(topic) + topic_header_pool(topic)
    text = " ".join(rng.choice(pool, size=length))
    return {"id": f"q-{topic}-{seed}", "text": text, "task_type": SINGLE_HOP}


# ---------------------------------------------------------------------------
# Gold root tables (from tests/test_acceptance.py, scaled up)
# ---------------------------------------------------------------------------


def make_gold_sources(n_roots: int, n_domains: int, seed: int) -> tuple[list[dict], list[dict]]:
    """Root tables of 4-9 rows x 4-7 columns, three source queries each."""
    rng = np.random.default_rng(seed)
    tables, queries = [], []
    for r in range(n_roots):
        rid = f"root{r:04d}"
        dom = f"domain{r % n_domains}"
        caption = " ".join([dom] * 4 + [f"ent{r}a", f"ent{r}b", f"ent{r}c", "records"])
        n_rows, n_cols = int(rng.integers(4, 10)), int(rng.integers(4, 8))
        tables.append(_table(
            rid, caption,
            [f"h{r}x{j}" for j in range(n_cols)],
            [[f"v{r}r{i}c{j}" for j in range(n_cols)] for i in range(n_rows)],
        ))
        for qn in range(3):
            queries.append({
                "id": f"{rid}-q{qn}", "root_table_id": rid,
                "text": f"what is the value of h{r}x{qn} for ent{r}a in the {caption} table?",
                "task_type": SINGLE_HOP, "answer": f"v{r}r0c{qn}",
            })
    return tables, queries


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------


def write_inputs(w: Workload, seed: int, workdir: Path) -> None:
    """Write the workload's inputs for ``seed`` into ``workdir``.

    blob: ``corpus.jsonl`` and ``queries.jsonl``, where each query record
    carries ``relevant``, the ids of its topic's tables. gold:
    ``sources/tables.jsonl`` and ``sources/queries.jsonl``; the evaluated
    queries are drawn from the built benchmark (see ``pick_examples``).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if w.kind == "blob":
        tables = make_topic_corpus(w.size, w.n_topics, seed)
        _jsonl(workdir / "corpus.jsonl", tables)
        by_topic = [[t["id"] for t in tables[topic :: w.n_topics]] for topic in range(w.n_topics)]
        order = np.random.default_rng(np.random.SeedSequence([seed, 1])).permutation(w.n_queries)
        queries = []
        for j in order:
            topic = int(j) * w.n_topics // w.n_queries  # topics spread evenly over the query set
            qseed = int(np.random.SeedSequence([seed, 2, int(j)]).generate_state(1)[0])
            queries.append({**make_topic_query(topic, qseed, w.query_words), "relevant": by_topic[topic]})
        _jsonl(workdir / "queries.jsonl", queries)
    elif w.kind == "gold":
        tables, queries = make_gold_sources(w.size, w.n_topics, seed)
        (workdir / "sources").mkdir(exist_ok=True)
        _jsonl(workdir / "sources" / "tables.jsonl", tables)
        _jsonl(workdir / "sources" / "queries.jsonl", queries)
    else:
        raise ValueError(f"unknown workload kind {w.kind!r}")


def pick_examples(example_ids: list[str], n: int, seed: int) -> list[str]:
    """The gold workload's evaluated example ids: a seeded sample of ``n``."""
    ids = sorted(example_ids)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    return [ids[i] for i in rng.permutation(len(ids))[: min(n, len(ids))]]
