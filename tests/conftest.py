from __future__ import annotations

import hashlib
import json
import string
import threading
from collections import Counter
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from scipy import sparse

from tablerank.benchmark import BenchmarkDataset, SourceQuery, build_benchmark
from tablerank.build import CorpusFeatures, _typical_nodes, kmeans
from tablerank.corpus import Query, Table, TableCorpus, TaskType
from tablerank.features import (
    PUNCT_MARKS,
    STOPWORDS,
    STRUCT_DIM,
    TAG_CLASSES,
    EmbedderHandle,
    HeuristicVectorizer,
    standardize_struct,
    tokenize,
    unit_rows,
)
from tablerank.index import FAMILY_TYPES
from tablerank.linearize import linearize


def _norm(a) -> float:
    if sparse.issparse(a):
        return float(np.sqrt(a.multiply(a).sum()))
    return float(np.linalg.norm(np.asarray(a).ravel()))


def _dot(a, b) -> float:
    if sparse.issparse(a) and sparse.issparse(b):
        return float(a.multiply(b).sum())
    if sparse.issparse(a):
        return float(a.dot(np.asarray(b).ravel())[0])
    if sparse.issparse(b):
        return float(b.dot(np.asarray(a).ravel())[0])
    return float(np.dot(np.asarray(a).ravel(), np.asarray(b).ravel()))


def representative_score(a, b) -> float:
    """Reference cosine of two same-type feature vectors, one pair at a time.

    Accepts dense 1-D arrays or 1 x V sparse rows. A zero vector on either
    side scores 0 by convention rather than raising.
    """
    na = _norm(a)
    nb = _norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return _dot(a, b) / (na * nb)


# ---------------------------------------------------------------------------
# Feature oracles: the per-table featurization the library once ran (every
# table tokenized by each feature, one 1 x V CSR row per table stacked with
# ``sparse.vstack``, one embedding and one structural vector per text, no
# memo). The one-pass ``extract_all`` must match them bit for bit.
# ---------------------------------------------------------------------------


def reference_fit_heuristic(texts) -> HeuristicVectorizer:
    df = Counter()
    for text in texts:
        df.update(set(tokenize(text)))
    vocab = {tok: i for i, tok in enumerate(sorted(df))}
    idf = np.zeros(len(vocab), dtype=np.float64)
    for tok, i in vocab.items():
        idf[i] = np.log((1.0 + len(texts)) / (1.0 + df[tok])) + 1.0
    return HeuristicVectorizer(vocabulary=vocab, idf=idf)


def reference_transform(v: HeuristicVectorizer, text: str) -> sparse.csr_matrix:
    """One text's 1 x V tf-idf row, built on its own as canonical CSR."""
    hits = sorted((v.vocabulary[tok], tf) for tok, tf in Counter(tokenize(text)).items() if tok in v.vocabulary)
    cols = np.array([c for c, _ in hits], dtype=np.int64)
    tf = np.array([t for _, t in hits], dtype=np.float64)
    return sparse.csr_matrix((tf * v.idf[cols], cols, np.array([0, len(cols)])), shape=(1, v.size))


def reference_hash_embed(text: str, dimension: int) -> np.ndarray:
    """The builtin embedder on one text: one blake2b call per gram
    occurrence, counts added one by one."""
    toks = tokenize(text)
    grams = toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]
    if not grams:
        grams = [text]
    vec = np.zeros(dimension, dtype=np.float64)
    for g in grams:
        digest = hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest()
        val = int.from_bytes(digest, "little")
        sign = 1.0 if val & 1 == 0 else -1.0
        vec[(val >> 1) % dimension] += sign
    return vec / float(np.linalg.norm(vec))


def reference_tag_token(raw: str, sentence_initial: bool) -> str:
    """The structural tagger with a per-character symbol scan."""
    stripped = raw.strip(string.punctuation)
    if not stripped:
        return "PUNCT" if raw else "OTHER"
    if stripped.isdigit():
        return "NUM"
    if stripped[0].isupper() and not sentence_initial:
        return "PROPN"
    if any(ch in set("$%&#@*+=^~|<>/\\") for ch in stripped):
        return "SYM"
    low = stripped.lower()
    if low in STOPWORDS:
        return "STOP"
    if low.endswith(("ing", "ed", "s")):
        return "VERB"
    if low.endswith(("able", "ous", "ive", "al")):
        return "ADJ"
    return "OTHER"


def reference_extract_structural(text: str) -> np.ndarray:
    vec = np.zeros(STRUCT_DIM, dtype=np.float64)
    raw_tokens = text.split()
    vec[0] = len(raw_tokens)
    vec[1] = len({t.lower() for t in raw_tokens})
    vec[2] = len(text)
    vec[3] = sum(1 for t in raw_tokens if t.strip(string.punctuation).isdigit())
    tag_counts = Counter()
    sentence_initial = True
    for raw in raw_tokens:
        tag_counts[reference_tag_token(raw, sentence_initial)] += 1
        sentence_initial = raw.endswith((".", "!", "?"))
    for i, cls in enumerate(TAG_CLASSES):
        vec[4 + i] = tag_counts.get(cls, 0)
    for i, mark in enumerate(PUNCT_MARKS):
        vec[4 + len(TAG_CLASSES) + i] = text.count(mark)
    return vec


def reference_extract_all(corpus: TableCorpus, h: EmbedderHandle) -> CorpusFeatures:
    """Per-table features stacked in corpus order (builtin embedder only)."""
    sequences = [linearize(t) for t in corpus]
    v = reference_fit_heuristic(sequences)
    heur = sparse.vstack([reference_transform(v, seq) for seq in sequences]).tocsr()
    heur.sort_indices()
    return CorpusFeatures(
        sem=np.vstack([reference_hash_embed(seq, h.dimension) for seq in sequences]),
        struct=np.vstack([reference_extract_structural(seq) for seq in sequences]),
        heur=heur,
        vectorizer=v,
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def score_space_rows(feats: CorpusFeatures, phi: str, ix):
    """Oracle for the rows a family's cosines use, one per table, from the
    features ``extract_all`` returned for the index's corpus: the raw sem and
    heur rows, and the struct rows standardized with the index's stats."""
    if phi == "struct":
        return standardize_struct(feats.struct, ix.struct_mean, ix.struct_std)
    return feats.sem if phi == "sem" else feats.heur


def typical_nodes(feats: CorpusFeatures, phi: str, ix) -> tuple[np.ndarray, np.ndarray]:
    """(positions, ptr) of family ``phi``'s typical nodes, which the index
    does not keep: ``kmeans`` re-run with the build's child seed in the
    family's clustering space, made from the features ``extract_all``
    returned for the index's corpus, then ``_typical_nodes``. Cluster j's
    typical nodes are ``positions[ptr[j]:ptr[j + 1]]``."""
    rows = score_space_rows(feats, phi, ix)
    space = rows if phi == "struct" else unit_rows(rows)
    child_seed = int(np.random.SeedSequence([ix.params["seed"], FAMILY_TYPES.index(phi)]).generate_state(1)[0])
    result = kmeans(space, ix.params["K"], seed=child_seed)
    assert np.array_equal(result.assignments, ix.families[phi].assignments), phi
    return _typical_nodes(space, result, ix.table_ids, ix.params["typical_k"])


def reference_sem_grouping(sem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for the index's sem grouping: (rows, group) with each distinct
    row of ``sem`` (by bytes, so -0.0 differs from 0.0) stored once in order
    of first position, and ``rows[group]`` equal to ``sem``."""
    first: dict[bytes, int] = {}
    group = np.array([first.setdefault(row.tobytes(), len(first)) for row in sem], dtype=np.int32)
    return sem[np.unique(group, return_index=True)[1]], group


def prompt_graph_records(user: str) -> list[dict]:
    """The graph records of a prompt's ``user`` text, each line parsed with
    json.loads: the lines after "Graph Related Information:" up to the next
    blank line."""
    block = user.split("Graph Related Information:\n", 1)[1].split("\n\n", 1)[0]
    if block == "(no edges among the retrieved tables)":
        return []
    return [json.loads(line) for line in block.split("\n")]


def make_table(tid: str, caption: str = "caption", headers=None, entries=None, metadata=None) -> Table:
    headers = headers if headers is not None else ["col_a", "col_b"]
    entries = entries if entries is not None else [["1", "2"], ["3", "4"]]
    return Table(id=tid, caption=caption, headers=headers, entries=entries, metadata=metadata or {})


def topic_caption_pool(topic: int) -> list[str]:
    return [f"tp{topic}c{j:02d}" for j in range(4 + topic)]


def topic_header_pool(topic: int) -> list[str]:
    return [f"tp{topic}h{j:02d}" for j in range(2)]


def make_topic_corpus(n_tables: int, n_topics: int, seed: int) -> TableCorpus:
    """Synthetic corpus of well-separated topic blobs.

    Every table of a topic uses the same caption token set (shuffled order)
    and the same fixed header pair, so the heuristic and structural vectors
    are constant within a topic while topics stay far apart (disjoint
    vocabularies, distinct caption lengths); the semantic vectors vary only
    through bigram order.
    """
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(n_tables):
        topic = i % n_topics
        caption = " ".join(rng.permutation(topic_caption_pool(topic)))
        headers = topic_header_pool(topic)
        tables.append(
            Table(
                id=f"t{i:05d}",
                caption=caption,
                headers=headers,
                entries=[["x"] * len(headers)],
                metadata={},
            )
        )
    return TableCorpus(tables)


def make_topic_query(topic: int, seed: int, length: int = 6) -> Query:
    rng = np.random.default_rng(seed)
    pool = topic_caption_pool(topic) + topic_header_pool(topic)
    text = " ".join(rng.choice(pool, size=length))
    return Query(id=f"q-{topic}-{seed}", text=text, task_type=TaskType.SINGLE_HOP)


def make_gold_corpus(n_roots: int, seed: int) -> TableCorpus:
    """Tables of ``make_gold_dataset``'s benchmark."""
    return make_gold_dataset(n_roots, seed).tables


def make_gold_dataset(n_roots: int, seed: int) -> BenchmarkDataset:
    """A benchmark built over root tables of 4-9 rows x 4-7 columns in ten
    caption domains, three source queries per root."""
    rng = np.random.default_rng(seed)
    tables, queries = [], []
    for r in range(n_roots):
        rid = f"root{r:03d}"
        caption = " ".join([f"domain{r % 10}"] * 4 + [f"ent{r}a", f"ent{r}b", f"ent{r}c", "records"])
        n_rows, n_cols = int(rng.integers(4, 10)), int(rng.integers(4, 8))
        tables.append(Table(
            id=rid, caption=caption,
            headers=[f"h{r}x{j}" for j in range(n_cols)],
            entries=[[f"v{r}r{i}c{j}" for j in range(n_cols)] for i in range(n_rows)],
            metadata={},
        ))
        for qn in range(3):
            queries.append(SourceQuery(
                id=f"{rid}-q{qn}", root_table_id=rid,
                text=f"what is the value of h{r}x{qn} for ent{r}a in the {caption} table?",
                task_type=TaskType.SINGLE_HOP, answer=f"v{r}r0c{qn}",
            ))
    return build_benchmark(TableCorpus(tables), queries, seed=seed)


def make_angle_corpus(n_tables: int, base_count: int = 60) -> tuple[TableCorpus, Query]:
    """Corpus whose captions mix two anchor tokens at angles chosen so the
    query-to-table cosines are positive, distinct, and well separated."""
    tables = []
    for i in range(n_tables):
        target_cos = 0.92 - (0.6 / n_tables) * i
        ratio = np.sqrt(1.0 / target_cos**2 - 1.0)
        y = max(1, round(base_count * ratio))
        cap = " ".join(["alpha"] * base_count + ["beta"] * y)
        tables.append(
            Table(id=f"t{i:03d}", caption=cap, headers=["colone", "coltwo"],
                  entries=[["a", "b"]], metadata={})
        )
    corpus = TableCorpus(tables)
    query = Query(id="q-angle", text="alpha", task_type=TaskType.SINGLE_HOP)
    return corpus, query


@pytest.fixture
def handle() -> EmbedderHandle:
    return EmbedderHandle(endpoint="builtin:hash", dimension=64, batch_limit=16)


@pytest.fixture
def tiny_corpus() -> TableCorpus:
    tables = [
        make_table("nfl", caption="NFL 2019 season results", headers=["Team", "Wins"],
                   entries=[["Broncos", "7"], ["Chiefs", "12"]]),
        make_table("nba", caption="NBA 2019 standings", headers=["Team", "Losses"],
                   entries=[["Lakers", "20"], ["Bulls", "40"]]),
        make_table("census", caption="City population census", headers=["City", "Residents"],
                   entries=[["Springfield", "30000"], ["Shelbyville", "25000"]]),
        make_table("rain", caption="Monthly rainfall totals", headers=["Month", "mm"],
                   entries=[["Jan", "80"], ["Feb", "62"]]),
    ]
    return TableCorpus(tables)


@pytest.fixture
def topic_corpus_factory():
    return make_topic_corpus


@pytest.fixture
def topic_query_factory():
    return make_topic_query


@contextmanager
def local_http_server(respond):
    """Serve POSTs at 127.0.0.1; ``respond(path, payload) -> (status, body_dict)``."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            status, body = respond(self.path, payload)
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join(timeout=5)


@pytest.fixture
def http_server():
    return local_http_server
