from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from scipy import sparse

from tablerank.corpus import Query, Table, TableCorpus, TaskType
from tablerank.features import EmbedderHandle, _norm


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


def make_table(tid: str, caption: str = "caption", headers=None, entries=None, metadata=None) -> Table:
    headers = headers if headers is not None else ["col_a", "col_b"]
    entries = entries if entries is not None else [["1", "2"], ["3", "4"]]
    return Table(id=tid, caption=caption, headers=headers, entries=entries, metadata=metadata or {})


def topic_caption_pool(topic: int) -> list[str]:
    return [f"tp{topic}c{j:02d}" for j in range(4 + topic)]


def topic_header_pool(topic: int) -> list[str]:
    return [f"tp{topic}h{j:02d}" for j in range(2)]


def make_topic_corpus(n_tables: int, n_topics: int, seed: int, tag: str = "fixture") -> TableCorpus:
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
    return TableCorpus(tables, source_tag=tag)


def make_topic_query(topic: int, seed: int, length: int = 6) -> Query:
    rng = np.random.default_rng(seed)
    pool = topic_caption_pool(topic) + topic_header_pool(topic)
    text = " ".join(rng.choice(pool, size=length))
    return Query(id=f"q-{topic}-{seed}", text=text, task_type=TaskType.SINGLE_HOP)


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
    corpus = TableCorpus(tables, source_tag="angles")
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
    return TableCorpus(tables, source_tag="tiny")


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
