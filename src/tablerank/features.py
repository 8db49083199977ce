"""Per-node feature extraction: semantic, structural, and heuristic vectors.

Every table (and every query) gets three views of the same linearized text:

* ``sem``    -- a dense embedding from a pluggable sequence encoder. The
  builtin ``builtin:hash`` encoder is a signed bag of 1-2 gram hashes,
  L2-normalized; it is fully offline and bit-deterministic, which the test
  suite and reproducible index builds rely on. Real deployments point the
  handle at a remote service speaking the /embed protocol.
* ``struct`` -- a fixed 20-slot vector of surface-shape counts (token counts,
  rule-tag counts, punctuation counts). The exact slot order is part of the
  index format; see STRUCT_FIELDS.
* ``heur``   -- a sparse TF-IDF row over the corpus vocabulary.

Similarity between same-type vectors is their cosine (``scores_to_vector``
scores rows against one vector); zero vectors score 0 by convention so empty
inputs rank last instead of crashing.
"""

from __future__ import annotations

import hashlib
import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from ._http import HttpCallError, post_json
from .corpus import TableCorpus
from .errors import DimensionMismatch, EmbedderUnavailable, EmptyCorpus
from .linearize import linearize

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Closed-class word list (exactly 50 entries) shared by the structural tagger
# and the benchmark query filter.
STOPWORDS: frozenset[str] = frozenset(
    [
        "the", "a", "an", "and", "or", "but", "if", "then", "else", "when",
        "at", "by", "for", "with", "about", "against", "between", "into", "through", "during",
        "to", "from", "in", "on", "of", "off", "over", "under", "again", "further",
        "is", "are", "was", "were", "be", "been", "being", "do", "does", "did",
        "have", "has", "had", "it", "its", "this", "that", "these", "those", "there",
    ]
)

TAG_CLASSES = ("NUM", "PROPN", "PUNCT", "SYM", "STOP", "VERB", "ADJ", "OTHER")
PUNCT_MARKS = (",", ".", ";", ":", "?", "!", "-", '"')
_SYM_CHARS = frozenset("$%&#@*+=^~|<>/\\")
_VERB_SUFFIXES = ("ing", "ed", "s")
_ADJ_SUFFIXES = ("able", "ous", "ive", "al")

# Slot order of the structural vector. Changing this order or length bumps
# the index format version.
STRUCT_FIELDS: tuple[str, ...] = (
    "total_tokens",
    "unique_tokens",
    "char_count",
    "digit_tokens",
    *(f"tag_{c}" for c in TAG_CLASSES),
    *(f"punct_{m}" for m in PUNCT_MARKS),
)
STRUCT_DIM = len(STRUCT_FIELDS)


def tokenize(text: str) -> list[str]:
    """Lowercased maximal runs of letters/digits (whitespace+punctuation split)."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class NodeFeatures:
    """The three one-way feature vectors of a single node."""

    sem: np.ndarray
    struct: np.ndarray
    heur: sparse.csr_matrix  # shape (1, vocabulary size)


@dataclass(frozen=True)
class EmbedderHandle:
    """Where semantic embeddings come from and what shape they must have."""

    endpoint: str = "builtin:hash"
    dimension: int = 64
    batch_limit: int = 64

    def __post_init__(self):
        if self.dimension <= 0:
            raise ValueError("embedder dimension must be positive")
        if self.batch_limit < 1:
            raise ValueError("batch_limit must be at least 1")


def _hash_embed(texts: Sequence[str], dimension: int) -> list[np.ndarray]:
    """Signed bag of 1-2 gram hashes per text, L2-normalized.

    A gram's blake2b hash gives a slot and a sign, stored as one int code:
    the slot, plus ``dimension`` for a negative sign (a tuple per gram raised
    a 4,000-table build's peak RSS by about 4 MB). Each distinct gram is
    hashed once per call, and the map dies with the call, so a long-lived
    caller does not grow with the texts it has seen. A slot's value is its
    positive minus its negative count, an exact integer, so a text's vector
    does not depend on the rest of the batch.
    """
    code_of: dict[str, int] = {}
    out: list[np.ndarray] = []
    for text in texts:
        toks = tokenize(text)
        grams = toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        if not grams:
            grams = [text]
        codes = []
        for g in grams:
            code = code_of.get(g)
            if code is None:
                digest = hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest()
                val = int.from_bytes(digest, "little")
                code = code_of[g] = (val >> 1) % dimension + (dimension if val & 1 else 0)
            codes.append(code)
        counts = np.bincount(codes, minlength=2 * dimension)
        vec = (counts[:dimension] - counts[dimension:]).astype(np.float64)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            # Cannot happen while a text has an odd number of grams (2n - 1,
            # or the text itself), whose +-1 counts never all cancel; the pin
            # keeps the unit-norm invariant from resting on that.
            vec[0] = 1.0
            norm = 1.0
        out.append(vec / norm)
    return out


def embed_semantic(texts: Sequence[str], h: EmbedderHandle) -> list[np.ndarray]:
    """Embed texts in order, batching remote calls at the handle's limit."""
    if not texts:
        raise ValueError("embed_semantic requires at least one text")
    for t in texts:
        if not t:
            raise ValueError("cannot embed an empty text")

    if h.endpoint == "builtin:hash":
        return _hash_embed(texts, h.dimension)

    out: list[np.ndarray] = []
    url = h.endpoint.rstrip("/") + "/embed"
    for start in range(0, len(texts), h.batch_limit):
        batch = list(texts[start : start + h.batch_limit])
        try:
            resp = post_json(url, {"texts": batch})
        except HttpCallError as exc:
            raise EmbedderUnavailable(h.endpoint, exc.cause, batch_start=start) from exc
        vectors = resp.get("vectors")
        declared = resp.get("dimension")
        if vectors is None or len(vectors) != len(batch):
            raise EmbedderUnavailable(
                h.endpoint, "response missing vectors or wrong count", batch_start=start
            )
        if declared is not None and int(declared) != h.dimension:
            raise DimensionMismatch(h.dimension, int(declared))
        for v in vectors:
            arr = np.asarray(v, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != h.dimension:
                raise DimensionMismatch(h.dimension, int(arr.shape[-1] if arr.ndim else 0))
            if not np.isfinite(arr).all():
                raise EmbedderUnavailable(
                    h.endpoint, "response holds a non-finite vector", batch_start=start
                )
            out.append(arr)
    return out


def _tag_token(raw: str, sentence_initial: bool) -> str:
    stripped = raw.strip(string.punctuation)
    if not stripped:
        return "PUNCT" if raw else "OTHER"
    if stripped.isdigit():
        return "NUM"
    if stripped[0].isupper() and not sentence_initial:
        return "PROPN"
    if not _SYM_CHARS.isdisjoint(stripped):
        return "SYM"
    low = stripped.lower()
    if low in STOPWORDS:
        return "STOP"
    if low.endswith(_VERB_SUFFIXES):
        return "VERB"
    if low.endswith(_ADJ_SUFFIXES):
        return "ADJ"
    return "OTHER"


def extract_structural(text: str) -> np.ndarray:
    """Surface-shape counts in the fixed STRUCT_FIELDS order.

    Total on any input, including empty strings and control characters.
    """
    vec = np.zeros(STRUCT_DIM, dtype=np.float64)
    raw_tokens = text.split()
    vec[0] = len(raw_tokens)
    vec[1] = len({t.lower() for t in raw_tokens})
    vec[2] = len(text)
    vec[3] = sum(1 for t in raw_tokens if t.strip(string.punctuation).isdigit())

    tag_counts = Counter()
    sentence_initial = True
    for raw in raw_tokens:
        tag_counts[_tag_token(raw, sentence_initial)] += 1
        sentence_initial = raw.endswith((".", "!", "?"))
    for i, cls in enumerate(TAG_CLASSES):
        vec[4 + i] = tag_counts.get(cls, 0)

    for i, mark in enumerate(PUNCT_MARKS):
        vec[4 + len(TAG_CLASSES) + i] = text.count(mark)
    return vec


@dataclass
class HeuristicVectorizer:
    """TF-IDF vectorizer with a lexicographically ordered vocabulary.

    idf(t) = ln((1 + D) / (1 + df(t))) + 1, raw term counts, no document
    length normalization (downstream cosine normalizes anyway).
    """

    vocabulary: dict[str, int]
    idf: np.ndarray
    doc_count: int

    @property
    def size(self) -> int:
        return len(self.vocabulary)

    def entries(self, tokens: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Ascending vocabulary columns of ``tokens``, each once, and their
        tf-idf values; tokens outside the vocabulary are dropped."""
        vocab = self.vocabulary
        hits = sorted((vocab[tok], tf) for tok, tf in Counter(tokens).items() if tok in vocab)
        cols = np.array([c for c, _ in hits], dtype=np.int64)
        tf = np.array([t for _, t in hits], dtype=np.float64)
        return cols, tf * self.idf[cols]

    def transform(self, text: str) -> sparse.csr_matrix:
        """The 1 x V tf-idf row of ``text``, built directly in canonical CSR
        form: ascending column indices, each at most once."""
        cols, vals = self.entries(tokenize(text))
        return sparse.csr_matrix((vals, cols, np.array([0, len(cols)])), shape=(1, self.size))


def fit_heuristic(corpus_texts: Sequence[str]) -> HeuristicVectorizer:
    """Fit the vocabulary and idf weights over the whole corpus."""
    if not corpus_texts:
        raise EmptyCorpus("cannot fit a vectorizer on zero documents")
    df: Counter[str] = Counter()
    for text in corpus_texts:
        df.update(set(tokenize(text)))
    vocab = {tok: i for i, tok in enumerate(sorted(df))}
    n_docs = len(corpus_texts)
    idf = np.zeros(len(vocab), dtype=np.float64)
    for tok, i in vocab.items():
        idf[i] = np.log((1.0 + n_docs) / (1.0 + df[tok])) + 1.0
    return HeuristicVectorizer(vocabulary=vocab, idf=idf, doc_count=n_docs)


def _norm(a) -> float:
    if sparse.issparse(a):
        return float(np.sqrt(a.multiply(a).sum()))
    return float(np.linalg.norm(np.asarray(a).ravel()))


def scores_to_vector(rows, v) -> np.ndarray:
    """Cosine of every row of ``rows`` against ``v``.

    Rows may be a dense (m, d) array or a (m, V) sparse matrix; ``v`` a dense
    1-D vector or a 1 x V sparse row. Zero rows (and a zero ``v``) score 0.
    """
    if sparse.issparse(rows):
        row_norms = np.sqrt(np.asarray(rows.multiply(rows).sum(axis=1)).ravel())
    else:
        rows = np.asarray(rows, dtype=np.float64)
        row_norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    v_norm = _norm(v)
    m = rows.shape[0]
    if v_norm == 0.0:
        return np.zeros(m)
    if sparse.issparse(v):
        dots = rows @ v.T if sparse.issparse(rows) else (v @ rows.T).T
        dots = np.asarray(dots.todense()).ravel() if sparse.issparse(dots) else np.asarray(dots).ravel()
    else:
        dots = rows @ np.asarray(v, dtype=np.float64).ravel()
        dots = np.asarray(dots).ravel()
    out = np.zeros(m)
    nz = row_norms > 0
    out[nz] = dots[nz] / (row_norms[nz] * v_norm)
    return out


class FeatureMap(dict):
    """table_id -> NodeFeatures mapping that also carries its fitted vectorizer."""

    def __init__(self, items: Mapping[str, NodeFeatures], vectorizer: HeuristicVectorizer):
        super().__init__(items)
        self.vectorizer = vectorizer


def extract_all(corpus: TableCorpus, h: EmbedderHandle) -> FeatureMap:
    """Compute all three feature vectors for every table in the corpus.

    The heuristic vectorizer is fitted over the full linearized corpus before
    any document is transformed. Any embedding failure aborts the build,
    naming the first table of the failed batch.
    """
    ordered = list(corpus)
    sequences = [linearize(t).sequence for t in ordered]
    vectorizer = fit_heuristic(sequences)
    try:
        sems = embed_semantic(sequences, h)
    except EmbedderUnavailable as exc:
        at = exc.batch_start or 0
        tid = ordered[at].id if at < len(ordered) else "?"
        raise EmbedderUnavailable(
            exc.endpoint, f"{exc.cause} (first table of failed batch: {tid})", exc.batch_start
        ) from exc
    out: dict[str, NodeFeatures] = {}
    for t, seq, sem in zip(ordered, sequences, sems):
        out[t.id] = NodeFeatures(
            sem=sem,
            struct=extract_structural(seq),
            heur=vectorizer.transform(seq),
        )
    return FeatureMap(out, vectorizer)


def standardize_struct(vec: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    safe = np.where(std > 0, std, 1.0)
    return (vec - mean) / safe


def struct_stats(struct_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population std of raw structural vectors."""
    mean = struct_rows.mean(axis=0)
    std = struct_rows.std(axis=0)
    return mean, std
