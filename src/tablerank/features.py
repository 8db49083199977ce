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
* ``heur``   -- a TF-IDF row over the corpus vocabulary. ``matrix`` gives a
  batch of them as ``SparseRows``, the three arrays of a CSR matrix; a
  query's row is dense.

Similarity between same-type vectors is their cosine, and the build and the
query compute every one with three helpers: ``row_norms`` (the L2 norm of
each row, dense or CSR), ``unit_rows`` (each row divided by its norm) and
``cosines`` (rows against one dense vector, given the rows' norms). Zero
vectors score 0 by convention so empty inputs rank last instead of crashing.
Only the build hands these helpers a scipy CSR matrix (``tablerank.build``);
this module imports scipy only inside ``unit_rows``'s CSR branch.
"""

from __future__ import annotations

import hashlib
import re
import string
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._http import HttpCallError, post_json
from .errors import DimensionMismatch, EmbedderUnavailable, EmptyCorpus

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
_TAG_SLOT = {cls: i for i, cls in enumerate(TAG_CLASSES)}
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
    """The three feature vectors of a single query."""

    sem: np.ndarray
    struct: np.ndarray
    heur: np.ndarray  # (vocabulary size,) tf-idf weights


@dataclass(frozen=True)
class SparseRows:
    """The arrays of an (m, n) CSR matrix: row i's entries are
    ``data[indptr[i]:indptr[i + 1]]``, in columns ``indices[...]`` of the same
    slice, in storage order."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


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


@dataclass
class TokenIds:
    """Token lists held as integer ids: text i's tokens are the next
    ``lengths[i]`` entries of ``ids`` after those of the texts before it, and
    id j stands for ``distinct[j]``, the j-th distinct token to appear."""

    ids: np.ndarray       # (total tokens,) int64
    lengths: np.ndarray   # (n,) int64 tokens per text
    distinct: list[str]

    def rows(self) -> np.ndarray:
        """The text that each entry of ``ids`` belongs to."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)


def token_ids(token_lists: Iterable[Sequence[str]]) -> TokenIds:
    """Encode token lists (``tokenize`` of each text) as ids. Only the
    distinct tokens are kept, so a generator of lists keeps one text's token
    strings alive at a time."""
    id_of: dict[str, int] = {}
    ids, lengths = array("q"), array("q")
    for toks in token_lists:
        if isinstance(toks, str):
            raise TypeError("token_ids takes token lists; tokenize each text first")
        ids.extend([id_of.setdefault(t, len(id_of)) for t in toks])
        lengths.append(len(toks))
    return TokenIds(np.frombuffer(ids, dtype=np.int64), np.frombuffer(lengths, dtype=np.int64), list(id_of))


def _gram_codes(grams: Iterable[str], dimension: int) -> np.ndarray:
    """Each gram's blake2b hash as one int64: its slot, plus ``dimension``
    when its sign is negative."""
    codes = []
    for g in grams:
        val = int.from_bytes(hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest(), "little")
        codes.append((val >> 1) % dimension + (dimension if val & 1 else 0))
    return np.array(codes, dtype=np.int64)


def _hash_embed(texts: Sequence[str], tok: TokenIds, dimension: int) -> np.ndarray:
    """Signed bag of 1-2 gram hashes per text, L2-normalized; (n, dimension).

    A text's grams are its tokens and the pairs of adjacent tokens within it,
    or the text itself when it has no token. That is 2n - 1 grams for n
    tokens, or 1: always an odd number of +-1 counts, so they never all
    cancel and no vector is zero.

    Each distinct token and each distinct pair of token ids is hashed once
    per call. One weighted ``bincount`` adds every text's signed gram counts
    into its row of the output, which is then divided in place by its norm.
    The counts are small integers, so every sum, the sums of squares
    included, is exact in any order: a text's vector does not depend on the
    rest of the batch.
    """
    n, d = len(texts), dimension
    rows = tok.rows()
    pair = np.flatnonzero(rows[1:] == rows[:-1])  # entries pair and pair + 1 are adjacent in one text
    width = len(tok.distinct)
    pair_key = tok.ids[pair] * width + tok.ids[pair + 1]
    pairs = np.unique(pair_key)
    words = tok.distinct
    bigram_code = _gram_codes((f"{words[key // width]} {words[key % width]}" for key in pairs.tolist()), d)
    bare = np.flatnonzero(tok.lengths == 0)
    codes = np.concatenate((
        _gram_codes(words, d)[tok.ids],
        bigram_code[np.searchsorted(pairs, pair_key)],
        _gram_codes((texts[i] for i in bare), d),
    ))
    # Each gram's cell in the flat (n, d) output is row * d + slot, built in
    # place: at the corpus's size these arrays hold two entries per token.
    signs = np.where(codes < d, 1.0, -1.0)
    codes %= d
    cells = np.concatenate((rows, rows[pair], bare))
    cells *= d
    cells += codes
    del codes, rows, pair, pair_key
    out = np.bincount(cells, weights=signs, minlength=n * d).reshape(n, d)
    out /= np.sqrt(np.einsum("ij,ij->i", out, out))[:, None]
    return out


def embed_semantic(texts: Sequence[str], h: EmbedderHandle, tok: TokenIds | None = None) -> np.ndarray:
    """Embed texts in order into an (n, dimension) array, batching remote
    calls at the handle's limit. The builtin encoder reads ``tok`` (the
    texts' ``token_ids``) when the caller already has it."""
    if not texts:
        raise ValueError("embed_semantic requires at least one text")
    for t in texts:
        if not t:
            raise ValueError("cannot embed an empty text")

    if h.endpoint == "builtin:hash":
        if tok is None:
            tok = token_ids(tokenize(t) for t in texts)
        return _hash_embed(texts, tok, h.dimension)

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
        if not isinstance(vectors, list) or len(vectors) != len(batch):
            raise EmbedderUnavailable(
                h.endpoint, "response missing vectors or wrong count", batch_start=start
            )
        if declared is not None:
            if type(declared) is not int:  # a JSON true is a bool, not an int
                raise EmbedderUnavailable(
                    h.endpoint, f"response dimension {declared!r} is not an integer", batch_start=start
                )
            if declared != h.dimension:
                raise DimensionMismatch(h.dimension, declared)
        for i, v in enumerate(vectors):
            try:
                arr = np.asarray(v)
                numeric = arr.dtype.kind in "if"  # not strings, booleans or nulls
            except ValueError:  # lists of unequal lengths
                numeric = False
            if not numeric:
                raise EmbedderUnavailable(
                    h.endpoint, f"response vector {i} is not a list of numbers", batch_start=start
                )
            arr = arr.astype(np.float64, copy=False)
            if arr.ndim != 1 or arr.shape[0] != h.dimension:
                raise DimensionMismatch(h.dimension, int(arr.shape[-1] if arr.ndim else 0))
            if not np.isfinite(arr).all():
                raise EmbedderUnavailable(
                    h.endpoint, "response holds a non-finite vector", batch_start=start
                )
            out.append(arr)
    return np.vstack(out)


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


def extract_structural(texts: Sequence[str]) -> np.ndarray:
    """Surface-shape counts of each text, (n, STRUCT_DIM) in the fixed
    STRUCT_FIELDS order.

    Total on any input, including empty strings and control characters. A
    raw token's tag depends only on the token and on whether it opens a
    sentence, so each such pair is tagged once per call; ``digit_tokens`` is
    the NUM tag count (a token stripped of punctuation that is all digits).
    """
    if isinstance(texts, str):
        raise TypeError("extract_structural takes a sequence of texts, not one string")
    slot_of: tuple[dict[str, int], dict[str, int]] = ({}, {})  # [sentence_initial][raw]
    rows = []
    for text in texts:
        raw_tokens = text.split()
        tags = [0] * len(TAG_CLASSES)
        sentence_initial = True
        for raw in raw_tokens:
            memo = slot_of[sentence_initial]
            slot = memo.get(raw)
            if slot is None:
                slot = memo[raw] = _TAG_SLOT[_tag_token(raw, sentence_initial)]
            tags[slot] += 1
            sentence_initial = raw.endswith((".", "!", "?"))
        rows.append([
            len(raw_tokens),
            len({t.lower() for t in raw_tokens}),
            len(text),
            tags[_TAG_SLOT["NUM"]],
            *tags,
            *(text.count(mark) for mark in PUNCT_MARKS),
        ])
    return np.array(rows, dtype=np.float64).reshape(len(texts), STRUCT_DIM)


@dataclass
class HeuristicVectorizer:
    """TF-IDF vectorizer with a lexicographically ordered vocabulary.

    idf(t) = ln((1 + D) / (1 + df(t))) + 1, raw term counts, no document
    length normalization (downstream cosine normalizes anyway).
    """

    vocabulary: dict[str, int]
    idf: np.ndarray

    @property
    def size(self) -> int:
        return len(self.vocabulary)

    def matrix(self, tok: TokenIds) -> SparseRows:
        """The (n, V) tf-idf rows of the texts ``tok`` holds, in canonical CSR
        form: ascending columns, each at most once per row. Tokens outside
        the vocabulary are dropped.

        One ``np.unique`` over the keys ``row * V + column`` of every token
        gives the term counts in CSR order; a value is ``tf * idf[column]``.
        """
        n, width = len(tok.lengths), max(self.size, 1)
        vocab = self.vocabulary
        column = np.fromiter((vocab.get(t, -1) for t in tok.distinct), dtype=np.int64, count=len(tok.distinct))
        cols = column[tok.ids]
        keys, tf = np.unique((tok.rows() * width + cols)[cols >= 0], return_counts=True)
        col = keys % width
        indptr = np.searchsorted(keys, np.arange(n + 1) * width)
        return SparseRows(tf * self.idf[col], col, indptr, (n, self.size))


def fit_heuristic(tok: TokenIds) -> HeuristicVectorizer:
    """Fit the vocabulary and idf weights over the documents ``tok`` holds,
    one text each. A token's document frequency counts the distinct keys
    ``row * T + id`` it has, T being the number of distinct tokens."""
    n_docs = len(tok.lengths)
    if n_docs == 0:
        raise EmptyCorpus("cannot fit a vectorizer on zero documents")
    width = max(len(tok.distinct), 1)
    df = np.bincount(np.unique(tok.rows() * width + tok.ids) % width, minlength=len(tok.distinct))
    order = sorted(range(len(tok.distinct)), key=tok.distinct.__getitem__)
    idf = np.log((1.0 + n_docs) / (1.0 + df[order])) + 1.0
    return HeuristicVectorizer(vocabulary={tok.distinct[i]: c for c, i in enumerate(order)}, idf=idf)


def _row_sq_norms(x) -> np.ndarray:
    """Squared L2 norm of every row of a dense (m, d) array or a CSR matrix."""
    if isinstance(x, np.ndarray):
        return np.einsum("ij,ij->i", x, x)
    return np.asarray(x.multiply(x).sum(axis=1)).ravel()


def row_norms(x) -> np.ndarray:
    """L2 norm of every row of a dense (m, d) array or a CSR matrix."""
    return np.sqrt(_row_sq_norms(x))


def unit_rows(x, out: np.ndarray | None = None):
    """Every row of ``x`` divided by its L2 norm; zero rows stay zero. A CSR
    matrix stays CSR, its rows multiplied by the reciprocal norms. A dense
    ``x`` may be divided into ``out``, which may be ``x`` itself; the
    quotients are the same bits either way."""
    norms = row_norms(x)
    if isinstance(x, np.ndarray):
        return np.divide(x, np.where(norms > 0, norms, 1.0)[:, None], out=out)
    from scipy import sparse  # only the build has CSR rows

    return sparse.diags(np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)) @ x


def cosines(rows, norms: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cosine of every row of ``rows`` (dense or CSR) against the dense 1-D
    ``v``, given ``norms = row_norms(rows)``. Zero rows and a zero ``v``
    score 0."""
    v_norm = np.linalg.norm(v)
    out = np.zeros(rows.shape[0])
    if v_norm > 0.0:
        np.divide(rows @ v, norms * v_norm, out=out, where=norms > 0)
    return out


def standardize_struct(vec: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    safe = np.where(std > 0, std, 1.0)
    return (vec - mean) / safe

