import hashlib
import math
import string
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from tablerank.errors import DimensionMismatch, EmbedderUnavailable, EmptyCorpus
from tablerank.features import (
    _SYM_CHARS,
    PUNCT_MARKS,
    STRUCT_DIM,
    STRUCT_FIELDS,
    STOPWORDS,
    TAG_CLASSES,
    EmbedderHandle,
    embed_semantic,
    extract_all,
    extract_structural,
    fit_heuristic,
    scores_to_vector,
    tokenize,
)

from conftest import representative_score


class TestBuiltinEmbedder:
    def test_deterministic(self, handle):
        a = embed_semantic(["identical text", "identical text"], handle)
        assert np.array_equal(a[0], a[1])
        b = embed_semantic(["identical text"], handle)
        assert np.array_equal(a[0], b[0])

    def test_dimension_and_unit_norm(self):
        h = EmbedderHandle(dimension=64)
        vecs = embed_semantic(["some words here", "x", "a b c d e f g"], h)
        for v in vecs:
            assert v.shape == (64,)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_different_texts_differ(self, handle):
        a, b = embed_semantic(["alpha beta", "gamma delta"], handle)
        assert not np.array_equal(a, b)

    def test_rejects_empty_input(self, handle):
        with pytest.raises(ValueError):
            embed_semantic([], handle)
        with pytest.raises(ValueError):
            embed_semantic([""], handle)


def reference_hash_embed(text: str, dimension: int) -> np.ndarray:
    """The builtin embedder as it was: one blake2b call per gram occurrence,
    counts added one by one."""
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
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def _slot_sign(gram: str, dimension: int) -> tuple[int, float]:
    val = int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "little")
    return (val >> 1) % dimension, 1.0 if val & 1 == 0 else -1.0


def _cancelling_text(dimension: int, seed: int) -> str:
    """A seeded text in which two grams hit one slot with opposite signs.

    Every text has an odd number of grams (2n - 1 for n tokens, or the text
    itself when it has none), so its signed counts sum to an odd number and
    never cancel everywhere; this is the nearest case, a slot that cancels.
    """
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    for _ in range(1000):
        toks = list(rng.choice(words, size=3))
        grams = toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        touched: dict[int, list[float]] = {}
        for g in grams:
            slot, sign = _slot_sign(g, dimension)
            touched.setdefault(slot, []).append(sign)
        if any(len(signs) >= 2 and sum(signs) == 0.0 for signs in touched.values()):
            return " ".join(toks)
    raise AssertionError("no cancelling text found")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestHashEmbedOracle:
    TEXTS = [
        "team team team wins wins team",  # repeated unigrams and bigrams
        "a b a b a b a b",
        "!!!",  # no token: the text itself is the only gram
        "Denver Broncos 2019 season | wins 12 | losses 4",
        "x",
    ]

    @pytest.mark.parametrize("dimension", [1, 8, 64, 512])
    def test_batch_equals_reference(self, dimension):
        got = embed_semantic(self.TEXTS, EmbedderHandle(dimension=dimension))
        for text, vec in zip(self.TEXTS, got):
            assert _same_bits(vec, reference_hash_embed(text, dimension)), text

    @pytest.mark.parametrize("dimension", [2, 8, 64])
    def test_cancelling_slot_equals_reference(self, dimension):
        texts = [_cancelling_text(dimension, seed) for seed in range(3)]
        got = embed_semantic(texts, EmbedderHandle(dimension=dimension))
        for text, vec in zip(texts, got):
            assert _same_bits(vec, reference_hash_embed(text, dimension)), text

    def test_alone_equals_in_batch(self):
        h = EmbedderHandle(dimension=16)
        texts = self.TEXTS + [_cancelling_text(16, 0)] + self.TEXTS[::-1]
        batch = embed_semantic(texts, h)
        for text, vec in zip(texts, batch):
            assert _same_bits(vec, embed_semantic([text], h)[0]), text


class TestRemoteEmbedder:
    def test_success_and_batching(self, http_server):
        seen_batches = []

        def respond(path, payload):
            assert path == "/embed"
            seen_batches.append(len(payload["texts"]))
            return 200, {"vectors": [[1.0, 0.0]] * len(payload["texts"]), "dimension": 2}

        with http_server(respond) as url:
            h = EmbedderHandle(endpoint=url, dimension=2, batch_limit=2)
            vecs = embed_semantic(["a", "b", "c", "d", "e"], h)
        assert len(vecs) == 5
        assert seen_batches == [2, 2, 1]

    def test_dimension_mismatch(self, http_server):
        def respond(path, payload):
            return 200, {"vectors": [[1.0, 0.0, 0.0]] * len(payload["texts"]), "dimension": 3}

        with http_server(respond) as url:
            h = EmbedderHandle(endpoint=url, dimension=2)
            with pytest.raises(DimensionMismatch) as err:
                embed_semantic(["a"], h)
        assert (err.value.expected, err.value.got) == (2, 3)

    def test_non_200_is_unavailable(self, http_server):
        def respond(path, payload):
            return 503, {"error": "down"}

        with http_server(respond) as url:
            h = EmbedderHandle(endpoint=url, dimension=2)
            with pytest.raises(EmbedderUnavailable):
                embed_semantic(["a"], h)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_is_unavailable(self, monkeypatch, bad):
        def post_json(url, payload):
            vectors = [[1.0, 0.0]] * len(payload["texts"])
            if payload["texts"][0] == "c":
                vectors[1] = [0.5, bad]
            return {"vectors": vectors, "dimension": 2}

        monkeypatch.setattr("tablerank.features.post_json", post_json)
        h = EmbedderHandle(endpoint="http://embedder.invalid", dimension=2, batch_limit=2)
        with pytest.raises(EmbedderUnavailable) as err:
            embed_semantic(["a", "b", "c", "d", "e"], h)
        assert err.value.batch_start == 2
        assert "non-finite" in err.value.cause

    def test_unreachable_endpoint(self):
        h = EmbedderHandle(endpoint="http://127.0.0.1:9", dimension=2)
        with pytest.raises(EmbedderUnavailable):
            embed_semantic(["a"], h)


class TestStructural:
    def test_empty_text_all_zeros(self):
        assert np.array_equal(extract_structural(""), np.zeros(STRUCT_DIM))

    def test_repeated_token_counts(self):
        v = extract_structural("a a a")
        assert v[STRUCT_FIELDS.index("total_tokens")] == 3
        assert v[STRUCT_FIELDS.index("unique_tokens")] == 1

    def test_hand_counted_vector(self):
        # "Team, Wins; 2019": 3 tokens, 3 unique, 16 chars, 1 digit token;
        # tags: Team->OTHER (sentence-initial), Wins->PROPN, 2019->NUM;
        # punctuation: one comma, one semicolon.
        expected = np.zeros(STRUCT_DIM)
        expected[STRUCT_FIELDS.index("total_tokens")] = 3
        expected[STRUCT_FIELDS.index("unique_tokens")] = 3
        expected[STRUCT_FIELDS.index("char_count")] = 16
        expected[STRUCT_FIELDS.index("digit_tokens")] = 1
        expected[STRUCT_FIELDS.index("tag_NUM")] = 1
        expected[STRUCT_FIELDS.index("tag_PROPN")] = 1
        expected[STRUCT_FIELDS.index("tag_OTHER")] = 1
        expected[STRUCT_FIELDS.index("punct_,")] = 1
        expected[STRUCT_FIELDS.index("punct_;")] = 1
        assert np.array_equal(extract_structural("Team, Wins; 2019"), expected)

    def test_total_on_arbitrary_input(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            blob = bytes(rng.integers(0, 256, size=40, dtype=np.uint8)).decode("latin-1")
            v = extract_structural(blob)
            assert v.shape == (STRUCT_DIM,)
            assert np.all(np.isfinite(v))

    def test_stopword_list_has_fifty_entries(self):
        assert len(STOPWORDS) == 50


def reference_tag_token(raw: str, sentence_initial: bool) -> str:
    """The structural tagger as it was, with a per-character symbol scan."""
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


class TestStructuralOracle:
    SYMS = "".join(sorted(_SYM_CHARS))

    def test_symbol_set_unchanged(self):
        assert _SYM_CHARS == frozenset("$%&#@*+=^~|<>/\\")

    @pytest.mark.parametrize(
        "text",
        [
            " ".join(f"a{ch}b" for ch in sorted(_SYM_CHARS)),  # every symbol inside a word
            " ".join(sorted(_SYM_CHARS)),  # every symbol alone (all are punctuation)
            "".join(sorted(_SYM_CHARS)) + " x" + "".join(sorted(_SYM_CHARS)) + "y",
            "... !!! ?? -- , ; : \" ' ( ) [ ]",  # punctuation-only tokens
            "Team wins. Denver Broncos lost! Tied? Yes; Coach said Sunday's game.",  # sentence-initial capitals
            "The $5 fee. Price=10 at 50% off! A|B or C/D? E<F> G~H ^I",
            "running famous active global reliable the of 2019 12.5 #1 @home",
            "",
        ],
    )
    def test_equals_reference(self, text):
        assert _same_bits(extract_structural(text), reference_extract_structural(text))

    def test_random_blobs_equal_reference(self):
        rng = np.random.default_rng(8)
        alphabet = list(string.ascii_letters + string.digits + string.punctuation + "  \n") + sorted(_SYM_CHARS) * 3
        for _ in range(200):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 60))))
            assert _same_bits(extract_structural(text), reference_extract_structural(text)), text


class TestHeuristic:
    def test_idf_identical_docs(self):
        v = fit_heuristic(["team wins", "team wins"])
        for tok in ("team", "wins"):
            assert v.idf[v.vocabulary[tok]] == pytest.approx(1.0)

    def test_idf_token_in_one_of_two_docs(self):
        v = fit_heuristic(["team wins", "city rain"])
        expected = math.log(3 / 2) + 1  # 1.4054651081081644
        assert v.idf[v.vocabulary["team"]] == pytest.approx(1.4054651081081644)
        assert v.idf[v.vocabulary["team"]] == pytest.approx(expected)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fit_heuristic([])

    def test_vocabulary_is_lexicographic(self):
        v = fit_heuristic(["zebra apple", "mango apple"])
        ordered = sorted(v.vocabulary, key=v.vocabulary.get)
        assert ordered == sorted(ordered)

    def test_transform_out_of_vocab_is_zero(self):
        v = fit_heuristic(["team wins"])
        out = v.transform("completely unrelated words")
        assert out.nnz == 0

    def test_transform_tf_times_idf(self):
        v = fit_heuristic(["team wins", "team city"])
        out = v.transform("team team")
        idx = v.vocabulary["team"]
        assert out[0, idx] == pytest.approx(2.0 * v.idf[idx])
        assert v.idf[idx] == pytest.approx(1.0)

    def test_case_folding(self):
        v = fit_heuristic(["team wins"])
        out = v.transform("Team")
        assert out[0, v.vocabulary["team"]] > 0

    def test_non_negative_and_zero_outside_vocab(self):
        v = fit_heuristic(["a b c", "b c d", "c d e"])
        rng = np.random.default_rng(0)
        for _ in range(20):
            text = " ".join(rng.choice(list("abcdefg"), size=6))
            out = v.transform(text)
            if out.nnz:
                assert out.data.min() >= 0
            dense = np.asarray(out.todense()).ravel()
            for tok in "fg":  # out-of-vocabulary columns do not exist at all
                assert tok not in v.vocabulary
            assert dense.shape == (v.size,)

    @pytest.mark.parametrize(
        "text",
        [
            "team team city team wins wins",  # repeated tokens
            "zebra team unknown city zebra",  # out-of-vocabulary tokens among hits
            "nothing here matches",  # no token in the vocabulary
            "",
        ],
    )
    def test_transform_equals_coo_built_row(self, text):
        v = fit_heuristic(["team wins", "team city", "city of rain", "wins and losses"])
        got = v.transform(text)
        want = reference_transform(v, text)
        assert got.shape == want.shape == (1, v.size)
        assert got.has_canonical_format
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def reference_transform(v, text: str) -> sparse.csr_matrix:
    """The tf-idf row assembled as COO and converted, as transform once did."""
    cols: list[int] = []
    data: list[float] = []
    for tok, tf in Counter(tokenize(text)).items():
        idx = v.vocabulary.get(tok)
        if idx is not None:
            cols.append(idx)
            data.append(tf * float(v.idf[idx]))
    return sparse.csr_matrix(
        (data, (np.zeros(len(cols), dtype=np.int64), cols)), shape=(1, v.size), dtype=np.float64
    )


class TestRepresentativeScore:
    def test_identical_vectors(self):
        a = np.array([0.3, 0.4, 0.1])
        assert representative_score(a, a) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert representative_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_derived_value(self):
        got = representative_score(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.7071067811865475, abs=1e-9)

    def test_zero_vector_scores_zero(self):
        assert representative_score(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            c = float(rng.uniform(0.1, 10))
            assert representative_score(a, b) == pytest.approx(representative_score(b, a))
            assert abs(representative_score(a, b)) <= 1 + 1e-12
            assert representative_score(c * a, b) == pytest.approx(representative_score(a, b))

    def test_sparse_rows(self):
        a = sparse.csr_matrix(np.array([[1.0, 0.0, 2.0]]))
        b = sparse.csr_matrix(np.array([[1.0, 0.0, 2.0]]))
        assert representative_score(a, b) == pytest.approx(1.0)
        zero = sparse.csr_matrix((1, 3))
        assert representative_score(a, zero) == 0.0

    def test_vectorized_matches_pairwise(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(12, 6))
        v = rng.normal(size=6)
        bulk = scores_to_vector(rows, v)
        for i in range(12):
            assert bulk[i] == pytest.approx(representative_score(rows[i], v))

    def test_vectorized_sparse_matches_pairwise(self):
        rng = np.random.default_rng(4)
        dense = rng.random((8, 10)) * (rng.random((8, 10)) > 0.5)
        rows = sparse.csr_matrix(dense)
        v = sparse.csr_matrix(dense[3])
        bulk = scores_to_vector(rows, v)
        for i in range(8):
            assert bulk[i] == pytest.approx(representative_score(rows[i], v))


class TestExtractAll:
    def test_covers_all_tables(self, tiny_corpus, handle):
        feats = extract_all(tiny_corpus, handle)
        assert set(feats) == set(tiny_corpus.ids())
        for nf in feats.values():
            assert nf.sem.shape == (64,)
            assert nf.struct.shape == (STRUCT_DIM,)
            assert nf.heur.shape[0] == 1

    def test_rerun_bit_identical(self, tiny_corpus, handle):
        a = extract_all(tiny_corpus, handle)
        b = extract_all(tiny_corpus, handle)
        for tid in tiny_corpus.ids():
            assert np.array_equal(a[tid].sem, b[tid].sem)
            assert np.array_equal(a[tid].struct, b[tid].struct)
            assert (a[tid].heur != b[tid].heur).nnz == 0

    def test_embedder_failure_names_first_table_of_batch(self, tiny_corpus, http_server):
        def respond(path, payload):
            return 500, {}

        with http_server(respond) as url:
            h = EmbedderHandle(endpoint=url, dimension=8, batch_limit=2)
            with pytest.raises(EmbedderUnavailable) as err:
                extract_all(tiny_corpus, h)
        assert "nfl" in str(err.value)
