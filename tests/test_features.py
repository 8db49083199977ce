import hashlib
import math
import string
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from tablerank import build
from tablerank.build import extract_all
from tablerank.corpus import TableCorpus
from tablerank.errors import DimensionMismatch, EmbedderUnavailable, EmptyCorpus
from tablerank.features import (
    _SYM_CHARS,
    STRUCT_DIM,
    STRUCT_FIELDS,
    STOPWORDS,
    EmbedderHandle,
    HeuristicVectorizer,
    SparseRows,
    embed_semantic,
    extract_structural,
    cosines,
    fit_heuristic,
    row_norms,
    token_ids,
    tokenize,
    unit_rows,
)
from tablerank.linearize import linearize

from conftest import (
    make_gold_corpus,
    make_table,
    make_topic_corpus,
    reference_extract_all,
    reference_extract_structural,
    reference_hash_embed,
    representative_score,
    same_bits,
)


def fit_texts(texts) -> HeuristicVectorizer:
    return fit_heuristic(token_ids(tokenize(t) for t in texts))


def tfidf_parts(v: HeuristicVectorizer, text: str) -> SparseRows:
    return v.matrix(token_ids([tokenize(text)]))


def tfidf_row(v: HeuristicVectorizer, text: str) -> sparse.csr_matrix:
    """One text's tf-idf row, its parts wrapped as a 1 x V CSR matrix."""
    row = tfidf_parts(v, text)
    return sparse.csr_matrix((row.data, row.indices, row.indptr), shape=row.shape)


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
            assert same_bits(vec, reference_hash_embed(text, dimension)), text

    @pytest.mark.parametrize("dimension", [2, 8, 64])
    def test_cancelling_slot_equals_reference(self, dimension):
        texts = [_cancelling_text(dimension, seed) for seed in range(3)]
        got = embed_semantic(texts, EmbedderHandle(dimension=dimension))
        for text, vec in zip(texts, got):
            assert same_bits(vec, reference_hash_embed(text, dimension)), text

    @pytest.mark.parametrize("dimension", [1, 2, 8, 64])
    def test_odd_gram_count_and_nonzero_vector(self, dimension):
        """The embedder has no zero-norm fallback: an odd number of +-1
        counts cannot all cancel, so every vector is nonzero."""
        texts = self.TEXTS + [_cancelling_text(d, seed) for d in (2, 8) for seed in range(3)]
        assert any(not tokenize(t) for t in texts)
        vecs = embed_semantic(texts, EmbedderHandle(dimension=dimension))
        for text, vec in zip(texts, vecs):
            toks = tokenize(text)
            grams = toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])] or [text]
            assert len(grams) % 2 == 1, text
            assert np.any(vec != 0.0), text
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12, text

    def test_alone_equals_in_batch(self):
        """The batch adds every text's grams into one array: a text's row
        must still not depend on the others, in a batch of thousands."""
        h = EmbedderHandle(dimension=16)
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(300)]
        filler = [" ".join(rng.choice(words, size=int(rng.integers(1, 30)))) for _ in range(3000)]
        texts = (self.TEXTS + [_cancelling_text(16, 0)] + filler[:1500] + ["--", "?! --"] + filler[1500:]
                 + self.TEXTS[::-1])
        assert sum(not tokenize(t) for t in texts) == 4
        batch = embed_semantic(texts, h)
        for text, vec in zip(texts, batch):
            assert same_bits(vec, embed_semantic([text], h)[0]), text


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

    @pytest.mark.parametrize("reply, cause", [
        ({"vectors": 5}, "response missing vectors or wrong count"),
        ({"vectors": {"a": 1, "b": 2}}, "response missing vectors or wrong count"),
        ({"dimension": "x"}, "response missing vectors or wrong count"),
        ({"vectors": ["a", "b"]}, "response vector 0 is not a list of numbers"),
        ({"vectors": [[1.0, 0.0], {"a": 1}]}, "response vector 1 is not a list of numbers"),
        ({"vectors": [[1.0, [0.0]], [1.0, 0.0]]}, "response vector 0 is not a list of numbers"),
        ({"vectors": [[1.0, 0.0], ["1", "0"]]}, "response vector 1 is not a list of numbers"),
        ({"vectors": [[True, False], [1.0, 0.0]]}, "response vector 0 is not a list of numbers"),
        ({"vectors": [[1.0, 0.0], [None, 1.0]]}, "response vector 1 is not a list of numbers"),
        ({"vectors": [[1.0, 0.0]] * 2, "dimension": "x"}, "response dimension 'x' is not an integer"),
        ({"vectors": [[1.0, 0.0]] * 2, "dimension": 2.0}, "response dimension 2.0 is not an integer"),
    ], ids=["number-vectors", "object-vectors", "no-vectors", "string-vectors", "object-vector",
            "ragged-vector", "numeric-strings", "booleans", "null", "string-dimension", "float-dimension"])
    def test_malformed_reply_is_unavailable(self, http_server, reply, cause):
        # The second batch, items 2 and 3, gets the malformed reply.
        def respond(path, payload):
            if payload["texts"] == ["c", "d"]:
                return 200, reply
            return 200, {"vectors": [[1.0, 0.0]] * len(payload["texts"]), "dimension": 2}

        with http_server(respond) as url:
            h = EmbedderHandle(endpoint=url, dimension=2, batch_limit=2)
            with pytest.raises(EmbedderUnavailable) as err:
                embed_semantic(["a", "b", "c", "d", "e"], h)
        assert (err.value.batch_start, err.value.cause) == (2, cause)
        assert "(batch starting at item 2)" in str(err.value)

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
        assert np.array_equal(extract_structural([""])[0], np.zeros(STRUCT_DIM))

    def test_repeated_token_counts(self):
        v = extract_structural(["a a a"])[0]
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
        assert np.array_equal(extract_structural(["Team, Wins; 2019"])[0], expected)

    def test_total_on_arbitrary_input(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            blob = bytes(rng.integers(0, 256, size=40, dtype=np.uint8)).decode("latin-1")
            v = extract_structural([blob])[0]
            assert v.shape == (STRUCT_DIM,)
            assert np.all(np.isfinite(v))

    def test_stopword_list_has_fifty_entries(self):
        assert len(STOPWORDS) == 50


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
        assert same_bits(extract_structural([text])[0], reference_extract_structural(text))

    def test_random_blobs_equal_reference(self):
        rng = np.random.default_rng(8)
        alphabet = list(string.ascii_letters + string.digits + string.punctuation + "  \n") + sorted(_SYM_CHARS) * 3
        texts = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 60)))) for _ in range(200)]
        rows = extract_structural(texts)  # one call: the tag memo spans all 200 texts
        for text, row in zip(texts, rows):
            assert same_bits(row, reference_extract_structural(text)), text

    def test_batch_rows_equal_single_texts(self):
        texts = ["Team wins. Denver won", "Denver Team wins.", "", "wins Denver. Team 12", "Team wins."]
        rows = extract_structural(texts)
        assert rows.shape == (len(texts), STRUCT_DIM)
        for text, row in zip(texts, rows):
            assert same_bits(row, extract_structural([text])[0]), text
            assert same_bits(row, reference_extract_structural(text)), text

    def test_digit_tokens_is_num_tag_count(self):
        # NUM: (12) 7. -3- 2019, [88]; not x9, 4.5 (inner dot) or 1st.
        text = "(12) 7. -3- x9 2019, 4.5 1st [88]"
        row = extract_structural([text])[0]
        assert row[STRUCT_FIELDS.index("digit_tokens")] == row[STRUCT_FIELDS.index("tag_NUM")] == 5
        assert same_bits(row, reference_extract_structural(text))

    def test_rejects_a_bare_string(self):
        with pytest.raises(TypeError):
            extract_structural("Team wins")


class TestHeuristic:
    def test_idf_identical_docs(self):
        v = fit_texts(["team wins", "team wins"])
        for tok in ("team", "wins"):
            assert v.idf[v.vocabulary[tok]] == pytest.approx(1.0)

    def test_idf_token_in_one_of_two_docs(self):
        v = fit_texts(["team wins", "city rain"])
        expected = math.log(3 / 2) + 1  # 1.4054651081081644
        assert v.idf[v.vocabulary["team"]] == pytest.approx(1.4054651081081644)
        assert v.idf[v.vocabulary["team"]] == pytest.approx(expected)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fit_heuristic(token_ids([]))

    def test_fit_takes_token_lists_not_texts(self):
        with pytest.raises(TypeError):
            fit_heuristic(token_ids(["team wins", "city rain"]))

    def test_vocabulary_is_lexicographic(self):
        v = fit_texts(["zebra apple", "mango apple"])
        ordered = sorted(v.vocabulary, key=v.vocabulary.get)
        assert ordered == sorted(ordered)

    def test_transform_out_of_vocab_is_zero(self):
        v = fit_texts(["team wins"])
        out = tfidf_row(v, "completely unrelated words")
        assert out.nnz == 0

    def test_transform_tf_times_idf(self):
        v = fit_texts(["team wins", "team city"])
        out = tfidf_row(v, "team team")
        idx = v.vocabulary["team"]
        assert out[0, idx] == pytest.approx(2.0 * v.idf[idx])
        assert v.idf[idx] == pytest.approx(1.0)

    def test_case_folding(self):
        v = fit_texts(["team wins"])
        out = tfidf_row(v, "Team")
        assert out[0, v.vocabulary["team"]] > 0

    def test_non_negative_and_zero_outside_vocab(self):
        v = fit_texts(["a b c", "b c d", "c d e"])
        rng = np.random.default_rng(0)
        for _ in range(20):
            text = " ".join(rng.choice(list("abcdefg"), size=6))
            out = tfidf_row(v, text)
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
        v = fit_texts(["team wins", "team city", "city of rain", "wins and losses"])
        got = tfidf_parts(v, text)
        want = reference_transform(v, text)
        assert got.shape == want.shape == (1, v.size)
        assert (np.diff(got.indices) > 0).all()  # canonical: ascending columns, each once
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
        rows[5] = 0.0
        v = rng.normal(size=6)
        bulk = cosines(rows, row_norms(rows), v)
        assert bulk[5] == 0.0
        for i in range(12):
            assert bulk[i] == pytest.approx(representative_score(rows[i], v))

    def test_vectorized_sparse_matches_pairwise(self):
        rng = np.random.default_rng(4)
        dense = rng.random((8, 10)) * (rng.random((8, 10)) > 0.5)
        dense[2] = 0.0
        rows = sparse.csr_matrix(dense)
        v = dense[3]
        bulk = cosines(rows, row_norms(rows), v)
        assert bulk[2] == 0.0 and bulk[3] == pytest.approx(1.0)
        for i in range(8):
            assert bulk[i] == pytest.approx(representative_score(rows[i], v))


class TestCosineHelpers:
    @pytest.mark.parametrize("as_sparse", [False, True], ids=["dense", "sparse"])
    def test_zero_query_scores_zero(self, as_sparse):
        dense = np.random.default_rng(5).normal(size=(4, 3))
        rows = sparse.csr_matrix(dense) if as_sparse else dense
        assert same_bits(cosines(rows, row_norms(rows), np.zeros(3)), np.zeros(4))

    def test_dense_unit_rows_match_division_by_norm(self):
        # The normalization build_index once ran, copied as the bitwise reference.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 7))
        x[4] = 0.0
        x[6] = -0.0
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        expect = x.copy()
        nz = norms > 0
        expect[nz] = expect[nz] / norms[nz, None]
        assert same_bits(unit_rows(x), expect)
        assert same_bits(row_norms(x), norms)

    def test_sparse_unit_rows_match_reciprocal_scaling(self):
        # The normalization build_index once ran, copied as the bitwise reference.
        rng = np.random.default_rng(7)
        dense = rng.random((9, 12)) * (rng.random((9, 12)) > 0.6)
        dense[4] = 0.0
        x = sparse.csr_matrix(dense)
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
        expect = sparse.diags(inv) @ x
        got = unit_rows(x)
        assert got.format == "csr"
        for attr in ("data", "indices", "indptr"):
            assert same_bits(getattr(got, attr), getattr(expect, attr))
        assert same_bits(row_norms(x), norms)
        assert np.allclose(row_norms(got), np.where(norms > 0, 1.0, 0.0))


class TestExtractAll:
    def test_covers_all_tables(self, tiny_corpus, handle):
        feats = extract_all(tiny_corpus, handle)
        n = len(tiny_corpus)
        assert feats.sem.shape == (n, 64)
        assert feats.struct.shape == (n, STRUCT_DIM)
        assert feats.heur.shape == (n, feats.vectorizer.size)

    def test_rerun_bit_identical(self, tiny_corpus, handle):
        a = extract_all(tiny_corpus, handle)
        b = extract_all(tiny_corpus, handle)
        assert same_bits(a.sem, b.sem)
        assert same_bits(a.struct, b.struct)
        assert (a.heur != b.heur).nnz == 0

    def test_embedder_failure_names_first_table_of_batch(self, tiny_corpus, http_server):
        def respond(path, payload):
            return 500, {}

        with http_server(respond) as url:
            h = EmbedderHandle(endpoint=url, dimension=8, batch_limit=2)
            with pytest.raises(EmbedderUnavailable) as err:
                extract_all(tiny_corpus, h)
        assert "nfl" in str(err.value)

    def test_tokenizes_once_and_builds_no_per_table_matrix(self, monkeypatch, handle):
        """Each linearized table is tokenized once, and the sparse objects
        built do not grow with the corpus: no per-table 1 x V row, no vstack."""
        calls = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(build, "tokenize", counting("tokenize", build.tokenize))
        monkeypatch.setattr(sparse.csr_matrix, "__init__", counting("csr", sparse.csr_matrix.__init__))
        monkeypatch.setattr(sparse, "vstack", counting("vstack", sparse.vstack))
        seen = []
        for n in (8, 40):
            calls.clear()
            extract_all(make_topic_corpus(n, 4, seed=2), handle)
            assert calls["tokenize"] == n
            assert calls["vstack"] == 0
            seen.append(calls["csr"])
        assert seen[0] == seen[1] <= 2

    def test_traced_peak_is_a_small_multiple_of_the_features(self):
        """Only token ids outlive a table's tokenization: on 3,000 topic-blob
        tables (d = 128) the traced peak of ``extract_all`` stays under 3.25
        times the bytes of the arrays it returns. It was 2.6 times when this
        bound was set, and 4.6 times when every table's token list was kept
        until the end."""
        corpus = make_topic_corpus(3000, 60, seed=5)
        tracemalloc.start()
        try:
            feats = extract_all(corpus, EmbedderHandle(dimension=128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        heur = feats.heur
        returned = sum(a.nbytes for a in (feats.sem, feats.struct, heur.data, heur.indices, heur.indptr,
                                          feats.vectorizer.idf))
        assert peak <= 3.25 * returned, (peak, returned)


def _oracle_corpora() -> dict[str, TableCorpus]:
    def corpus(*tables):
        return TableCorpus(list(tables))

    return {
        # The markers still give every linearized table the tokens "table"
        # and "caption"; the table's own text has none.
        "token-less": corpus(
            make_table("empty", caption="!!! ...", headers=["--", "%"], entries=[["", ""]]),
            make_table("words", caption="rain totals", headers=["month", "mm"]),
        ),
        "repeats": corpus(
            make_table("r1", caption="team team team wins wins team", headers=["team", "team"]),
            make_table("r2", caption="a b a b a b a b", headers=["a b", "b a"]),
            make_table("r3", caption="wins team wins", headers=["team"]),
        ),
        # "omega" ends one table and "alpha" opens the next: "omega table"
        # or "omega alpha" would only appear if bigrams crossed tables.
        "boundaries": corpus(
            make_table("b1", caption="zeta", headers=["omega"]),
            make_table("b2", caption="alpha", headers=["omega"]),
            make_table("b3", caption="omega", headers=["alpha"]),
            make_table("b4", caption="table caption", headers=["header", "omega"]),
        ),
        "capitals-and-digits": corpus(
            make_table("c1", caption="Denver won. Broncos (12) lost! Tied? 2019, [7]", headers=["Team.", "Wins"]),
            make_table("c2", caption="Wins. Team 12. (12) #3 $5 4.5", headers=["Denver", "2019."]),
            make_table("c3", caption="Team wins Denver", headers=["(12)", "-7-"]),
        ),
        "topic-blob": make_topic_corpus(120, 6, seed=7),
        "gold": make_gold_corpus(30, seed=77),
    }


ORACLE_CORPORA = _oracle_corpora()


class TestExtractAllOracle:
    """extract_all equals the per-table path bit for bit: sem, struct and
    the heur CSR arrays, values and dtypes."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CORPORA) + ["tiny"])
    @pytest.mark.parametrize("dimension", [8, 64])
    def test_bitwise_equal_to_per_table_path(self, name, dimension, tiny_corpus):
        corpus = tiny_corpus if name == "tiny" else ORACLE_CORPORA[name]
        h = EmbedderHandle(dimension=dimension)
        got = extract_all(corpus, h)
        want = reference_extract_all(corpus, h)
        assert same_bits(got.sem, want.sem)
        assert same_bits(got.struct, want.struct)
        assert got.heur.shape == want.heur.shape
        for part in ("data", "indices", "indptr"):
            assert same_bits(getattr(got.heur, part), getattr(want.heur, part)), part
        assert got.vectorizer.vocabulary == want.vectorizer.vocabulary
        assert same_bits(got.vectorizer.idf, want.vectorizer.idf)

    def test_no_bigram_crosses_a_table(self):
        """Precondition of the boundary fixture: embedding the tables as one
        concatenated text would change the vectors."""
        corpus = ORACLE_CORPORA["boundaries"]
        h = EmbedderHandle(dimension=64)
        got = extract_all(corpus, h)
        for i, t in enumerate(corpus):
            seq = linearize(t)
            assert same_bits(got.sem[i], reference_hash_embed(seq, 64))
        joined = " ".join(linearize(t) for t in corpus)
        assert "omega table" in " ".join(tokenize(joined))
