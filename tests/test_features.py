import math

import numpy as np
import pytest
from scipy import sparse

from tablerank.errors import DimensionMismatch, EmbedderUnavailable, EmptyCorpus
from tablerank.features import (
    STRUCT_DIM,
    STRUCT_FIELDS,
    STOPWORDS,
    EmbedderHandle,
    embed_semantic,
    extract_all,
    extract_structural,
    fit_heuristic,
    representative_score,
    scores_to_vector,
)


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
