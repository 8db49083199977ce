import ctypes
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from tablerank import build, index, save_corpus
from tablerank.build import KMeansResult, build_index, extract_all, kmeans
from tablerank.coarse import coarse_retrieve
from tablerank.errors import IOFailure, KTooLarge, TableRankError, VersionMismatch
from tablerank.corpus import TableCorpus
from tablerank.features import (
    EmbedderHandle,
    SparseRows,
    cosines,
    row_norms,
    standardize_struct,
    struct_stats,
    unit_rows,
)
from tablerank.fine import retrieve
from tablerank.index import FAMILY_TYPES, corpus_digest, load_index, save_index

from conftest import (
    make_gold_corpus,
    make_topic_corpus,
    make_topic_query,
    reference_extract_all,
    reference_sem_grouping,
    same_bits,
    score_space_rows,
    typical_nodes,
)
from test_fine import duplicate_groups


def select_typical(members, centroid: np.ndarray, k: int) -> list[str]:
    """Reference loop for typical-node selection: top-k member ids by cosine
    to the centroid; ties break on id ascending."""
    scored = []
    for tid, vec in members:
        if sparse.issparse(vec):
            row = np.asarray(vec.todense()).ravel()
        else:
            row = np.asarray(vec).ravel()
        c_norm = float(np.linalg.norm(centroid))
        v_norm = float(np.linalg.norm(row))
        score = 0.0 if c_norm == 0.0 or v_norm == 0.0 else float(row @ centroid) / (v_norm * c_norm)
        scored.append((tid, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [tid for tid, _ in scored[: min(k, len(scored))]]


def two_blobs(seed=0, per_blob=20, gap=100.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=1.0, size=(per_blob, 2))
    b = rng.normal(scale=1.0, size=(per_blob, 2)) + np.array([gap, 0.0])
    return np.vstack([a, b])


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(15, 3))
        result = kmeans(x, 1, seed=0)
        assert np.all(result.assignments == 0)
        assert np.allclose(result.centroids[0], x.mean(axis=0))

    def test_k_equals_n_distinct_points(self):
        x = np.array([[0.0], [10.0], [20.0], [30.0]])
        result = kmeans(x, 4, seed=0)
        assert sorted(result.assignments.tolist()) == [0, 1, 2, 3]
        assert result.objective_history[-1] == pytest.approx(0.0)

    def test_separated_blobs_recovered(self):
        # Oracle: every point must end up with the points of its own blob,
        # checked against the brute-force nearest-blob-mean rule.
        x = two_blobs(seed=3)
        result = kmeans(x, 2, seed=9)
        mean_a, mean_b = x[:20].mean(axis=0), x[20:].mean(axis=0)
        for i, point in enumerate(x):
            own_blob = 0 if i < 20 else 1
            d_own = np.linalg.norm(point - (mean_a if own_blob == 0 else mean_b))
            d_other = np.linalg.norm(point - (mean_b if own_blob == 0 else mean_a))
            assert d_own < d_other  # sanity: blobs really are separated
        labels_a = set(result.assignments[:20].tolist())
        labels_b = set(result.assignments[20:].tolist())
        assert len(labels_a) == 1 and len(labels_b) == 1 and labels_a != labels_b

    def test_deterministic_given_seed(self):
        x = two_blobs(seed=5)
        r1 = kmeans(x, 2, seed=42)
        r2 = kmeans(x, 2, seed=42)
        assert np.array_equal(r1.assignments, r2.assignments)
        assert np.array_equal(r1.centroids, r2.centroids)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            x = rng.normal(size=(50, 4))
            result = kmeans(x, 5, seed=trial)
            hist = result.objective_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
            assert hist[-1] <= hist[0] + 1e-9

    def test_no_empty_clusters_even_with_duplicates(self):
        x = np.array([[0.0, 0.0]] * 6 + [[5.0, 5.0]])
        result = kmeans(x, 3, seed=0)
        assert set(result.assignments.tolist()) == {0, 1, 2}

    def test_sparse_input(self):
        dense = two_blobs(seed=2)
        result_d = kmeans(dense, 2, seed=1)
        result_s = kmeans(sparse.csr_matrix(dense), 2, seed=1)
        assert np.array_equal(result_d.assignments, result_s.assignments)
        assert np.allclose(result_d.centroids, result_s.centroids)


def _ref_row_sq_norms(x) -> np.ndarray:
    if sparse.issparse(x):
        return np.asarray(x.multiply(x).sum(axis=1)).ravel()
    return np.einsum("ij,ij->i", x, x)


def _ref_row(x, i: int) -> np.ndarray:
    if sparse.issparse(x):
        return np.asarray(x[i].todense()).ravel()
    return np.asarray(x[i]).ravel()


def _ref_sq_dists_to(x, centers: np.ndarray) -> np.ndarray:
    x2 = _ref_row_sq_norms(x)
    c2 = np.einsum("ij,ij->i", centers, centers)
    cross = x @ centers.T
    if sparse.issparse(cross):
        cross = cross.toarray()
    cross = np.asarray(cross)
    d2 = x2[:, None] + c2[None, :] - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def _ref_plus_plus_init(x, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.zeros((k, x.shape[1]), dtype=np.float64)
    centers[0] = _ref_row(x, int(rng.integers(n)))
    d2 = _ref_sq_dists_to(x, centers[:1])[:, 0]
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = _ref_row(x, idx)
        nd2 = _ref_sq_dists_to(x, centers[j : j + 1])[:, 0]
        np.minimum(d2, nd2, out=d2)
    return centers


def _ref_means_with_repair(x, assign: np.ndarray, k: int) -> np.ndarray:
    n, dim = x.shape[0], x.shape[1]
    centers = np.zeros((k, dim), dtype=np.float64)
    counts = np.bincount(assign, minlength=k)
    for j in range(k):
        if counts[j] > 0:
            members = np.flatnonzero(assign == j)
            if sparse.issparse(x):
                centers[j] = np.asarray(x[members].mean(axis=0)).ravel()
            else:
                centers[j] = x[members].mean(axis=0)
    empties = np.flatnonzero(counts == 0)
    if empties.size:
        d_own = _ref_sq_dists_to(x, centers)[np.arange(n), assign]
        for j in empties:
            donor_ok = counts[assign] >= 2
            if not donor_ok.any():
                donor_ok = np.ones(n, dtype=bool)
            masked = np.where(donor_ok, d_own, -np.inf)
            i = int(np.argmax(masked))
            counts[assign[i]] -= 1
            assign[i] = j
            counts[j] = 1
            centers[j] = _ref_row(x, i)
            d_own[i] = 0.0
    return centers


def _ref_lloyd(x, K: int, rng: np.random.Generator, max_iter: int) -> KMeansResult:
    n = x.shape[0]
    centers = _ref_plus_plus_init(x, K, rng)
    assign = np.argmin(_ref_sq_dists_to(x, centers), axis=1)
    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        centers = _ref_means_with_repair(x, assign, K)
        d2 = _ref_sq_dists_to(x, centers)
        new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            converged = True
            break
        assign = new_assign
    if not converged:
        centers = _ref_means_with_repair(x, assign, K)
    return KMeansResult(assign.astype(np.int64), centers, it, history, converged)


def reference_kmeans(x, K: int, seed: int, max_iter: int = 100, n_init: int = 1) -> KMeansResult:
    """k-means as it was before the row norms were shared and the means
    vectorized: norms recomputed on every distance call, one ``mean`` per
    cluster. The library must match it bit for bit."""
    best = None
    for child in np.random.SeedSequence(seed).spawn(n_init):
        result = _ref_lloyd(x, K, np.random.default_rng(child), max_iter)
        if best is None or result.objective_history[-1] < best.objective_history[-1]:
            best = result
    return best


@pytest.fixture(scope="module")
def clustering_spaces():
    """The three spaces build_index clusters, from a 150-table topic corpus,
    plus a duplicate-heavy input with only 4 distinct rows."""
    corpus = make_topic_corpus(150, 6, seed=21)
    feats = extract_all(corpus, EmbedderHandle(dimension=32))
    mean, std = struct_stats(feats.struct)
    rng = np.random.default_rng(5)
    distinct = unit_rows(rng.normal(size=(4, 6)))
    return {
        "sem": unit_rows(feats.sem),
        "struct": standardize_struct(feats.struct, mean, std),
        "heur": unit_rows(feats.heur),
        "duplicates": distinct[rng.integers(4, size=40)],
    }


class TestKMeansOracle:
    @pytest.mark.parametrize("space", ["sem", "struct", "heur", "duplicates"])
    @pytest.mark.parametrize("K", [5, 20])
    @pytest.mark.parametrize("n_init,max_iter", [(1, 100), (3, 100), (3, 1)])
    def test_bitwise_equal_to_reference(self, clustering_spaces, monkeypatch, space, K, n_init, max_iter):
        # Fewer restarts and sweeps than build_index's keep the oracle fast
        # and, at max_iter = 1, reach the truncated path.
        monkeypatch.setattr(build, "KMEANS_RESTARTS", n_init)
        monkeypatch.setattr(build, "KMEANS_MAX_ITER", max_iter)
        x = clustering_spaces[space]
        got = kmeans(x, K, seed=17)
        want = reference_kmeans(x, K, seed=17, max_iter=max_iter, n_init=n_init)
        assert np.array_equal(got.assignments, want.assignments)
        assert np.array_equal(got.centroids.view(np.uint64), want.centroids.view(np.uint64))
        assert got.n_iter == want.n_iter
        assert got.objective_history == want.objective_history
        assert got.converged == want.converged

    def test_duplicates_exercise_the_repair(self, clustering_spaces):
        # Identical rows always share their nearest centroid, so 4 distinct
        # rows fill at most 4 of 20 clusters by assignment alone: the other
        # 16 are filled by the empty-cluster repair that the oracle covers.
        x = clustering_spaces["duplicates"]
        assert len(np.unique(x, axis=0)) == 4
        assert set(kmeans(x, 20, seed=17).assignments.tolist()) == set(range(20))

    @pytest.mark.parametrize("space", ["sem", "heur"])
    @pytest.mark.parametrize("K,n_init", [(2, 1), (20, 4)])
    def test_row_norms_computed_once(self, clustering_spaces, monkeypatch, space, K, n_init):
        calls = []
        real = build._row_sq_norms

        def counting(x):
            calls.append(x.shape)
            return real(x)

        monkeypatch.setattr(build, "_row_sq_norms", counting)
        monkeypatch.setattr(build, "KMEANS_RESTARTS", n_init)
        kmeans(clustering_spaces[space], K, seed=3)
        assert len(calls) <= 1


class TestKMeansArguments:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("as_sparse", [False, True], ids=["dense", "sparse"])
    def test_non_finite_input_rejected(self, bad, as_sparse):
        x = two_blobs(seed=1)
        x[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kmeans(sparse.csr_matrix(x) if as_sparse else x, 3, seed=1)


class TestSelectTypical:
    def test_small_cluster_returns_everyone(self):
        members = [("a", np.array([1.0, 0.0])), ("b", np.array([0.9, 0.1])),
                   ("c", np.array([0.0, 1.0]))]
        out = select_typical(members, np.array([1.0, 0.0]), k=100)
        assert len(out) == 3

    def test_centroid_aligned_member_first(self):
        members = [("far", np.array([0.2, 1.0])), ("aligned", np.array([2.0, 0.0]))]
        out = select_typical(members, np.array([1.0, 0.0]), k=2)
        assert out[0] == "aligned"

    def test_tie_breaks_on_id(self):
        members = [("zed", np.array([1.0, 0.0])), ("abe", np.array([2.0, 0.0]))]
        out = select_typical(members, np.array([1.0, 0.0]), k=2)
        assert out == ["abe", "zed"]  # equal scores, lexicographic id order

    def test_prefix_stability(self):
        rng = np.random.default_rng(0)
        members = [(f"m{i:02d}", rng.normal(size=4)) for i in range(12)]
        centroid = rng.normal(size=4)
        k5 = select_typical(members, centroid, k=5)
        k9 = select_typical(members, centroid, k=9)
        assert k9[:5] == k5


class TestBuildIndex:
    def test_shapes_and_coverage(self, handle):
        corpus = make_topic_corpus(30, 3, seed=1)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=10, k=100, seed=0)
        for phi in ("sem", "struct", "heur"):
            fam = ix.families[phi]
            assert fam.n_clusters == 10
            assert len(fam.assignments) == 30
            # clusters partition the corpus
            assert fam.assignments.min() >= 0 and fam.assignments.max() < 10
            sizes = np.bincount(fam.assignments, minlength=10)
            assert all(sizes > 0)
            positions, ptr = typical_nodes(feats, phi, ix)
            for j in range(10):
                typ = positions[ptr[j] : ptr[j + 1]]
                assert np.all(fam.assignments[typ] == j)
                assert len(set(typ.tolist())) == len(typ) == min(100, sizes[j])

    def test_k_too_large(self, handle):
        corpus = make_topic_corpus(5, 2, seed=1)
        feats = extract_all(corpus, handle)
        with pytest.raises(KTooLarge):
            build_index(corpus, feats, K=10, k=10, seed=0)

    @pytest.mark.parametrize("part", ["sem", "struct", "heur"])
    def test_feature_rows_must_match_corpus(self, handle, part):
        corpus = make_topic_corpus(20, 2, seed=1)
        feats = extract_all(corpus, handle)
        short = dataclasses.replace(feats, **{part: getattr(feats, part)[:-1]})
        with pytest.raises(ValueError, match="do not match"):
            build_index(corpus, short, K=2, k=5, seed=0)
        with pytest.raises(ValueError, match="do not match"):
            build_index(make_topic_corpus(21, 2, seed=1), feats, K=2, k=5, seed=0)

    def test_heur_columns_must_match_vectorizer(self, handle):
        corpus = make_topic_corpus(20, 2, seed=1)
        feats = extract_all(corpus, handle)
        other = extract_all(make_topic_corpus(20, 3, seed=1), handle)
        assert other.vectorizer.size != feats.vectorizer.size
        with pytest.raises(ValueError, match="columns"):
            build_index(corpus, dataclasses.replace(feats, vectorizer=other.vectorizer), K=2, k=5, seed=0)

    def test_index_bytes_equal_per_table_features(self, handle, tmp_path):
        """Index files built from the one-pass features and from the
        per-table oracle features are byte-identical."""
        for name, corpus in (("blob", make_topic_corpus(90, 4, seed=9)), ("gold", make_gold_corpus(25, seed=5))):
            paths = []
            for label, feats in (("new", extract_all(corpus, handle)), ("ref", reference_extract_all(corpus, handle))):
                p = tmp_path / f"{name}-{label}.bin"
                save_index(build_index(corpus, feats, K=4, k=10, seed=2), p)
                paths.append(p)
            assert paths[0].read_bytes() == paths[1].read_bytes(), name

    def test_one_family_unit_rows_alive_at_a_time(self, handle, monkeypatch):
        """Each ``unit_rows`` result (the sem, then the heur clustering
        space) is dead before the next family's space is made, and none
        outlives the build."""
        corpus = make_topic_corpus(60, 4, seed=3)
        feats = extract_all(corpus, handle)
        made = []

        def tracked(x):
            assert all(ref() is None for ref in made), "an earlier family's unit rows are still alive"
            out = unit_rows(x)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(build, "unit_rows", tracked)
        ix = build_index(corpus, feats, K=3, k=5, seed=1)
        assert len(made) == 2
        assert all(ref() is None for ref in made)
        assert ix.families["heur"].n_clusters == 3


@pytest.fixture
def built(handle):
    corpus = make_topic_corpus(24, 3, seed=2)
    feats = extract_all(corpus, handle)
    return corpus, build_index(corpus, feats, K=3, k=4, seed=11)


class TestPersistence:
    def test_round_trip_equality(self, built, tmp_path):
        _, ix = built
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_index(ix, p1)
        save_index(load_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_identical_rebuild(self, built, handle, tmp_path):
        corpus, ix = built
        feats = extract_all(corpus, handle)
        ix2 = build_index(corpus, feats, K=3, k=4, seed=11)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_index(ix, p1)
        save_index(ix2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, built, tmp_path):
        _, ix = built
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        blob = p.read_bytes()
        (tmp_path / "cut.bin").write_bytes(blob[: len(blob) - 200])
        with pytest.raises(IOFailure):
            load_index(tmp_path / "cut.bin")

    def test_not_an_index_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"definitely not an index")
        with pytest.raises(IOFailure):
            load_index(p)

    def test_version_mismatch(self, built, tmp_path):
        _, ix = built
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        blob = bytearray(p.read_bytes())
        blob[8:12] = np.uint32(99).tobytes()  # bump the embedded format version
        (tmp_path / "old.bin").write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch) as err:
            load_index(tmp_path / "old.bin")
        assert err.value.found == 99

    def test_format_2_file_refused(self, built, tmp_path):
        # Format 2 stored one sem row per table; no reader for it is kept.
        p = tmp_path / "ix.bin"
        save_index(built[1], p)
        blob = bytearray(p.read_bytes())
        blob[8:12] = np.uint32(2).tobytes()
        (tmp_path / "v2.bin").write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch) as err:
            load_index(tmp_path / "v2.bin")
        assert (err.value.found, err.value.expected) == (2, 5)

    def test_format_3_file_refused(self, built, tmp_path):
        # Format 3 stored every table's struct and TF-IDF rows; no reader for it is kept.
        p = tmp_path / "ix.bin"
        save_index(built[1], p)
        blob = bytearray(p.read_bytes())
        blob[8:12] = np.uint32(3).tobytes()
        (tmp_path / "v3.bin").write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch) as err:
            load_index(tmp_path / "v3.bin")
        assert (err.value.found, err.value.expected) == (3, 5)

    def test_format_4_file_refused(self, built, tmp_path):
        # Format 4 stored every cluster's typical-node lists; no reader for it is kept.
        p = tmp_path / "ix.bin"
        save_index(built[1], p)
        blob = bytearray(p.read_bytes())
        blob[8:12] = np.uint32(4).tobytes()
        (tmp_path / "v4.bin").write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch) as err:
            load_index(tmp_path / "v4.bin")
        assert (err.value.found, err.value.expected) == (4, 5)

    def test_format_1_file_refused(self, tmp_path):
        # Format 1: magic, version, header length, JSON header, arrays; no digest.
        header = json.dumps({"format_version": 1, "table_ids": ["t1"]}).encode()
        p = tmp_path / "v1.bin"
        p.write_bytes(b"TRKHGIDX" + np.uint32(1).tobytes() + np.uint64(len(header)).tobytes() + header)
        with pytest.raises(VersionMismatch) as err:
            load_index(p)
        assert err.value.found == 1

    def test_corpus_digest_changes_with_content(self, handle):
        c1 = make_topic_corpus(10, 2, seed=3)
        c2 = make_topic_corpus(10, 2, seed=4)
        assert corpus_digest(c1) != corpus_digest(c2)
        assert corpus_digest(c1) == corpus_digest(make_topic_corpus(10, 2, seed=3))

    def test_digest_free_file_refused(self, built, tmp_path):
        _, ix = built
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        with pytest.raises(IOFailure, match="corpus digest"):
            load_index(_edit_header(p, lambda h: h.update(corpus_digest="")))

    def test_layout(self, built, tmp_path):
        _, ix = built
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        blob = p.read_bytes()
        header_len = int(np.frombuffer(blob, dtype="<u8", count=1, offset=12)[0])
        assert blob[20:52] == _digest(blob)
        header = json.loads(blob[52 : 52 + header_len])
        assert "centroids_sem" not in blob[52 : 52 + header_len].decode()
        for phi in FAMILY_TYPES:
            report = header["families"][phi]["kmeans"]
            fam = ix.families[phi]
            assert (report["n_iter"], report["converged"], report["objective"]) == (
                fam.n_iter, fam.converged, fam.objective)
        # The arrays start on the first 64-byte boundary after the header,
        # the distinct sem rows first, then the table-to-row map; the file
        # ends with the row starts of the heur family's typical means.
        u = header["distinct_sem_rows"]
        assert u == len(ix.sem_rows) < len(ix)  # fixture precondition: some rows repeat
        at = 52 + header_len + (-(52 + header_len) % 64)
        assert blob[52 + header_len : at] == bytes(at - 52 - header_len)
        assert same_bits(np.frombuffer(blob, "<f8", ix.sem_rows.size, at).reshape(ix.sem_rows.shape), ix.sem_rows)
        at += ix.sem_rows.nbytes + (-ix.sem_rows.nbytes % 64)
        assert np.frombuffer(blob, "<i4", len(ix), at).tolist() == ix.sem_group.tolist()
        ptr = np.frombuffer(blob[-16:], "<i4")
        assert ptr.tolist() == ix.families["heur"].typical_means.indptr.tolist()
        assert ptr[-1] == header["means_heur_nnz"] > 0

    def test_int32_overflow_refused_before_writing(self, built, tmp_path):
        _, ix = built
        ix.families["sem"].assignments = ix.families["sem"].assignments + 2**31
        p = tmp_path / "ix.bin"
        with pytest.raises(IOFailure, match="assign_sem holds a value outside int32"):
            save_index(ix, p)
        assert not p.exists()

    def test_loaded_arrays_are_views_of_one_read_only_buffer(self, built, handle, tmp_path):
        _, ix = built
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        loaded = load_index(p)
        buf = loaded.sem_rows.base
        assert buf.dtype == np.uint8 and buf.flags.owndata and buf.nbytes == p.stat().st_size
        heur_means = loaded.families["heur"].typical_means
        arrays = {
            "sem_rows": loaded.sem_rows, "sem_group": loaded.sem_group,
            "struct_mean": loaded.struct_mean, "idf": loaded.vectorizer.idf,
            "heur.means.data": heur_means.data, "heur.means.indices": heur_means.indices,
            "heur.means.indptr": heur_means.indptr,
            "sem.means": loaded.families["sem"].typical_means,
            "struct.means": loaded.families["struct"].typical_means,
        }
        for phi, fam in loaded.families.items():
            arrays[f"{phi}.assignments"] = fam.assignments
        for name, a in arrays.items():
            assert a.base is buf and np.shares_memory(a, buf), name
        with pytest.raises(ValueError, match="read-only"):
            loaded.sem_rows[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(loaded.sem_rows, 2.0, out=loaded.sem_rows)
        with pytest.raises(ValueError, match="read-only"):
            loaded.sem[0, 0] = 1.0  # built on each read, so a write would be lost
        # The query path reads the index and never writes into it.
        for topic in range(3):
            _, want = retrieve(make_topic_query(topic, seed=5), ix, handle, tau=0.2)
            _, got = retrieve(make_topic_query(topic, seed=5), loaded, handle, tau=0.2)
            assert got.ranked == want.ranked


def _digest(blob: bytes) -> bytes:
    """sha256 of an index file without its digest field (bytes 20-52)."""
    return hashlib.sha256(blob[:20] + blob[52:]).digest()


def _edit_header(p, edit):
    """Copy of the index file at ``p`` with its JSON header changed by
    ``edit``, re-padded and re-signed so that the digest is valid."""
    blob = p.read_bytes()
    header_len = int(np.frombuffer(blob, dtype="<u8", count=1, offset=12)[0])
    header = json.loads(blob[52 : 52 + header_len])
    edit(header)
    arrays = blob[52 + header_len + (-(52 + header_len) % 64) :]
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = new_header + bytes(-(52 + len(new_header)) % 64) + arrays
    unsigned = blob[:12] + np.uint64(len(new_header)).tobytes() + bytes(32) + body
    out = p.with_name("edited.bin")
    out.write_bytes(unsigned[:20] + _digest(unsigned) + body)
    return out


def _set(path: str, value):
    """Header edit that sets the dotted ``path`` to ``value``."""
    *parents, last = path.split(".")

    def edit(header):
        for key in parents:
            header = header[key]
        header[last] = value
    return edit


def _repeat_first(key: str):
    """Header edit that overwrites the second entry of list ``key`` with the first."""
    def edit(header):
        header[key][1] = header[key][0]
    return edit


def _break_assignment(ix):
    ix.families["struct"].assignments[0] = 3


def _empty_cluster(ix):
    a = ix.families["struct"].assignments
    a[a == 1] = 0


def _indptr_falls(ix):
    ptr = ix.families["heur"].typical_means.indptr
    ptr[1] = ptr[2] + 1


def _indptr_not_from_zero(ix):
    ix.families["heur"].typical_means.indptr[0] = 1


def _column_out_of_range(ix):
    ix.families["heur"].typical_means.indices[-1] = ix.vectorizer.size


def _negative_column(ix):
    ix.families["heur"].typical_means.indices[0] = -1


def _non_finite(name):
    def edit(ix):
        arr = {
            "sem_rows": ix.sem_rows, "idf": ix.vectorizer.idf,
            "means_sem": ix.families["sem"].typical_means,
            "means_struct": ix.families["struct"].typical_means,
            "means_heur_data": ix.families["heur"].typical_means.data,
        }[name]
        arr.flat[3] = np.nan
    return edit


def _objective_inf(ix):
    ix.families["sem"].objective = float("inf")


def _equal_stored_rows(ix):
    ix.sem_rows = ix.sem_rows.copy()
    ix.sem_rows[1] = ix.sem_rows[0]


def _group_out_of_range(ix):
    ix.sem_group = ix.sem_group.copy()
    ix.sem_group[-1] = len(ix.sem_rows)


def _groups_out_of_order(ix):
    g = ix.sem_group
    ix.sem_group = np.where(g == 0, 1, np.where(g == 1, 0, g)).astype(np.int32)


def _unused_stored_row(ix):
    ix.sem_rows = np.vstack([ix.sem_rows, np.full(ix.sem_rows.shape[1], 7.0)])


class TestResignedFiles:
    """Each structural check refuses a file whose digest is valid: the bad
    content is written either by ``save_index`` from a doctored index or by
    ``_edit_header``, both of which sign what they write."""

    @pytest.mark.parametrize("edit, match", [
        (lambda h: h.pop("means_heur_nnz"), "must be an object with keys"),
        (lambda h: h.update(extra=1), "must be an object with keys"),
        (_set("params.seed", "11"), r"params\.seed must be of type int"),
        (_set("families.sem.kmeans.n_iter", True), "n_iter must be of type int"),
        (_set("families.heur.kmeans.converged", 1), "converged must be of type bool"),
        (_set("table_ids", "t0"), "table_ids must be a list of str"),
        (lambda h: h["vocabulary"].append(7), "vocabulary must be a list of str"),
        (_set("params.seed", -1), r"params\.seed is negative"),
        (_set("params.K", 0), "at least 1"),
        (_set("table_ids", []), "no tables"),
        (_set("families.sem.kmeans.objective", float("nan")), "not finite"),
        (_repeat_first("table_ids"), "header lists a table id twice"),
        (_repeat_first("vocabulary"), "header lists a vocabulary token twice"),
    ], ids=["missing-key", "extra-key", "str-for-int", "bool-for-int", "int-for-bool",
            "str-for-list", "int-in-str-list", "negative", "zero-clusters",
            "no-tables", "nan-objective", "repeated-table-id", "repeated-token"])
    def test_header_schema(self, built, tmp_path, edit, match):
        p = tmp_path / "ix.bin"
        save_index(built[1], p)
        with pytest.raises(IOFailure, match=match):
            load_index(_edit_header(p, edit))

    # Each edit moves an array by at least the 64-byte alignment, so the
    # padding cannot absorb it. (Smaller moves that the padding absorbs end in
    # the array checks instead; the fuzz test covers them.)
    @pytest.mark.parametrize("edit, match", [
        (lambda h: h["params"].update(embedder_dimension=h["params"]["embedder_dimension"] + 1), "past the end"),
        (lambda h: h.update(means_heur_nnz=h["means_heur_nnz"] - 16), "follow the last array"),
        (lambda h: h.update(table_ids=h["table_ids"][:-16]), "follow the last array"),
        (lambda h: h["vocabulary"].extend(f"zz{i}" for i in range(8)), "past the end"),
        (_set("params.K", 19), "past the end"),
        (lambda h: h.update(distinct_sem_rows=h["distinct_sem_rows"] + 1), "past the end"),
    ], ids=["d", "nnz", "n", "V", "K", "u"])
    def test_shapes(self, built, tmp_path, edit, match):
        p = tmp_path / "ix.bin"
        save_index(built[1], p)
        with pytest.raises(IOFailure, match=match):
            load_index(_edit_header(p, edit))

    @pytest.mark.parametrize("doctor, match", [
        (_break_assignment, r"assign_struct holds a cluster outside \[0, 3\)"),
        (_empty_cluster, "family struct has an empty cluster"),
        (_indptr_falls, "means_heur_indptr does not rise monotonically from 0 to nnz"),
        (_indptr_not_from_zero, "means_heur_indptr does not rise monotonically from 0 to nnz"),
        (_column_out_of_range, r"means_heur_indices holds a column outside \[0, V\)"),
        (_negative_column, r"means_heur_indices holds a column outside \[0, V\)"),
        (_non_finite("sem_rows"), "sem_rows holds a non-finite value"),
        (_non_finite("means_sem"), "means_sem holds a non-finite value"),
        (_non_finite("means_struct"), "means_struct holds a non-finite value"),
        (_non_finite("idf"), "idf holds a non-finite value"),
        (_non_finite("means_heur_data"), "means_heur_data holds a non-finite value"),
        (_objective_inf, "objective is not finite"),
        (_equal_stored_rows, "sem_rows holds two bitwise-equal rows"),
        (_group_out_of_range, r"sem_group holds a row outside \[0, 21\)"),
        (_groups_out_of_order, "sem_group ids are not in first-occurrence order"),
        (_unused_stored_row, "sem_rows holds a row no table uses"),
    ], ids=["assignment-out-of-range", "empty-cluster", "indptr-falls", "indptr-not-from-zero", "column-out-of-range", "negative-column", "nan-sem",
            "nan-sem-means", "nan-struct", "nan-idf", "nan-heur", "inf-objective", "equal-stored-rows", "group-out-of-range", "groups-out-of-order",
            "unused-stored-row"])
    def test_arrays(self, built, tmp_path, doctor, match):
        _, ix = built
        doctor(ix)
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        with pytest.raises(IOFailure, match=match):
            load_index(p)


class TestFuzz:
    """Seeded corruption of a small index: every mutated file either fails
    with a TableRankError or loads an index that saves to the original bytes."""

    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory):
        corpus = make_topic_corpus(30, 3, seed=4)
        ix = build_index(corpus, extract_all(corpus, EmbedderHandle(dimension=16)), K=3, k=4, seed=1)
        p = tmp_path_factory.mktemp("fuzz") / "ix.bin"
        save_index(ix, p)
        return p.read_bytes()

    @pytest.mark.parametrize("kind", ["truncate", "header-byte", "array-byte", "bit-flip"])
    def test_corruption_is_refused_or_harmless(self, original, tmp_path, kind):
        rng = np.random.default_rng(["truncate", "header-byte", "array-byte", "bit-flip"].index(kind))
        header_len = int(np.frombuffer(original, dtype="<u8", count=1, offset=12)[0])
        header_end = 52 + header_len
        src, out = tmp_path / "mutated.bin", tmp_path / "resaved.bin"
        refused = 0
        for _ in range(120):
            blob = bytearray(original)
            if kind == "truncate":
                del blob[int(rng.integers(len(blob))):]
            elif kind == "header-byte":
                blob[int(rng.integers(header_end))] = int(rng.integers(256))
            elif kind == "array-byte":
                blob[int(rng.integers(header_end, len(blob)))] = int(rng.integers(256))
            else:
                blob[int(rng.integers(len(blob)))] ^= 1 << int(rng.integers(8))
            src.write_bytes(bytes(blob))
            try:
                loaded = load_index(src)
            except TableRankError:
                refused += 1
                continue
            save_index(loaded, out)
            assert out.read_bytes() == original
        assert refused >= 100

    @pytest.mark.parametrize("kind", ["group-byte", "row-copy"])
    def test_resigned_grouping_is_refused_or_canonical(self, original, tmp_path, kind):
        """Re-signed files with a changed sem grouping: a random byte of
        ``sem_group``, or one stored row copied onto another and, every other
        time, one byte of the copy rewritten. The load refuses the file,
        naming a sem check, or its grouping is the one the build would make
        and it saves back to the same bytes."""
        rng = np.random.default_rng(["group-byte", "row-copy"].index(kind))
        header_len = int(np.frombuffer(original, dtype="<u8", count=1, offset=12)[0])
        header = json.loads(original[52 : 52 + header_len])
        u, d = header["distinct_sem_rows"], header["params"]["embedder_dimension"]
        rows_at = 52 + header_len + (-(52 + header_len) % 64)
        group_at = rows_at + 8 * u * d + (-8 * u * d % 64)
        src, out = tmp_path / "mutated.bin", tmp_path / "resaved.bin"
        refused = 0
        for trial in range(120):
            blob = bytearray(original)
            if kind == "group-byte":
                blob[group_at + int(rng.integers(4 * len(header["table_ids"])))] = int(rng.integers(256))
            else:
                i, j = rng.choice(u, size=2, replace=False)
                row_i = rows_at + 8 * d * int(i)
                blob[row_i : row_i + 8 * d] = original[rows_at + 8 * d * int(j) :][: 8 * d]
                if trial % 2:
                    blob[row_i + int(rng.integers(8 * d))] = int(rng.integers(256))
            blob[20:52] = _digest(bytes(blob))
            src.write_bytes(bytes(blob))
            try:
                loaded = load_index(src)
            except IOFailure as exc:
                assert "sem_" in str(exc), exc
                refused += 1
                continue
            rows, group = reference_sem_grouping(loaded.sem)
            assert same_bits(loaded.sem_rows, rows) and same_bits(loaded.sem_group, group)
            save_index(loaded, out)
            assert out.read_bytes() == bytes(blob)
        assert refused >= (100 if kind == "group-byte" else 50)


class TestBlasThreads:
    def test_index_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """OpenBLAS reads its thread count at import, so each build runs in
        its own interpreter."""
        script = (
            "import sys\n"
            "from conftest import make_topic_corpus\n"
            "from tablerank.build import build_index, extract_all\n"
            "from tablerank.features import EmbedderHandle\n"
            "from tablerank.index import save_index\n"
            "corpus = make_topic_corpus(900, 6, seed=101)\n"
            "features = extract_all(corpus, EmbedderHandle(dimension=128))\n"
            "save_index(build_index(corpus, features, K=6, k=20, seed=101), sys.argv[1])\n"
        )
        tests_dir = Path(__file__).parent
        path = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH", "")])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.bin"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, timeout=300)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def faults_after(setup: str, arg: Path) -> int:
    """Minor page faults of four 2 MiB arrays, allocated together and freed
    20 times over after ``setup``, in a fresh interpreter whose allocator no
    earlier test has tuned. Fresh mappings would fault 2,048 times a round."""
    script = (
        "import resource, sys\n"
        "import numpy as np\n"
        f"{setup}\n"
        "def one_round():\n"
        "    return sum(a.sum() for a in [np.ones(1 << 18) for _ in range(4)])\n"
        "one_round()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    one_round()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, str(arg)], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return int(proc.stdout)


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="the C library has no mallopt")
def test_after_a_load_freed_blocks_are_reused(built, tmp_path):
    p = tmp_path / "ix.bin"
    save_index(built[1], p)
    assert faults_after("from tablerank.index import load_index\nload_index(sys.argv[1])", p) < 512


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="the C library has no mallopt")
def test_after_a_build_freed_blocks_are_reused(built, tmp_path):
    p = tmp_path / "corpus.jsonl"
    save_corpus(built[0], p)
    setup = (
        "from tablerank import EmbedderHandle, build_index, extract_all, load_corpus\n"
        "corpus = load_corpus(sys.argv[1])\n"
        "build_index(corpus, extract_all(corpus, EmbedderHandle(dimension=16)), K=3, k=4, seed=11)"
    )
    assert faults_after(setup, p) < 512


class TestSemGroup:
    def test_equals_brute_force_groups(self, handle, tmp_path):
        corpus = make_topic_corpus(300, 3, seed=4)
        feats = extract_all(corpus, handle)
        sem = feats.sem.copy()
        sem[[5, 17]] = 0.0      # all-zero rows: one group
        sem[[40, 41]] = -0.0    # all -0.0 rows: bitwise distinct from the zero rows
        sem[[60, 61]] = sem[62]
        sem[[60, 61, 62], 3] = [0.0, -0.0, 0.0]  # 60 and 62 agree; 61 differs in one sign bit
        ix = build_index(corpus, dataclasses.replace(feats, sem=sem), K=3, k=10, seed=1)
        leaders = np.empty(len(sem), dtype=np.int64)
        for members in duplicate_groups(sem):
            leaders[members] = members[0]
        assert (leaders != np.arange(len(sem))).sum() > 20  # fixture precondition: many repeats
        assert (leaders[17], leaders[41], leaders[61], leaders[62]) == (5, 40, 61, 60)
        # each distinct row once, by first position; each table mapped to its row
        firsts = np.unique(leaders)
        assert same_bits(ix.sem_rows, sem[firsts])
        assert ix.sem_group.dtype == np.int32
        assert np.array_equal(firsts[ix.sem_group], leaders)
        assert same_bits(ix.sem, sem)
        path = tmp_path / "ix.bin"
        save_index(ix, path)
        loaded = load_index(path)
        assert same_bits(loaded.sem_rows, ix.sem_rows)
        assert np.array_equal(loaded.sem_group, ix.sem_group)

    def test_distinct_rows_are_not_copied(self, handle):
        corpus = make_gold_corpus(25, seed=5)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=4, k=10, seed=2)
        assert ix.sem_group.tolist() == list(range(len(corpus)))
        assert ix.sem_rows is feats.sem


class TestTypicalConsistency:
    def test_build_matches_select_typical(self, handle):
        # The vectorized selection the build runs must agree with the
        # reference operation on every cluster of every family, given the
        # centroids of the family's own k-means run, and the stored typical
        # means must be the means of exactly those nodes.
        corpus = make_topic_corpus(36, 3, seed=8)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=3, k=5, seed=4)
        spaces = {
            "sem": unit_rows(feats.sem),
            "struct": score_space_rows(feats, "struct", ix),
            "heur": unit_rows(feats.heur),
        }
        for fam_idx, phi in enumerate(FAMILY_TYPES):
            fam = ix.families[phi]
            child_seed = int(np.random.SeedSequence([4, fam_idx]).generate_state(1)[0])
            result = kmeans(spaces[phi], 3, seed=child_seed)
            assert np.array_equal(result.assignments, fam.assignments)
            assert (result.n_iter, result.converged, result.objective_history[-1]) == (
                fam.n_iter, fam.converged, fam.objective)
            rows = score_space_rows(feats, phi, ix)
            positions, ptr = typical_nodes(feats, phi, ix)
            for j in range(fam.n_clusters):
                members = [
                    (ix.table_ids[i], rows[i]) for i in np.flatnonzero(fam.assignments == j)
                ]
                expect = select_typical(members, result.centroids[j], k=5)
                assert [ix.table_ids[i] for i in positions[ptr[j] : ptr[j + 1]]] == expect
            means = build._typical_means(rows, positions, ptr)
            assert TestTypicalMeans.means_bits(means) == TestTypicalMeans.means_bits(fam.typical_means), phi

    def test_ties_break_on_id_not_position(self, handle):
        # Topic tables repeat their struct and heur rows, and often their sem
        # rows, so most cosines to a centroid tie; the ids are shuffled against
        # corpus order. The typical lists must equal the full sort by
        # (-score, id).
        base = make_topic_corpus(60, 3, seed=8)
        shuffled = np.random.default_rng(1).permutation(len(base))
        corpus = TableCorpus([dataclasses.replace(t, id=f"r{j:03d}") for t, j in zip(base, shuffled)])
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=3, k=5, seed=4)
        table_ids = ix.table_ids
        spaces = {"sem": unit_rows(feats.sem), "struct": score_space_rows(feats, "struct", ix),
                  "heur": unit_rows(feats.heur)}
        by_position = 0
        for fam_idx, phi in enumerate(FAMILY_TYPES):
            child_seed = int(np.random.SeedSequence([4, fam_idx]).generate_state(1)[0])
            result = kmeans(spaces[phi], 3, seed=child_seed)
            space = spaces[phi]
            norms = row_norms(space)
            positions, ptr = typical_nodes(feats, phi, ix)
            for j in range(3):
                pos = np.flatnonzero(result.assignments == j)
                scores = cosines(space[pos], norms[pos], result.centroids[j])
                order = sorted(range(len(pos)), key=lambda i: (-scores[i], table_ids[pos[i]]))
                assert positions[ptr[j] : ptr[j + 1]].tolist() == pos[order[:5]].tolist()
                by_position += order[:5] != sorted(range(len(pos)), key=lambda i: (-scores[i], i))[:5]
        assert by_position > 0  # fixture precondition: some ties fall across the cutoff


class TestTypicalMeans:
    """Since format 4 the file stores each family's typical means; a query
    reads them as loaded and never derives them from per-table rows."""

    @staticmethod
    def means_bits(m) -> list[bytes]:
        if isinstance(m, SparseRows):
            return [m.data.tobytes(), np.asarray(m.indices, "<i4").tobytes(), np.asarray(m.indptr, "<i4").tobytes()]
        return [m.tobytes()]

    @pytest.mark.parametrize("kind", ["topic", "gold"])
    def test_loaded_means_are_the_built_means(self, handle, tmp_path, kind):
        corpus = make_topic_corpus(120, 4, seed=9) if kind == "topic" else make_gold_corpus(25, seed=5)
        ix = build_index(corpus, extract_all(corpus, handle), K=4, k=10, seed=2)
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        loaded = load_index(p)
        for phi in FAMILY_TYPES:
            built_means, loaded_means = ix.families[phi].typical_means, loaded.families[phi].typical_means
            assert type(loaded_means) is type(built_means), phi
            assert loaded_means.shape == built_means.shape, phi
            assert self.means_bits(loaded_means) == self.means_bits(built_means), phi
        heur = ix.families["heur"].typical_means
        rows = np.repeat(np.arange(heur.shape[0]), np.diff(heur.indptr))
        falls = (np.diff(heur.indices) < 0) & (rows[1:] == rows[:-1])
        assert falls.any()  # some row keeps the product's unsorted storage order

    def test_loaded_families_hold_their_means(self, built, handle, tmp_path):
        _, ix = built
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        loaded = load_index(p)
        d, V = loaded.params["embedder_dimension"], loaded.vectorizer.size
        shapes = {"sem": (3, d), "struct": (3, 20), "heur": (3, V)}
        for phi, fam in loaded.families.items():
            assert fam.typical_means.shape == shapes[phi], phi
        assert not hasattr(loaded, "typical_means") and not hasattr(loaded, "heur")
        # Coarse choices come from the stored means alone: rows it could
        # derive them from are poisoned, and no choice moves.
        poisoned = dataclasses.replace(loaded, sem_rows=np.full_like(loaded.sem_rows, np.nan))
        for topic in range(3):
            q = make_topic_query(topic, seed=7)
            want = coarse_retrieve(q, loaded, handle)
            assert coarse_retrieve(q, poisoned, handle).per_family_choice == want.per_family_choice

    @pytest.mark.parametrize("phi", ["sem", "struct"])
    @pytest.mark.parametrize("extra, match", [(1, "follow the last array"), (-1, "past the end")],
                             ids=["row-more", "row-fewer"])
    def test_means_block_of_wrong_shape_refused(self, built, tmp_path, monkeypatch, phi, extra, match):
        _, ix = built
        fam = ix.families[phi]
        K, dim = fam.typical_means.shape
        fam.typical_means = np.resize(fam.typical_means, (K + extra, dim))
        layout = index._layout
        monkeypatch.setattr(index, "_layout", lambda header: [
            (name, dtype, (K + extra, dim) if name == f"means_{phi}" else shape)
            for name, dtype, shape in layout(header)
        ])
        p = tmp_path / "ix.bin"
        save_index(ix, p)  # signed, with a means block the header does not describe
        monkeypatch.undo()
        with pytest.raises(IOFailure, match=match):
            load_index(p)

    def test_heur_means_indptr_short_of_nnz_refused(self, built, tmp_path):
        p = tmp_path / "ix.bin"
        save_index(built[1], p)
        blob = bytearray(p.read_bytes())
        blob[-4:] = (np.frombuffer(bytes(blob[-4:]), "<i4") - 1).astype("<i4").tobytes()  # the last row start
        blob[20:52] = _digest(bytes(blob))
        (tmp_path / "short.bin").write_bytes(bytes(blob))
        with pytest.raises(IOFailure, match="means_heur_indptr does not rise monotonically from 0 to nnz"):
            load_index(tmp_path / "short.bin")
