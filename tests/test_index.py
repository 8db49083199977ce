import json

import numpy as np
import pytest
from scipy import sparse

from tablerank.errors import IOFailure, KTooLarge, VersionMismatch
from tablerank.features import extract_all
from tablerank.index import (
    build_index,
    corpus_digest,
    kmeans,
    load_index,
    save_index,
)

from conftest import make_topic_corpus


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
            for j, typ in enumerate(fam.typical):
                assert np.all(fam.assignments[typ] == j)
                assert len(set(typ.tolist())) == len(typ) == min(100, sizes[j])

    def test_k_too_large(self, handle):
        corpus = make_topic_corpus(5, 2, seed=1)
        feats = extract_all(corpus, handle)
        with pytest.raises(KTooLarge):
            build_index(corpus, feats, K=10, k=10, seed=0)

    def test_per_family_override(self, handle):
        corpus = make_topic_corpus(20, 2, seed=1)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=4, k=5, seed=0, k_per_family={"heur": 2})
        assert ix.families["sem"].n_clusters == 4
        assert ix.families["heur"].n_clusters == 2


class TestPersistence:
    @pytest.fixture
    def built(self, handle):
        corpus = make_topic_corpus(24, 3, seed=2)
        feats = extract_all(corpus, handle)
        return corpus, build_index(corpus, feats, K=3, k=4, seed=11)

    def test_round_trip_equality(self, built, tmp_path):
        _, ix = built
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        assert load_index(p).equals(ix)

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

    def test_corpus_digest_changes_with_content(self, handle):
        c1 = make_topic_corpus(10, 2, seed=3)
        c2 = make_topic_corpus(10, 2, seed=4)
        assert corpus_digest(c1) != corpus_digest(c2)
        assert corpus_digest(c1) == corpus_digest(make_topic_corpus(10, 2, seed=3))

    def test_digest_free_file_refused(self, built, tmp_path):
        _, ix = built
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        with pytest.raises(IOFailure):
            load_index(_edit_header(p, lambda h: h.update(corpus_digest="")))

    def test_unknown_typical_id_refused(self, built, tmp_path):
        _, ix = built
        p = tmp_path / "ix.bin"
        save_index(ix, p)
        with pytest.raises(IOFailure, match="not an indexed table"):
            load_index(_edit_header(p, lambda h: h["families"]["sem"]["typical"][0].append("ghost")))


def _edit_header(p, edit):
    """Copy of the index file at ``p`` with its JSON header changed by ``edit``."""
    blob = p.read_bytes()
    header_len = int(np.frombuffer(blob, dtype="<u8", count=1, offset=12)[0])
    header = json.loads(blob[20 : 20 + header_len])
    edit(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out = p.with_name("edited.bin")
    out.write_bytes(blob[:12] + np.uint64(len(new_header)).tobytes() + new_header + blob[20 + header_len :])
    return out


class TestTypicalConsistency:
    def test_build_matches_select_typical(self, handle):
        # The vectorized selection inside build_index must agree with the
        # reference operation on every cluster of every family.
        corpus = make_topic_corpus(36, 3, seed=8)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=3, k=5, seed=4)
        for phi in ("sem", "struct", "heur"):
            fam = ix.families[phi]
            rows = ix.score_space_rows(phi)
            for j in range(fam.n_clusters):
                members = [
                    (ix.table_ids[i], rows[i]) for i in np.flatnonzero(fam.assignments == j)
                ]
                expect = select_typical(members, fam.centroids[j], k=5)
                assert [ix.table_ids[i] for i in fam.typical[j]] == expect
