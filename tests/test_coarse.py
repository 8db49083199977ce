import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from tablerank.coarse import TIE_ULPS, assign_cluster, coarse_retrieve, query_features
from tablerank.corpus import Query, TaskType
from tablerank.errors import DimensionMismatch
from tablerank.features import (
    EmbedderHandle,
    NodeFeatures,
    extract_all,
    scores_to_vector,
)
from tablerank.index import FAMILY_TYPES, build_index

from conftest import make_topic_corpus, make_topic_query, representative_score


def reference_assign_cluster(qf, family, ix):
    """Per-node oracle for assign_cluster: gather every typical row, score each
    by cosine to the query, and average the scores per cluster. The choice is
    the lowest index among the means within TIE_ULPS ulps of the best."""
    sizes = np.array([len(t) for t in family.typical])
    rows = ix.score_space_rows(family.feature_type, np.concatenate(family.typical))
    scores = scores_to_vector(rows, getattr(qf, family.feature_type))
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    means = np.add.reduceat(scores, starts) / sizes
    tied = np.flatnonzero(means >= means.max() - TIE_ULPS * np.spacing(np.abs(means).max()))
    return int(tied[0]), means.tolist()


@pytest.fixture
def indexed(handle):
    corpus = make_topic_corpus(40, 4, seed=6)
    feats = extract_all(corpus, handle)
    ix = build_index(corpus, feats, K=4, k=10, seed=3)
    return corpus, feats, ix


def _swap_sem(ix, vectors: np.ndarray, assignments: np.ndarray, typical: list[list[int]]):
    """White-box surgery: replace the sem family with handcrafted geometry.
    ``typical`` lists index positions per cluster."""
    ix.sem = vectors
    ix.families["sem"] = dataclasses.replace(
        ix.families["sem"],
        assignments=assignments,
        typical=[np.asarray(t, dtype=np.int64) for t in typical],
    )


class TestQueryFeatures:
    def test_deterministic(self, indexed, handle):
        _, _, ix = indexed
        q = make_topic_query(1, seed=9)
        a = query_features(q, ix, handle)
        b = query_features(q, ix, handle)
        assert np.array_equal(a.sem, b.sem)
        assert np.array_equal(a.struct, b.struct)
        assert (a.heur != b.heur).nnz == 0

    def test_out_of_vocab_query_has_zero_heur(self, indexed, handle):
        _, _, ix = indexed
        q = Query(id="q", text="zz yy xx ww vv", task_type=TaskType.SINGLE_HOP)
        qf = query_features(q, ix, handle)
        assert qf.heur.nnz == 0

    def test_struct_is_standardized(self, indexed, handle):
        _, _, ix = indexed
        q = make_topic_query(0, seed=1)
        qf = query_features(q, ix, handle)
        from tablerank.features import extract_structural, standardize_struct
        from tablerank.linearize import linearize_query

        raw = extract_structural([linearize_query(q)])[0]
        assert np.array_equal(qf.struct, standardize_struct(raw, ix.struct_mean, ix.struct_std))

    def test_dimension_guard(self, indexed):
        _, _, ix = indexed
        wrong = EmbedderHandle(dimension=32)
        with pytest.raises(DimensionMismatch):
            query_features(make_topic_query(0, seed=1), ix, wrong)


class TestAssignCluster:
    def test_single_cluster_always_zero(self, handle):
        corpus = make_topic_corpus(12, 2, seed=1)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=1, k=5, seed=0)
        qf = query_features(make_topic_query(0, seed=2), ix, handle)
        best, means = assign_cluster(qf, ix.families["sem"], ix)
        assert best == 0 and len(means) == 1

    def test_matching_typical_node_wins_with_mean_one(self, indexed):
        _, _, ix = indexed
        n = len(ix)
        dim = 8
        vectors = np.zeros((n, dim))
        vectors[:, 3] = 1.0          # everyone else orthogonal to the query
        vectors[0] = 0.0
        vectors[0, 0] = 1.0          # the sole typical node of cluster 0
        assignments = np.ones(n, dtype=np.int64)
        assignments[0] = 0
        typical = [[0], [1]]
        _swap_sem(ix, vectors, assignments, typical)
        qf = NodeFeatures(sem=vectors[0].copy(), struct=np.zeros(20), heur=sparse.csr_matrix((1, 1)))
        best, means = assign_cluster(qf, ix.families["sem"], ix)
        assert best == 0
        assert means[0] == pytest.approx(1.0)
        assert means[1] == pytest.approx(0.0)

    def test_matches_brute_force_mean_of_cosines(self, indexed):
        # Oracle: recompute every mean as a plain average of pairwise cosines.
        _, _, ix = indexed
        rng = np.random.default_rng(17)
        n = len(ix)
        vectors = rng.normal(size=(n, 8))
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        assignments = np.repeat(np.arange(3), [n - 2 * (n // 3), n // 3, n // 3])[:n]
        typical = []
        for j in range(3):
            typical.append(np.flatnonzero(assignments == j)[:2].tolist())
        _swap_sem(ix, vectors, assignments, typical)
        for trial in range(25):
            qv = rng.normal(size=8)
            qf = NodeFeatures(sem=qv, struct=np.zeros(20), heur=sparse.csr_matrix((1, 1)))
            best, means = assign_cluster(qf, ix.families["sem"], ix)
            brute = [
                float(np.mean([
                    representative_score(vectors[i], qv) for i in typical[j]
                ]))
                for j in range(3)
            ]
            assert means == pytest.approx(brute)
            assert best == int(np.argmax(brute))

    def test_tie_breaks_to_lower_index(self, indexed):
        _, _, ix = indexed
        n = len(ix)
        vectors = np.zeros((n, 4))
        vectors[:, 1] = 1.0
        assignments = np.zeros(n, dtype=np.int64)
        assignments[n // 2:] = 1
        typical = [[0], [n // 2]]
        _swap_sem(ix, vectors, assignments, typical)
        qf = NodeFeatures(sem=np.array([0.0, 1.0, 0.0, 0.0]), struct=np.zeros(20),
                          heur=sparse.csr_matrix((1, 1)))
        best, means = assign_cluster(qf, ix.families["sem"], ix)
        assert means[0] == pytest.approx(means[1])
        assert best == 0


class TestMeanVectorOracle:
    """assign_cluster against the per-node reference on a built index, for all
    three families: means within 1e-12 and the same choice."""

    @staticmethod
    def assert_matches_reference(qf, ix):
        for phi in FAMILY_TYPES:
            family = ix.families[phi]
            best, means = assign_cluster(qf, family, ix)
            _, ref_means = reference_assign_cluster(qf, family, ix)
            ref = np.asarray(ref_means)
            assert np.max(np.abs(means - ref)) <= 1e-12, phi
            # The reference's BLAS product can round two identical typical sets
            # apart by their row positions, so among its means within 1e-12 of
            # the top, the lowest index is the documented choice.
            assert best == int(np.argmax(ref >= ref.max() - 1e-12)), phi

    def test_many_queries(self, indexed, handle):
        _, _, ix = indexed
        queries = [make_topic_query(t, seed=s) for t in range(4) for s in range(12)]
        queries.append(Query(id="mix", text="tp0c00 tp1c01 tp2h00 tp3c02", task_type=TaskType.SINGLE_HOP))
        exact_ties = 0
        for q in queries:
            qf = query_features(q, ix, handle)
            self.assert_matches_reference(qf, ix)
            _, means = assign_cluster(qf, ix.families["struct"], ix)
            exact_ties += means.count(max(means)) > 1
        # Topics share struct vectors here, so struct clusters tie exactly.
        assert exact_ties > 0

    def test_out_of_vocab_query_picks_cluster_zero(self, indexed, handle):
        _, _, ix = indexed
        q = Query(id="q", text="zz yy xx ww vv", task_type=TaskType.SINGLE_HOP)
        qf = query_features(q, ix, handle)
        self.assert_matches_reference(qf, ix)
        best, means = assign_cluster(qf, ix.families["heur"], ix)
        assert best == 0
        assert means == [0.0] * len(means)

    def test_zero_norm_typical_row(self, indexed, handle):
        _, _, ix = indexed
        ix.sem = ix.sem.copy()
        ix._struct_z = ix.struct_z().copy()
        ix.heur = ix.heur.copy()
        for phi in FAMILY_TYPES:
            p = int(ix.families[phi].typical[1][0])
            if phi == "sem":
                ix.sem[p] = 0.0
            elif phi == "struct":
                ix._struct_z[p] = 0.0
            else:
                ix.heur.data[ix.heur.indptr[p]:ix.heur.indptr[p + 1]] = 0.0
        for t in range(4):
            self.assert_matches_reference(query_features(make_topic_query(t, seed=5), ix, handle), ix)

    def test_identical_typical_vectors_tie_to_lower_index(self, indexed):
        _, _, ix = indexed
        rng = np.random.default_rng(4)
        n = len(ix)
        vectors = rng.normal(size=(n, 8))
        assignments = np.arange(n, dtype=np.int64) % 3
        # Clusters 1 and 2 have the same typical vectors; cluster 0 points away.
        typical = [[0, 3], [1, 4, 7], [2, 5, 8]]
        vectors[[2, 5, 8]] = vectors[[1, 4, 7]]
        vectors[[0, 3]] = -vectors[1]
        _swap_sem(ix, vectors, assignments, typical)
        for _ in range(10):
            qv = vectors[1] + 0.1 * rng.normal(size=8)
            qf = NodeFeatures(sem=qv, struct=np.zeros(20), heur=sparse.csr_matrix((1, 1)))
            best, means = assign_cluster(qf, ix.families["sem"], ix)
            assert means[1] == means[2]
            assert best == 1
            _, ref_means = reference_assign_cluster(qf, ix.families["sem"], ix)
            assert np.max(np.abs(np.subtract(means, ref_means))) <= 1e-12


    def test_repair_duplicated_vectors_tie_by_rule(self, handle):
        # K exceeds the distinct struct vectors here, so k-means repair leaves
        # struct clusters 0 and 4 (and 2 and 5) sharing one vector with 10
        # against 1 typical nodes; their means differ only by rounding.
        corpus = make_topic_corpus(60, 4, seed=6)
        ix = build_index(corpus, extract_all(corpus, handle), K=6, k=10, seed=3)
        for q in (make_topic_query(t, seed=s) for t in range(4) for s in range(10)):
            qf = query_features(q, ix, handle)
            for phi in FAMILY_TYPES:
                best, _ = assign_cluster(qf, ix.families[phi], ix)
                assert best == reference_assign_cluster(qf, ix.families[phi], ix)[0], (q.id, phi)


class TestCoarseRetrieve:
    def test_union_covers_each_chosen_cluster(self, indexed, handle):
        _, _, ix = indexed
        result = coarse_retrieve(make_topic_query(2, seed=5), ix, handle)
        union = set(result.union_ids.tolist())
        assert union <= set(range(len(ix)))
        assert result.union_ids.tolist() == sorted(union)
        for phi, j in result.per_family_choice.items():
            assert set(np.flatnonzero(ix.families[phi].assignments == j).tolist()) <= union

    def test_k1_union_is_whole_corpus(self, handle):
        corpus = make_topic_corpus(15, 3, seed=2)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=1, k=100, seed=0)
        result = coarse_retrieve(make_topic_query(0, seed=3), ix, handle)
        assert result.union_ids.tolist() == list(range(len(corpus)))
        assert result.retained_fraction == pytest.approx(1.0)

    def test_identical_choices_union_idempotent(self, indexed, handle):
        _, _, ix = indexed
        n = len(ix)
        vectors = np.zeros((n, 4))
        vectors[:5, 0] = 1.0
        vectors[5:, 1] = 1.0
        assignments = np.zeros(n, dtype=np.int64)
        assignments[5:] = 1
        typical = [[0, 1, 2, 3, 4], [5]]
        _swap_sem(ix, vectors, assignments, typical)
        # Make struct and heur mirror the sem family exactly.
        fam = ix.families["sem"]
        struct_z = np.zeros((n, 20))
        struct_z[:5, 0] = 1.0
        struct_z[5:, 1] = 1.0
        ix._struct_z = struct_z
        heur = sparse.csr_matrix(vectors[:, :2])
        ix.heur = heur
        for phi in ("struct", "heur"):
            ix.families[phi] = dataclasses.replace(
                fam, feature_type=phi, assignments=fam.assignments.copy(),
                typical=[t.copy() for t in fam.typical],
            )
        qf = NodeFeatures(sem=np.array([1.0, 0, 0, 0]), struct=struct_z[0],
                          heur=sparse.csr_matrix(np.array([[1.0, 0.0]])))
        result = coarse_retrieve(None, ix, None, qf=qf)
        assert result.per_family_choice == {"sem": 0, "struct": 0, "heur": 0}
        assert result.union_ids.tolist() == [0, 1, 2, 3, 4]
        assert len(result.union_ids) == 5

    def test_disjoint_choices_union_adds_up(self, indexed):
        _, _, ix = indexed
        n = len(ix)
        assert n >= 12
        sem = np.zeros((n, 6)); sem[:, 5] = 1.0
        struct_z = np.zeros((n, 20)); struct_z[:, 5] = 1.0
        heur_rows = np.zeros((n, 6)); heur_rows[:, 5] = 1.0
        # Three families partition the corpus differently; the query matches
        # cluster 0 of each, with sizes 3, 4, and 5.
        sem[:3] = 0.0; sem[:3, 0] = 1.0
        struct_z[3:7] = 0.0; struct_z[3:7, 1] = 1.0
        heur_rows[7:12] = 0.0; heur_rows[7:12, 2] = 1.0

        def family(phi, mask):
            assignments = np.where(mask, 0, 1).astype(np.int64)
            return dataclasses.replace(
                ix.families[phi],
                assignments=assignments,
                typical=[np.flatnonzero(assignments == j)[:1] for j in range(2)],
            )

        mask_sem = np.arange(n) < 3
        mask_struct = (np.arange(n) >= 3) & (np.arange(n) < 7)
        mask_heur = (np.arange(n) >= 7) & (np.arange(n) < 12)
        ix.sem = sem
        ix._struct_z = struct_z
        ix.heur = sparse.csr_matrix(heur_rows)
        ix.families["sem"] = family("sem", mask_sem)
        ix.families["struct"] = family("struct", mask_struct)
        ix.families["heur"] = family("heur", mask_heur)
        qf = NodeFeatures(
            sem=np.array([1.0, 0, 0, 0, 0, 0]),
            struct=np.eye(20)[1],
            heur=sparse.csr_matrix(np.array([[0, 0, 1.0, 0, 0, 0]])),
        )
        result = coarse_retrieve(None, ix, None, qf=qf)
        assert result.per_family_choice == {"sem": 0, "struct": 0, "heur": 0}
        assert len(result.union_ids) == 12

    def test_sem_choice_invariant_to_query_scaling(self, indexed, handle):
        _, _, ix = indexed
        q = make_topic_query(1, seed=8)
        qf = query_features(q, ix, handle)
        base = coarse_retrieve(q, ix, handle, qf=qf)
        scaled = NodeFeatures(sem=qf.sem * 37.5, struct=qf.struct, heur=qf.heur)
        result = coarse_retrieve(q, ix, handle, qf=scaled)
        assert result.per_family_choice["sem"] == base.per_family_choice["sem"]

    def test_retained_fraction_reported(self, indexed, handle):
        _, _, ix = indexed
        result = coarse_retrieve(make_topic_query(0, seed=4), ix, handle)
        assert result.retained_fraction == pytest.approx(len(result.union_ids) / len(ix))
        assert result.corpus_size == len(ix)

    def test_query_copies_no_typical_rows(self, handle):
        # Every node is a typical node here, so a per-query gather of the
        # typical rows would alone trace about ix.sem.nbytes.
        corpus = make_topic_corpus(400, 4, seed=6)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=4, k=100, seed=3)
        q = make_topic_query(1, seed=9)
        qf = query_features(q, ix, handle)
        coarse_retrieve(q, ix, handle, qf=qf)  # warm-up: builds the per-family means
        tracemalloc.start()
        try:
            coarse_retrieve(q, ix, handle, qf=qf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ix.sem.nbytes / 10
