import numpy as np
import pytest

from tablerank.corpus import Query, TaskType
from tablerank.features import extract_all, representative_score, embed_semantic
from tablerank.fine import (
    PPRConfig,
    _rank,
    build_local_subgraph,
    fine_retrieve,
    personalization,
    ppr,
    retrieve,
)
from tablerank.index import build_index
from tablerank.linearize import linearize_query

from conftest import make_angle_corpus, make_topic_corpus


def subgraph(vectors: dict[str, np.ndarray], tau: float):
    """Subgraph over the vectors, nodes in ascending id order."""
    ids = sorted(vectors)
    return build_local_subgraph(ids, np.vstack([vectors[tid] for tid in ids]), tau)


def sem_rows(g, vectors: dict[str, np.ndarray]) -> np.ndarray:
    return np.vstack([vectors[tid] for tid in g.node_ids])


def edge_list(g) -> list[tuple[int, int, float]]:
    """Undirected edges as (i, j, weight) with i < j."""
    ii, jj = np.triu_indices(len(g), 1)
    present = g.has_edge(ii, jj)
    return [(int(i), int(j), float(g.weights[i, j])) for i, j in zip(ii[present], jj[present])]


def transition_matrix(S: np.ndarray) -> np.ndarray:
    """Row-normalize S into a new array; all-zero rows stay zero. The
    oracles below take this row-stochastic P."""
    S = np.asarray(S, dtype=np.float64)
    row_sums = S.sum(axis=1)
    safe = np.where(row_sums > 0, row_sums, 1.0)
    return S / safe[:, None]


def solve_ppr_oracle(P: np.ndarray, h: np.ndarray, alpha: float) -> np.ndarray:
    """Dense linear-system solve of the PPR fixpoint, danging rows patched to h."""
    P_eff = P.copy()
    dangling = P.sum(axis=1) == 0
    P_eff[dangling] = h
    n = len(h)
    return np.linalg.solve(np.eye(n) - alpha * P_eff.T, (1 - alpha) * h)


def random_graph(rng, max_nodes=64):
    n = int(rng.integers(2, max_nodes + 1))
    vecs = rng.normal(size=(n, 16))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    tau = float(rng.uniform(0.0, 1.0))
    ids = [f"n{i:03d}" for i in range(n)]
    g = build_local_subgraph(ids, vecs, tau)
    h = rng.dirichlet(np.ones(n))
    return g, h


def rows_with_duplicates(rng, n: int, d: int = 16) -> np.ndarray:
    """n random rows drawn from a pool of 2n/3, so many rows repeat exactly,
    plus one all-zero row."""
    pool = rng.normal(size=(max(1, 2 * n // 3), d))
    rows = pool[rng.integers(0, len(pool), size=n)]
    rows[rng.integers(0, n)] = 0.0
    return rows


def reference_fine(rows: np.ndarray, tau: float, h: np.ndarray, cfg: PPRConfig):
    """The earlier fine-stage construction, kept as the bitwise reference:
    mirrored upper triangle, bool adjacency, row-stochastic P and a contiguous
    transpose of it. Returns (weights, adjacency, scores, iterations)."""
    norms = np.linalg.norm(rows, axis=1)
    unit = rows / np.where(norms > 0, norms, 1.0)[:, None]
    cos = unit @ unit.T
    np.clip(cos, 0.0, None, out=cos)
    upper = np.triu(cos, 1)
    weights = upper + upper.T
    adjacency = np.triu(cos >= tau, 1)
    adjacency = adjacency | adjacency.T
    weights[~adjacency] = 0.0
    P = transition_matrix(weights)
    dangling = P.sum(axis=1) == 0.0
    PT = np.ascontiguousarray(P.T)
    v = h.copy()
    for it in range(1, cfg.max_iter + 1):
        dangling_mass = float(v[dangling].sum()) if dangling.any() else 0.0
        v_next = (1.0 - cfg.alpha) * h + cfg.alpha * (PT @ v + dangling_mass * h)
        residual = float(np.abs(v_next - v).sum())
        v = v_next
        if residual < cfg.epsilon:
            break
    return weights, adjacency, v, it


class TestPPRConfig:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            PPRConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PPRConfig(alpha=1.0)
        with pytest.raises(ValueError):
            PPRConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            PPRConfig(top_n=0)
        with pytest.raises(ValueError):
            PPRConfig(max_iter=0)


class TestBuildLocalSubgraph:
    def test_tau_zero_complete_graph(self):
        rng = np.random.default_rng(0)
        ids = [f"n{i}" for i in range(6)]
        vecs = {tid: rng.normal(size=8) for tid in ids}
        g = subgraph(vecs, tau=0.0)
        assert len(edge_list(g)) == 6 * 5 // 2
        assert not g.has_edge(np.arange(6), np.arange(6)).any()

    def test_tau_one_keeps_only_parallel_pairs(self):
        vecs = {"a": np.array([1.0, 0.0]), "b": np.array([2.0, 0.0]), "c": np.array([0.0, 1.0])}
        g = subgraph(vecs, tau=1.0)
        edges = {(g.node_ids[i], g.node_ids[j]) for i, j, _ in edge_list(g)}
        assert edges == {("a", "b")}

    def test_matches_brute_force_pairwise_filter(self):
        # Oracle: re-derive the edge set with per-pair cosine calls.
        rng = np.random.default_rng(7)
        for trial in range(20):
            ids = [f"n{i}" for i in range(4)]
            vecs = {tid: rng.normal(size=5) for tid in ids}
            tau = float(rng.uniform(0, 1))
            g = subgraph(vecs, tau)
            got = {(g.node_ids[i], g.node_ids[j]) for i, j, _ in edge_list(g)}
            expect = set()
            ordered = sorted(ids)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    score = max(0.0, representative_score(vecs[a], vecs[b]))
                    if score >= tau:
                        expect.add((a, b))
            assert got == expect

    def test_weights_in_band_and_nodes_sorted(self):
        rng = np.random.default_rng(3)
        ids = [f"x{i}" for i in range(10)]
        vecs = {tid: rng.normal(size=6) for tid in ids}
        g = subgraph(vecs, tau=0.3)
        assert g.node_ids == sorted(ids)
        backwards = ids[::-1]
        assert build_local_subgraph(backwards, np.vstack([vecs[t] for t in backwards]), 0.3).node_ids == backwards
        for _, _, w in edge_list(g):
            assert 0.3 <= w <= 1.0 + 1e-12


class TestSimilarityMatrix:
    def test_edgeless_graph_zero_matrix(self):
        vecs = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        g = subgraph(vecs, tau=0.5)
        assert np.array_equal(g.weights, np.zeros((2, 2)))

    def test_single_edge_two_entries(self):
        vecs = {"a": np.array([1.0, 0.1]), "b": np.array([1.0, 0.0]), "c": np.array([0.0, 1.0])}
        g = subgraph(vecs, tau=0.9)
        S = g.weights
        assert np.count_nonzero(S) == 2
        assert S[0, 1] == S[1, 0] > 0.9

    def test_symmetric_for_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g, _ = random_graph(rng, max_nodes=20)
            S = g.weights
            assert np.array_equal(S, S.T)
            assert np.all(S.diagonal() == 0)
        # a large Gram matrix over exactly repeated rows is bitwise symmetric too
        rows = rows_with_duplicates(rng, 1500)
        S = build_local_subgraph([f"n{i:04d}" for i in range(1500)], rows, 0.0).weights
        assert np.array_equal(S, S.T)
        assert np.all(S.diagonal() == 0)


class TestTwoBufferEquivalence:
    @pytest.mark.parametrize("tau", [0.0, 0.2])
    def test_bitwise_equal_to_reference(self, tau):
        rng = np.random.default_rng(31)
        cfg = PPRConfig()
        for n in (2, 40, 300, 1200):
            rows = rows_with_duplicates(rng, n)
            h = personalization(rng.normal(size=rows.shape[1]), rows)
            g = build_local_subgraph([f"n{i:04d}" for i in range(n)], rows, tau)
            weights = g.weights.copy()
            got = ppr(g.weights, h, cfg)
            ref_weights, ref_adjacency, ref_scores, ref_iters = reference_fine(rows, tau, h, cfg)
            assert np.array_equal(g.weights, weights)  # ppr leaves W untouched
            assert np.array_equal(g.weights, ref_weights)
            assert np.array_equal(g.has_edge(*np.indices((n, n))), ref_adjacency)
            assert np.array_equal(got.scores, ref_scores)
            assert got.iterations == ref_iters


class TestTransitionMatrix:
    def test_already_stochastic_row_unchanged(self):
        S = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        P = transition_matrix(S)
        assert np.allclose(P, S)

    def test_row_normalization(self):
        S = np.array([[0.0, 2.0], [2.0, 0.0]])
        P = transition_matrix(S)
        assert np.allclose(P, np.array([[0.0, 1.0], [1.0, 0.0]]))
        S2 = np.array([[2.0, 2.0]])
        assert np.allclose(transition_matrix(S2), np.array([[0.5, 0.5]]))

    def test_dangling_row_matches_linear_solve(self):
        # 3-node graph, one isolated node; oracle patches the dangling row
        # with h and solves the fixpoint directly.
        S = np.array([[0.0, 0.9, 0.0], [0.9, 0.0, 0.0], [0.0, 0.0, 0.0]])
        P = transition_matrix(S)
        assert np.array_equal(P[2], np.zeros(3))
        h = np.array([0.5, 0.3, 0.2])
        cfg = PPRConfig(alpha=0.85, epsilon=1e-14, max_iter=10000)
        got = ppr(S, h, cfg).scores
        expect = solve_ppr_oracle(P, h, 0.85)
        assert np.max(np.abs(got - expect)) < 1e-6


class TestPersonalization:
    def test_single_node(self):
        vecs = {"only": np.array([1.0, 0.0])}
        g = subgraph(vecs, tau=0.0)
        h = personalization([1.0, 0.0], sem_rows(g, vecs))
        assert np.allclose(h, [1.0])

    def test_equal_scores_split_evenly(self):
        vecs = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0])}
        g = subgraph(vecs, tau=0.0)
        h = personalization([1.0, 0.0], sem_rows(g, vecs))
        assert np.allclose(h, [0.5, 0.5])

    def test_clamped_scores_normalized(self):
        vecs = {
            "a": np.array([0.8, 0.6, 0.0]),
            "b": np.array([0.2, 0.0, 0.9]),
            "c": np.array([-1.0, 0.0, 0.0]),  # negative cosine clamps to 0
        }
        g = subgraph(vecs, tau=0.0)
        q = np.array([1.0, 0.0, 0.0])
        raw = {tid: max(0.0, representative_score(v, q)) for tid, v in vecs.items()}
        total = sum(raw.values())
        h = personalization(q, sem_rows(g, vecs))
        for i, tid in enumerate(g.node_ids):
            assert h[i] == pytest.approx(raw[tid] / total)
        assert h[g.node_ids.index("c")] == 0.0

    def test_all_zero_scores_fall_back_to_uniform(self):
        vecs = {"a": np.array([0.0, 1.0]), "b": np.array([0.0, 1.0])}
        g = subgraph(vecs, tau=0.0)
        h = personalization([1.0, 0.0], sem_rows(g, vecs))
        assert np.allclose(h, [0.5, 0.5])


class TestPPR:
    def test_single_node_immediately_converges(self):
        result = ppr(np.zeros((1, 1)), np.array([1.0]), PPRConfig())
        assert np.allclose(result.scores, [1.0])
        assert result.converged and result.iterations == 1

    def test_two_disconnected_nodes_fixpoint(self):
        P = np.zeros((2, 2))
        h = np.array([0.5, 0.5])
        result = ppr(P, h, PPRConfig())
        assert np.allclose(result.scores, [0.5, 0.5])

    def test_weighted_path_matches_dense_solve(self):
        # 5-node weighted path graph; oracle is the direct linear solve.
        n = 5
        S = np.zeros((n, n))
        weights = [0.9, 0.4, 0.7, 0.2]
        for i, w in enumerate(weights):
            S[i, i + 1] = S[i + 1, i] = w
        h = np.array([0.4, 0.1, 0.2, 0.1, 0.2])
        got = ppr(S, h, PPRConfig(alpha=0.85, epsilon=1e-14, max_iter=10000)).scores
        expect = solve_ppr_oracle(transition_matrix(S), h, 0.85)
        assert np.max(np.abs(got - expect)) < 1e-6

    def test_probability_vector_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g, h = random_graph(rng, max_nodes=32)
            result = ppr(g.weights, h, PPRConfig(alpha=0.85))
            assert result.scores.min() >= 0
            assert result.scores.sum() == pytest.approx(1.0, abs=1e-6)

    def test_probability_vector_at_every_iterate(self):
        # Truncating at increasing max_iter exposes each intermediate iterate.
        rng = np.random.default_rng(27)
        g, h = random_graph(rng, max_nodes=16)
        for cap in range(1, 12):
            result = ppr(g.weights, h, PPRConfig(alpha=0.9, epsilon=1e-30, max_iter=cap))
            assert result.scores.min() >= 0
            assert result.scores.sum() == pytest.approx(1.0, abs=1e-6)

    def test_residuals_non_increasing(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            g, h = random_graph(rng, max_nodes=32)
            result = ppr(g.weights, h, PPRConfig(alpha=0.9, epsilon=1e-12, max_iter=500))
            r = result.residuals
            assert all(b <= a + 1e-12 for a, b in zip(r, r[1:]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        g, h = random_graph(rng, max_nodes=24)
        v = ppr(g.weights, h, PPRConfig(epsilon=1e-12, max_iter=2000)).scores
        perm = rng.permutation(len(h))
        Wp = g.weights[np.ix_(perm, perm)]
        vp = ppr(Wp, h[perm], PPRConfig(epsilon=1e-12, max_iter=2000)).scores
        assert np.allclose(vp, v[perm], atol=1e-9)

    def test_truncation_flagged(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = np.array([0.9, 0.1])
        result = ppr(S, h, PPRConfig(alpha=0.85, epsilon=1e-30, max_iter=3))
        assert result.truncated and result.iterations == 3

    def test_oracle_equivalence_random_graphs(self):
        rng = np.random.default_rng(24)
        for trial in range(20):
            g, h = random_graph(rng, max_nodes=48)
            alpha = [0.3, 0.85, 0.95][trial % 3]
            got = ppr(g.weights, h, PPRConfig(alpha=alpha, epsilon=1e-12, max_iter=5000)).scores
            expect = solve_ppr_oracle(transition_matrix(g.weights), h, alpha)
            assert np.max(np.abs(got - expect)) < 1e-6


class TestRank:
    def test_ties_straddling_cutoff(self):
        ids = ["e", "d", "c", "b", "a", "f"]
        scores = np.array([0.1, 0.3, 0.2, 0.2, 0.2, 0.0])
        assert _rank(ids, scores, 3) == [("d", 0.3), ("a", 0.2), ("b", 0.2)]

    def test_matches_full_sort(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            ids = [f"t{i:02d}" for i in rng.permutation(n)]
            scores = rng.integers(0, 4, size=n) / 4.0
            full = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
            for top_n in range(1, n + 2):
                assert _rank(ids, scores, top_n) == [(ids[i], float(scores[i])) for i in full[:top_n]]


class TestFineRetrieve:
    def test_single_candidate_trivially_first(self, handle):
        corpus = make_topic_corpus(8, 2, seed=4)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=2, k=4, seed=1)
        from tablerank.coarse import coarse_retrieve

        q = Query(id="q", text="tp0c00 tp0c01 tp0c02", task_type=TaskType.SINGLE_HOP)
        coarse = coarse_retrieve(q, ix, handle)
        coarse.union_ids = np.array([0])
        result = fine_retrieve(q, coarse, ix, PPRConfig(top_n=5), tau=0.5)
        assert result.ranked == [(corpus.ids()[0], 1.0)]

    def test_low_alpha_matches_cosine_ranking(self, handle):
        corpus, q = make_angle_corpus(20)
        h = type(handle)(dimension=512)
        feats = extract_all(corpus, h)
        qv = embed_semantic([linearize_query(q)], h)[0]
        cos = {t.id: representative_score(feats[t.id].sem, qv) for t in corpus}
        assert min(cos.values()) > 0          # fixture precondition
        gaps = np.diff(sorted(cos.values()))
        assert gaps.min() > 2e-3              # fixture precondition
        ix = build_index(corpus, feats, K=1, k=100, seed=0)
        _, result = retrieve(q, ix, h, PPRConfig(alpha=0.01, top_n=len(corpus)), tau=0.0)
        brute = [tid for tid, _ in sorted(cos.items(), key=lambda p: (-p[1], p[0]))]
        assert [tid for tid, _ in result.ranked] == brute

    def test_gold_caption_lands_in_top_10(self, handle):
        corpus = make_topic_corpus(60, 6, seed=9)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=3, k=20, seed=2)
        gold = corpus.tables[7]
        q = Query(id="q", text=gold.caption, task_type=TaskType.SINGLE_HOP)
        _, result = retrieve(q, ix, handle, PPRConfig(top_n=10), tau=0.3)
        assert gold.id in [tid for tid, _ in result.ranked]

    def test_scores_sum_to_one_over_subgraph(self, handle):
        corpus = make_topic_corpus(30, 3, seed=5)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=3, k=10, seed=3)
        q = Query(id="q", text="tp1c00 tp1c03 tp1h01", task_type=TaskType.SINGLE_HOP)
        _, result = retrieve(q, ix, handle, PPRConfig(top_n=5), tau=0.4)
        assert result.all_scores.sum() == pytest.approx(1.0, abs=1e-6)
        assert len(result.ranked) == min(5, len(result.subgraph))

    def test_deterministic(self, handle):
        corpus = make_topic_corpus(30, 3, seed=5)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=3, k=10, seed=3)
        q = Query(id="q", text="tp2c01 tp2c02", task_type=TaskType.SINGLE_HOP)
        _, r1 = retrieve(q, ix, handle, PPRConfig(top_n=8), tau=0.4)
        _, r2 = retrieve(q, ix, handle, PPRConfig(top_n=8), tau=0.4)
        assert r1.ranked == r2.ranked
