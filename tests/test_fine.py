import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tablerank.fine as fine
import tablerank.index as index
from tablerank.build import build_index, extract_all
from tablerank.coarse import coarse_retrieve
from tablerank.corpus import Query, TableCorpus, TaskType
from tablerank.features import EmbedderHandle, embed_semantic, unit_rows
from tablerank.fine import (
    PPRConfig,
    build_local_subgraph,
    fine_retrieve,
    personalization,
    ppr,
    retrieve,
)
from tablerank.index import HypergraphIndex, load_index, save_index, top_k
from tablerank.linearize import linearize_query

from conftest import make_angle_corpus, make_topic_corpus, make_topic_query, representative_score


def sem_rows(vectors: dict[str, np.ndarray]) -> np.ndarray:
    """The vectors as rows, in ascending id order."""
    return np.vstack([vectors[tid] for tid in sorted(vectors)])


def grouped_graph(rows: np.ndarray, tau: float, group: np.ndarray) -> np.ndarray:
    """Weights over the distinct rows ``rows``, node i having row
    ``rows[group[i]]``: the Gram matrix of their unit rows, formed as
    fine_retrieve forms it, thresholded by build_local_subgraph."""
    unit = unit_rows(rows)
    return build_local_subgraph(unit @ unit.T, tau, group)


def node_graph(rows: np.ndarray, tau: float) -> np.ndarray:
    """Weights with every row its own node: each group a singleton."""
    return grouped_graph(rows, tau, np.arange(len(rows)))


def node_personalization(q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return personalization(q, rows, np.ones(len(rows)))


def node_ppr(W: np.ndarray, h: np.ndarray, cfg: PPRConfig):
    """PPR with every entry one node; W has a zero diagonal."""
    return ppr(W, h, cfg, np.ones(len(h)))


def solve_to(monkeypatch, epsilon: float, max_iter: int) -> None:
    """Make ``ppr`` stop below ``epsilon`` or after ``max_iter`` products."""
    monkeypatch.setattr(fine, "PPR_EPSILON", epsilon)
    monkeypatch.setattr(fine, "PPR_MAX_ITER", max_iter)


def subgraph(vectors: dict[str, np.ndarray], tau: float) -> np.ndarray:
    """Weights over the vectors; node i is the i-th id in ascending order."""
    return node_graph(sem_rows(vectors), tau)


def ranked_ids(ids: list[str], scores: np.ndarray, top_n: int) -> list[str]:
    """The top_n of ``ids[i]`` by top_k, position i standing for row i."""
    return [ids[i] for i in top_k(scores, np.arange(len(ids)), ids, top_n)]


def node_matrix(W: np.ndarray, group: np.ndarray, tau: float):
    """The node-level weight matrix and adjacency of the group matrix W:
    distinct nodes i and j are joined by W[group[i], group[j]], an edge at
    tau = 0 and otherwise where it is positive."""
    i, j = np.indices((len(group), len(group)))
    w = W[group[i], group[j]]
    return np.where(i != j, w, 0.0), (i != j) & ((tau == 0.0) | (w > 0.0))


def edge_list(W: np.ndarray, tau: float) -> list[tuple[int, int, float]]:
    """Undirected edges of a one-node-per-row W as (i, j, weight), i < j."""
    weight, edge = node_matrix(W, np.arange(len(W)), tau)
    ii, jj = np.triu_indices(len(W), 1)
    present = edge[ii, jj]
    return [(int(i), int(j), float(weight[i, j])) for i, j in zip(ii[present], jj[present])]


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
    W = node_graph(vecs, tau)
    h = rng.dirichlet(np.ones(n))
    return W, h


def rows_with_duplicates(rng, n: int, d: int = 16) -> np.ndarray:
    """n random rows drawn from a pool of 2n/3, so many rows repeat exactly,
    plus one all-zero row."""
    pool = rng.normal(size=(max(1, 2 * n // 3), d))
    rows = pool[rng.integers(0, len(pool), size=n)]
    rows[rng.integers(0, n)] = 0.0
    return rows


def reference_subgraph(rows: np.ndarray, tau: float):
    """The earlier subgraph construction, kept as the bitwise reference:
    mirrored upper triangle and bool adjacency. Returns (weights, adjacency)."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    unit = rows / np.where(norms > 0, norms, 1.0)[:, None]
    cos = unit @ unit.T
    np.clip(cos, 0.0, None, out=cos)
    upper = np.triu(cos, 1)
    weights = upper + upper.T
    adjacency = np.triu(cos >= tau, 1)
    adjacency = adjacency | adjacency.T
    weights[~adjacency] = 0.0
    return weights, adjacency


def power_step(P: np.ndarray, h: np.ndarray, alpha: float, v: np.ndarray) -> np.ndarray:
    """One PPR power-iteration step over row-stochastic P; dangling rows send
    their mass to h."""
    dangling = P.sum(axis=1) == 0.0
    dangling_mass = float(v[dangling].sum()) if dangling.any() else 0.0
    return (1.0 - alpha) * h + alpha * (P.T @ v + dangling_mass * h)


def power_iteration(W: np.ndarray, h: np.ndarray, cfg: PPRConfig):
    """The earlier PPR solver, kept as the oracle: iterate from v0 = h until
    the L1 step difference drops below ``fine.PPR_EPSILON``, for at most
    ``fine.PPR_MAX_ITER`` steps. Returns (scores, iterations)."""
    P = transition_matrix(W)
    v = h.copy()
    for it in range(1, fine.PPR_MAX_ITER + 1):
        v_next = power_step(P, h, cfg.alpha, v)
        residual = float(np.abs(v_next - v).sum())
        v = v_next
        if residual < fine.PPR_EPSILON:
            break
    return v, it


def fixpoint_residual(W: np.ndarray, h: np.ndarray, alpha: float, v: np.ndarray) -> float:
    """L1 distance one power-iteration step moves v."""
    return float(np.abs(power_step(transition_matrix(W), h, alpha, v) - v).sum())


def duplicate_groups(rows: np.ndarray) -> list[list[int]]:
    """Positions of bitwise-identical rows, one list per distinct row."""
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(row.tobytes(), []).append(i)
    return list(groups.values())


def tie_by_group(scores: np.ndarray, groups: list[list[int]]) -> np.ndarray:
    """Every member takes its group's largest score."""
    tied = scores.copy()
    for members in groups:
        tied[members] = scores[members].max()
    return tied


def group_rows(rows: np.ndarray):
    """(distinct rows, group of each row, group sizes), the distinct rows in
    order of first appearance, as fine_retrieve groups the candidates."""
    leaders = np.empty(len(rows), dtype=np.int64)
    for members in duplicate_groups(rows):
        leaders[members] = members[0]
    reps, group, sizes = np.unique(leaders, return_inverse=True, return_counts=True)
    return rows[reps], group, sizes


def rows_with_zero_group(rng, n: int) -> np.ndarray:
    """rows_with_duplicates with a second all-zero row, so the zero rows are
    a group of at least two nodes that has no weight to any node."""
    rows = rows_with_duplicates(rng, n)
    zero = int(np.flatnonzero(~rows.any(axis=1))[0])
    rows[(zero + 1) % n] = 0.0
    return rows


def clamped_self_cosine(rows: np.ndarray) -> np.ndarray:
    """The diagonal of the clamped cosine matrix, computed as the reference
    does (a zero row has cosine 0 with itself)."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    unit = rows / np.where(norms > 0, norms, 1.0)[:, None]
    return np.clip((unit @ unit.T).diagonal(), 0.0, None)


class TestPPRConfig:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            PPRConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PPRConfig(alpha=1.0)
        with pytest.raises(ValueError):
            PPRConfig(top_n=0)

    def test_holds_only_the_settings_that_change_a_ranking(self):
        # The solver's tolerance and cap are module constants.
        assert [f.name for f in dataclasses.fields(PPRConfig)] == ["alpha", "top_n"]
        assert (fine.PPR_EPSILON, fine.PPR_MAX_ITER) == (1e-8, 100)


class TestBuildLocalSubgraph:
    def test_tau_zero_complete_graph(self):
        rng = np.random.default_rng(0)
        ids = [f"n{i}" for i in range(6)]
        vecs = {tid: rng.normal(size=8) for tid in ids}
        W = subgraph(vecs, tau=0.0)
        assert len(edge_list(W, 0.0)) == 6 * 5 // 2
        assert not W.diagonal().any()

    def test_tau_one_keeps_only_parallel_pairs(self):
        vecs = {"a": np.array([1.0, 0.0]), "b": np.array([2.0, 0.0]), "c": np.array([0.0, 1.0])}
        W = subgraph(vecs, tau=1.0)
        ids = sorted(vecs)
        edges = {(ids[i], ids[j]) for i, j, _ in edge_list(W, 1.0)}
        assert edges == {("a", "b")}

    def test_matches_brute_force_pairwise_filter(self):
        # Oracle: re-derive the edge set with per-pair cosine calls.
        rng = np.random.default_rng(7)
        for trial in range(20):
            ids = [f"n{i}" for i in range(4)]
            vecs = {tid: rng.normal(size=5) for tid in ids}
            tau = float(rng.uniform(0, 1))
            W = subgraph(vecs, tau)
            ordered = sorted(ids)
            got = {(ordered[i], ordered[j]) for i, j, _ in edge_list(W, tau)}
            expect = set()
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
        W = subgraph(vecs, tau=0.3)
        assert len(W) == len(ids)
        # node i is row i: reversed rows give the reversed matrix
        backwards = node_graph(sem_rows(vecs)[::-1], 0.3)
        assert np.array_equal(backwards, W[::-1, ::-1])
        for _, _, w in edge_list(W, 0.3):
            assert 0.3 <= w <= 1.0 + 1e-12


class TestSimilarityMatrix:
    def test_edgeless_graph_zero_matrix(self):
        vecs = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        W = subgraph(vecs, tau=0.5)
        assert np.array_equal(W, np.zeros((2, 2)))

    def test_single_edge_two_entries(self):
        vecs = {"a": np.array([1.0, 0.1]), "b": np.array([1.0, 0.0]), "c": np.array([0.0, 1.0])}
        S = subgraph(vecs, tau=0.9)
        assert np.count_nonzero(S) == 2
        assert S[0, 1] == S[1, 0] > 0.9

    def test_symmetric_for_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            S, _ = random_graph(rng, max_nodes=20)
            assert np.array_equal(S, S.T)
            assert np.all(S.diagonal() == 0)
        # a large Gram matrix over exactly repeated rows is bitwise symmetric too
        rows = rows_with_duplicates(rng, 1500)
        S = node_graph(rows, 0.0)
        assert np.array_equal(S, S.T)
        assert np.all(S.diagonal() == 0)


class TestTieAwareEquivalence:
    @pytest.mark.parametrize("tau", [0.0, 0.2])
    def test_matches_power_iteration_oracle(self, tau):
        rng = np.random.default_rng(31)
        cfg = PPRConfig()
        for n in (2, 40, 300, 1200):
            rows = rows_with_duplicates(rng, n)
            ids = [f"n{i:04d}" for i in range(n)]
            q = rng.normal(size=rows.shape[1])
            h = node_personalization(q, rows)
            W = node_graph(rows, tau)
            weights = W.copy()
            got = node_ppr(W, h, cfg)
            ref_weights, ref_adjacency = reference_subgraph(rows, tau)
            assert np.array_equal(W, weights)  # ppr leaves W untouched
            assert np.array_equal(W, ref_weights)
            assert np.array_equal(node_matrix(W, np.arange(n), tau)[1], ref_adjacency)
            oracle, _ = power_iteration(ref_weights, h, cfg)
            assert np.max(np.abs(got.scores - oracle)) < 1e-8
            assert got.converged and got.residual < fine.PPR_EPSILON
            assert fixpoint_residual(ref_weights, h, cfg.alpha, got.scores) < fine.PPR_EPSILON
            groups = duplicate_groups(rows)
            assert n == 2 or len(groups) < n  # fixture precondition: rows repeat
            # the grouped path gives every member of a group one score
            distinct, group, sizes = group_rows(rows)
            grouped = grouped_graph(distinct, tau, group)
            tied = ppr(grouped, personalization(q, distinct, sizes), cfg, sizes).scores[group]
            assert all(len(set(tied[members])) == 1 for members in groups)
            assert ranked_ids(ids, tied, n) == ranked_ids(ids, tie_by_group(oracle, groups), n)


class TestGroupedPath:
    """The path fine_retrieve takes: one weight row and column per distinct
    sem row, each group weighted by its size in the solve."""

    @pytest.mark.parametrize("tau", [0.0, 0.2])
    @pytest.mark.parametrize("n", [2, 40, 300, 1200])
    def test_equals_full_graph(self, n, tau):
        rng = np.random.default_rng(n)
        rows = rows_with_zero_group(rng, n)
        ids = [f"n{i:04d}" for i in range(n)]
        distinct, group, sizes = group_rows(rows)
        zero = np.flatnonzero(~distinct.any(axis=1))
        assert len(zero) == 1 and sizes[zero[0]] >= 2  # fixture precondition
        assert n == 2 or len(distinct) < n             # fixture precondition: rows repeat
        W = grouped_graph(distinct, tau, group)
        assert W.shape == (len(distinct), len(distinct))
        weight, edge = node_matrix(W, group, tau)

        # bitwise: the distinct rows' reference, expanded through group; two
        # members of one group have the row's clamped self-cosine
        ref_weights, ref_adjacency = reference_subgraph(distinct, tau)
        own = clamped_self_cosine(distinct)
        same = group[:, None] == group[None, :]
        off = ~np.eye(n, dtype=bool)
        expect_weight = np.where(same, (own * (own >= tau))[group][:, None], ref_weights[np.ix_(group, group)])
        expect_edge = np.where(same, (own >= tau)[group][:, None], ref_adjacency[np.ix_(group, group)])
        assert np.array_equal(weight, expect_weight * off)
        assert np.array_equal(edge, expect_edge & off)

        # against the reference over all n rows: the same edges, and weights
        # within 4 ulps of 1.0, the scale of a cosine's rounding error (BLAS
        # output bits depend on the matrix shape)
        full_weights, full_adjacency = reference_subgraph(rows, tau)
        assert np.array_equal(edge, full_adjacency)
        assert np.max(np.abs(weight - full_weights)) <= 4 * np.spacing(1.0)

        cfg = PPRConfig()
        q = rng.normal(size=rows.shape[1])
        h = personalization(q, distinct, sizes)
        assert (h * sizes).sum() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(h[group], node_personalization(q, rows), rtol=1e-14, atol=0.0)
        got = ppr(W, h, cfg, sizes)
        plain = node_ppr(weight, h[group], cfg)
        oracle, _ = power_iteration(weight, h[group], cfg)
        scores = got.scores[group]
        assert got.iterations == plain.iterations
        assert got.converged and got.residual < fine.PPR_EPSILON
        assert np.max(np.abs(scores - oracle)) < 1e-8
        assert scores.sum() == pytest.approx(1.0, abs=1e-12)
        groups = duplicate_groups(rows)
        assert all(len(set(scores[members])) == 1 for members in groups)
        assert ranked_ids(ids, scores, n) == ranked_ids(ids, tie_by_group(oracle, groups), n)


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

    def test_dangling_row_matches_linear_solve(self, monkeypatch):
        # 3-node graph, one isolated node; oracle patches the dangling row
        # with h and solves the fixpoint directly.
        S = np.array([[0.0, 0.9, 0.0], [0.9, 0.0, 0.0], [0.0, 0.0, 0.0]])
        P = transition_matrix(S)
        assert np.array_equal(P[2], np.zeros(3))
        h = np.array([0.5, 0.3, 0.2])
        solve_to(monkeypatch, 1e-14, 10000)
        got = node_ppr(S, h, PPRConfig(alpha=0.85)).scores
        expect = solve_ppr_oracle(P, h, 0.85)
        assert np.max(np.abs(got - expect)) < 1e-6


class TestPersonalization:
    def test_single_node(self):
        vecs = {"only": np.array([1.0, 0.0])}
        h = node_personalization([1.0, 0.0], sem_rows(vecs))
        assert np.allclose(h, [1.0])

    def test_equal_scores_split_evenly(self):
        vecs = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0])}
        h = node_personalization([1.0, 0.0], sem_rows(vecs))
        assert np.allclose(h, [0.5, 0.5])

    def test_clamped_scores_normalized(self):
        vecs = {
            "a": np.array([0.8, 0.6, 0.0]),
            "b": np.array([0.2, 0.0, 0.9]),
            "c": np.array([-1.0, 0.0, 0.0]),  # negative cosine clamps to 0
        }
        q = np.array([1.0, 0.0, 0.0])
        raw = {tid: max(0.0, representative_score(v, q)) for tid, v in vecs.items()}
        total = sum(raw.values())
        h = node_personalization(q, sem_rows(vecs))
        for i, tid in enumerate(sorted(vecs)):
            assert h[i] == pytest.approx(raw[tid] / total)
        assert h[sorted(vecs).index("c")] == 0.0

    def test_all_zero_scores_fall_back_to_uniform(self):
        vecs = {"a": np.array([0.0, 1.0]), "b": np.array([0.0, 1.0])}
        h = node_personalization([1.0, 0.0], sem_rows(vecs))
        assert np.allclose(h, [0.5, 0.5])

    def test_allocates_no_copy_of_the_rows(self):
        # Row norms, dot products and scores are u-vectors; any u x d
        # temporary (squared rows, a gathered copy) breaks the bound.
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(1000, 512))
        rows[::7] = 0.0
        q = rng.normal(size=512)
        sizes = rng.integers(1, 4, size=1000)
        tracemalloc.start()
        try:
            personalization(q, rows, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * rows.nbytes


class TestPPR:
    def test_single_node_immediately_converges(self):
        result = node_ppr(np.zeros((1, 1)), np.array([1.0]), PPRConfig())
        assert np.allclose(result.scores, [1.0])
        assert result.converged and result.iterations == 1

    def test_two_disconnected_nodes_fixpoint(self):
        P = np.zeros((2, 2))
        h = np.array([0.5, 0.5])
        result = node_ppr(P, h, PPRConfig())
        assert np.allclose(result.scores, [0.5, 0.5])

    def test_weighted_path_matches_dense_solve(self, monkeypatch):
        # 5-node weighted path graph; oracle is the direct linear solve.
        n = 5
        S = np.zeros((n, n))
        weights = [0.9, 0.4, 0.7, 0.2]
        for i, w in enumerate(weights):
            S[i, i + 1] = S[i + 1, i] = w
        h = np.array([0.4, 0.1, 0.2, 0.1, 0.2])
        solve_to(monkeypatch, 1e-14, 10000)
        got = node_ppr(S, h, PPRConfig(alpha=0.85)).scores
        expect = solve_ppr_oracle(transition_matrix(S), h, 0.85)
        assert np.max(np.abs(got - expect)) < 1e-6

    def test_probability_vector_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            W, h = random_graph(rng, max_nodes=32)
            result = node_ppr(W, h, PPRConfig(alpha=0.85))
            assert result.scores.min() >= 0
            assert result.scores.sum() == pytest.approx(1.0, abs=1e-6)

    def test_probability_vector_at_every_iterate(self, monkeypatch):
        # Truncating at an increasing cap exposes each intermediate iterate.
        rng = np.random.default_rng(27)
        W, h = random_graph(rng, max_nodes=16)
        for cap in range(1, 12):
            solve_to(monkeypatch, 1e-30, cap)
            result = node_ppr(W, h, PPRConfig(alpha=0.9))
            assert result.scores.min() >= 0
            assert result.scores.sum() == pytest.approx(1.0, abs=1e-6)

    def test_fixpoint_residual_below_epsilon(self, monkeypatch):
        rng = np.random.default_rng(22)
        solve_to(monkeypatch, 1e-12, 500)
        for _ in range(10):
            W, h = random_graph(rng, max_nodes=32)
            result = node_ppr(W, h, PPRConfig(alpha=0.9))
            assert result.converged and result.residual < 1e-12
            assert fixpoint_residual(W, h, 0.9, result.scores) < 1e-12

    def test_permutation_invariance(self, monkeypatch):
        rng = np.random.default_rng(23)
        W, h = random_graph(rng, max_nodes=24)
        solve_to(monkeypatch, 1e-12, 2000)
        v = node_ppr(W, h, PPRConfig()).scores
        perm = rng.permutation(len(h))
        Wp = W[np.ix_(perm, perm)]
        vp = node_ppr(Wp, h[perm], PPRConfig()).scores
        assert np.allclose(vp, v[perm], atol=1e-9)

    def test_truncation_flagged(self, monkeypatch):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = np.array([0.9, 0.1])
        solve_to(monkeypatch, 1e-30, 3)
        result = node_ppr(S, h, PPRConfig(alpha=0.85))
        assert not result.converged and result.iterations == 3

    def test_oracle_equivalence_random_graphs(self, monkeypatch):
        rng = np.random.default_rng(24)
        solve_to(monkeypatch, 1e-12, 5000)
        for trial in range(20):
            W, h = random_graph(rng, max_nodes=48)
            alpha = [0.3, 0.85, 0.95][trial % 3]
            got = node_ppr(W, h, PPRConfig(alpha=alpha)).scores
            expect = solve_ppr_oracle(transition_matrix(W), h, alpha)
            assert np.max(np.abs(got - expect)) < 1e-6


class TestRank:
    """``top_k``, the rule that ranks the fine stage's tables and picks the
    typical nodes."""

    def test_ties_straddling_cutoff(self):
        # Position i scores index row rows[i]; the ids run against row order,
        # so a tie broken by table_ids[i] would pick c over a and b.
        table_ids = ["z", "e", "y", "d", "x", "c", "w", "b", "v", "a", "f"]
        rows = np.array([1, 3, 5, 7, 9, 10])  # ids e, d, c, b, a, f
        scores = np.array([0.1, 0.3, 0.2, 0.2, 0.2, 0.0])
        assert top_k(scores, rows, table_ids, 3).tolist() == [1, 4, 3]  # d, a, b

    def test_matches_full_sort(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            table_ids = [f"t{i:02d}" for i in rng.permutation(2 * n)]
            rows = np.sort(rng.choice(2 * n, size=n, replace=False))
            scores = rng.integers(0, 4, size=n) / 4.0
            full = sorted(range(n), key=lambda i: (-scores[i], table_ids[rows[i]]))
            for k in range(1, n + 2):
                got = top_k(scores, rows, table_ids, k)
                assert got.dtype == np.int64 and got.tolist() == full[:k]


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

    def test_one_square_buffer(self, handle):
        # K=1 keeps the whole corpus as the union. One n x n float64 array is
        # n^2 * 8 bytes; a second one (such as a transition matrix) would
        # push the peak past 1.5 times that.
        corpus = make_topic_corpus(1000, 4, seed=6)
        ix = build_index(corpus, extract_all(corpus, handle), K=1, k=10, seed=3)
        q = make_topic_query(1, seed=9)
        coarse = coarse_retrieve(q, ix, handle)
        n = len(coarse.union_ids)
        assert n >= 1000
        tracemalloc.start()
        try:
            fine_retrieve(q, coarse, ix, PPRConfig(), tau=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    @pytest.fixture(scope="class")
    def wide_rows(self):
        """K=1 over 400 topic tables at d = 512: a union of 279 distinct sem
        rows, so u x d is more than half of the working set u^2 + u d."""
        h = EmbedderHandle(dimension=512)
        corpus = make_topic_corpus(400, 4, seed=6)
        ix = build_index(corpus, extract_all(corpus, h), K=1, k=10, seed=3)
        q = make_topic_query(1, seed=9)
        return ix, q, coarse_retrieve(q, ix, h)

    def test_one_copy_of_the_rows_at_the_peak(self, wide_rows):
        # W is u^2 floats and the gathered rows u d. The rows are gathered
        # once, read for h, normalized in place and freed before the
        # threshold mask: a second u x d array (a separate unit-row copy)
        # would push the peak to about 1.65 times u^2 + u d floats here.
        ix, q, coarse = wide_rows
        u, d = len(np.unique(ix.sem_group[coarse.union_ids])), ix.sem_rows.shape[1]
        assert (u, d) == (279, 512)  # fixture precondition
        tracemalloc.start()
        try:
            fine_retrieve(q, coarse, ix, PPRConfig(), tau=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * (u * u + u * d) * 8

    def test_index_rows_left_untouched(self, wide_rows):
        # A freshly built index's arrays are writable, so an in-place
        # normalization of anything but the gathered copy would land here.
        ix, q, coarse = wide_rows
        assert ix.sem_rows.flags.writeable  # fixture precondition
        before = ix.sem_rows.copy()
        fine_retrieve(q, coarse, ix, PPRConfig(), tau=0.5)
        assert before.tobytes() == ix.sem_rows.tobytes()

    def test_grouped_buffer_is_under_half_a_square(self, handle):
        # K=1 keeps the whole corpus as the union; its 1,200 tables hold fewer
        # than 600 distinct sem rows, so the u x u weights fit in a quarter of
        # an n x n array. A full-size weight matrix alone would break the bound.
        # The returned result holds no u x u array: W is freed on return.
        corpus = make_topic_corpus(1200, 3, seed=6)
        ix = build_index(corpus, extract_all(corpus, handle), K=1, k=10, seed=3)
        q = make_topic_query(1, seed=9)
        coarse = coarse_retrieve(q, ix, handle)
        n = len(coarse.union_ids)
        assert n >= 1000
        u = len(duplicate_groups(ix.sem[coarse.union_ids]))
        assert u <= n / 2  # fixture precondition
        tracemalloc.start()
        try:
            result = fine_retrieve(q, coarse, ix, PPRConfig(), tau=0.5)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2
        assert result.ranked and held < u * u * 8

    def test_duplicate_rows_match_the_full_graph(self, handle):
        corpus = make_topic_corpus(200, 4, seed=6)
        ix = build_index(corpus, extract_all(corpus, handle), K=1, k=10, seed=3)
        cfg = PPRConfig(top_n=len(corpus))
        coarse, result = retrieve(make_topic_query(0, seed=2), ix, handle, cfg, tau=0.5)
        groups = duplicate_groups(ix.sem)  # K=1: the union is every row, in order
        assert any(len(members) > 1 for members in groups)
        full = node_graph(ix.sem, 0.5)
        raw = node_ppr(full, node_personalization(coarse.query_features.sem, ix.sem), cfg)
        assert np.max(np.abs(result.all_scores - raw.scores)) < 1e-15
        assert all(len(set(result.all_scores[members])) == 1 for members in groups)
        scores = tie_by_group(raw.scores, groups)
        ids = corpus.ids()
        order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
        assert [tid for tid, _ in result.ranked] == [ids[i] for i in order]

    @pytest.mark.parametrize("tau", [0.0, 0.85])
    def test_edges_are_the_ranked_block(self, handle, tau):
        # K=1 keeps every row, and duplicate sem rows put ranked tables in
        # one group, so some edges come from W's diagonal.
        corpus = make_topic_corpus(200, 4, seed=6)
        ix = build_index(corpus, extract_all(corpus, handle), K=1, k=10, seed=3)
        cfg = PPRConfig(top_n=30)
        coarse, result = retrieve(make_topic_query(0, seed=2), ix, handle, cfg, tau=tau)
        union = coarse.union_ids
        reps, group = np.unique(ix.sem_group[union], return_inverse=True)
        weight, edge = node_matrix(grouped_graph(ix.sem_rows[reps], tau, group), group, tau)
        nodes = top_k(result.all_scores, union, ix.table_ids, cfg.top_n)
        pairs = [(a, b) for a in range(len(nodes)) for b in range(a + 1, len(nodes))]
        expect = [(a, b, weight[nodes[a], nodes[b]]) for a, b in pairs if edge[nodes[a], nodes[b]]]
        assert result.edges == expect
        assert all(type(x) is int for a, b, _ in result.edges for x in (a, b))
        assert any(group[nodes[a]] == group[nodes[b]] for a, b, _ in result.edges)  # fixture precondition
        assert 0 < len(result.edges) < len(pairs) or tau == 0.0
        # the same edges as the reference over all rows, weights within 4 ulps
        ref_weights, ref_adjacency = reference_subgraph(ix.sem[union][nodes], tau)
        assert [(a, b) for a, b, _ in result.edges] == [(a, b) for a, b in pairs if ref_adjacency[a, b]]
        assert all(abs(w - ref_weights[a, b]) <= 4 * np.spacing(1.0) for a, b, w in result.edges)

    def test_ranked_nodes_are_the_ranked_tables(self, handle):
        # Ids are shuffled against corpus order, and duplicate sem rows tie,
        # so the ranking must break ties through the ids of the union's rows.
        base = make_topic_corpus(120, 4, seed=6)
        shuffled = np.random.default_rng(1).permutation(len(base))
        corpus = TableCorpus([dataclasses.replace(t, id=f"r{j:03d}") for t, j in zip(base, shuffled)])
        ix = build_index(corpus, extract_all(corpus, handle), K=4, k=10, seed=3)
        coarse, result = retrieve(make_topic_query(0, seed=2), ix, handle, PPRConfig(top_n=20), tau=0.5)
        union, scores = coarse.union_ids, result.all_scores
        assert len(union) < len(corpus)  # fixture precondition: the union is a proper subset
        full = sorted(range(len(union)), key=lambda i: (-scores[i], ix.table_ids[union[i]]))
        assert [tid for tid, _ in result.ranked] == [ix.table_ids[union[i]] for i in full[:20]]
        assert [s for _, s in result.ranked] == scores[full[:20]].tolist()
        # fixture precondition: breaking ties by position would rank otherwise
        assert full[:20] != sorted(range(len(union)), key=lambda i: (-scores[i], i))[:20]

    def test_low_alpha_matches_cosine_ranking(self, handle):
        corpus, q = make_angle_corpus(20)
        h = type(handle)(dimension=512)
        feats = extract_all(corpus, h)
        qv = embed_semantic([linearize_query(q)], h)[0]
        cos = {t.id: representative_score(sem, qv) for t, sem in zip(corpus, feats.sem)}
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
        assert len(result.ranked) == min(5, len(result.all_scores))

    def test_first_query_on_a_loaded_index_sorts_no_rows(self, handle, tmp_path, monkeypatch):
        # The file carries the sem grouping, so the first query neither sorts
        # the embeddings nor builds the full (n, d) array.
        corpus = make_topic_corpus(200, 4, seed=6)
        path = tmp_path / "ix.bin"
        save_index(build_index(corpus, extract_all(corpus, handle), K=1, k=10, seed=3), path)
        ix = load_index(path)
        assert len(ix.sem_rows) < len(ix)  # fixture precondition: some rows repeat

        def refuse(*args, **kwargs):
            raise AssertionError("the query path sorted the rows or read ix.sem")

        monkeypatch.setattr(index, "_sorted_runs", refuse)
        monkeypatch.setattr(HypergraphIndex, "sem", property(refuse))
        _, result = retrieve(make_topic_query(0, seed=2), ix, handle, PPRConfig(top_n=30))
        assert len(result.ranked) == 30 and result.edges

    def test_deterministic(self, handle):
        corpus = make_topic_corpus(30, 3, seed=5)
        feats = extract_all(corpus, handle)
        ix = build_index(corpus, feats, K=3, k=10, seed=3)
        q = Query(id="q", text="tp2c01 tp2c02", task_type=TaskType.SINGLE_HOP)
        _, r1 = retrieve(q, ix, handle, PPRConfig(top_n=8), tau=0.4)
        _, r2 = retrieve(q, ix, handle, PPRConfig(top_n=8), tau=0.4)
        assert r1.ranked == r2.ranked


# Ranks 30 queries on a 600-table corpus and prints the top-10 ids as JSON.
_RANK_SCRIPT = """
import json
from conftest import make_topic_corpus, make_topic_query
from tablerank import EmbedderHandle, PPRConfig, build_index, extract_all, retrieve
handle = EmbedderHandle(dimension=128, batch_limit=512)
corpus = make_topic_corpus(600, 3, seed=11)
ix = build_index(corpus, extract_all(corpus, handle), K=2, k=20, seed=1)
queries = [make_topic_query(i % 3, seed=i) for i in range(30)]
print(json.dumps([[tid for tid, _ in retrieve(q, ix, handle, PPRConfig(top_n=10), tau=0.5)[1].ranked]
                  for q in queries]))
"""


def test_top_n_ids_agree_across_blas_thread_counts():
    # The Gram matrix's rounding, and so the all_scores bits, can move with
    # the BLAS thread count; on this fixture they do, and the ranking must not.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    ranked = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _RANK_SCRIPT], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        ranked.append(json.loads(proc.stdout))
    assert len(ranked[0]) == 30 and all(len(ids) == 10 for ids in ranked[0])
    assert ranked[0] == ranked[1]
