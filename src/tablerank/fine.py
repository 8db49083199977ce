"""Fine-grained retrieval over the coarse candidates.

The candidate tables become a pairwise weighted graph: nodes in ascending
index-position order, an edge wherever the semantic cosine of two tables
clears the threshold tau (negative cosines clamp to 0 first, so weights stay
in [tau, 1]). Personalized PageRank biased toward the query then ranks the
nodes. Its scores v are the fixpoint of

    v = (1 - alpha) * h + alpha * (P^T v + mu(v) * h)

where P is the row-normalized weight matrix and mu(v) is the mass on
dangling nodes (rows with no weight), which teleports to h rather than to
uniform, so the walk keeps its query bias.

The dangling term only adds multiples of h, so v is x / sum(x) for the
solution x of (I - alpha * W D^-1) x = h, D the diagonal of row sums of W.
Writing x = D^1/2 y turns that into

    (I - alpha * D^-1/2 W D^-1/2) y = D^-1/2 h,

a symmetric positive definite system with eigenvalues in
[1 - alpha, 1 + alpha]. ``ppr`` solves it by conjugate gradients from
x = h, so the iteration count is bounded by the condition number
(1 + alpha) / (1 - alpha) rather than by the walk's mixing. Dangling rows and
columns of W are zero, so their scale is 1 and they pass through as x_i = h_i.

Tables with bitwise-identical sem rows are interchangeable nodes, and their
exact scores are equal. ``fine_retrieve`` therefore groups the n candidates
by sem row, through the index's ``sem_group``, before the graph is built: u
distinct rows, group a holding m_a nodes. The weight matrix W is u x u:
W_ab is the weight between any member of group a and any member of group b,
and the diagonal W_aa the weight between two distinct members of group a (0
for a singleton, which has none).
For a vector z that is constant on each group, the node-level product and
row sums are

    (W_node z)_a = sum_b m_b W_ab z_b - W_aa z_a,
    d_a = sum_b m_b W_ab - W_aa,

and inner products over the n nodes weight each group by m_a. Conjugate
gradients from x = h stay among such vectors, so ``ppr`` runs the n-node
solve with u-vectors and a u x u matrix: the same iterates in exact
arithmetic, the same iteration count and residual. Members of a group get
their group's score, and ``index.top_k`` ranks node i, index row
``union_ids[i]``, by (-score, table id). With every node in its own group
(m = 1), W is the plain n x n weight matrix with a zero diagonal.

A query's working set is one copy of the u distinct rows (u x d float64)
and one u x u float64 array, W. ``fine_retrieve`` gathers the rows once,
reads the start vector h from them, divides them by their norms in place
and forms their Gram matrix; the rows are then freed, and
``build_local_subgraph`` thresholds the Gram matrix in place into W. So the
peak is the larger of W plus the rows and W plus the threshold's u x u
boolean mask. The solve needs only products of W with a vector. The result
keeps only W's block among the ranked nodes, from which the prompt's graph
records are read, so W is freed when ``fine_retrieve`` returns.

Only semantic features participate here; the other families already did
their work during coarse filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coarse import CoarseResult, coarse_retrieve
from .corpus import Query
from .features import EmbedderHandle, cosines, row_norms, unit_rows
from .index import HypergraphIndex, top_k

DEFAULT_ALPHA = 0.85
DEFAULT_TOP_N = 10
DEFAULT_TAU = 0.5

PPR_EPSILON = 1e-8  # bound on the returned scores' fixpoint residual
PPR_MAX_ITER = 100  # products with W per solve


@dataclass(frozen=True)
class PPRConfig:
    """PPR settings: the damping ``alpha`` and the number of ranked tables
    ``top_n``. The solver's tolerance and cap are the module constants
    ``PPR_EPSILON`` and ``PPR_MAX_ITER``, which ``ppr`` reads at call time."""

    alpha: float = DEFAULT_ALPHA
    top_n: int = DEFAULT_TOP_N

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.top_n < 1:
            raise ValueError("top_n must be at least 1")


@dataclass
class PPRResult:
    scores: np.ndarray
    iterations: int
    converged: bool
    residual: float


@dataclass
class RetrievalResult:
    """The top-n (table id, score) pairs, best first; ``all_scores`` holds
    every node's score. ``weights`` is the graph's weight block among the
    ranked tables, entry (a, b) between ranks a and b, and ``edges`` lists
    the edges among them as (rank a, rank b, weight) with a < b, in
    row-major order: the pairs of weight >= ``tau``, which is every pair at
    ``tau`` = 0 and the positive weights above it. ``edges`` is built on its
    first read."""

    ranked: list[tuple[str, float]]
    all_scores: np.ndarray
    iterations: int
    converged: bool
    weights: np.ndarray = field(repr=False)
    tau: float

    @cached_property
    def edges(self) -> list[tuple[int, int, float]]:
        a, b = np.nonzero(np.triu(self.weights >= self.tau, 1))
        return list(zip(a.tolist(), b.tolist(), self.weights[a, b].tolist()))


def build_local_subgraph(gram: np.ndarray, tau: float, group: np.ndarray) -> np.ndarray:
    """Pairwise semantic graph over the candidates, thresholded at tau: the
    weight matrix W, made in place from ``gram`` and returned.

    ``gram`` is ``unit @ unit.T`` for ``unit = unit_rows(sem_rows)``, the
    unit rows of the distinct sem rows, and node i has sem row
    ``sem_rows[group[i]]``. The caller forms it, so the unit rows can be
    freed before the threshold mask is made: the mask's u x u bytes are
    the only allocation here. W is the dense, bitwise-symmetric u x u group
    matrix: entry (a, b) is the weight between any member of group a and
    any member of group b, the clamped cosine of their sem rows where it is
    >= tau and 0 elsewhere; the diagonal is the weight between two distinct
    members of one group (0 for a singleton).
    Every pair of distinct nodes is an edge at tau = 0, where a clamped
    negative cosine gives a weight-0 edge; above 0, exactly the pairs with a
    positive weight are edges. Isolated nodes are fine.
    """
    if len(group) == 0:
        raise ValueError("cannot build a subgraph from zero candidates")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    np.clip(gram, 0.0, None, out=gram)
    gram *= gram >= tau
    singletons = np.flatnonzero(np.bincount(group, minlength=len(gram)) == 1)
    gram[singletons, singletons] = 0.0
    return gram


def personalization(q_sem: np.ndarray, sem_rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Query-biased start distribution: normalized non-negative semantic
    scores of ``q_sem`` against each row; uniform over the nodes if every
    score clamps to zero. Row a stands for sizes[a] nodes, and the node
    values sum to 1: ``(h * sizes).sum() == 1``. It allocates only u-vectors
    (norms, dot products, scores), no copy of the rows, so
    ``fine_retrieve`` can hand it the query's one gathered copy before
    normalizing that copy in place."""
    q = np.asarray(q_sem, dtype=np.float64)
    sem = np.asarray(sem_rows, dtype=np.float64)
    m = np.asarray(sizes, dtype=np.float64)
    scores = cosines(sem, row_norms(sem), q)
    np.clip(scores, 0.0, None, out=scores)
    total = (scores * m).sum()
    if total <= 0.0:
        return np.full(sem.shape[0], 1.0 / m.sum())
    return scores / total


def ppr(W: np.ndarray, h: np.ndarray, cfg: PPRConfig, sizes: np.ndarray) -> PPRResult:
    """Personalized PageRank of the symmetric, non-negative group matrix W
    and the probability vector h, by conjugate gradients (see the module
    docstring); W is left untouched.

    Entry a of W, h and the scores stands for sizes[a] nodes that share one
    value, and W is a group matrix as ``build_local_subgraph`` returns it:
    the solve is that of the node graph, and h and the scores sum to 1 over
    nodes, ``(scores * sizes).sum() == 1``. With every size 1 and a zero
    diagonal, W is the node graph itself.

    Each pass first measures the current iterate's fixpoint residual, the L1
    distance one power-iteration step would move the normalized scores, and
    stops once it is below ``PPR_EPSILON``; otherwise it takes one CG step,
    one product with W, up to ``PPR_MAX_ITER`` products, after which it
    returns ``converged=False``. ``iterations`` counts those products. The
    scores are the iterate clipped at 0 and normalized, so they sum to 1
    even when truncated.
    """
    W = np.asarray(W, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    m = np.asarray(sizes, dtype=np.float64)
    own = W.diagonal()  # weight to a fellow member
    # The node-level row sums; for singletons the correction is exactly 0.
    row_sums = W.sum(axis=1) + (W @ (m - 1.0) - own)
    scale = np.sqrt(np.where(row_sums > 0.0, row_sums, 1.0))  # x = scale * y

    def apply(y: np.ndarray) -> np.ndarray:
        z = y / scale
        return y - cfg.alpha * (W @ (m * z) - own * z) / scale

    b = h / scale
    y = b.copy()
    r = b - apply(y)
    p = r.copy()
    rr = float((m * r) @ r)
    it = 1
    while True:
        x = scale * y
        # With rho = scale * r, the residual of (I - alpha W D^-1) x = h, one
        # power step moves x / sum(x) by exactly (rho - sum(rho) h) / sum(x).
        rho = scale * r
        moved = np.abs(rho - (m * rho).sum() * h)
        residual = float((m * moved).sum() / (m * x).sum())
        if residual < PPR_EPSILON or it == PPR_MAX_ITER:
            break
        Ap = apply(p)
        step = rr / float((m * p) @ Ap)
        y += step * p
        r -= step * Ap
        rr_next = float((m * r) @ r)
        p = r + (rr_next / rr) * p
        rr = rr_next
        it += 1
    np.clip(x, 0.0, None, out=x)
    return PPRResult(
        scores=x / (m * x).sum(), iterations=it, converged=residual < PPR_EPSILON, residual=residual
    )


def fine_retrieve(
    q: Query,
    coarse: CoarseResult,
    ix: HypergraphIndex,
    cfg: PPRConfig,
    tau: float = DEFAULT_TAU,
) -> RetrievalResult:
    """Subgraph + PPR over the coarse union, one group per distinct sem row.

    At a fixed BLAS thread count the result is bit-identical for a given
    index and config. Across thread counts the Gram matrix's rounding moves,
    so the ``all_scores`` bits differ; the ranked ids agreed in every check
    so far, though an edge within rounding of tau or a near-tie in scores
    could still flip.
    """
    if len(coarse.union_ids) == 0:
        raise ValueError("coarse result has no candidate tables")
    union = coarse.union_ids
    reps, group, sizes = np.unique(ix.sem_group[union], return_inverse=True, return_counts=True)
    rows = ix.sem_rows[reps]  # the query's one u x d array: read for h, then made unit in place
    h = personalization(coarse.query_features.sem, rows, sizes)
    unit_rows(rows, out=rows)
    gram = rows @ rows.T  # bitwise symmetric: numpy computes it with syrk
    del rows  # freed before the threshold mask is made
    W = build_local_subgraph(gram, tau, group)
    result = ppr(W, h, cfg, sizes)
    scores = result.scores[group]
    nodes = top_k(scores, union, ix.table_ids, cfg.top_n)
    ranked = [(ix.table_ids[union[i]], float(scores[i])) for i in nodes]
    ranked_groups = group[nodes]
    weights = W[np.ix_(ranked_groups, ranked_groups)]
    return RetrievalResult(
        ranked=ranked,
        all_scores=scores,
        iterations=result.iterations,
        converged=result.converged,
        weights=weights,
        tau=tau,
    )


def retrieve(
    q: Query,
    ix: HypergraphIndex,
    h: EmbedderHandle,
    cfg: PPRConfig | None = None,
    tau: float = DEFAULT_TAU,
) -> tuple[CoarseResult, RetrievalResult]:
    """Full coarse-to-fine pipeline for one query."""
    coarse = coarse_retrieve(q, ix, h)
    return coarse, fine_retrieve(q, coarse, ix, cfg or PPRConfig(), tau)
