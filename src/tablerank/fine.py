"""Fine-grained retrieval over the coarse candidates.

The candidate tables become a pairwise weighted graph: nodes in ascending
index-position order, an edge wherever the semantic cosine of two tables
clears the threshold tau (negative cosines clamp to 0 first, so weights stay
in [tau, 1]). Personalized PageRank biased toward the query then ranks the
nodes:

    v <- (1 - alpha) * h + alpha * P^T v,   v0 = h

where P is the row-normalized similarity matrix. Rows with no outgoing
weight teleport to h (not to uniform), so the walk keeps its query bias; this
also keeps the effective transition matrix row-stochastic and v a probability
vector at every step. Iteration stops when the L1 step difference drops
below epsilon, or at max_iter with the result flagged truncated.

A query allocates two n x n float64 arrays: the weight matrix W, built in
place from the Gram matrix of the unit sem rows, and P^T for the iteration.
numpy computes ``unit @ unit.T`` with a symmetric rank-k update, so the Gram
matrix, and with it W, is bitwise symmetric. Hence P^T = W / s[None, :] (s the
row sums of W) equals the transpose of W / s[:, None] bit for bit, and no
transpose copy is needed.

Only semantic features participate here; the other families already did
their work during coarse filtering.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coarse import CoarseResult, coarse_retrieve
from .corpus import Query
from .features import EmbedderHandle
from .index import HypergraphIndex

DEFAULT_ALPHA = 0.85
DEFAULT_EPSILON = 1e-8
DEFAULT_MAX_ITER = 100
DEFAULT_TOP_N = 10

STAGE_COARSE = "Coarse-grained"
STAGE_FINE = "Fine-grained"


@dataclass(frozen=True)
class PPRConfig:
    alpha: float = DEFAULT_ALPHA
    epsilon: float = DEFAULT_EPSILON
    max_iter: int = DEFAULT_MAX_ITER
    top_n: int = DEFAULT_TOP_N

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not 0.0 < self.epsilon < math.inf:  # also refuses NaN
            raise ValueError("epsilon must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.top_n < 1:
            raise ValueError("top_n must be at least 1")


@dataclass
class LocalSubgraph:
    """Candidate nodes plus thresholded pairwise semantic weights.

    ``weights`` is the dense, bitwise-symmetric matrix with a zero diagonal.
    Edge presence follows from it and ``tau``: every off-diagonal pair is an
    edge at tau = 0, where a clamped negative cosine gives a weight-0 edge;
    above 0, exactly the pairs with a positive weight are edges.
    """

    node_ids: list[str]
    weights: np.ndarray
    tau: float

    def __len__(self) -> int:
        return len(self.node_ids)

    def has_edge(self, i, j):
        """Edge presence between positions i and j; ints or broadcastable
        index arrays."""
        return (i != j) & ((self.tau == 0.0) | (self.weights[i, j] > 0.0))


@dataclass
class PPRResult:
    scores: np.ndarray
    iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        return not self.converged


@dataclass
class RetrievalResult:
    ranked: list[tuple[str, float]]
    subgraph: LocalSubgraph
    timings: dict[str, float]
    all_scores: np.ndarray
    iterations: int
    converged: bool
    zero_scores_in_ranked: bool


def build_local_subgraph(node_ids: list[str], sem_rows: np.ndarray, tau: float) -> LocalSubgraph:
    """Pairwise semantic graph over the candidates, thresholded at tau.

    ``sem_rows[i]`` is the sem vector of ``node_ids[i]``; node order is kept.
    Edge (i, j) exists iff the clamped cosine of their sem vectors is >= tau;
    isolated nodes are fine. The weights are built in one buffer.
    """
    if len(node_ids) == 0:
        raise ValueError("cannot build a subgraph from zero candidates")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    sem = np.asarray(sem_rows, dtype=np.float64)
    norms = np.linalg.norm(sem, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = sem / safe[:, None]
    weights = unit @ unit.T  # bitwise symmetric: numpy computes it with syrk
    np.clip(weights, 0.0, None, out=weights)
    weights[weights < tau] = 0.0
    np.fill_diagonal(weights, 0.0)
    return LocalSubgraph(node_ids=list(node_ids), weights=weights, tau=tau)


def personalization(q_sem: np.ndarray, sem_rows: np.ndarray) -> np.ndarray:
    """Query-biased start distribution: normalized non-negative semantic
    scores of ``q_sem`` against each row; uniform if every score clamps to
    zero."""
    q = np.asarray(q_sem, dtype=np.float64)
    sem = np.asarray(sem_rows, dtype=np.float64)
    qn = np.linalg.norm(q)
    norms = np.linalg.norm(sem, axis=1)
    scores = np.zeros(sem.shape[0])
    if qn > 0:
        nz = norms > 0
        scores[nz] = (sem[nz] @ q) / (norms[nz] * qn)
    np.clip(scores, 0.0, None, out=scores)
    total = scores.sum()
    if total <= 0.0:
        return np.full(sem.shape[0], 1.0 / sem.shape[0])
    return scores / total


def ppr(W: np.ndarray, h: np.ndarray, cfg: PPRConfig) -> PPRResult:
    """Iterate personalized PageRank to the L1 tolerance.

    W is the symmetric, non-negative weight matrix; P is W row-normalized.
    Since W equals its transpose bit for bit, P^T is W divided column-wise by
    the row sums, built in a second buffer; W itself is left untouched.
    All-zero (dangling) rows send their mass to h. The returned scores always
    sum to 1 up to floating error.
    """
    W = np.asarray(W, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    row_sums = W.sum(axis=1)
    dangling = row_sums == 0.0
    PT = W / np.where(dangling, 1.0, row_sums)[None, :]
    v = h.copy()
    residuals: list[float] = []
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        dangling_mass = float(v[dangling].sum()) if dangling.any() else 0.0
        v_next = (1.0 - cfg.alpha) * h + cfg.alpha * (PT @ v + dangling_mass * h)
        residual = float(np.abs(v_next - v).sum())
        residuals.append(residual)
        v = v_next
        if residual < cfg.epsilon:
            converged = True
            break
    return PPRResult(scores=v, iterations=it, converged=converged, residuals=residuals)


def _rank(node_ids: list[str], scores: np.ndarray, top_n: int) -> list[tuple[str, float]]:
    """The top_n nodes by (-score, id). Only the nodes scoring at least the
    top_n-th largest score are sorted."""
    m = min(top_n, len(node_ids))
    kth = np.partition(scores, len(scores) - m)[len(scores) - m]
    head = np.flatnonzero(scores >= kth).tolist()
    order = sorted(head, key=lambda i: (-scores[i], node_ids[i]))[:m]
    return [(node_ids[i], float(scores[i])) for i in order]


def fine_retrieve(
    q: Query,
    coarse: CoarseResult,
    ix: HypergraphIndex,
    cfg: PPRConfig,
    tau: float = 0.5,
) -> RetrievalResult:
    """Subgraph + PPR over the coarse union; deterministic given index and config."""
    if len(coarse.union_ids) == 0:
        raise ValueError("coarse result has no candidate tables")
    if coarse.query_features is None:
        raise ValueError("coarse result does not carry query features")
    t0 = time.perf_counter()
    sem_rows = ix.sem[coarse.union_ids]
    g = build_local_subgraph([ix.table_ids[i] for i in coarse.union_ids], sem_rows, tau)
    h = personalization(coarse.query_features.sem, sem_rows)
    result = ppr(g.weights, h, cfg)
    elapsed = time.perf_counter() - t0
    ranked = _rank(g.node_ids, result.scores, cfg.top_n)
    return RetrievalResult(
        ranked=ranked,
        subgraph=g,
        timings={STAGE_FINE: elapsed},
        all_scores=result.scores,
        iterations=result.iterations,
        converged=result.converged,
        zero_scores_in_ranked=any(s == 0.0 for _, s in ranked),
    )


def retrieve(
    q: Query,
    ix: HypergraphIndex,
    h: EmbedderHandle,
    cfg: PPRConfig | None = None,
    tau: float = 0.5,
) -> tuple[CoarseResult, RetrievalResult]:
    """Full coarse-to-fine pipeline for one query, with per-stage timings."""
    cfg = cfg or PPRConfig()
    t0 = time.perf_counter()
    coarse = coarse_retrieve(q, ix, h)
    coarse_dt = time.perf_counter() - t0
    result = fine_retrieve(q, coarse, ix, cfg, tau)
    result.timings[STAGE_COARSE] = coarse_dt
    return coarse, result
