"""Index set-up: corpus featurization, per-family k-means, typical means.

Each feature type (sem / struct / heur) is clustered independently with
k-means; a cluster is a hyperedge grouping its member tables, and the three
cluster families together form the heterogeneous hypergraph. Each cluster's
"typical" members -- the top-k nodes by cosine to the centroid, ties by
table id (``top_k``, which also ranks the fine stage) -- stand in for the
whole cluster at query time. Coarse retrieval reads a cluster only through
its typical mean: the mean of its L2-normalized typical rows in score space
(raw sem and heur rows, standardized struct rows). ``build_index`` picks the
typical members and computes each family's (K, dim) matrix of typical means
once; the index keeps the means, and neither the typical lists nor the
per-table struct and TF-IDF rows, which no query reads.

Clustering spaces: sem and heur rows are L2-normalized (Euclidean there is
monotone with cosine); struct rows are z-scored per column because the raw
counts live on wildly different scales. The standardization stats are kept
in the index so queries can be projected into the same space.

Tables often share an embedding, so ``build_index`` groups the sem rows
bitwise once (``_group_rows``) and the index keeps each distinct row once.

This is the only module that imports scipy: the corpus's TF-IDF rows are a
CSR matrix here, and k-means, typical selection and the typical means are
sparse products. A process that only loads an index and answers queries
never imports it. A build is byte-deterministic for a fixed corpus and seed
on one machine type and BLAS kernel: the k-means distances are BLAS
products, which another OpenBLAS kernel can round differently
(docs/FORMATS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .corpus import TableCorpus
from .errors import EmbedderUnavailable, KTooLarge
from .features import (
    EmbedderHandle,
    HeuristicVectorizer,
    SparseRows,
    _row_sq_norms,
    cosines,
    embed_semantic,
    extract_structural,
    fit_heuristic,
    row_norms,
    standardize_struct,
    struct_stats,
    token_ids,
    tokenize,
    unit_rows,
)
from .index import (
    DEFAULT_CLUSTERS,
    DEFAULT_TYPICAL,
    FAMILY_TYPES,
    ClusterFamily,
    HypergraphIndex,
    _retain_freed_memory,
    _sorted_runs,
    corpus_digest,
    top_k,
)
from .linearize import linearize

KMEANS_MAX_ITER = 100  # Lloyd sweeps per k-means restart
KMEANS_RESTARTS = 10   # seeded restarts per k-means run


@dataclass
class CorpusFeatures:
    """The three feature views of a whole corpus; row i belongs to the
    corpus's i-th table."""

    sem: np.ndarray               # (n, d) embeddings
    struct: np.ndarray            # (n, STRUCT_DIM) raw counts
    heur: sparse.csr_matrix       # (n, V) tf-idf rows
    vectorizer: HeuristicVectorizer  # fitted over the corpus; V = vectorizer.size


def extract_all(corpus: TableCorpus, h: EmbedderHandle) -> CorpusFeatures:
    """Compute all three feature views for every table, in corpus order.

    Each linearized table is tokenized once, and only the token ids are
    kept (``token_ids``): the builtin embedding, the vocabulary, the idf
    weights and the tf-idf rows all come from them. The tf-idf rows become
    one CSR matrix for k-means. Any embedding failure aborts the build,
    naming the first table of the failed batch.
    """
    ordered = list(corpus)
    sequences = [linearize(t) for t in ordered]
    tok = token_ids(tokenize(seq) for seq in sequences)
    vectorizer = fit_heuristic(tok)
    try:
        sem = embed_semantic(sequences, h, tok)
    except EmbedderUnavailable as exc:
        at = exc.batch_start or 0
        tid = ordered[at].id if at < len(ordered) else "?"
        raise EmbedderUnavailable(
            exc.endpoint, f"{exc.cause} (first table of failed batch: {tid})", exc.batch_start
        ) from exc
    heur = vectorizer.matrix(tok)
    return CorpusFeatures(
        sem=sem,
        struct=extract_structural(sequences),
        heur=sparse.csr_matrix((heur.data, heur.indices, heur.indptr), shape=heur.shape),
        vectorizer=vectorizer,
    )


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, group): ``firsts`` holds the first position of each distinct
    row, ascending, and ``group[i]`` (int32) the index in ``firsts`` of row
    i's first position, so ``rows[firsts][group]`` equals ``rows`` bitwise
    and group ids appear in first-occurrence order."""
    order, starts = _sorted_runs(rows)
    firsts = order[starts]  # each run's lowest position
    by_position = np.argsort(firsts)
    run_group = np.empty(len(firsts), dtype=np.int32)
    run_group[by_position] = np.arange(len(firsts), dtype=np.int32)
    group = np.empty(len(order), dtype=np.int32)
    group[order] = run_group[np.cumsum(starts) - 1]
    return firsts[by_position], group


def _row(x, i: int) -> np.ndarray:
    """Row i as a dense 1-D float64 array. A CSR row's entries are added in
    storage order into +0.0, as ``x[i].todense()`` does, without its
    overhead. (``bincount`` of no entries gives integer zeros.)"""
    if sparse.issparse(x):
        s, e = x.indptr[i], x.indptr[i + 1]
        row = np.bincount(x.indices[s:e], weights=x.data[s:e], minlength=x.shape[1])
        return row.astype(np.float64, copy=False)
    return x[i]


def _sq_dists_to(x, x2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n, K). x may be sparse; ``x2`` is
    ``_row_sq_norms(x)``, computed once per ``kmeans`` call by the caller."""
    c2 = np.einsum("ij,ij->i", centers, centers)
    d2 = x2[:, None] + c2[None, :] - 2.0 * (x @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _plus_plus_init(x, x2: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    dim = x.shape[1]
    centers = np.zeros((k, dim), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = _row(x, first)
    d2 = _sq_dists_to(x, x2, centers[:1])[:, 0]
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = _row(x, idx)
        nd2 = _sq_dists_to(x, x2, centers[j : j + 1])[:, 0]
        np.minimum(d2, nd2, out=d2)
    return centers


def _means_with_repair(x, x2: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Cluster means; empty clusters absorb the point farthest from its own
    centroid (mutates ``assign``).

    All K means come from one product ``w @ x``, where row j of the (K, n)
    CSR weight matrix ``w`` holds cluster j's members in ascending row order.
    That product is bitwise equal to the per-cluster ``x[members].mean(axis=0)``:
    both start from +0.0 and add a cluster's members one at a time in
    ascending row order. For dense rows the weights are an exact 1.0 and the
    sums are then divided by the counts, as numpy's ``mean`` does. For sparse
    rows the weights are ``1/count``, because scipy's sparse ``mean`` scales
    every entry by 1/n before it sums. (One corner differs: numpy sums a
    single-column dense array pairwise, not in order.)
    """
    n = x.shape[0]
    counts = np.bincount(assign, minlength=k)
    members = np.argsort(assign, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(counts)))
    if sparse.issparse(x):
        w = sparse.csr_matrix((1.0 / np.repeat(counts, counts), members, indptr), shape=(k, n))
        centers = (w @ x).toarray()
    else:
        w = sparse.csr_matrix((np.ones(n), members, indptr), shape=(k, n))
        centers = w @ x
        filled = counts > 0
        centers[filled] /= counts[filled, None]
    empties = np.flatnonzero(counts == 0)
    if empties.size:
        d_own = _sq_dists_to(x, x2, centers)[np.arange(n), assign]
        for j in empties:
            donor_ok = counts[assign] >= 2
            if not donor_ok.any():
                donor_ok = np.ones(n, dtype=bool)
            masked = np.where(donor_ok, d_own, -np.inf)
            i = int(np.argmax(masked))
            counts[assign[i]] -= 1
            assign[i] = j
            counts[j] = 1
            centers[j] = _row(x, i)
            d_own[i] = 0.0
    return centers


def _typical_nodes(space, result: KMeansResult, table_ids: Sequence[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, ptr), both int32: cluster j's typical nodes are
    ``positions[ptr[j]:ptr[j + 1]]``, its k members (all, if fewer) of highest
    cosine to its centroid in the clustering ``space``, best first, ties by
    table id (``top_k``)."""
    norms = row_norms(space)
    typical = []
    for j, centroid in enumerate(result.centroids):
        pos = np.flatnonzero(result.assignments == j)
        scores = cosines(space[pos], norms[pos], centroid)
        typical.append(pos[top_k(scores, pos, table_ids, k)])
    return np.concatenate(typical).astype(np.int32), np.cumsum([0] + [len(t) for t in typical], dtype=np.int32)


def _typical_means(rows, positions: np.ndarray, ptr: np.ndarray) -> np.ndarray | SparseRows:
    """(K, dim) matrix whose row j is the mean of cluster j's L2-normalized
    typical rows, ``rows[positions[ptr[j]:ptr[j + 1]]]``: dense for dense
    rows, the ``SparseRows`` of a CSR product for CSR rows, each of its rows
    in the product's storage order. A zero row adds nothing.

    One sparse weight matrix, 1 / (norm * size) per typical row, times the
    rows, so no row is gathered or copied. The mean cosine of cluster j's
    typical rows to a query v is then ``means[j] @ v / |v|``.
    """
    sizes = np.diff(ptr)
    norms = row_norms(rows)[positions]
    denom = norms * np.repeat(sizes, sizes)
    weights = np.divide(1.0, denom, out=np.zeros(len(positions)), where=norms > 0)
    w = sparse.csr_matrix((weights, positions, ptr), shape=(len(sizes), rows.shape[0]))
    means = w @ rows
    if sparse.issparse(means):
        return SparseRows(means.data, means.indices, means.indptr, means.shape)
    return means


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    n_iter: int
    objective_history: list[float]
    converged: bool


def _lloyd(vectors, x2: np.ndarray, K: int, rng: np.random.Generator) -> KMeansResult:
    n = vectors.shape[0]
    centers = _plus_plus_init(vectors, x2, K, rng)
    assign = np.argmin(_sq_dists_to(vectors, x2, centers), axis=1)

    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, KMEANS_MAX_ITER + 1):
        centers = _means_with_repair(vectors, x2, assign, K)
        d2 = _sq_dists_to(vectors, x2, centers)
        new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        del d2  # freed before the next sweep computes its own
        if np.array_equal(new_assign, assign):
            converged = True
            break
        assign = new_assign

    if not converged:
        # Truncated: make sure the reported clustering is still repair-clean.
        centers = _means_with_repair(vectors, x2, assign, K)
    return KMeansResult(
        assignments=assign.astype(np.int64),
        centroids=centers,
        n_iter=it,
        objective_history=history,
        converged=converged,
    )


def kmeans(vectors, K: int, seed: int) -> KMeansResult:
    """Lloyd's algorithm with seeded ++-style init.

    Deterministic for a given seed. Runs KMEANS_RESTARTS independent seeded
    restarts and keeps the one with the lowest final objective (first on
    ties). Each restart stops when its assignments reach a fixpoint or after
    KMEANS_MAX_ITER sweeps; the returned assignment never leaves a cluster
    empty. The row norms are computed once here and shared by every restart.
    """
    n = vectors.shape[0]
    if K > n:
        raise KTooLarge(K, n)
    if K < 1:
        raise ValueError("K must be at least 1")
    values = vectors.data if sparse.issparse(vectors) else vectors
    if not np.isfinite(values).all():
        raise ValueError("k-means input holds a non-finite value")
    x2 = _row_sq_norms(vectors)
    best: KMeansResult | None = None
    for child in np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS):
        result = _lloyd(vectors, x2, K, np.random.default_rng(child))
        if best is None or result.objective_history[-1] < best.objective_history[-1]:
            best = result
    return best


def build_index(
    corpus: TableCorpus,
    features: CorpusFeatures,
    K: int = DEFAULT_CLUSTERS,
    k: int = DEFAULT_TYPICAL,
    seed: int = 0,
) -> HypergraphIndex:
    """Cluster every feature family and assemble the persistent index.

    ``features`` holds one row per table in corpus order, as ``extract_all``
    returns them. Every family gets K clusters; its clustering runs
    KMEANS_RESTARTS seeded restarts, keeping the best objective. A family's
    clustering space is made just before its k-means, and the sem and heur
    unit rows are dropped once the family's typical nodes are chosen, so no
    two families' unit rows are alive at once; the standardized struct rows
    stay for the struct means. The sem rows are grouped after the
    clustering, and copied only if some row repeats; then each family's
    typical means are computed, the sem family's from the distinct rows
    through the grouping. Like ``load_index``, it tunes the allocator
    (``_retain_freed_memory``).
    """
    table_ids = corpus.ids()
    sem = np.asarray(features.sem, dtype=np.float64)
    struct_raw = np.asarray(features.struct, dtype=np.float64)
    heur = features.heur
    # The fitted vectorizer travels with the index so queries embed identically.
    vectorizer = features.vectorizer
    rows = {"sem": sem.shape[0], "struct": struct_raw.shape[0], "heur": heur.shape[0]}
    if any(r != len(table_ids) for r in rows.values()):
        raise ValueError(f"feature rows {rows} do not match the corpus's {len(table_ids)} tables")
    if heur.shape[1] != vectorizer.size:
        raise ValueError(
            f"heur matrix has {heur.shape[1]} columns but the vectorizer has {vectorizer.size} terms"
        )
    if k < 1:
        raise ValueError("typical-node count k must be at least 1")
    _retain_freed_memory()

    mean, std = struct_stats(struct_raw)
    struct_z = standardize_struct(struct_raw, mean, std)  # kept: the struct means are taken from it

    K = int(K)
    clusterings = {}
    for fam_idx, phi in enumerate(FAMILY_TYPES):
        child_seed = int(np.random.SeedSequence([seed, fam_idx]).generate_state(1)[0])
        space = struct_z if phi == "struct" else unit_rows(sem if phi == "sem" else heur)
        result = kmeans(space, K, seed=child_seed)
        clusterings[phi] = (result, _typical_nodes(space, result, table_ids, k))
        del space  # one family's unit rows alive at a time
    firsts, sem_group = _group_rows(sem)
    sem_rows = sem if len(firsts) == len(sem) else sem[firsts]

    families: dict[str, ClusterFamily] = {}
    for phi, (result, (positions, ptr)) in clusterings.items():
        if phi == "sem":
            means = _typical_means(sem_rows, sem_group[positions], ptr)
        else:
            means = _typical_means(struct_z if phi == "struct" else heur, positions, ptr)
        families[phi] = ClusterFamily(
            assignments=result.assignments,
            typical_means=means,
            n_iter=result.n_iter,
            converged=result.converged,
            objective=result.objective_history[-1],
        )

    return HypergraphIndex(
        params={"K": K, "embedder_dimension": sem.shape[1], "seed": seed, "typical_k": k},
        corpus_digest=corpus_digest(corpus),
        table_ids=table_ids,
        sem_rows=sem_rows,
        sem_group=sem_group,
        struct_mean=mean,
        struct_std=std,
        vectorizer=vectorizer,
        families=families,
    )
