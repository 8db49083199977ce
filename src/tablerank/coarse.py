"""Coarse-grained retrieval: pick one cluster per feature family, union them.

For each family, the query is scored against every cluster's typical nodes;
the cluster with the highest mean cosine wins. Means within TIE_ULPS units in
the last place of the largest |mean| count as tied, and the lowest tied
cluster index wins, so the choice does not hang on rounding. That mean comes
from the cluster's mean unit-normalized typical vector, which the index
build computes and the index file stores (``ClusterFamily.typical_means``),
so a query costs one (K, dim) product per family rather than a pass over
every typical node. The candidate set handed to fine-grained retrieval
is the union of the three winning clusters, which typically discards the
bulk of the corpus while keeping the relevant region from three
complementary viewpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .corpus import Query
from .errors import DimensionMismatch
from .features import (
    EmbedderHandle,
    NodeFeatures,
    embed_semantic,
    extract_structural,
    standardize_struct,
    token_ids,
    tokenize,
)
from .index import FAMILY_TYPES, ClusterFamily, HypergraphIndex
from .linearize import linearize_query

# Clusters that share one typical vector but differ in typical count have
# mean cosines a few ulps apart; 8 ulps of max |means| covers that spread.
TIE_ULPS = 8


@dataclass
class CoarseResult:
    """``union_ids`` holds the candidates as sorted int64 index positions
    (rows of the ``HypergraphIndex``), not table ids."""

    per_family_choice: dict[str, int]
    union_ids: np.ndarray
    retained_fraction: float
    query_features: NodeFeatures = field(repr=False)


def query_features(q: Query, ix: HypergraphIndex, h: EmbedderHandle) -> NodeFeatures:
    """Featurize a query exactly the way the indexed tables were.

    The struct vector comes back already projected through the index's stored
    standardization so it is directly comparable with node vectors; sem and
    heur are raw (cosine is scale-invariant). The text goes through the
    corpus featurizers as a batch of one.
    """
    if h.dimension != ix.params["embedder_dimension"]:
        raise DimensionMismatch(ix.params["embedder_dimension"], h.dimension)
    texts = [linearize_query(q)]
    tok = token_ids([tokenize(texts[0])])
    sem = embed_semantic(texts, h, tok)[0]
    struct = standardize_struct(extract_structural(texts)[0], ix.struct_mean, ix.struct_std)
    heur = ix.vectorizer.matrix(tok)
    return NodeFeatures(sem=sem, struct=struct, heur=heur)


def assign_cluster(v: np.ndarray | sparse.csr_matrix, family: ClusterFamily) -> tuple[int, list[float]]:
    """Mean typical-node cosine per cluster of the query's vector ``v`` in
    ``family``'s feature type; returns (argmax index, all means).

    The mean of cluster j's typical cosines to the query v equals
    ``M[j] @ v / |v|``, where ``M = family.typical_means`` holds each
    cluster's mean unit-normalized typical vector, so a query costs one
    (K, dim) product per family. A zero query scores 0 everywhere. Means
    within ``TIE_ULPS * np.spacing(max |means|)`` of the best are tied, and the
    smallest tied cluster index wins.
    """
    if sparse.issparse(v):
        v = v.toarray().ravel()
    v_norm = np.linalg.norm(v)
    if v_norm == 0.0:
        means = np.zeros(family.n_clusters)
    else:
        m = family.typical_means
        # Not a BLAS product for dense m: gemv may round a row differently by
        # its position, which would split an exact tie between identical rows.
        dots = m @ v if sparse.issparse(m) else np.einsum("ij,j->i", m, v)
        means = dots / v_norm
    bound = TIE_ULPS * np.spacing(np.abs(means).max())
    best = int(np.argmax(means >= means.max() - bound))  # first tied index
    return best, means.tolist()


def coarse_retrieve(
    q: Query, ix: HypergraphIndex, h: EmbedderHandle, qf: NodeFeatures | None = None
) -> CoarseResult:
    """Per-family cluster choice and the multi-way union of their members.

    ``qf`` lets callers reuse already-computed query features; by default the
    query is featurized here.
    """
    if qf is None:
        qf = query_features(q, ix, h)
    choices: dict[str, int] = {}
    in_union = np.zeros(len(ix), dtype=bool)
    for phi in FAMILY_TYPES:
        family = ix.families[phi]
        best, _ = assign_cluster(getattr(qf, phi), family)
        choices[phi] = best
        in_union |= family.assignments == best
    union = np.flatnonzero(in_union)
    return CoarseResult(
        per_family_choice=choices,
        union_ids=union,
        retained_fraction=len(union) / len(ix),
        query_features=qf,
    )
