"""Coarse-grained retrieval: pick one cluster per feature family, union them.

For each family, the query is scored against every cluster's typical nodes;
the cluster with the highest mean score wins (ties go to the lower cluster
index). The candidate set handed to fine-grained retrieval is the union of
the three winning clusters, which typically discards the bulk of the corpus
while keeping the relevant region from three complementary viewpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Query
from .errors import DimensionMismatch
from .features import (
    EmbedderHandle,
    NodeFeatures,
    embed_semantic,
    extract_structural,
    scores_to_vector,
    standardize_struct,
)
from .index import FAMILY_TYPES, ClusterFamily, HypergraphIndex
from .linearize import linearize_query


@dataclass
class CoarseResult:
    """``union_ids`` holds the candidates as sorted int64 index positions
    (rows of the ``HypergraphIndex``), not table ids."""

    per_family_choice: dict[str, int]
    union_ids: np.ndarray
    per_family_mean_scores: dict[str, list[float]]
    retained_fraction: float
    corpus_size: int
    query_features: NodeFeatures | None = field(default=None, repr=False)


def query_features(q: Query, ix: HypergraphIndex, h: EmbedderHandle) -> NodeFeatures:
    """Featurize a query exactly the way the indexed tables were.

    The struct vector comes back already projected through the index's stored
    standardization so it is directly comparable with node vectors; sem and
    heur are raw (cosine is scale-invariant).
    """
    if h.dimension != ix.params.embedder_dimension:
        raise DimensionMismatch(ix.params.embedder_dimension, h.dimension)
    text = linearize_query(q)
    sem = embed_semantic([text], h)[0]
    struct = standardize_struct(extract_structural(text), ix.struct_mean, ix.struct_std)
    heur = ix.vectorizer.transform(text)
    return NodeFeatures(sem=sem, struct=struct, heur=heur)


def assign_cluster(
    qf: NodeFeatures, family: ClusterFamily, ix: HypergraphIndex
) -> tuple[int, list[float]]:
    """Mean typical-node score per cluster; returns (argmax index, all means).

    Ties break toward the smaller cluster index. Every cluster is non-empty
    by construction, so the mean is always defined.
    """
    sizes = np.array([len(t) for t in family.typical])
    rows = ix.score_space_rows(family.feature_type, np.concatenate(family.typical))
    scores = scores_to_vector(rows, getattr(qf, family.feature_type))
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    means = np.add.reduceat(scores, starts) / sizes
    best = int(np.argmax(means))  # first occurrence wins: smallest index on ties
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
    mean_scores: dict[str, list[float]] = {}
    in_union = np.zeros(len(ix), dtype=bool)
    for phi in FAMILY_TYPES:
        family = ix.families[phi]
        best, means = assign_cluster(qf, family, ix)
        choices[phi] = best
        mean_scores[phi] = means
        in_union |= family.assignments == best
    union = np.flatnonzero(in_union)
    return CoarseResult(
        per_family_choice=choices,
        union_ids=union,
        per_family_mean_scores=mean_scores,
        retained_fraction=len(union) / len(ix),
        corpus_size=len(ix),
        query_features=qf,
    )
