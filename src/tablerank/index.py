"""Hypergraph memory index: per-feature-type clustering over the corpus.

Each feature type (sem / struct / heur) is clustered independently with
k-means; a cluster is a hyperedge grouping its member tables, and the three
cluster families together form the heterogeneous hypergraph. Each cluster
also records its "typical" members -- the top-k nodes by cosine to the
centroid -- which stand in for the whole cluster at query time.

Clustering spaces: sem and heur rows are L2-normalized (Euclidean there is
monotone with cosine); struct rows are z-scored per column because the raw
counts live on wildly different scales. The standardization stats are stored
in the index so queries can be projected into the same space.

The on-disk container (format version 1) is a small binary envelope:
magic, format version, header length, a sorted-keys JSON header (params,
digests, table ids, vocabulary, typical lists, array manifest), then the raw
little-endian arrays in manifest order. Builds are byte-deterministic for a
fixed corpus and seed. Layout details in docs/FORMATS.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy import sparse

from .corpus import TableCorpus, table_record_bytes
from .errors import IOFailure, KTooLarge, VersionMismatch
from .features import (
    STRUCT_DIM,
    HeuristicVectorizer,
    NodeFeatures,
    scores_to_vector,
    standardize_struct,
    struct_stats,
)

INDEX_FORMAT_VERSION = 1
_MAGIC = b"TRKHGIDX"

FAMILY_TYPES = ("sem", "struct", "heur")

DEFAULT_CLUSTERS = 10
DEFAULT_TYPICAL = 100


def _row_sq_norms(x) -> np.ndarray:
    if sparse.issparse(x):
        return np.asarray(x.multiply(x).sum(axis=1)).ravel()
    return np.einsum("ij,ij->i", x, x)


def _row(x, i: int) -> np.ndarray:
    if sparse.issparse(x):
        return np.asarray(x[i].todense()).ravel()
    return np.asarray(x[i]).ravel()


def _sq_dists_to(x, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n, K). x may be sparse."""
    x2 = _row_sq_norms(x)
    c2 = np.einsum("ij,ij->i", centers, centers)
    cross = x @ centers.T
    if sparse.issparse(cross):
        cross = cross.toarray()
    cross = np.asarray(cross)
    d2 = x2[:, None] + c2[None, :] - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def _plus_plus_init(x, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    dim = x.shape[1]
    centers = np.zeros((k, dim), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = _row(x, first)
    d2 = _sq_dists_to(x, centers[:1])[:, 0]
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = _row(x, idx)
        nd2 = _sq_dists_to(x, centers[j : j + 1])[:, 0]
        np.minimum(d2, nd2, out=d2)
    return centers


def _means_with_repair(x, assign: np.ndarray, k: int) -> np.ndarray:
    """Cluster means; empty clusters absorb the point farthest from its own
    centroid (mutates ``assign``)."""
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
        d_own = _sq_dists_to(x, centers)[np.arange(n), assign]
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


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    n_iter: int
    objective_history: list[float]
    converged: bool


def _lloyd(vectors, K: int, rng: np.random.Generator, max_iter: int) -> KMeansResult:
    n = vectors.shape[0]
    centers = _plus_plus_init(vectors, K, rng)
    assign = np.argmin(_sq_dists_to(vectors, centers), axis=1)

    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        centers = _means_with_repair(vectors, assign, K)
        d2 = _sq_dists_to(vectors, centers)
        new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            converged = True
            break
        assign = new_assign

    if not converged:
        # Truncated: make sure the reported clustering is still repair-clean.
        centers = _means_with_repair(vectors, assign, K)
    return KMeansResult(
        assignments=assign.astype(np.int64),
        centroids=centers,
        n_iter=it,
        objective_history=history,
        converged=converged,
    )


def kmeans(vectors, K: int, seed: int, max_iter: int = 100, n_init: int = 1) -> KMeansResult:
    """Lloyd's algorithm with seeded ++-style init.

    Deterministic for a given seed. Stops when assignments reach a fixpoint
    or after max_iter sweeps; the returned assignment never leaves a cluster
    empty. With n_init > 1, independent seeded restarts run and the one with
    the lowest final objective wins (first on ties).
    """
    n = vectors.shape[0]
    if K > n:
        raise KTooLarge(K, n)
    if K < 1:
        raise ValueError("K must be at least 1")
    if n_init < 1:
        raise ValueError("n_init must be at least 1")
    best: KMeansResult | None = None
    for child in np.random.SeedSequence(seed).spawn(n_init):
        result = _lloyd(vectors, K, np.random.default_rng(child), max_iter)
        if best is None or result.objective_history[-1] < best.objective_history[-1]:
            best = result
    return best


@dataclass
class ClusterFamily:
    """One hyperedge family: the K clusters of a single feature type.

    ``assignments[i]`` is the cluster of index row i; ``typical[j]`` holds the
    index rows of cluster j's typical nodes, best first.
    """

    feature_type: str
    assignments: np.ndarray
    centroids: np.ndarray
    typical: list[np.ndarray]

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


@dataclass
class IndexParams:
    k_per_family: dict[str, int]
    typical_k: int
    seed: int
    embedder_dimension: int
    struct_dimension: int
    vocab_digest: str

    def to_json(self) -> dict:
        return {
            "embedder_dimension": self.embedder_dimension,
            "k_per_family": dict(sorted(self.k_per_family.items())),
            "seed": self.seed,
            "struct_dimension": self.struct_dimension,
            "typical_k": self.typical_k,
            "vocab_digest": self.vocab_digest,
        }

    @classmethod
    def from_json(cls, d: dict) -> "IndexParams":
        return cls(
            k_per_family=dict(d["k_per_family"]),
            typical_k=int(d["typical_k"]),
            seed=int(d["seed"]),
            embedder_dimension=int(d["embedder_dimension"]),
            struct_dimension=int(d["struct_dimension"]),
            vocab_digest=str(d["vocab_digest"]),
        )


@dataclass
class HypergraphIndex:
    format_version: int
    params: IndexParams
    corpus_digest: str
    source_tag: str
    table_ids: list[str]
    sem: np.ndarray            # (n, d) raw embeddings
    struct_raw: np.ndarray     # (n, STRUCT_DIM) raw counts
    struct_mean: np.ndarray
    struct_std: np.ndarray
    heur: sparse.csr_matrix    # (n, V) raw tf-idf rows
    vectorizer: HeuristicVectorizer
    families: dict[str, ClusterFamily]

    def __post_init__(self):
        self._struct_z: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.table_ids)

    def struct_z(self) -> np.ndarray:
        if self._struct_z is None:
            self._struct_z = standardize_struct(self.struct_raw, self.struct_mean, self.struct_std)
        return self._struct_z

    def score_space_rows(self, feature_type: str, positions: np.ndarray | None = None):
        """Node vectors in the space cosine scores are computed in."""
        if feature_type == "sem":
            src = self.sem
        elif feature_type == "heur":
            src = self.heur
        elif feature_type == "struct":
            src = self.struct_z()
        else:
            raise ValueError(f"unknown feature type {feature_type!r}")
        return src if positions is None else src[positions]

    def equals(self, other: "HypergraphIndex") -> bool:
        if (
            self.format_version != other.format_version
            or self.params.to_json() != other.params.to_json()
            or self.corpus_digest != other.corpus_digest
            or self.table_ids != other.table_ids
        ):
            return False
        if not (
            np.array_equal(self.sem, other.sem)
            and np.array_equal(self.struct_raw, other.struct_raw)
            and np.array_equal(self.struct_mean, other.struct_mean)
            and np.array_equal(self.struct_std, other.struct_std)
            and np.array_equal(self.vectorizer.idf, other.vectorizer.idf)
            and self.vectorizer.vocabulary == other.vectorizer.vocabulary
        ):
            return False
        if (self.heur != other.heur).nnz != 0:
            return False
        for phi in FAMILY_TYPES:
            a, b = self.families[phi], other.families[phi]
            if (
                not np.array_equal(a.assignments, b.assignments)
                or not np.array_equal(a.centroids, b.centroids)
                or not all(np.array_equal(x, y) for x, y in zip(a.typical, b.typical))
            ):
                return False
        return True


def _l2_normalize_rows(x):
    norms = np.sqrt(_row_sq_norms(x))
    if sparse.issparse(x):
        inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
        return sparse.diags(inv) @ x
    out = x.copy()
    nz = norms > 0
    out[nz] = out[nz] / norms[nz, None]
    return out


def corpus_digest(corpus: TableCorpus) -> str:
    h = hashlib.sha256()
    for t in corpus:
        h.update(table_record_bytes(t))
        h.update(b"\n")
    return h.hexdigest()


def vocabulary_digest(vectorizer: HeuristicVectorizer) -> str:
    tokens = sorted(vectorizer.vocabulary, key=vectorizer.vocabulary.get)
    return hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


def build_index(
    corpus: TableCorpus,
    features: Mapping[str, NodeFeatures],
    K: int = DEFAULT_CLUSTERS,
    k: int = DEFAULT_TYPICAL,
    seed: int = 0,
    k_per_family: Mapping[str, int] | None = None,
    max_iter: int = 100,
    n_init: int = 10,
) -> HypergraphIndex:
    """Cluster every feature family and assemble the persistent index.

    ``k_per_family`` optionally overrides the cluster count of individual
    families (experimental); every family defaults to K. Each family's
    clustering runs n_init seeded restarts, keeping the best objective.
    """
    table_ids = corpus.ids()
    missing = [tid for tid in table_ids if tid not in features]
    if missing:
        raise ValueError(f"features missing for tables: {missing[:5]}")
    if k < 1:
        raise ValueError("typical-node count k must be at least 1")

    sem = np.vstack([np.asarray(features[tid].sem, dtype=np.float64) for tid in table_ids])
    struct_raw = np.vstack([np.asarray(features[tid].struct, dtype=np.float64) for tid in table_ids])
    heur = sparse.vstack([features[tid].heur for tid in table_ids]).tocsr()
    heur.sort_indices()

    mean, std = struct_stats(struct_raw)
    spaces = {
        "sem": _l2_normalize_rows(sem),
        "struct": standardize_struct(struct_raw, mean, std),
        "heur": _l2_normalize_rows(heur),
    }

    ks = {phi: int((k_per_family or {}).get(phi, K)) for phi in FAMILY_TYPES}
    families: dict[str, ClusterFamily] = {}
    for fam_idx, phi in enumerate(FAMILY_TYPES):
        child_seed = int(np.random.SeedSequence([seed, fam_idx]).generate_state(1)[0])
        result = kmeans(spaces[phi], ks[phi], seed=child_seed, max_iter=max_iter, n_init=n_init)
        typical: list[np.ndarray] = []
        for j in range(ks[phi]):
            pos = np.flatnonzero(result.assignments == j)
            scores = scores_to_vector(spaces[phi][pos], result.centroids[j])
            # Top-k by cosine to the centroid; ties break on table id.
            order = sorted(range(len(pos)), key=lambda i: (-scores[i], table_ids[pos[i]]))
            typical.append(pos[order[:k]])
        families[phi] = ClusterFamily(
            feature_type=phi,
            assignments=result.assignments,
            centroids=result.centroids,
            typical=typical,
        )

    # The fitted vectorizer travels with the index so queries embed identically.
    vectorizer = _vectorizer_from_features(features)

    params = IndexParams(
        k_per_family=ks,
        typical_k=k,
        seed=seed,
        embedder_dimension=sem.shape[1],
        struct_dimension=STRUCT_DIM,
        vocab_digest=vocabulary_digest(vectorizer),
    )
    return HypergraphIndex(
        format_version=INDEX_FORMAT_VERSION,
        params=params,
        corpus_digest=corpus_digest(corpus),
        source_tag=corpus.source_tag,
        table_ids=table_ids,
        sem=sem,
        struct_raw=struct_raw,
        struct_mean=mean,
        struct_std=std,
        heur=heur,
        vectorizer=vectorizer,
        families=families,
    )


def _vectorizer_from_features(features) -> HeuristicVectorizer:
    # extract_all returns a FeatureMap carrying its fitted vectorizer.
    vec = getattr(features, "vectorizer", None)
    if isinstance(vec, HeuristicVectorizer):
        return vec
    raise ValueError(
        "feature map does not carry its fitted vectorizer; "
        "use features.extract_all or wrap the mapping in features.FeatureMap"
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_index(ix: HypergraphIndex, path: str | Path) -> None:
    """Write the versioned binary container. Byte-deterministic."""
    vocab_tokens = sorted(ix.vectorizer.vocabulary, key=ix.vectorizer.vocabulary.get)
    arrays: list[tuple[str, np.ndarray]] = [
        ("sem", np.ascontiguousarray(ix.sem, dtype="<f8")),
        ("struct_raw", np.ascontiguousarray(ix.struct_raw, dtype="<f8")),
        ("struct_mean", np.ascontiguousarray(ix.struct_mean, dtype="<f8")),
        ("struct_std", np.ascontiguousarray(ix.struct_std, dtype="<f8")),
        ("idf", np.ascontiguousarray(ix.vectorizer.idf, dtype="<f8")),
        ("heur_data", np.ascontiguousarray(ix.heur.data, dtype="<f8")),
        ("heur_indices", np.ascontiguousarray(ix.heur.indices, dtype="<i8")),
        ("heur_indptr", np.ascontiguousarray(ix.heur.indptr, dtype="<i8")),
    ]
    for phi in FAMILY_TYPES:
        fam = ix.families[phi]
        arrays.append((f"assign_{phi}", np.ascontiguousarray(fam.assignments, dtype="<i8")))
        arrays.append((f"centroids_{phi}", np.ascontiguousarray(fam.centroids, dtype="<f8")))

    header = {
        "arrays": [{"dtype": a.dtype.str, "name": name, "shape": list(a.shape)} for name, a in arrays],
        "corpus_digest": ix.corpus_digest,
        "doc_count": ix.vectorizer.doc_count,
        "families": {
            phi: {"typical": [[ix.table_ids[p] for p in t] for t in ix.families[phi].typical]}
            for phi in FAMILY_TYPES
        },
        "format_version": ix.format_version,
        "params": ix.params.to_json(),
        "source_tag": ix.source_tag,
        "table_ids": ix.table_ids,
        "vocabulary": vocab_tokens,
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")

    p = Path(path)
    try:
        with p.open("wb") as f:
            f.write(_MAGIC)
            f.write(np.uint32(ix.format_version).tobytes())
            f.write(np.uint64(len(header_bytes)).tobytes())
            f.write(header_bytes)
            for _, arr in arrays:
                f.write(arr.tobytes())
    except OSError as exc:
        raise IOFailure(f"cannot write {p}: {exc}") from exc


def load_index(path: str | Path) -> HypergraphIndex:
    p = Path(path)
    try:
        blob = p.read_bytes()
    except OSError as exc:
        raise IOFailure(f"cannot read {p}: {exc}") from exc
    if len(blob) < len(_MAGIC) + 12 or blob[: len(_MAGIC)] != _MAGIC:
        raise IOFailure(f"{p} is not an index file")
    off = len(_MAGIC)
    version = int(np.frombuffer(blob, dtype="<u4", count=1, offset=off)[0])
    off += 4
    if version != INDEX_FORMAT_VERSION:
        raise VersionMismatch(version, INDEX_FORMAT_VERSION)
    header_len = int(np.frombuffer(blob, dtype="<u8", count=1, offset=off)[0])
    off += 8
    if off + header_len > len(blob):
        raise IOFailure(f"{p} is truncated (header)")
    try:
        header = json.loads(blob[off : off + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IOFailure(f"{p} has a corrupt header: {exc}") from exc
    off += header_len
    if not header.get("corpus_digest"):
        raise IOFailure(f"{p} lacks a corpus digest; refusing to load")

    arrs: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * dtype.itemsize
        if off + nbytes > len(blob):
            raise IOFailure(f"{p} is truncated (array {entry['name']})")
        arrs[entry["name"]] = np.frombuffer(blob, dtype=dtype, count=count, offset=off).reshape(shape).copy()
        off += nbytes

    vocab_tokens = header["vocabulary"]
    vectorizer = HeuristicVectorizer(
        vocabulary={tok: i for i, tok in enumerate(vocab_tokens)},
        idf=arrs["idf"],
        doc_count=int(header["doc_count"]),
    )
    table_ids = list(header["table_ids"])
    heur = sparse.csr_matrix(
        (arrs["heur_data"], arrs["heur_indices"], arrs["heur_indptr"]),
        shape=(len(table_ids), len(vocab_tokens)),
    )
    pos = {tid: i for i, tid in enumerate(table_ids)}
    families: dict[str, ClusterFamily] = {}
    for phi in FAMILY_TYPES:
        try:
            typical = [
                np.array([pos[tid] for tid in t], dtype=np.int64)
                for t in header["families"][phi]["typical"]
            ]
        except KeyError as exc:
            raise IOFailure(f"{p} lists typical node {exc} that is not an indexed table") from exc
        families[phi] = ClusterFamily(
            feature_type=phi,
            assignments=arrs[f"assign_{phi}"],
            centroids=arrs[f"centroids_{phi}"],
            typical=typical,
        )
    return HypergraphIndex(
        format_version=version,
        params=IndexParams.from_json(header["params"]),
        corpus_digest=header["corpus_digest"],
        source_tag=header.get("source_tag", ""),
        table_ids=table_ids,
        sem=arrs["sem"],
        struct_raw=arrs["struct_raw"],
        struct_mean=arrs["struct_mean"],
        struct_std=arrs["struct_std"],
        heur=heur,
        vectorizer=vectorizer,
        families=families,
    )
