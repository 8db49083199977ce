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

The on-disk container (format version 2) is a fixed preamble (magic,
format version, header length, sha256 of the file without the digest), a
sorted-keys JSON header (params, digests, table ids, vocabulary, per-family
k-means report), then the raw little-endian arrays, each on a 64-byte
boundary. Every integer array is int32. ``load_index`` reads the file into
one read-only buffer, checks the digest and every structural invariant, and
hands out views of that buffer, so nothing is copied and a stray write into
a loaded index raises. Builds are byte-deterministic for a fixed corpus and
seed. Layout details in docs/FORMATS.md.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy import sparse

from .corpus import TableCorpus, table_record_bytes
from .errors import IOFailure, KTooLarge, VersionMismatch
from .features import (
    STRUCT_DIM,
    CorpusFeatures,
    HeuristicVectorizer,
    scores_to_vector,
    standardize_struct,
    struct_stats,
)

INDEX_FORMAT_VERSION = 2
_MAGIC = b"TRKHGIDX"
_DIGEST_AT = len(_MAGIC) + 4 + 8    # magic, format version (<u4), header length (<u8)
_PREAMBLE = _DIGEST_AT + 32         # ... then the sha256 digest
_ALIGN = 64
_INT32 = np.iinfo(np.int32)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters

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


def _sq_dists_to(x, x2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n, K). x may be sparse; ``x2`` is
    ``_row_sq_norms(x)``, computed once per ``kmeans`` call by the caller."""
    c2 = np.einsum("ij,ij->i", centers, centers)
    cross = x @ centers.T
    if sparse.issparse(cross):
        cross = cross.toarray()
    cross = np.asarray(cross)
    d2 = x2[:, None] + c2[None, :] - 2.0 * cross
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


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    n_iter: int
    objective_history: list[float]
    converged: bool


def _lloyd(vectors, x2: np.ndarray, K: int, rng: np.random.Generator, max_iter: int) -> KMeansResult:
    n = vectors.shape[0]
    centers = _plus_plus_init(vectors, x2, K, rng)
    assign = np.argmin(_sq_dists_to(vectors, x2, centers), axis=1)

    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        centers = _means_with_repair(vectors, x2, assign, K)
        d2 = _sq_dists_to(vectors, x2, centers)
        new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
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


def kmeans(vectors, K: int, seed: int, max_iter: int = 100, n_init: int = 1) -> KMeansResult:
    """Lloyd's algorithm with seeded ++-style init.

    Deterministic for a given seed. Stops when assignments reach a fixpoint
    or after max_iter sweeps; the returned assignment never leaves a cluster
    empty. With n_init > 1, independent seeded restarts run and the one with
    the lowest final objective wins (first on ties). The row norms are
    computed once here and shared by every restart.
    """
    n = vectors.shape[0]
    if K > n:
        raise KTooLarge(K, n)
    if K < 1:
        raise ValueError("K must be at least 1")
    if n_init < 1:
        raise ValueError("n_init must be at least 1")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    values = vectors.data if sparse.issparse(vectors) else vectors
    if not np.isfinite(values).all():
        raise ValueError("k-means input holds a non-finite value")
    x2 = _row_sq_norms(vectors)
    best: KMeansResult | None = None
    for child in np.random.SeedSequence(seed).spawn(n_init):
        result = _lloyd(vectors, x2, K, np.random.default_rng(child), max_iter)
        if best is None or result.objective_history[-1] < best.objective_history[-1]:
            best = result
    return best


@dataclass
class ClusterFamily:
    """One hyperedge family: the K clusters of a single feature type.

    ``assignments[i]`` is the cluster of index row i; ``typical[j]`` holds the
    index rows of cluster j's typical nodes, best first. ``n_iter``,
    ``converged`` and ``objective`` report the winning k-means restart.
    ``typical_means`` is derived from ``typical`` and the index rows by
    ``HypergraphIndex.typical_means`` on first use; it is never persisted.
    """

    feature_type: str
    assignments: np.ndarray
    typical: list[np.ndarray]
    n_iter: int
    converged: bool
    objective: float
    typical_means: np.ndarray | sparse.csr_matrix | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_clusters(self) -> int:
        return len(self.typical)


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
        self._sem_leaders: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.table_ids)

    def struct_z(self) -> np.ndarray:
        if self._struct_z is None:
            self._struct_z = standardize_struct(self.struct_raw, self.struct_mean, self.struct_std)
        return self._struct_z

    def sem_leaders(self) -> np.ndarray:
        """(n,) int64: for each row, the lowest position whose sem row is
        bitwise equal to it (so -0.0 and 0.0 differ). Built once by sorting
        the rows' 64-bit words lexicographically and comparing adjacent
        sorted rows one column at a time; kept in memory only."""
        if self._sem_leaders is None:
            words = np.ascontiguousarray(self.sem, dtype="<f8").view(np.uint64)
            order = np.lexsort(words.T)  # stable: equal rows stay in position order
            starts = np.zeros(len(order), dtype=bool)
            starts[:1] = True
            for col in words.T:
                sorted_col = col[order]
                starts[1:] |= sorted_col[1:] != sorted_col[:-1]
            first = order[starts]
            leaders = np.empty(len(order), dtype=np.int64)
            leaders[order] = first[np.cumsum(starts) - 1]
            self._sem_leaders = leaders
        return self._sem_leaders

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

    def typical_means(self, feature_type: str):
        """(K, dim) matrix whose row j is the mean of cluster j's L2-normalized
        typical rows in score space: dense for sem/struct, CSR for heur.

        The mean cosine of cluster j's typical rows to a query v is then
        ``typical_means[j] @ v / |v|``; a zero row counts as cosine 0. Built
        once per family as a sparse (K, n) weight matrix times the rows, so no
        row is gathered or copied, and kept on the family in memory only.
        """
        fam = self.families[feature_type]
        if fam.typical_means is None:
            rows = self.score_space_rows(feature_type)
            positions = np.concatenate(fam.typical)
            sizes = np.array([len(t) for t in fam.typical])
            norms = np.sqrt(_row_sq_norms(rows))[positions]
            denom = norms * np.repeat(sizes, sizes)
            weights = np.divide(1.0, denom, out=np.zeros(len(positions)), where=norms > 0)
            indptr = np.concatenate(([0], np.cumsum(sizes)))
            w = sparse.csr_matrix((weights, positions, indptr), shape=(len(sizes), len(self)))
            fam.typical_means = w @ rows
        return fam.typical_means


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
    features: CorpusFeatures,
    K: int = DEFAULT_CLUSTERS,
    k: int = DEFAULT_TYPICAL,
    seed: int = 0,
    k_per_family: Mapping[str, int] | None = None,
    max_iter: int = 100,
    n_init: int = 10,
) -> HypergraphIndex:
    """Cluster every feature family and assemble the persistent index.

    ``features`` holds one row per table in corpus order, as ``extract_all``
    returns them. ``k_per_family`` optionally overrides the cluster count of
    individual families (experimental); every family defaults to K. Each
    family's clustering runs n_init seeded restarts, keeping the best
    objective.
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
            typical=typical,
            n_iter=result.n_iter,
            converged=result.converged,
            objective=result.objective_history[-1],
        )

    params = IndexParams(
        k_per_family=ks,
        typical_k=k,
        seed=seed,
        embedder_dimension=sem.shape[1],
        struct_dimension=STRUCT_DIM,
        vocab_digest=vocabulary_digest(vectorizer),
    )
    return HypergraphIndex(
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


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


_KMEANS_REPORT = {"converged": bool, "n_iter": int, "objective": float}
_HEADER_SCHEMA = {
    "corpus_digest": str,
    "doc_count": int,
    "families": {phi: {"kmeans": _KMEANS_REPORT, "n_typical": int} for phi in FAMILY_TYPES},
    "heur_nnz": int,
    "params": {
        "embedder_dimension": int,
        "k_per_family": {phi: int for phi in FAMILY_TYPES},
        "seed": int,
        "struct_dimension": int,
        "typical_k": int,
        "vocab_digest": str,
    },
    "source_tag": str,
    "table_ids": [str],
    "vocabulary": [str],
}


def _layout(header: dict) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, dtype, shape) of every array in file order; the shapes follow
    from the header's n, d, V, nnz, K and typical counts."""
    n, V = len(header["table_ids"]), len(header["vocabulary"])
    params = header["params"]
    nnz = header["heur_nnz"]
    layout = [
        ("sem", "<f8", (n, params["embedder_dimension"])),
        ("struct_raw", "<f8", (n, STRUCT_DIM)),
        ("struct_mean", "<f8", (STRUCT_DIM,)),
        ("struct_std", "<f8", (STRUCT_DIM,)),
        ("idf", "<f8", (V,)),
        ("heur_data", "<f8", (nnz,)),
        ("heur_indices", "<i4", (nnz,)),
        ("heur_indptr", "<i4", (n + 1,)),
    ]
    for phi in FAMILY_TYPES:
        layout += [
            (f"assign_{phi}", "<i4", (n,)),
            (f"typical_{phi}", "<i4", (header["families"][phi]["n_typical"],)),
            (f"typical_ptr_{phi}", "<i4", (params["k_per_family"][phi] + 1,)),
        ]
    return layout


def _digest(blob) -> bytes:
    """sha256 of an index file with its digest field left out."""
    h = hashlib.sha256(blob[:_DIGEST_AT])
    h.update(blob[_PREAMBLE:])
    return h.digest()


def save_index(ix: HypergraphIndex, path: str | Path) -> None:
    """Write the versioned binary container. Byte-deterministic.

    Raises ``IOFailure`` before writing anything if an integer array holds a
    value outside int32. The digest is updated array by array as the file is
    written, so the file is never assembled in memory.
    """
    p = Path(path)
    values = {
        "sem": ix.sem,
        "struct_raw": ix.struct_raw,
        "struct_mean": ix.struct_mean,
        "struct_std": ix.struct_std,
        "idf": ix.vectorizer.idf,
        "heur_data": ix.heur.data,
        "heur_indices": ix.heur.indices,
        "heur_indptr": ix.heur.indptr,
    }
    families = {}
    for phi in FAMILY_TYPES:
        fam = ix.families[phi]
        values[f"assign_{phi}"] = fam.assignments
        values[f"typical_{phi}"] = np.concatenate(fam.typical)
        values[f"typical_ptr_{phi}"] = np.cumsum([0] + [len(t) for t in fam.typical])
        families[phi] = {
            "kmeans": {"converged": bool(fam.converged), "n_iter": int(fam.n_iter),
                       "objective": float(fam.objective)},
            "n_typical": len(values[f"typical_{phi}"]),
        }
    header = {
        "corpus_digest": ix.corpus_digest,
        "doc_count": ix.vectorizer.doc_count,
        "families": families,
        "heur_nnz": int(ix.heur.nnz),
        "params": ix.params.to_json(),
        "source_tag": ix.source_tag,
        "table_ids": ix.table_ids,
        "vocabulary": sorted(ix.vectorizer.vocabulary, key=ix.vectorizer.vocabulary.get),
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")

    arrays = []
    for name, dtype, shape in _layout(header):
        a = np.asarray(values[name])
        if dtype == "<i4" and a.size and (a.min() < _INT32.min or a.max() > _INT32.max):
            raise IOFailure(f"cannot write {p}: {name} holds a value outside int32")
        a = np.ascontiguousarray(a, dtype=dtype)
        if a.shape != shape:
            raise ValueError(f"index array {name} has shape {a.shape}, expected {shape}")
        arrays.append(a)

    h = hashlib.sha256()
    try:
        with p.open("wb") as f:
            def put(chunk) -> None:
                h.update(chunk)
                f.write(chunk)

            put(_MAGIC + np.uint32(INDEX_FORMAT_VERSION).tobytes() + np.uint64(len(header_bytes)).tobytes())
            f.write(bytes(_PREAMBLE - _DIGEST_AT))  # the digest, filled in last
            put(header_bytes)
            at = _PREAMBLE + len(header_bytes)
            for a in arrays:
                put(bytes(-at % _ALIGN))
                put(a)
                at += -at % _ALIGN + a.nbytes
            f.seek(_DIGEST_AT)
            f.write(h.digest())
    except OSError as exc:
        raise IOFailure(f"cannot write {p}: {exc}") from exc


def _check_schema(value, schema, where: str) -> None:
    """``value`` has exactly ``schema``'s keys and types (a bool is not an
    int), and no integer in it is negative."""
    if isinstance(schema, dict):
        if not isinstance(value, dict) or set(value) != set(schema):
            raise IOFailure(f"header{where} must be an object with keys {sorted(schema)}")
        for key, sub in schema.items():
            _check_schema(value[key], sub, f"{where}.{key}")
    elif isinstance(schema, list):
        if not isinstance(value, list) or set(map(type, value)) - {schema[0]}:
            raise IOFailure(f"header{where} must be a list of {schema[0].__name__}")
    elif type(value) is not schema:
        raise IOFailure(f"header{where} must be of type {schema.__name__}")
    elif schema is int and value < 0:
        raise IOFailure(f"header{where} is negative")


def _check_header(header) -> None:
    _check_schema(header, _HEADER_SCHEMA, "")
    params = header["params"]
    if not header["corpus_digest"]:
        raise IOFailure("header lacks a corpus digest")
    if not header["table_ids"]:
        raise IOFailure("header lists no tables")
    if params["struct_dimension"] != STRUCT_DIM:
        raise IOFailure(f"header.params.struct_dimension is {params['struct_dimension']}, expected {STRUCT_DIM}")
    if min(params["embedder_dimension"], params["typical_k"], *params["k_per_family"].values()) < 1:
        raise IOFailure("header embedder_dimension, typical_k and k_per_family must be at least 1")
    for phi in FAMILY_TYPES:
        if not math.isfinite(header["families"][phi]["kmeans"]["objective"]):
            raise IOFailure(f"header.families.{phi}.kmeans.objective is not finite")


def _check_arrays(header: dict, a: dict[str, np.ndarray]) -> None:
    """The structural invariants retrieval relies on."""
    n, V, nnz = len(header["table_ids"]), len(header["vocabulary"]), header["heur_nnz"]
    for name in ("sem", "struct_raw", "struct_mean", "struct_std", "idf", "heur_data"):
        if not np.isfinite(a[name]).all():
            raise IOFailure(f"array {name} holds a non-finite value")
    ptr, ind = a["heur_indptr"], a["heur_indices"]
    if ptr[0] != 0 or ptr[-1] != nnz or (ptr[1:] < ptr[:-1]).any():
        raise IOFailure("heur_indptr does not rise monotonically from 0 to nnz")
    if nnz and (ind.min() < 0 or ind.max() >= V):
        raise IOFailure("heur_indices holds a column outside [0, V)")
    row_start = np.zeros(nnz, dtype=bool)
    row_start[ptr[:-1][ptr[:-1] < nnz]] = True
    if ((ind[1:] <= ind[:-1]) & ~row_start[1:]).any():
        raise IOFailure("heur_indices does not ascend within a row")
    for phi in FAMILY_TYPES:
        K = header["params"]["k_per_family"][phi]
        assign, typical, tptr = a[f"assign_{phi}"], a[f"typical_{phi}"], a[f"typical_ptr_{phi}"]
        if assign.min() < 0 or assign.max() >= K:
            raise IOFailure(f"assign_{phi} holds a cluster outside [0, {K})")
        if (np.bincount(assign, minlength=K) == 0).any():
            raise IOFailure(f"family {phi} has an empty cluster")
        if tptr[0] != 0 or tptr[-1] != len(typical) or (tptr[1:] <= tptr[:-1]).any():
            raise IOFailure(f"typical_ptr_{phi} does not rise strictly from 0 to the typical count")
        if (
            typical.min() < 0
            or typical.max() >= n
            or (assign[typical] != np.repeat(np.arange(K), np.diff(tptr))).any()
        ):
            raise IOFailure(f"typical_{phi} lists a node outside its own cluster")


def _retain_freed_memory() -> None:
    """Let glibc malloc keep freed blocks of up to 32 MiB for reuse.

    glibc maps every block above its mmap threshold afresh and returns heap
    memory above its trim threshold to the kernel. Both start at 128 KiB and
    rise only when a large mapped block is freed, up to 32 and 64 MiB. A
    query process that frees nothing large therefore page-faults on every
    fine-stage array of every query: a few MB per query at d = 512. This sets
    both thresholds to those ceilings. It does nothing where the C library
    has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def load_index(path: str | Path) -> HypergraphIndex:
    """Read an index file written by ``save_index``.

    The file is read into one buffer that is then made read-only; every array
    of the returned index is a view of it. The digest and every structural
    invariant are checked first: a file that fails any check raises
    ``IOFailure``, and a file of another format version ``VersionMismatch``.
    A process that loads an index is about to answer queries, so a successful
    load also tunes the allocator for them (``_retain_freed_memory``).
    """
    p = Path(path)
    try:
        with p.open("rb") as f:
            buf = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
            got = f.readinto(buf)
    except OSError as exc:
        raise IOFailure(f"cannot read {p}: {exc}") from exc
    if got != len(buf):
        raise IOFailure(f"{p} changed while it was read")
    buf.flags.writeable = False
    if len(buf) < _DIGEST_AT or bytes(buf[: len(_MAGIC)]) != _MAGIC:
        raise IOFailure(f"{p} is not an index file")
    version = int(buf[len(_MAGIC) : len(_MAGIC) + 4].view("<u4")[0])
    if version != INDEX_FORMAT_VERSION:
        raise VersionMismatch(version, INDEX_FORMAT_VERSION)
    header_end = _PREAMBLE + int(buf[len(_MAGIC) + 4 : _DIGEST_AT].view("<u8")[0])
    if len(buf) < _PREAMBLE or header_end > len(buf):
        raise IOFailure(f"{p} is truncated")
    if _digest(buf) != bytes(buf[_DIGEST_AT:_PREAMBLE]):
        raise IOFailure(f"{p} does not match its sha256 digest; the file is corrupt")
    try:
        header = json.loads(bytes(buf[_PREAMBLE:header_end]).decode("utf-8"))
        _check_header(header)
        arrays: dict[str, np.ndarray] = {}
        at = header_end
        for name, dtype, shape in _layout(header):
            at += -at % _ALIGN
            nbytes = np.dtype(dtype).itemsize * math.prod(shape)
            if at + nbytes > len(buf):
                raise IOFailure(f"array {name} {shape} runs past the end of the file")
            arrays[name] = buf[at : at + nbytes].view(dtype).reshape(shape)
            at += nbytes
        if at != len(buf):
            raise IOFailure(f"{len(buf) - at} bytes follow the last array")
        _check_arrays(header, arrays)
    except IOFailure as exc:
        raise IOFailure(f"{p}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise IOFailure(f"{p} has a corrupt header: {exc}") from exc
    _retain_freed_memory()

    table_ids = header["table_ids"]
    vocab_tokens = header["vocabulary"]
    vectorizer = HeuristicVectorizer(
        vocabulary={tok: i for i, tok in enumerate(vocab_tokens)},
        idf=arrays["idf"],
        doc_count=header["doc_count"],
    )
    # Attach the views to an empty matrix: the (data, indices, indptr)
    # constructor copies a view whose buffer is much larger than it.
    heur = sparse.csr_matrix((len(table_ids), len(vocab_tokens)))
    heur.data, heur.indices, heur.indptr = arrays["heur_data"], arrays["heur_indices"], arrays["heur_indptr"]
    families = {
        phi: ClusterFamily(
            feature_type=phi,
            assignments=arrays[f"assign_{phi}"],
            typical=np.split(arrays[f"typical_{phi}"], arrays[f"typical_ptr_{phi}"][1:-1]),
            **header["families"][phi]["kmeans"],
        )
        for phi in FAMILY_TYPES
    }
    return HypergraphIndex(
        params=IndexParams.from_json(header["params"]),
        corpus_digest=header["corpus_digest"],
        source_tag=header["source_tag"],
        table_ids=table_ids,
        sem=arrays["sem"],
        struct_raw=arrays["struct_raw"],
        struct_mean=arrays["struct_mean"],
        struct_std=arrays["struct_std"],
        heur=heur,
        vectorizer=vectorizer,
        families=families,
    )
