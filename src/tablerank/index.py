"""The hypergraph index as queries read it, and its file format.

A ``HypergraphIndex`` holds, for each feature family (sem / struct / heur),
every table's cluster and each cluster's typical mean: the mean of its
L2-normalized typical rows in score space, as ``tablerank.build`` computes
them. Coarse retrieval reads a cluster only through that mean. The sem and
struct means are dense (K, dim) arrays; the heur means are the
``SparseRows`` of a (K, V) matrix, each row in the storage order the build's
sparse product gave it, because a query sums a row in that order. The index
also keeps the struct standardization and the fitted TF-IDF vectorizer, so a
query is featurized the way the tables were.

Tables often share an embedding, so the index keeps each distinct sem row
once (``sem_rows``, in order of first table position) and maps every table to
its row (``sem_group``). Rows are distinct when their 64-bit words differ, so
-0.0 and 0.0 are distinct.

The on-disk container (format version 5) is a fixed preamble (magic,
format version, header length, sha256 of the file without the digest), a
sorted-keys JSON header (params, corpus digest, table ids, vocabulary,
distinct sem row count, stored entries of the heur means, per-family k-means
report), then the raw little-endian arrays, each on a 64-byte boundary.
Every integer array is int32.
``load_index`` reads the file into one read-only buffer, checks the digest
and every structural invariant, the grouping included, and hands out views
of that buffer, so nothing is copied and a stray write into a loaded index
raises. ``save_index`` writes the same bytes for the same index. Layout
details in docs/FORMATS.md.

This module imports numpy only, like the rest of the query path.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import TableCorpus, table_record_bytes
from .errors import IOFailure, VersionMismatch
from .features import STRUCT_DIM, HeuristicVectorizer, SparseRows

INDEX_FORMAT_VERSION = 5
_MAGIC = b"TRKHGIDX"
_DIGEST_AT = len(_MAGIC) + 4 + 8    # magic, format version (<u4), header length (<u8)
_PREAMBLE = _DIGEST_AT + 32         # ... then the sha256 digest
_ALIGN = 64
_INT32 = np.iinfo(np.int32)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters

FAMILY_TYPES = ("sem", "struct", "heur")

DEFAULT_CLUSTERS = 10
DEFAULT_TYPICAL = 100


def top_k(scores: np.ndarray, rows: np.ndarray, table_ids: Sequence[str], k: int) -> np.ndarray:
    """Positions i of the k best ``scores`` (all, if fewer), best first by
    (-scores[i], table_ids[rows[i]]); position i scores index row rows[i].
    Only the positions at or above the k-th best score are sorted."""
    m = min(k, len(scores))
    kth = np.partition(scores, len(scores) - m)[len(scores) - m]
    head = np.flatnonzero(scores >= kth).tolist()
    head.sort(key=lambda i: (-scores[i], table_ids[rows[i]]))
    return np.array(head[:m], dtype=np.int64)


def _sorted_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts) for the rows of a 2-d float64 array: ``order`` sorts
    them by their bytes (each row viewed as one opaque item), so bitwise-equal
    rows are adjacent and, the sort being stable, stay in position order;
    ``starts[j]`` is True where sorted row j differs from the one before it.
    Adjacent sorted rows are compared one column at a time, so the scratch
    memory is O(rows)."""
    words = np.ascontiguousarray(rows, dtype="<f8").view(np.uint64)
    order = np.argsort(words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel(), kind="stable")
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for col in words.T:
        sorted_col = col[order]
        starts[1:] |= sorted_col[1:] != sorted_col[:-1]
    return order, starts


@dataclass
class ClusterFamily:
    """One hyperedge family: the K clusters of a single feature type.

    ``assignments[i]`` is the cluster of index row i. Row j of
    ``typical_means`` is the mean of cluster j's L2-normalized typical rows in
    score space (``build._typical_nodes``, ``build._typical_means``): a dense
    (K, dim) array for sem and struct, the ``SparseRows`` of a (K, V) matrix
    for heur, which the build computes and the file stores. The typical nodes
    themselves are not kept.
    ``n_iter``, ``converged`` and ``objective`` report the winning k-means
    restart.
    """

    assignments: np.ndarray
    typical_means: np.ndarray | SparseRows
    n_iter: int
    converged: bool
    objective: float

    @property
    def n_clusters(self) -> int:
        return self.typical_means.shape[0]


@dataclass
class HypergraphIndex:
    params: dict               # the header's params, as _HEADER_SCHEMA lists them
    corpus_digest: str
    table_ids: list[str]
    sem_rows: np.ndarray       # (u, d) distinct raw embeddings, by first position
    sem_group: np.ndarray      # (n,) int32: table i's embedding is sem_rows[sem_group[i]]
    struct_mean: np.ndarray    # the struct standardization, for query rows
    struct_std: np.ndarray
    vectorizer: HeuristicVectorizer
    families: dict[str, ClusterFamily]

    def __len__(self) -> int:
        return len(self.table_ids)

    @property
    def sem(self) -> np.ndarray:
        """(n, d) raw embeddings, one row per table: a read-only array built
        from ``sem_rows`` on every read. The query path reads ``sem_rows``
        through ``sem_group`` instead."""
        rows = self.sem_rows[self.sem_group]
        rows.flags.writeable = False
        return rows


def corpus_digest(corpus: TableCorpus) -> str:
    h = hashlib.sha256()
    for t in corpus:
        h.update(table_record_bytes(t))
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


_KMEANS_REPORT = {"converged": bool, "n_iter": int, "objective": float}
_HEADER_SCHEMA = {
    "corpus_digest": str,
    "distinct_sem_rows": int,
    "families": {phi: {"kmeans": _KMEANS_REPORT} for phi in FAMILY_TYPES},
    "means_heur_nnz": int,
    "params": {"K": int, "embedder_dimension": int, "seed": int, "typical_k": int},
    "table_ids": [str],
    "vocabulary": [str],
}


def _layout(header: dict) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, dtype, shape) of every array in file order; the shapes follow
    from the header's n, d, u, V, K and heur-means nnz."""
    n, V = len(header["table_ids"]), len(header["vocabulary"])
    K, d, nnz = header["params"]["K"], header["params"]["embedder_dimension"], header["means_heur_nnz"]
    layout = [
        ("sem_rows", "<f8", (header["distinct_sem_rows"], d)),
        ("sem_group", "<i4", (n,)),
        ("struct_mean", "<f8", (STRUCT_DIM,)),
        ("struct_std", "<f8", (STRUCT_DIM,)),
        ("idf", "<f8", (V,)),
    ]
    for phi in FAMILY_TYPES:
        layout.append((f"assign_{phi}", "<i4", (n,)))
        if phi == "heur":
            layout += [
                ("means_heur_data", "<f8", (nnz,)),
                ("means_heur_indices", "<i4", (nnz,)),
                ("means_heur_indptr", "<i4", (K + 1,)),
            ]
        else:
            layout.append((f"means_{phi}", "<f8", (K, d if phi == "sem" else STRUCT_DIM)))
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
    heur_means = ix.families["heur"].typical_means
    values = {
        "sem_rows": ix.sem_rows,
        "sem_group": ix.sem_group,
        "struct_mean": ix.struct_mean,
        "struct_std": ix.struct_std,
        "idf": ix.vectorizer.idf,
        "means_sem": ix.families["sem"].typical_means,
        "means_struct": ix.families["struct"].typical_means,
        # in the product's storage order: a query sums each row in that order
        "means_heur_data": heur_means.data,
        "means_heur_indices": heur_means.indices,
        "means_heur_indptr": heur_means.indptr,
    }
    families = {}
    for phi in FAMILY_TYPES:
        fam = ix.families[phi]
        values[f"assign_{phi}"] = fam.assignments
        families[phi] = {"kmeans": {"converged": bool(fam.converged), "n_iter": int(fam.n_iter),
                                    "objective": float(fam.objective)}}
    header = {
        "corpus_digest": ix.corpus_digest,
        "distinct_sem_rows": len(ix.sem_rows),
        "families": families,
        "means_heur_nnz": len(heur_means.data),
        "params": ix.params,
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
    if len(set(header["table_ids"])) != len(header["table_ids"]):
        raise IOFailure("header lists a table id twice")
    if min(params["K"], params["embedder_dimension"], params["typical_k"]) < 1:
        raise IOFailure("header K, embedder_dimension and typical_k must be at least 1")
    for phi in FAMILY_TYPES:
        if not math.isfinite(header["families"][phi]["kmeans"]["objective"]):
            raise IOFailure(f"header.families.{phi}.kmeans.objective is not finite")


def _check_arrays(header: dict, a: dict[str, np.ndarray]) -> None:
    """The structural invariants retrieval relies on."""
    K, V, nnz = header["params"]["K"], len(header["vocabulary"]), header["means_heur_nnz"]
    for name in ("sem_rows", "struct_mean", "struct_std", "idf", "means_sem", "means_struct", "means_heur_data"):
        if not np.isfinite(a[name]).all():
            raise IOFailure(f"array {name} holds a non-finite value")
    _check_sem_grouping(a["sem_rows"], a["sem_group"])
    # The heur means keep the product's storage order, so the columns of a
    # row need not ascend.
    ptr, ind = a["means_heur_indptr"], a["means_heur_indices"]
    if ptr[0] != 0 or ptr[-1] != nnz or (ptr[1:] < ptr[:-1]).any():
        raise IOFailure("means_heur_indptr does not rise monotonically from 0 to nnz")
    if nnz and (ind.min() < 0 or ind.max() >= V):
        raise IOFailure("means_heur_indices holds a column outside [0, V)")
    for phi in FAMILY_TYPES:
        assign = a[f"assign_{phi}"]
        if assign.min() < 0 or assign.max() >= K:
            raise IOFailure(f"assign_{phi} holds a cluster outside [0, {K})")
        if (np.bincount(assign, minlength=K) == 0).any():
            raise IOFailure(f"family {phi} has an empty cluster")


def _check_sem_grouping(rows: np.ndarray, group: np.ndarray) -> None:
    """``group`` is the grouping ``_group_rows`` makes of ``rows[group]``:
    ids in [0, u), first used in ascending order, every stored row used, and
    no two stored rows bitwise equal, so no group can be split in two."""
    u = len(rows)
    if group.min() < 0 or group.max() >= u:
        raise IOFailure(f"sem_group holds a row outside [0, {u})")
    seen = np.maximum.accumulate(group)
    if group[0] != 0 or (group[1:] > seen[:-1] + 1).any():
        raise IOFailure("sem_group ids are not in first-occurrence order")
    if seen[-1] != u - 1:
        raise IOFailure("sem_rows holds a row no table uses")
    if not _sorted_runs(rows)[1].all():
        raise IOFailure("sem_rows holds two bitwise-equal rows")


def _retain_freed_memory() -> None:
    """Let glibc malloc keep freed blocks of up to 32 MiB for reuse.

    glibc maps every block above its mmap threshold afresh and returns heap
    memory above its trim threshold to the kernel. Both start at 128 KiB and
    rise only when a large mapped block is freed, up to 32 and 64 MiB. A
    process that frees nothing large therefore page-faults on every array
    above 128 KiB it makes: on every fine-stage array of every query, a few
    MB per query at d = 512, and on every k-means distance array of a build,
    about 90,000 faults in a 4,000-table build with K = 60. ``build_index``
    and ``load_index`` set both thresholds to those ceilings. It does nothing
    where the C library has no ``mallopt``.
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
        vocabulary = {tok: i for i, tok in enumerate(header["vocabulary"])}
        if len(vocabulary) != len(header["vocabulary"]):
            raise IOFailure("header lists a vocabulary token twice")
    except IOFailure as exc:
        raise IOFailure(f"{p}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise IOFailure(f"{p} has a corrupt header: {exc}") from exc
    _retain_freed_memory()

    table_ids = header["table_ids"]
    vectorizer = HeuristicVectorizer(vocabulary=vocabulary, idf=arrays["idf"])
    heur_means = SparseRows(arrays["means_heur_data"], arrays["means_heur_indices"],
                            arrays["means_heur_indptr"], (header["params"]["K"], len(vocabulary)))
    means = {"sem": arrays["means_sem"], "struct": arrays["means_struct"], "heur": heur_means}
    families = {
        phi: ClusterFamily(
            assignments=arrays[f"assign_{phi}"],
            typical_means=means[phi],
            **header["families"][phi]["kmeans"],
        )
        for phi in FAMILY_TYPES
    }
    return HypergraphIndex(
        params=header["params"],
        corpus_digest=header["corpus_digest"],
        table_ids=table_ids,
        sem_rows=arrays["sem_rows"],
        sem_group=arrays["sem_group"],
        struct_mean=arrays["struct_mean"],
        struct_std=arrays["struct_std"],
        vectorizer=vectorizer,
        families=families,
    )
