"""Digest what the library produces on the benchmark's check corpora.

The check corpora are the perfbench workloads' inputs at seed 101, rounds
0-2: nine corpora and 990 queries. For each corpus the script builds, saves
and loads the index the way a perfbench set-up does, then runs every query
of the round through ``retrieve`` and ``build_prompt``. It prints one JSON
line per corpus:

- ``index_sha256``: the index file's sha256;
- ``u``: the number of distinct sem rows (bitwise) among the tables;
- ``inspect_sha256``: sha256 over the cluster sizes and k-means reports;
- ``outputs_sha256``: one sha256 over every query's top-10 ids, the bits
  of its ranked scores and ``all_scores``, and its prompt's ``system`` and
  ``user`` strings;
- ``dataset_sha256`` (gold corpora only): one sha256 over the bytes of the
  three files the set-up saves under ``dataset/``.

Two commits give equal output lines exactly when those outputs are
identical. Run it from a checkout's root, with one BLAS thread as the
benchmark uses:

    python3 tools/equivalence.py
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import hashlib
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tablerank import PPRConfig, build_prompt, load_index, retrieve  # noqa: E402
from tablerank.features import EmbedderHandle  # noqa: E402
from worker import load_queries, setup  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SEED = 101


def check_corpus(w, rnd: int, workdir: Path) -> dict:
    rseed = int(np.random.SeedSequence([SEED, rnd]).generate_state(1)[0])
    write_inputs(w, rseed, workdir)
    setup(workdir, w, rnd)
    index_path = workdir / "index.bin"
    ix = load_index(index_path)
    tables, queries = load_queries(workdir, w, rseed)
    handle = EmbedderHandle(dimension=w.dimension, batch_limit=512)
    cfg = PPRConfig(top_n=w.top_n)

    outputs = hashlib.sha256()
    for q, _ in queries:
        _, result = retrieve(q, ix, handle, cfg, w.tau)
        bundle = build_prompt(q.text, result, [tables[tid] for tid, _ in result.ranked], q.task_type)
        outputs.update("\n".join(tid for tid, _ in result.ranked[:10]).encode("utf-8") + b"\0")
        outputs.update(b"".join(struct.pack("<d", s) for _, s in result.ranked))
        outputs.update(np.ascontiguousarray(result.all_scores, dtype="<f8").tobytes())
        outputs.update(bundle.system.encode("utf-8") + b"\0" + bundle.user.encode("utf-8") + b"\0")

    inspect = {
        phi: [np.bincount(fam.assignments, minlength=fam.n_clusters).tolist(),
              fam.converged, fam.n_iter, fam.objective]
        for phi, fam in ix.families.items()
    }
    line = {
        "workload": w.name,
        "round": rnd,
        "index_sha256": hashlib.sha256(index_path.read_bytes()).hexdigest(),
        "u": len({row.tobytes() for row in ix.sem}),
        "queries": len(queries),
        "inspect_sha256": hashlib.sha256(json.dumps(inspect, sort_keys=True).encode()).hexdigest(),
        "outputs_sha256": outputs.hexdigest(),
    }
    if (workdir / "dataset").is_dir():
        dataset = hashlib.sha256()
        for name in ("tables.jsonl", "examples.jsonl", "stats.json"):
            dataset.update((workdir / "dataset" / name).read_bytes())
        line["dataset_sha256"] = dataset.hexdigest()
    return line


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="tablerank-equivalence-") as tmp:
        for w in WORKLOADS.values():
            for rnd in range(w.rounds):
                line = check_corpus(w, rnd, Path(tmp) / f"{w.name}-{rnd}")
                print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
