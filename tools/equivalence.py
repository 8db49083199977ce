"""Digest what the library produces on the benchmark's check corpora.

The check corpora are the perfbench workloads' inputs at seed 101, rounds
0-2: nine corpora and 990 queries. For each corpus the script builds, saves
and loads the index the way a perfbench set-up does, then runs every query
of the round through ``retrieve`` and ``build_prompt``. It prints one JSON
line per corpus:

- ``index_sha256`` and ``index_bytes``: the index file's sha256 and size;
- ``u``: the number of distinct sem rows (bitwise) among the tables, which
  ``load_index`` has proved the stored rows to be;
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
    python3 tools/equivalence.py --check tools/equivalence.expected.jsonl

With ``--check FILE`` it compares each line with the line of the same
workload and round in FILE, prints every corpus and field that differ, and
exits 1 if any does. Score bits depend on the BLAS kernel and the CPU, so
``tools/equivalence.expected.jsonl`` is a reference for the machine type
named in ``tools/equivalence.machine.json``, not a check for any machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
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
        "index_bytes": index_path.stat().st_size,
        "u": len(ix.sem_rows),
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


def differences(line: dict, expected: dict[tuple[str, int], dict]) -> list[str]:
    """One message per field in which ``line`` differs from the expected line
    of its workload and round."""
    where = f"{line['workload']} round {line['round']}"
    want = expected.get((line["workload"], line["round"]))
    if want is None:
        return [f"{where}: no expected line"]
    return [
        f"{where}: {key} is {line.get(key)!r}, expected {want.get(key)!r}"
        for key in sorted(set(line) | set(want))
        if line.get(key) != want.get(key)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE", help="compare with the JSON lines in FILE")
    args = parser.parse_args()
    expected = None
    if args.check:
        lines = [json.loads(text) for text in Path(args.check).read_text(encoding="utf-8").splitlines() if text]
        expected = {(e["workload"], e["round"]): e for e in lines}
    found: list[str] = []
    seen = set()
    with tempfile.TemporaryDirectory(prefix="tablerank-equivalence-") as tmp:
        for w in WORKLOADS.values():
            for rnd in range(w.rounds):
                line = check_corpus(w, rnd, Path(tmp) / f"{w.name}-{rnd}")
                print(json.dumps(line, sort_keys=True), flush=True)
                seen.add((w.name, rnd))
                if expected is not None:
                    found += differences(line, expected)
    if expected is not None:
        found += [f"{name} round {rnd}: expected but not produced" for name, rnd in sorted(set(expected) - seen)]
        for message in found:
            print(message, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
