"""The benchmark's child processes: one set-up, or one corpus's query server.

``run.py`` starts each in a fresh interpreter so that its peak RSS belongs to
that phase alone, and reads back the JSON file it writes:

    python3 perfbench/worker.py setup WORKDIR ROUND
    python3 perfbench/worker.py serve WORKDIR SEED ROUND TRACE

WORKDIR holds the generated inputs and ``workload.json``, the workload's
parameters. A server loads the index and the queries, prints ``ready`` and
then answers one command per line on standard input: ``warmup`` runs a few
untimed queries, and ``run N`` runs the next N queries, cycling through the
query set, and replies ``ok <operations> <traced operations> <covered>``,
where ``covered`` is 1 once every query has run. At the end of its input it
writes ``serve-ROUND.json`` and exits. ``run.py`` sends ``run`` to its
servers in turn, so only one of them works at a time and every corpus is
sampled over the whole query phase.

Spans are kept in memory as ``[name, start_s, end_s, parent, op, attrs]``,
where ``parent`` is the list index of the enclosing span (or None) and all
spans of one operation share ``op``. Only the library's public calls are
timed, from outside.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tablerank import (
    EmbedderHandle,
    PPRConfig,
    Query,
    TaskType,
    build_benchmark,
    build_index,
    build_prompt,
    coarse_retrieve,
    extract_all,
    fine_retrieve,
    load_benchmark,
    load_corpus,
    load_index,
    parse_response,
    query_features,
    save_benchmark,
    save_index,
)
from tablerank.benchmark import load_source_queries
from tablerank.prompting import stub_na_generator

from workloads import Workload, pick_examples

WARMUP_OPS = 3
UNTRACED_EVERY = 4   # in a traced phase every 4th operation runs untraced
SPAN_NAMES = ("features.query", "coarse", "fine", "prompting.build", "generate", "prompting.parse", "score")

clock = time.perf_counter
GENERATE = stub_na_generator()  # the offline generator eval-e2e uses by default


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(workdir: Path, w: Workload, rnd: int) -> dict:
    """load_corpus (+ build_benchmark) -> extract_all -> build_index ->
    save_index -> load_index, each call one span. Input generation and the
    dataset copy the query phase reads are outside ``setup_s``."""
    spans: list = []

    def timed(name, fn, *args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        spans.append([name, t0, clock(), None, f"setup-{rnd}", {}])
        return out

    handle = EmbedderHandle(dimension=w.dimension, batch_limit=512)
    index_path = workdir / "index.bin"
    start = clock()
    if w.kind == "gold":
        sources = timed("corpus.load", load_corpus, workdir / "sources" / "tables.jsonl")
        t0 = clock()
        source_queries = load_source_queries(workdir / "sources" / "queries.jsonl")
        dataset = build_benchmark(sources, source_queries, seed=w.build_seed)
        spans.append(["benchmark.build", t0, clock(), None, f"setup-{rnd}", {}])
        corpus = dataset.tables
    else:
        corpus = timed("corpus.load", load_corpus, workdir / "corpus.jsonl")
    features = timed("features.extract", extract_all, corpus, handle)
    ix = timed("index.build", build_index, corpus, features, K=w.K, k=w.k, seed=w.build_seed)
    timed("index.save", save_index, ix, index_path)
    loaded = timed("index.load", load_index, index_path)
    setup_s = clock() - start
    rss = peak_rss_mb()

    if loaded.table_ids != corpus.ids():
        raise RuntimeError("reloaded index does not list the corpus tables")
    if w.kind == "gold":
        save_benchmark(dataset, workdir / "dataset")
    return {
        "setup_s": setup_s,
        "setup_rss_mb": rss,
        "index_mb": index_path.stat().st_size / 2**20,
        "n_tables": len(corpus),
        "spans": spans,
    }


# ---------------------------------------------------------------------------
# Query phase
# ---------------------------------------------------------------------------


@dataclass
class Context:
    w: Workload
    ix: object
    handle: EmbedderHandle
    cfg: PPRConfig
    tables: dict                     # table id -> Table, for prompts
    pos_of: dict = field(default_factory=dict)  # table id -> index row
    largest_union: int = 0           # largest candidate set measured under tracemalloc


@dataclass
class Outcome:
    latency_s: float | None = None   # None when the operation raised
    recall: float | None = None
    problems: list = field(default_factory=list)


def load_queries(workdir: Path, w: Workload, seed: int) -> tuple[dict, list[tuple[Query, set]]]:
    """Tables by id, and the evaluated queries with their relevant sets:
    the topic's tables on blob workloads, the gold set on gold-e2e."""
    if w.kind == "gold":
        ds = load_benchmark(workdir / "dataset")
        by_id = {e.query.id: e for e in ds.examples}
        chosen = [by_id[qid] for qid in pick_examples(list(by_id), w.n_queries, seed)]
        return {t.id: t for t in ds.tables}, [(e.query, set(e.gold_table_ids)) for e in chosen]
    corpus = load_corpus(workdir / "corpus.jsonl")
    queries = []
    for line in (workdir / "queries.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        q = Query(id=rec["id"], text=rec["text"], task_type=TaskType(rec["task_type"]))
        queries.append((q, set(rec["relevant"])))
    return {t.id: t for t in corpus}, queries


def candidate_positions(coarse, pos_of: dict) -> np.ndarray:
    """Index rows of the coarse union, whether it holds table ids or rows."""
    u = coarse.union_ids
    if len(u) and isinstance(next(iter(u)), str):
        return np.fromiter(sorted(pos_of[t] for t in u), dtype=np.int64)
    return np.sort(np.asarray(list(u), dtype=np.int64))


def edge_density(ix, rows: np.ndarray, tau: float) -> float:
    """Share of candidate pairs whose semantic cosine clears tau (tau > 0)."""
    n = len(rows)
    if n < 2:
        return 0.0
    sem = np.asarray(ix.sem[rows], dtype=np.float64)
    norms = np.linalg.norm(sem, axis=1)
    unit = sem / np.where(norms > 0, norms, 1.0)[:, None]
    cos = unit @ unit.T
    np.fill_diagonal(cos, -np.inf)
    return int(np.count_nonzero(cos >= tau)) / (n * (n - 1))


def check_outputs(ctx: Context, n_candidates: int, result, bundle, parsed) -> list[str]:
    problems = []
    ranked = result.ranked
    ids = [tid for tid, _ in ranked]
    scores = [s for _, s in ranked]
    if len(ranked) != min(ctx.cfg.top_n, n_candidates):
        problems.append(f"ranked {len(ranked)} tables, expected {min(ctx.cfg.top_n, n_candidates)}")
    if len(set(ids)) != len(ids) or any(tid not in ctx.pos_of for tid in ids):
        problems.append("ranked ids are repeated or not in the corpus")
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append("ranked scores increase")
    s = np.asarray(result.all_scores, dtype=np.float64)
    if not (np.all(np.isfinite(s)) and np.all(s >= 0.0) and abs(float(s.sum()) - 1.0) <= 1e-9):
        problems.append("all_scores is not a probability vector")
    if bundle.user.count("<table>") != len(ranked):
        problems.append("prompt does not hold one <table> block per ranked table")
    if not parsed.is_na:
        problems.append("stub reply did not parse as NA")
    return problems


def run_op(ctx: Context, q: Query, relevant: set, op: str, spans: list | None) -> Outcome:
    """One eval-e2e example: featurize, coarse, fine, prompt, generate,
    parse, score. With ``spans`` the steps are recorded with their counts;
    counting and the output checks run after the timed region."""
    ix, w = ctx.ix, ctx.w
    t = [clock()]
    qf = query_features(q, ix, ctx.handle)
    t.append(clock())
    coarse = coarse_retrieve(q, ix, ctx.handle, qf=qf)
    t.append(clock())
    result = fine_retrieve(q, coarse, ix, ctx.cfg, w.tau)
    t.append(clock())
    bundle = build_prompt(q.text, result, [ctx.tables[tid] for tid, _ in result.ranked], q.task_type)
    t.append(clock())
    raw = GENERATE(bundle.system, bundle.user)
    t.append(clock())
    parsed = parse_response(raw)
    t.append(clock())
    hits = sum(1 for tid, _ in result.ranked[:10] if tid in relevant)
    recall = hits / min(10, len(relevant))
    t.append(clock())

    n_candidates = len(coarse.union_ids)
    if spans is not None:
        root = len(spans)
        spans.append(["query", t[0], t[-1], None, op, {}])
        for name, a, b in zip(SPAN_NAMES, t, t[1:]):
            spans.append([name, a, b, root, op, {}])
        fine_attrs = {"ppr_iters": result.iterations, "truncated": not result.converged}
        if n_candidates > ctx.largest_union:
            # tracemalloc slows every allocation, so the memory peak comes from
            # a second, untimed fine_retrieve. Its n x n arrays grow with the
            # union, so only a new largest union can raise the maximum.
            ctx.largest_union = n_candidates
            tracemalloc.start()
            fine_retrieve(q, coarse, ix, ctx.cfg, w.tau)
            fine_attrs["peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        rows = candidate_positions(coarse, ctx.pos_of)
        fine_attrs["edge_density"] = edge_density(ix, rows, w.tau)
        kept = np.isin([ctx.pos_of[tid] for tid in relevant], rows)
        spans[root + 2][5] = {
            "candidates": n_candidates,
            "retained_fraction": coarse.retained_fraction,
            "gold_kept": float(kept.mean()),
        }
        spans[root + 3][5] = fine_attrs
        spans[root + 4][5] = {"prompt_chars": len(bundle.system) + len(bundle.user)}
    return Outcome(t[-1] - t[0], recall, check_outputs(ctx, n_candidates, result, bundle, parsed))


def run_queries(ctx: Context, queries: list, rnd: int, count: int, traced: bool, ops: list, spans: list) -> None:
    """The next ``count`` operations, cycling through ``queries``: each is
    sent when the previous one has returned. Operation ids are
    ``r<round>o<n>``. Recall is kept for each query's first run only. In a
    traced run every fourth operation runs untraced. An exception or a failed
    output check counts as a failed operation and never stops the loop."""
    for _ in range(count):
        n = len(ops)
        q, rel = queries[n % len(queries)]
        trace_this = traced and n % UNTRACED_EVERY != UNTRACED_EVERY - 1
        op = f"r{rnd}o{n}"
        try:
            out = run_op(ctx, q, rel, op, spans if trace_this else None)
        except Exception as exc:  # the benchmark's boundary: record and go on
            out = Outcome(problems=[f"{type(exc).__name__}: {exc}"])
        ops.append({
            "op": op,
            "latency_s": out.latency_s,
            "traced": trace_this,
            "recall": out.recall if n < len(queries) else None,
            "problems": [f"{q.id}: {p}" for p in out.problems],
        })


def warm_up(ctx: Context, queries: list) -> None:
    for q, rel in queries[:WARMUP_OPS]:
        try:
            run_op(ctx, q, rel, "warmup", None)
        except Exception:  # a failing query is counted when it runs in the loop, not here
            pass


def serve(workdir: Path, w: Workload, seed: int, rnd: int, traced: bool) -> None:
    """Answer ``warmup`` and ``run N`` commands; see the module docstring."""
    proto, sys.stdout = sys.stdout, sys.stderr  # stray prints must not reach the protocol
    ix = load_index(workdir / "index.bin")
    tables, queries = load_queries(workdir, w, seed)
    ctx = Context(
        w=w, ix=ix,
        handle=EmbedderHandle(dimension=w.dimension, batch_limit=512),
        cfg=PPRConfig(top_n=w.top_n),
        tables=tables,
        pos_of={tid: i for i, tid in enumerate(ix.table_ids)},
    )
    ops: list = []
    spans: list = []

    def reply(text: str) -> None:
        proto.write(text + "\n")
        proto.flush()

    reply("ready")
    for line in sys.stdin:
        cmd = line.split()
        if cmd == ["warmup"]:
            warm_up(ctx, queries)
            reply("ok")
        elif len(cmd) == 2 and cmd[0] == "run":
            before = len(ops)
            run_queries(ctx, queries, rnd, int(cmd[1]), traced, ops, spans)
            new = ops[before:]
            reply(f"ok {len(new)} {sum(op['traced'] for op in new)} {int(len(ops) >= len(queries))}")
        else:
            raise SystemExit(f"unknown command {line!r}")
    _write(workdir / f"serve-{rnd}.json", {
        "ops": ops,
        "spans": spans,
        "query_rss_mb": peak_rss_mb(),
        "machine": machine_facts(),
    })


def main(argv: list[str]) -> int:
    mode, workdir = argv[0], Path(argv[1])
    w = Workload(**json.loads((workdir / "workload.json").read_text(encoding="utf-8")))
    if mode == "setup":
        rnd = int(argv[2])
        _write(workdir / f"setup-{rnd}.json", setup(workdir, w, rnd))
    elif mode == "serve":
        serve(workdir, w, int(argv[2]), int(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
