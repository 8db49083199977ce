"""Command-line entry point.

Subcommands: ingest, build-index, retrieve, build-benchmark, eval-retrieval,
eval-e2e, inspect. Each takes only the flags it reads; ingest and inspect
take no settings. Option precedence is flags > environment variables
(endpoints only) > --config file > built-in defaults. One config file can
serve every command: a key that a command does not read is checked and then
ignored. The query commands (retrieve, eval-retrieval, eval-e2e) embed with
the dimension the index records, so they take no --dimension or
--batch-limit. Every command that takes settings logs the configuration it
uses to stderr, a command that opens an index once the index has set the
embedding dimension. Exit codes: 0 success, 1 runtime failure, 2 usage error.

retrieve reads only the query text. It prints one line with the coarse
stage's cluster choices, union size and retained fraction, then one line per
ranked table. eval-retrieval ranks each query to its largest cutoff, so it
takes no --top-n, and reports acc (every gold table in the top k), acc_any
(at least one) and recall per cutoff.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import benchmark as bench
from . import corpus as corpus_mod
from . import evaluation as ev
from .errors import TableRankError, UsageError
from .features import EmbedderHandle
from .fine import DEFAULT_ALPHA, DEFAULT_TAU, DEFAULT_TOP_N, PPRConfig, retrieve
from .index import DEFAULT_CLUSTERS, DEFAULT_TYPICAL, HypergraphIndex, load_index, save_index
from .prompting import make_generator

try:
    import resource
except ImportError:  # not on Windows
    resource = None

log = logging.getLogger("tablerank")

ENV_EMBEDDER = "TABLERANK_EMBEDDER"
ENV_GENERATOR = "TABLERANK_GENERATOR"


@dataclass
class RunConfig:
    K: int = DEFAULT_CLUSTERS
    k: int = DEFAULT_TYPICAL
    alpha: float = DEFAULT_ALPHA
    tau: float = DEFAULT_TAU
    top_n: int = DEFAULT_TOP_N
    seed: int = 0
    embedder: str = EmbedderHandle.endpoint
    dimension: int = EmbedderHandle.dimension
    batch_limit: int = EmbedderHandle.batch_limit
    generator: str = "stub:na"

    def handle(self) -> EmbedderHandle:
        return EmbedderHandle(endpoint=self.embedder, dimension=self.dimension, batch_limit=self.batch_limit)

    def ppr(self) -> PPRConfig:
        return PPRConfig(alpha=self.alpha, top_n=self.top_n)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}  # type names, as strings
_ACCEPTED_TYPES = {"int": int, "float": (int, float), "str": str}
_POSITIVE_INTS = ("K", "k")


def resolve_config(args: argparse.Namespace, index_dimension: int | None = None) -> RunConfig:
    """flags > env (endpoints) > config file > defaults, logged to stderr.
    ``index_dimension``, the embedding dimension of the index the command
    queries, takes the place of any other once every value is checked."""
    values = asdict(RunConfig())
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8, a too-long integer
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_values) - set(_FIELD_TYPES)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for name, value in file_values.items():
            # bool is an int subclass, but true/false is never a valid knob
            if isinstance(value, bool) or not isinstance(value, _ACCEPTED_TYPES[_FIELD_TYPES[name]]):
                raise UsageError(f"config key {name!r} must be of type {_FIELD_TYPES[name]}, got {value!r}")
        values.update(file_values)
    if os.environ.get(ENV_EMBEDDER):
        values["embedder"] = os.environ[ENV_EMBEDDER]
    if os.environ.get(ENV_GENERATOR):
        values["generator"] = os.environ[ENV_GENERATOR]
    for name in _FIELD_TYPES:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    cfg = RunConfig(**values)
    try:
        cfg.ppr()
        cfg.handle()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not 0.0 <= cfg.tau <= 1.0:
        raise UsageError("tau must lie in [0, 1]")
    if cfg.seed < 0:
        raise UsageError("seed must be non-negative")
    too_small = [name for name in _POSITIVE_INTS if getattr(cfg, name) < 1]
    if too_small:
        raise UsageError(f"{', '.join(too_small)} must be at least 1")
    if index_dimension is not None:
        cfg.dimension = index_dimension
    log.info("resolved config: %s", json.dumps(asdict(cfg), sort_keys=True))
    return cfg


def _add_embedding_settings(p: argparse.ArgumentParser) -> None:
    """The config file and the embedding endpoint, which every command that
    embeds text reads."""
    p.add_argument("--config", help="JSON file with config overrides")
    p.add_argument("--embedder", default=None, help="embedding endpoint URL or builtin:hash")


def _add_query_settings(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    _add_embedding_settings(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tablerank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus and write the canonical form")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["jsonl", "csv_dir"], default="jsonl")
    p.add_argument("--out", required=True)

    p = sub.add_parser("build-index", help="extract features and build the hypergraph index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--K", type=int, default=None, help="clusters per feature family")
    p.add_argument("--k", type=int, default=None, help="typical nodes per cluster")
    p.add_argument("--seed", type=int, default=None)
    _add_embedding_settings(p)
    p.add_argument("--dimension", type=int, default=None, help="embedding dimension")
    p.add_argument("--batch-limit", dest="batch_limit", type=int, default=None)

    p = sub.add_parser("retrieve", help="run coarse/fine retrieval for one query")
    p.add_argument("--index", required=True)
    p.add_argument("--query", required=True, help="query text")
    p.add_argument("--top-n", dest="top_n", type=int, default=None)
    _add_query_settings(p)

    p = sub.add_parser("build-benchmark", help="construct a multi-table benchmark from sources")
    p.add_argument("--sources", required=True, help="directory with tables.jsonl and queries.jsonl")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="JSON file with config overrides")

    p = sub.add_parser("eval-retrieval", help="score retrieval over a benchmark")
    p.add_argument("--index", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--ks", default="10,20,50")
    _add_query_settings(p)

    p = sub.add_parser("eval-e2e", help="retrieve, prompt, generate, and score answers")
    p.add_argument("--index", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--generator", default=None, help="generation endpoint URL or stub:na")
    p.add_argument("--top-n", dest="top_n", type=int, default=None)
    _add_query_settings(p)

    p = sub.add_parser("inspect", help="print index parameters and cluster sizes")
    p.add_argument("--index", required=True)

    return parser


def _cmd_ingest(args) -> int:
    corpus = corpus_mod.load_corpus(args.input, format=args.format)
    corpus_mod.save_corpus(corpus, args.out)
    print(json.dumps({"tables": len(corpus), "out": args.out}))
    return 0


def _peak_rss_mb() -> dict:
    """``{"peak_rss_mb": ...}``, the process's peak resident set so far in
    MiB, or ``{}`` where the ``resource`` module is missing. ``ru_maxrss``
    counts KiB on Linux and bytes on macOS."""
    if resource is None:
        return {}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"peak_rss_mb": round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)}


def _cmd_build_index(args) -> int:
    from . import build  # scipy is loaded by the commands that build, not by those that query

    cfg = resolve_config(args)
    corpus = corpus_mod.load_corpus(args.corpus)
    t0 = time.perf_counter()
    features = build.extract_all(corpus, cfg.handle())
    t_extract = time.perf_counter()
    ix = build.build_index(corpus, features, K=cfg.K, k=cfg.k, seed=cfg.seed)
    t_cluster = time.perf_counter()
    save_index(ix, args.out)
    # Round the timestamps, then difference them, so the parts never sum
    # past the total.
    at_extract, at_cluster, at_end = (
        round(t - t0, 3) for t in (t_extract, t_cluster, time.perf_counter())
    )
    print(json.dumps({
        "tables": len(corpus),
        "out": args.out,
        "build_seconds": at_end,
        "extract_seconds": at_extract,
        "cluster_seconds": round(at_cluster - at_extract, 3),
        **_peak_rss_mb(),
    }))
    return 0


def _open_index(args) -> tuple[RunConfig, HypergraphIndex]:
    # The index records the embedding dimension it was built with; querying
    # with anything else can only fail, so it takes the place of any other.
    ix = load_index(args.index)
    return resolve_config(args, ix.params["embedder_dimension"]), ix


def _cmd_retrieve(args) -> int:
    if not args.query.strip():
        raise UsageError("--query must contain text")
    cfg, ix = _open_index(args)
    # Retrieval reads only the query text; the task type plays no part.
    q = corpus_mod.Query(id="cli", text=args.query, task_type=corpus_mod.TaskType.SINGLE_HOP)
    coarse, result = retrieve(q, ix, cfg.handle(), cfg.ppr(), cfg.tau)
    print(json.dumps({"chosen_clusters": coarse.per_family_choice, "union_size": len(coarse.union_ids),
                      "retained_fraction": round(coarse.retained_fraction, 4)}))
    for rank, (tid, score) in enumerate(result.ranked, start=1):
        print(json.dumps({"rank": rank, "table_id": tid, "score": round(score, 6)}))
    return 0


def _cmd_build_benchmark(args) -> int:
    cfg = resolve_config(args)
    src = Path(args.sources)
    corpus = corpus_mod.load_corpus(src / "tables.jsonl")
    queries = bench.load_source_queries(src / "queries.jsonl")
    ds = bench.build_benchmark(corpus, queries, seed=cfg.seed)
    bench.save_benchmark(ds, args.out)
    print(json.dumps({"tables": len(ds.tables), "examples": len(ds.examples), "out": args.out}))
    return 0


def _cmd_eval_retrieval(args) -> int:
    ks = [x.strip() for x in args.ks.split(",") if x.strip()]  # checked before anything is loaded
    if not ks or not all(x.isdecimal() and int(x) >= 1 for x in ks):
        raise UsageError(f"--ks must list cutoffs of at least 1, separated by commas; got {args.ks!r}")
    cfg, ix = _open_index(args)
    ds = bench.load_benchmark(args.dataset)
    report = ev.run_retrieval_eval(ds, ix, cfg.handle(), cfg.ppr(), tau=cfg.tau, ks=[int(x) for x in ks])
    print(json.dumps({"per_k": {str(k): v for k, v in report.per_k.items()},
                      "mean_coarse_retained": report.mean_coarse_retained}, sort_keys=True))
    print(report.pretty(), file=sys.stderr)
    return 0


def _cmd_eval_e2e(args) -> int:
    cfg, ix = _open_index(args)
    ds = bench.load_benchmark(args.dataset)
    generate = make_generator(cfg.generator)
    report = ev.run_e2e_eval(ds, ix, cfg.handle(), generate, cfg.ppr(), tau=cfg.tau)
    print(json.dumps({"em": report.em, "f1": report.f1, "n": report.n_examples,
                      "na": report.n_na, "parse_failures": report.n_parse_failures}, sort_keys=True))
    print(report.pretty(), file=sys.stderr)
    return 0


def _cmd_inspect(args) -> int:
    ix = load_index(args.index)
    sizes = {
        phi: np.bincount(fam.assignments, minlength=fam.n_clusters).tolist()
        for phi, fam in ix.families.items()
    }
    kmeans = {
        phi: {"converged": fam.converged, "n_iter": fam.n_iter, "objective": fam.objective}
        for phi, fam in ix.families.items()
    }
    print(json.dumps({
        "tables": len(ix),
        "distinct_sem_rows": len(ix.sem_rows),
        "params": ix.params,
        "corpus_digest": ix.corpus_digest,
        "cluster_sizes": sizes,
        "kmeans": kmeans,
    }, sort_keys=True))
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "build-index": _cmd_build_index,
    "retrieve": _cmd_retrieve,
    "build-benchmark": _cmd_build_benchmark,
    "eval-retrieval": _cmd_eval_retrieval,
    "eval-e2e": _cmd_eval_e2e,
    "inspect": _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except TableRankError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
