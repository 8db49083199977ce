"""Run one tablerank benchmark workload and print its metrics.

    python3 perfbench/run.py --workload blob-wide --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. A run makes a few corpora from the seed (``Workload.rounds``) and
sets each one's index up in a fresh process, followed by a query server for
it: a process that only loads the index and answers queries. Then, until
``--seconds`` have passed since the first set-up, it sends a few queries to
each server in turn.
Working files go under ``.perfbench/`` and the full report (machine facts,
every operation, spans) to ``.perfbench/results/``. The last line of standard
output is the result, ``{"correct", "attempted", "failed", "metrics"}``, with
the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_OPS = 200   # operations per run: at least 10 samples beyond p95
CHUNK = 10      # queries sent to one server before the next server's turn
RUN_LIMIT_S = 175.0
# One BLAS thread: the client is one closed loop, and a second OpenBLAS thread
# spins on the other CPU without making the workloads' operations faster.
BLAS_THREADS = 1

# Printed and kept in the report, but not in BENCHMARK.json: on a shared host
# they swing with the host's speed (see README, "Why p95 and not the median").
UNBOUNDED = {"latency_p50_ms": "ms", "throughput_qps": "ops/s"}

END_TO_END = {
    "setup_s": "s",
    "setup_rss_mb": "MB",
    "index_mb": "MB",
    "latency_p95_ms": "ms",
    "query_rss_mb": "MB",
    "recall_at_10": "ratio",
}

PER_LAYER = {
    "corpus.load_s": "s",
    "ingest_s": "s",
    "features.extract_s": "s",
    "index.build_s": "s",
    "index.save_s": "s",
    "index.load_s": "s",
    "features.query_ms_p50": "ms",
    "coarse.ms_p50": "ms",
    "coarse.ms_p95": "ms",
    "coarse.op_share": "ratio",
    "coarse.candidates_p50": "count",
    "coarse.candidates_max": "count",
    "coarse.retained_fraction": "ratio",
    "coarse.gold_kept": "ratio",
    "fine.ms_p50": "ms",
    "fine.ms_p95": "ms",
    "fine.op_share": "ratio",
    "fine.ppr_iters_p50": "count",
    "fine.ppr_iters_max": "count",
    "fine.ppr_truncated": "count",
    "fine.edge_density": "ratio",
    "fine.peak_traced_mb": "MB",
    "prompting.build_ms_p50": "ms",
    "prompting.parse_ms_p50": "ms",
    "prompting.prompt_chars": "count",
    "trace.overhead_pct": "%",
}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(blas_threads: int) -> dict:
    """Import the library from src/ and fix the BLAS thread count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark run exceeded its time limit")
    return left


def run_worker(args: list[str], env: dict, deadline: float) -> None:
    """One child process; it is killed and reaped if the run's time is up."""
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, stdout=sys.stderr, check=True, timeout=remaining(deadline),
    )


def start_server(args: list[str], env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "serve", *args],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
    )


def receive(proc: subprocess.Popen, deadline: float) -> list[str]:
    """The server's next reply line, split; a dead or silent server is an error."""
    ready, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise RuntimeError(f"query server {proc.args[3:]} stopped answering")
    return line.split()


def ask(proc: subprocess.Popen, command: str, deadline: float) -> list[str]:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()
    reply = receive(proc, deadline)
    if reply[0] != "ok":
        raise RuntimeError(f"query server answered {reply!r} to {command!r}")
    return reply


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(setups: list[dict], servers: list[dict], ops: list) -> dict:
    lat = [op["latency_s"] for op in ops if op["latency_s"] is not None]
    lat_ms = [x * 1e3 for x in lat]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "setup_rss_mb": statistics.median(s["setup_rss_mb"] for s in setups),
        "index_mb": statistics.median(s["index_mb"] for s in setups),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p95_ms": percentile(lat_ms, 95),
        "throughput_qps": len(lat) / sum(lat),
        "query_rss_mb": statistics.median(sv["query_rss_mb"] for sv in servers),
        "recall_at_10": statistics.fmean(op["recall"] for op in ops if op["recall"] is not None),
    }


def tally(ops: list) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and the first few problems."""
    failed = [op for op in ops if op["problems"]]
    return len(ops), len(failed), [p for op in failed for p in op["problems"]][:5]


def span_problems(spans: list) -> list[str]:
    """Each traced operation's child spans must tile its root span exactly."""
    children: dict[int, float] = {}
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    problems = []
    for i, (name, start, end, parent, op, _) in enumerate(spans):
        if name == "query" and abs(children.get(i, 0.0) - (end - start)) > 1e-6 * max(end - start, 1e-3):
            problems.append(f"op {op}: child spans cover {children.get(i, 0.0):.6f}s of {end - start:.6f}s")
    return problems


def per_layer(setups: list[dict], ops: list, spans: list) -> dict:
    def setup_s(*names: str) -> float:
        return statistics.median(
            sum(e - s for n, s, e, *_ in st["spans"] if n in names) for st in setups
        )

    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def ms(name: str) -> list[float]:
        return [(e - s) * 1e3 for _, s, e, *_ in by_name.get(name, [])]

    def attr(name: str, key: str) -> list:
        return [span[5][key] for span in by_name.get(name, []) if key in span[5]]

    op_total = sum(ms("query"))
    traced = [op["latency_s"] * 1e3 for op in ops if op["latency_s"] is not None and op["traced"]]
    untraced = [op["latency_s"] * 1e3 for op in ops if op["latency_s"] is not None and not op["traced"]]
    candidates = attr("coarse", "candidates")
    iters = attr("fine", "ppr_iters")
    return {
        "corpus.load_s": setup_s("corpus.load"),
        "ingest_s": setup_s("corpus.load", "benchmark.build"),
        "features.extract_s": setup_s("features.extract"),
        "index.build_s": setup_s("index.build"),
        "index.save_s": setup_s("index.save"),
        "index.load_s": setup_s("index.load"),
        "features.query_ms_p50": percentile(ms("features.query"), 50),
        "coarse.ms_p50": percentile(ms("coarse"), 50),
        "coarse.ms_p95": percentile(ms("coarse"), 95),
        "coarse.op_share": sum(ms("coarse")) / op_total,
        "coarse.candidates_p50": percentile(candidates, 50),
        "coarse.candidates_max": max(candidates),
        "coarse.retained_fraction": statistics.fmean(attr("coarse", "retained_fraction")),
        "coarse.gold_kept": statistics.fmean(attr("coarse", "gold_kept")),
        "fine.ms_p50": percentile(ms("fine"), 50),
        "fine.ms_p95": percentile(ms("fine"), 95),
        "fine.op_share": sum(ms("fine")) / op_total,
        "fine.ppr_iters_p50": percentile(iters, 50),
        "fine.ppr_iters_max": max(iters),
        "fine.ppr_truncated": sum(attr("fine", "truncated")),
        "fine.edge_density": statistics.fmean(attr("fine", "edge_density")),
        "fine.peak_traced_mb": max(attr("fine", "peak_traced_mb")),
        "prompting.build_ms_p50": percentile(ms("prompting.build"), 50),
        "prompting.parse_ms_p50": percentile(ms("prompting.parse"), 50),
        "prompting.prompt_chars": statistics.fmean(attr("prompting.build", "prompt_chars")),
        "trace.overhead_pct": (percentile(traced, 50) / percentile(untraced, 50) - 1.0) * 100.0,
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def cycle(servers: list, traced: bool, deadline: float) -> tuple[int, bool]:
    """One closed-loop client: ``CHUNK`` queries to each server in turn, one
    at a time. Returns the operations done (traced: traced operations) and
    whether every server has run its whole query set at least once."""
    done, covered = 0, True
    for proc in servers:
        _, n_ops, n_traced, all_run = ask(proc, f"run {CHUNK}", deadline)
        done += int(n_traced) if traced else int(n_ops)
        covered = covered and all_run == "1"
    return done, covered


def run(w, seed: int, seconds: float, traced: bool, workdir: Path, deadline: float) -> dict:
    """Set up each of ``w.rounds`` corpora made from the seed and start a
    query server for it. Then cycle over the servers until ``seconds`` have
    passed since the first set-up, ``MIN_OPS`` operations (traced: traced
    operations) are done and every query has run. Returns the full report:
    metrics, machine facts, problems and spans."""
    nproc = len(os.sched_getaffinity(0))
    env = child_env(BLAS_THREADS)
    rounds, setups, servers = [], [], []
    start = time.monotonic()
    try:
        for rnd in range(w.rounds):
            rdir = workdir / f"round-{rnd}"
            rseed = int(np.random.SeedSequence([seed, rnd]).generate_state(1)[0])
            write_inputs(w, rseed, rdir)
            (rdir / "workload.json").write_text(json.dumps(dataclasses.asdict(w)), encoding="utf-8")
            run_worker(["setup", str(rdir), str(rnd)], env, deadline)
            setups.append(_read(rdir / f"setup-{rnd}.json"))
            rounds.append((rdir, rseed))
            proc = start_server([str(rdir), str(rseed), str(rnd), str(int(traced))], env)
            servers.append(proc)
            if receive(proc, deadline) != ["ready"]:
                raise RuntimeError("query server did not report ready")
            ask(proc, "warmup", deadline)
        done, covered = 0, False
        while not covered or done < MIN_OPS or time.monotonic() - start < seconds:
            n, covered = cycle(servers, traced, deadline)
            done += n
        for proc in servers:
            proc.stdin.close()  # end of input: the server writes its report and exits
        for proc in servers:
            if proc.wait(timeout=remaining(deadline)) != 0:
                raise RuntimeError(f"query server exited with code {proc.returncode}")
    finally:
        for proc in servers:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except BrokenPipeError:  # the server is gone; nothing is left to send
                    pass
    served = [_read(rdir / f"serve-{rnd}.json") for rnd, (rdir, _) in enumerate(rounds)]

    ops = [op for sv in served for op in sv["ops"]]
    spans = []
    for sv in served:
        offset = len(spans)
        spans += [[n, a, b, None if p is None else p + offset, op, at] for n, a, b, p, op, at in sv["spans"]]

    attempted, failed, problems = tally(ops)
    if traced:
        problems += span_problems(spans)[:5]
    metrics = per_layer(setups, ops, spans) if traced else end_to_end(setups, served, ops)
    units = PER_LAYER if traced else END_TO_END
    return {
        "workload": dataclasses.asdict(w),
        "seed": seed,
        "trace": int(traced),
        "machine": {**served[0]["machine"], "nproc": nproc, "git_commit": git_commit()},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "unbounded": {} if traced else {name: {"value": metrics[name], "unit": unit} for name, unit in UNBOUNDED.items()},
        "setups": [{k: v for k, v in s.items() if k != "spans"} for s in setups],
        "query_rss_mb": [sv["query_rss_mb"] for sv in served],
        "ops": ops,
        "spans": {"setup": [s["spans"] for s in setups], "query": spans},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tablerank" / "__init__.py").is_file():
        print(f"error: no tablerank sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report), encoding="utf-8"
    )
    print(json.dumps({"machine": report["machine"], "seed": args.seed, "workload": args.workload}))
    for p in report["problems"]:
        print(f"problem: {p}")
    print(f"error_rate {report['error_rate']:.6f} ratio ({report['failed']}/{report['attempted']} operations)")
    for name, m in report["unbounded"].items():
        print(f"{name} {m['value']:.6g} {m['unit']} (not bounded)")
    for name, m in report["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not report["problems"] and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
