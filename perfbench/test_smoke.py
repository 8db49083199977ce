"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names, and the unbounded median
latency and throughput, is emitted with its unit on every workload, that a
failing operation is counted rather than fatal, and that the benchmark
refuses to run without the library's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

from tablerank import Query, TaskType  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def toy(name: str):
    w = WORKLOADS[name]
    if w.kind == "gold":
        return dataclasses.replace(w, size=40, n_topics=4, K=4, k=20, n_queries=5)
    return dataclasses.replace(w, size=240, n_topics=w.n_topics // 10 + 2, K=w.K // 10 + 2, k=20, n_queries=5)


def test_spec_lists_the_emitted_metrics():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, traced, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 12)
    report = run.run(toy(name), 5, 0.0, traced, tmp_path, time.monotonic() + 170)
    section = SPEC["per_layer" if traced else "end_to_end"]
    assert report["failed"] == 0, report["problems"]
    assert not report["problems"]
    assert report["attempted"] >= 12
    for m in section:
        got = report["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    for name, unit in ({} if traced else run.UNBOUNDED).items():
        assert report["unbounded"][name]["unit"] == unit
        assert isinstance(report["unbounded"][name]["value"], float)
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads", "git_commit"):
        assert key in report["machine"]


def test_an_empty_query_counts_as_a_failed_operation(tmp_path):
    w = toy("blob-wide")
    write_inputs(w, 3, tmp_path)
    worker.setup(tmp_path, w, 0)
    tables, queries = worker.load_queries(tmp_path, w, 3)
    ix = worker.load_index(tmp_path / "index.bin")
    ctx = worker.Context(
        w=w, ix=ix, handle=worker.EmbedderHandle(dimension=w.dimension),
        cfg=worker.PPRConfig(top_n=w.top_n), tables=tables,
        pos_of={tid: i for i, tid in enumerate(ix.table_ids)},
    )
    bad = Query(id="empty", text="", task_type=TaskType.SINGLE_HOP)
    queries = queries[:2] + [(bad, set())] + queries[2:]
    ops: list = []
    worker.run_queries(ctx, queries, 0, 2 * len(queries), False, ops, [])
    attempted, failed, problems = run.tally(ops)
    assert (attempted, failed) == (2 * len(queries), 2)
    assert problems[0].startswith("empty: ValueError")
    assert sum(op["recall"] is not None for op in ops) == len(queries) - 1  # first runs that succeeded


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blob-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
