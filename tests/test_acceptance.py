"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. The 10,000-table blob corpus is built once and shared by the coarse
filtering and latency criteria.
"""

import time
from collections import Counter

import numpy as np
import pytest

from tablerank.benchmark import (
    SourceQuery,
    build_benchmark,
    debias,
    save_benchmark,
    split_cols,
    split_rows,
)
from tablerank.coarse import coarse_retrieve
from tablerank.corpus import Query, Table, TableCorpus, TaskType
from tablerank.errors import MissingAnswerTags
from tablerank.evaluation import (
    STAGE_COARSE,
    STAGE_FINE,
    STAGE_TABLE_TO_GRAPH,
    StageTimer,
    acc_at_k,
    exact_match,
    latency_report,
    recall_at_k,
    run_retrieval_eval,
    token_f1,
)
from tablerank.features import EmbedderHandle, embed_semantic, extract_all, representative_score
from tablerank.fine import (
    PPRConfig,
    build_local_subgraph,
    ppr,
    retrieve,
)
from tablerank.index import build_index, save_index
from tablerank.linearize import linearize_query
from tablerank.prompting import build_prompt, parse_response

from conftest import make_angle_corpus, make_table, make_topic_corpus, make_topic_query
from test_fine import solve_ppr_oracle, transition_matrix


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS: {detail}")


# ---------------------------------------------------------------------------
# Shared 10k fixture (criteria: coarse filtering ratio, latency accounting)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def blob10k():
    handle = EmbedderHandle(dimension=128, batch_limit=512)
    t0 = time.perf_counter()
    corpus = make_topic_corpus(10_000, 10, seed=101, tag="blobs10k")
    features = extract_all(corpus, handle)
    ix = build_index(corpus, features, K=10, k=100, seed=13)
    build_seconds = time.perf_counter() - t0
    return corpus, handle, ix, build_seconds


def test_ppr_oracle_equivalence():
    """Iterative PPR matches the dense linear-system solve on 200 random
    graphs of up to 64 nodes, within 1e-6 L-infinity, in under 10 s."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 65))
        vecs = rng.normal(size=(n, 16))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        tau = float(rng.uniform(0.0, 1.0))
        ids = [f"n{i:03d}" for i in range(n)]
        g = build_local_subgraph(ids, vecs, tau)
        h = rng.dirichlet(np.ones(n))
        alpha = (0.3, 0.85, 0.95)[trial % 3]
        got = ppr(g.weights, h, PPRConfig(alpha=alpha, epsilon=1e-12, max_iter=5000)).scores
        expect = solve_ppr_oracle(transition_matrix(g.weights), h, alpha)
        worst = max(worst, float(np.max(np.abs(got - expect))))
        assert worst < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("ppr-oracle-equivalence", f"200 graphs, worst L-inf {worst:.2e}, {elapsed:.1f}s")


def test_cosine_ranking_degeneracy():
    """With K=1 per family, tau=0 and alpha=0.01, the fine ranking equals the
    brute-force descending-cosine order, exactly, on a 50-table fixture."""
    corpus, query = make_angle_corpus(50)
    handle = EmbedderHandle(dimension=512, batch_limit=512)
    features = extract_all(corpus, handle)
    qv = embed_semantic([linearize_query(query)], handle)[0]
    cos = {t.id: representative_score(features[t.id].sem, qv) for t in corpus}
    assert min(cos.values()) > 0.0          # fixture precondition: h keeps cosine order
    assert np.diff(sorted(cos.values())).min() > 2e-3
    ix = build_index(corpus, features, K=1, k=100, seed=0)
    _, result = retrieve(query, ix, handle, PPRConfig(alpha=0.01, top_n=len(corpus)), tau=0.0)
    brute = [tid for tid, _ in sorted(cos.items(), key=lambda p: (-p[1], p[0]))]
    got = [tid for tid, _ in result.ranked]
    assert got == brute
    _report("cosine-ranking-degeneracy", f"exact rank match over {len(corpus)} tables")


def test_coarse_filtering_ratio(blob10k):
    """On the 10,000-table blob corpus (K=10, k=100), every one of 100 random
    queries retains between 5% and 30% of the corpus after the union."""
    corpus, handle, ix, build_seconds = blob10k
    t0 = time.perf_counter()
    fractions = []
    for i in range(100):
        q = make_topic_query(i % 10, seed=1000 + i)
        fractions.append(coarse_retrieve(q, ix, handle).retained_fraction)
    query_seconds = time.perf_counter() - t0
    assert len(corpus) == 10_000
    assert min(fractions) >= 0.05
    assert max(fractions) <= 0.30
    assert build_seconds + query_seconds < 120.0
    _report(
        "coarse-filtering-ratio",
        f"fractions in [{min(fractions):.3f}, {max(fractions):.3f}], "
        f"build {build_seconds:.1f}s + queries {query_seconds:.1f}s",
    )


def test_split_round_trip():
    """Across 1,000 random tables: row splits preserve the row multiset and
    column splits reconstruct the root cell multiset via the shared first
    column. Zero violations, including after debiasing."""
    rng = np.random.default_rng(55)
    checked = 0
    for trial in range(1000):
        n_rows = int(rng.integers(3, 13))
        n_cols = int(rng.integers(4, 9))
        t = Table(
            id=f"t{trial:04d}",
            caption=f"caption {trial} records",
            headers=[f"h{trial}x{j}" for j in range(n_cols)],
            entries=[[f"c{trial}r{i}x{j}" for j in range(n_cols)] for i in range(n_rows)],
            metadata={},
        )
        if trial % 2 == 0:
            n = int(rng.integers(2, min(3, n_rows) + 1))
            subs = debias(split_rows(t, n, seed=trial), mode="row", seed=trial)
            got_rows = Counter(tuple(r) for s in subs for r in s.entries)
            assert got_rows == Counter(tuple(r) for r in t.entries)
        else:
            m = int(rng.integers(2, min(3, n_cols - 1) + 1))
            subs = debias(split_cols(t, m, seed=trial), mode="column", seed=trial)
            root_cells = Counter(c for row in t.entries for c in row)
            rebuilt = Counter(row[0] for row in subs[0].entries)
            for s in subs:
                rebuilt.update(c for row in s.entries for c in row[1:])
            assert rebuilt == root_cells
        checked += 1
    assert checked == 1000
    _report("split-round-trip", "1000 tables, zero violations")


def test_gold_retrieval_sanity():
    """Builder-generated ~300-table benchmark with queries that copy root
    caption tokens: Recall@10 at least 0.80 and at least 5x the Monte-Carlo
    random baseline."""
    rng = np.random.default_rng(77)
    tables, queries = [], []
    for r in range(150):
        dom = f"domain{r % 10}"
        caption = " ".join([dom] * 4 + [f"ent{r}a", f"ent{r}b", f"ent{r}c", "records"])
        n_rows, n_cols = int(rng.integers(4, 10)), int(rng.integers(4, 8))
        tables.append(Table(
            id=f"root{r:03d}", caption=caption,
            headers=[f"h{r}x{j}" for j in range(n_cols)],
            entries=[[f"v{r}r{i}c{j}" for j in range(n_cols)] for i in range(n_rows)],
            metadata={},
        ))
        for qn in range(3):
            queries.append(SourceQuery(
                id=f"root{r:03d}-q{qn}", root_table_id=f"root{r:03d}",
                text=f"what is the value of h{r}x{qn} for ent{r}a in the {caption} table?",
                task_type=TaskType.SINGLE_HOP, answer=f"v{r}r0c{qn}",
            ))
    dataset = build_benchmark(TableCorpus(tables, source_tag="gold"), queries, seed=21)
    assert 250 <= len(dataset.tables) <= 350

    handle = EmbedderHandle(dimension=512, batch_limit=512)
    features = extract_all(dataset.tables, handle)
    ix = build_index(dataset.tables, features, K=5, k=100, seed=3)
    report = run_retrieval_eval(dataset, ix, handle, PPRConfig(top_n=10), tau=0.5, ks=[10])
    recall = report.per_k[10]["recall"]

    mc = np.random.default_rng(99)
    ids = dataset.tables.ids()
    baseline_samples = []
    for _ in range(50):
        perm = list(mc.permutation(ids))
        for e in dataset.examples:
            baseline_samples.append(recall_at_k(perm, e.gold_table_ids, 10))
    baseline = float(np.mean(baseline_samples))

    assert recall >= 0.80
    assert recall >= 5.0 * baseline
    _report(
        "gold-retrieval-sanity",
        f"recall@10 {recall:.3f} vs random baseline {baseline:.3f} "
        f"({recall / baseline:.0f}x) over {len(dataset.examples)} queries",
    )


def test_metric_hand_checks():
    """Answer and retrieval metrics match every hand-computed example, and
    recall@k is monotone in k over 10,000+ random cases."""
    assert exact_match("Paris.", "paris") == 1
    assert token_f1("Paris.", "paris") == pytest.approx(1.0)
    assert token_f1("New York City", "York City") == pytest.approx(0.8)
    assert exact_match("", "paris") == 0 and token_f1("", "paris") == 0.0

    ranked = ["A", "B", "C", "D"]
    assert acc_at_k(ranked, {"A", "B"}, 10) == 1
    assert acc_at_k(["A", "x", "y"], {"A", "B"}, 10) == 0
    assert acc_at_k(ranked, {"C", "D"}, k=100) == 1
    assert recall_at_k(["A", "x", "y"], {"A", "B"}, 3) == pytest.approx(0.5)
    assert recall_at_k(["x", "y"], {"A"}, 2) == 0.0
    assert recall_at_k(ranked, {"A", "B"}, 4) == pytest.approx(1.0)

    rng = np.random.default_rng(12)
    universe = [f"t{i}" for i in range(25)]
    cases = 0
    for _ in range(500):
        perm = list(rng.permutation(universe))
        gold = set(rng.choice(universe, size=int(rng.integers(1, 6)), replace=False))
        prev_r, prev_a = 0.0, 0
        for k in range(1, 26):
            r = recall_at_k(perm, gold, k)
            a = acc_at_k(perm, gold, k)
            assert r >= prev_r - 1e-12
            assert a >= prev_a
            prev_r, prev_a = r, a
            cases += 1
    assert cases >= 10_000
    _report("metric-hand-checks", f"all hand values exact; {cases} monotonicity cases")


def test_prompt_contract():
    """Prompts carry the required structure (graph records with 3-decimal
    scores, the three step blocks, tag instructions); tagged responses
    round-trip 1,000 synthetic outputs with zero failures and correct NA."""
    corpus, query = make_angle_corpus(6)
    handle = EmbedderHandle(dimension=128)
    features = extract_all(corpus, handle)
    ix = build_index(corpus, features, K=1, k=10, seed=0)
    _, result = retrieve(query, ix, handle, PPRConfig(top_n=4), tau=0.0)
    bundle = build_prompt(query.text, result, list(corpus), TaskType.TFV)

    assert bundle.graph_records, "ranked tables should be interconnected"
    for rec in bundle.graph_records:
        score = rec["relationship"]["score"]
        assert rec["relationship"]["type"] == "similarity"
        assert score == round(score, 3)
        assert 0.0 <= score <= 1.0
    for block in (
        "# Step One: Find most relevant tables to answer the query",
        "# Step Two: Answer the query based on the retrieved tables",
        "# Step Three: Output Instructions (MUST strictly follow)",
        "<reasoning>",
        "</reasoning>",
        "<answer>",
        "</answer>",
        "<answer>NA</answer>",
        "return a 0 if it's false, or 1 if it's true",
    ):
        assert block in bundle.user

    rng = np.random.default_rng(31)
    failures = 0
    for i in range(1000):
        is_na = i % 7 == 0
        payload = "NA" if is_na else f"answer {i} text"
        reasoning = None if i % 3 == 0 else f"step {i}"
        body = f"<answer>{payload}</answer>"
        if reasoning is not None:
            body = f"<reasoning>{reasoning}</reasoning>\n" + body
        noise = "x" * int(rng.integers(0, 8))
        try:
            parsed = parse_response(noise + body + "\ntrailing text")
        except MissingAnswerTags:
            failures += 1
            continue
        if parsed.answer != payload or parsed.is_na != is_na or parsed.reasoning != reasoning:
            failures += 1
    assert failures == 0
    _report("prompt-contract", "structure verified; 1000/1000 round-trips, NA flagged")


def test_determinism(tmp_path):
    """Equal seeds give byte-identical index files and benchmark datasets."""
    corpus = make_topic_corpus(200, 5, seed=42, tag="determinism")
    handle = EmbedderHandle(dimension=64, batch_limit=64)
    paths = []
    for run in ("a", "b"):
        features = extract_all(corpus, handle)
        ix = build_index(corpus, features, K=4, k=10, seed=7)
        p = tmp_path / f"index_{run}.bin"
        save_index(ix, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    tables = [
        make_table(f"root{r:02d}", caption=f"ent{r}x ent{r}y notes",
                   headers=[f"h{r}{j}" for j in range(5)],
                   entries=[[f"v{r}{i}{j}" for j in range(5)] for i in range(5)])
        for r in range(20)
    ]
    queries = [
        SourceQuery(id=f"root{r:02d}-q{n}", root_table_id=f"root{r:02d}",
                    text=f"what value does h{r}{n} take for ent{r}x exactly?",
                    task_type=TaskType.SINGLE_HOP, answer=f"v{r}0{n}")
        for r in range(20) for n in range(2)
    ]
    dirs = []
    for run in ("a", "b"):
        ds = build_benchmark(TableCorpus(tables, source_tag="det"), queries, seed=17)
        out = tmp_path / f"dataset_{run}"
        save_benchmark(ds, out)
        dirs.append(out)
    for name in ("tables.jsonl", "examples.jsonl", "stats.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    _report("determinism", "index files and datasets byte-identical across reruns")


def test_latency_accounting(blob10k):
    """Staged timers report the three stage names with total equal to their
    sum; the 10k-table build plus 100 fine retrievals finishes inside 5 min."""
    corpus, handle, ix, build_seconds = blob10k
    timer = StageTimer()
    timer.add(STAGE_TABLE_TO_GRAPH, build_seconds)
    cfg = PPRConfig(top_n=10)
    t0 = time.perf_counter()
    for i in range(100):
        q = make_topic_query(i % 10, seed=5000 + i)
        _, result = retrieve(q, ix, handle, cfg, tau=0.5)
        timer.add(STAGE_COARSE, result.timings[STAGE_COARSE])
        timer.add(STAGE_FINE, result.timings[STAGE_FINE])
        assert len(result.ranked) == 10
    retrieval_seconds = time.perf_counter() - t0

    report = latency_report(timer)
    assert set(report) == {STAGE_TABLE_TO_GRAPH, STAGE_COARSE, STAGE_FINE, "Total"}
    stage_sum = report[STAGE_TABLE_TO_GRAPH] + report[STAGE_COARSE] + report[STAGE_FINE]
    assert report["Total"] == pytest.approx(stage_sum, abs=1e-9)
    assert build_seconds + retrieval_seconds < 300.0

    disabled = StageTimer(enabled=False)
    disabled.add(STAGE_COARSE, 1.0)
    assert latency_report(disabled) == {}
    _report(
        "latency-accounting",
        f"build {build_seconds:.1f}s + 100 retrievals {retrieval_seconds:.1f}s; "
        f"stages {report[STAGE_TABLE_TO_GRAPH]:.1f}/{report[STAGE_COARSE]:.1f}/{report[STAGE_FINE]:.1f}s",
    )
