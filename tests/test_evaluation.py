import numpy as np
import pytest

from tablerank.benchmark import SourceQuery, build_benchmark
from tablerank.build import build_index, extract_all
from tablerank.corpus import Query, TableCorpus, TaskType
from tablerank.errors import EmptyGold
from tablerank.evaluation import (
    acc_at_k,
    answer_scores,
    exact_match,
    normalize_answer,
    recall_at_k,
    run_e2e_eval,
    run_retrieval_eval,
    token_f1,
)
from tablerank.fine import PPRConfig, retrieve

from conftest import make_table


class TestRetrievalMetrics:
    def test_acc_full_coverage(self):
        ranked = ["a", "b", "c", "d"]
        assert acc_at_k(ranked, {"a", "b"}, 10) == 1
        assert acc_at_k(ranked, {"a", "z"}, 10) == 0

    def test_acc_any_mode(self):
        ranked = ["a", "b"]
        assert acc_at_k(ranked, {"a", "z"}, 10, mode="any") == 1
        assert acc_at_k(ranked, {"y", "z"}, 10, mode="any") == 0

    def test_acc_k_at_least_corpus(self):
        ranked = [f"t{i}" for i in range(5)]
        assert acc_at_k(ranked, {"t3", "t4"}, k=100) == 1

    def test_recall_values(self):
        ranked = ["a", "x", "y"]
        assert recall_at_k(ranked, {"a", "b"}, 3) == pytest.approx(0.5)
        assert recall_at_k(ranked, {"p", "q"}, 3) == 0.0
        assert recall_at_k(ranked, {"a", "x"}, 3) == pytest.approx(1.0)

    def test_empty_gold_rejected(self):
        with pytest.raises(EmptyGold):
            acc_at_k(["a"], set(), 1)
        with pytest.raises(EmptyGold):
            recall_at_k(["a"], set(), 1)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            acc_at_k(["a"], {"a"}, 0)
        with pytest.raises(ValueError):
            acc_at_k(["a"], {"a"}, 1, mode="sometimes")

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        universe = [f"t{i}" for i in range(30)]
        for _ in range(300):
            ranked = list(rng.permutation(universe))
            gold = set(rng.choice(universe, size=int(rng.integers(1, 5)), replace=False))
            prev_acc, prev_rec = 0, 0.0
            for k in range(1, 31):
                a = acc_at_k(ranked, gold, k)
                r = recall_at_k(ranked, gold, k)
                assert a >= prev_acc
                assert r >= prev_rec - 1e-12
                prev_acc, prev_rec = a, r


class TestAnswerMetrics:
    def test_normalization_handles_case_punct_articles(self):
        assert exact_match("Paris.", "paris") == 1
        assert token_f1("Paris.", "paris") == pytest.approx(1.0)
        assert normalize_answer("The  Answer!") == "answer"

    def test_hand_computed_f1(self):
        # pred tokens {new, york, city}, gold {york, city}:
        # precision 2/3, recall 1 -> F1 = 0.8
        assert token_f1("New York City", "York City") == pytest.approx(0.8)
        assert exact_match("New York City", "York City") == 0

    def test_empty_prediction(self):
        assert exact_match("", "paris") == 0
        assert token_f1("", "paris") == 0.0

    def test_em_implies_f1(self):
        rng = np.random.default_rng(1)
        words = ["alpha", "beta", "gamma", "delta", "The", "a."]
        for _ in range(200):
            pred = " ".join(rng.choice(words, size=int(rng.integers(1, 5))))
            gold = " ".join(rng.choice(words, size=int(rng.integers(1, 5))))
            em, f1 = exact_match(pred, gold), token_f1(pred, gold)
            assert em <= f1 + 1e-12
            if em == 1:
                assert f1 == pytest.approx(1.0)

    def test_list_answers_exact(self):
        em, f1 = answer_scores(["Paris", "Rome"], ["rome", "paris."])
        assert em == 1 and f1 == pytest.approx(1.0)

    def test_list_answers_partial(self):
        em, f1 = answer_scores(["Paris"], ["Paris", "Rome"])
        assert em == 0
        assert f1 == pytest.approx(0.5)

    def test_string_prediction_split_for_list_gold(self):
        em, f1 = answer_scores("Paris, Rome", ["Rome", "Paris"])
        assert em == 1 and f1 == pytest.approx(1.0)

    def test_tfv_labels(self):
        assert answer_scores("1", 1) == (1, 1.0)
        assert answer_scores("0", 1)[0] == 0


def _mini_benchmark(handle, K=3):
    """Builder-produced dataset plus an index over its tables."""
    tables, queries = [], []
    for r in range(12):
        caption = f"ent{r}a ent{r}b ent{r}c records"
        tables.append(make_table(
            f"root{r:02d}", caption=caption,
            headers=[f"h{r}x{j}" for j in range(5)],
            entries=[[f"r{i}c{j}v{r}" for j in range(5)] for i in range(5)],
        ))
        for qn in range(2):
            queries.append(SourceQuery(
                id=f"root{r:02d}-q{qn}", root_table_id=f"root{r:02d}",
                text=f"what is the recorded value of h{r}x{qn} for ent{r}a in {caption}?",
                task_type=TaskType.SINGLE_HOP, answer=f"r0c{qn}v{r}",
            ))
    ds = build_benchmark(TableCorpus(tables), queries, seed=5)
    feats = extract_all(ds.tables, handle)
    ix = build_index(ds.tables, feats, K=K, k=10, seed=5)
    return ds, ix


class TestRunRetrievalEval:
    def test_gold_always_covered_when_k_is_corpus_size(self, handle):
        # K=1 keeps the whole corpus as candidates, so every ranking covers
        # the gold set once k reaches the corpus size.
        ds, ix = _mini_benchmark(handle, K=1)
        n = len(ds.tables)
        report = run_retrieval_eval(ds, ix, handle, PPRConfig(), tau=0.0, ks=[n])
        assert report.per_k[n]["acc"] == pytest.approx(1.0)
        assert report.per_k[n]["recall"] == pytest.approx(1.0)

    def test_single_k_entry(self, handle):
        ds, ix = _mini_benchmark(handle)
        report = run_retrieval_eval(ds, ix, handle, PPRConfig(), tau=0.3, ks=[10])
        assert list(report.per_k) == [10]
        assert 0.0 <= report.per_k[10]["recall"] <= 1.0

    def test_repeated_cutoff_counts_each_query_once(self, handle):
        ds, ix = _mini_benchmark(handle, K=1)
        n = len(ds.tables)
        once = run_retrieval_eval(ds, ix, handle, PPRConfig(), tau=0.0, ks=[5, n])
        twice = run_retrieval_eval(ds, ix, handle, PPRConfig(), tau=0.0, ks=[n, 5, n, 5])
        assert twice.per_k == once.per_k
        assert twice.per_k[n] == {"acc": 1.0, "acc_any": 1.0, "recall": 1.0}
        assert twice.pretty() == once.pretty()
        assert [line.split()[0] for line in twice.pretty().splitlines()[-2:]] == ["5", str(n)]

    def test_top_n_plays_no_part(self, handle):
        # Each query is ranked to max(ks), whatever the config's top_n.
        ds, ix = _mini_benchmark(handle)
        short = run_retrieval_eval(ds, ix, handle, PPRConfig(top_n=1), tau=0.3, ks=[1, 5, 10])
        long = run_retrieval_eval(ds, ix, handle, PPRConfig(top_n=200), tau=0.3, ks=[1, 5, 10])
        assert short == long

    def test_acc_any_is_the_mean_of_any_mode(self, handle):
        ds, ix = _mini_benchmark(handle)
        ks = [1, 2, 5]
        report = run_retrieval_eval(ds, ix, handle, PPRConfig(), tau=0.3, ks=ks)
        ranked = [[tid for tid, _ in retrieve(e.query, ix, handle, PPRConfig(top_n=5), 0.3)[1].ranked]
                  for e in ds.examples]
        for k in ks:
            for mode, key in (("all", "acc"), ("any", "acc_any")):
                hits = [acc_at_k(r, e.gold_table_ids, k, mode=mode) for r, e in zip(ranked, ds.examples)]
                assert report.per_k[k][key] == np.mean(hits)
        assert any(report.per_k[k]["acc_any"] > report.per_k[k]["acc"] for k in ks)  # fixture precondition

    def test_recall_monotone_across_ks(self, handle):
        ds, ix = _mini_benchmark(handle)
        report = run_retrieval_eval(ds, ix, handle, PPRConfig(), tau=0.3, ks=[5, 10, 20])
        recalls = [report.per_k[k]["recall"] for k in (5, 10, 20)]
        assert recalls == sorted(recalls)

    def test_random_ranking_monte_carlo_baseline(self):
        # Metric-level oracle: random rankings over 100 tables with one gold
        # table give expected recall@10 of about 0.10.
        rng = np.random.default_rng(42)
        universe = [f"t{i}" for i in range(100)]
        hits = [recall_at_k(list(rng.permutation(universe)), {"t7"}, 10) for _ in range(4000)]
        assert np.mean(hits) == pytest.approx(0.10, abs=0.02)


class TestRunE2EEval:
    def test_echo_stub_scores_perfectly(self, handle):
        ds, ix = _mini_benchmark(handle)
        answers = {e.query.id: e.query.gold_answer for e in ds.examples}
        order = iter(ds.examples)

        def echo(system, user):
            example = next(order)
            gold = answers[example.query.id]
            payload = ", ".join(gold) if isinstance(gold, list) else str(gold)
            return f"<reasoning>copy</reasoning><answer>{payload}</answer>"

        report = run_e2e_eval(ds, ix, handle, echo)
        assert report.em == pytest.approx(1.0)
        assert report.f1 == pytest.approx(1.0)
        assert report.n_parse_failures == 0

    def test_na_counts_zero_but_does_not_crash(self, handle):
        ds, ix = _mini_benchmark(handle)
        report = run_e2e_eval(ds, ix, handle, lambda s, u: "<answer>NA</answer>")
        assert report.em == 0.0
        assert report.n_na == report.n_examples

    def test_missing_tags_marked_parse_failure(self, handle):
        ds, ix = _mini_benchmark(handle)
        report = run_e2e_eval(ds, ix, handle, lambda s, u: "no tags at all")
        assert report.n_parse_failures == report.n_examples
        assert report.em == 0.0
        assert all(not rec["parse_ok"] for rec in report.per_example)
