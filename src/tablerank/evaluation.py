"""Retrieval and answer metrics, retrieval and end-to-end evaluation runs.

Retrieval metrics: recall@k is the fraction of gold tables inside the top-k;
acc@k is 1 when the gold set is fully covered by the top-k ("all" mode, the
default) or when any gold table appears ("any" mode). A retrieval run
reports both modes, as ``acc`` and ``acc_any``, with ``recall`` for each
cutoff.

Answer metrics follow the usual QA normalization (lowercase, drop
punctuation, drop articles, collapse whitespace) with token-level F1. List
answers are scored by greedy best-pair matching averaged over the longer
side, so exact-match lists always reach F1 = 1.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .benchmark import BenchmarkDataset
from .errors import EmptyGold, MissingAnswerTags, UsageError
from .features import EmbedderHandle
from .fine import DEFAULT_TAU, PPRConfig, retrieve
from .index import HypergraphIndex, corpus_digest
from .prompting import GenerateFn, build_prompt, parse_response

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(s: str) -> str:
    s = str(s).lower()
    s = s.translate(_PUNCT_TABLE)
    s = _ARTICLE_RE.sub(" ", s)
    return " ".join(s.split())


def exact_match(pred: str, gold: str) -> int:
    return int(normalize_answer(pred) == normalize_answer(gold))


def token_f1(pred: str, gold: str) -> float:
    pred_tokens = normalize_answer(pred).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    common = Counter(pred_tokens) & Counter(gold_tokens)
    n_same = sum(common.values())
    if n_same == 0:
        return 0.0
    precision = n_same / len(pred_tokens)
    recall = n_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def _as_list(answer) -> list[str]:
    if isinstance(answer, (list, tuple)):
        return [str(a) for a in answer]
    text = str(answer)
    if re.search(r"[;,]", text):
        return [part.strip() for part in re.split(r"[;,]", text) if part.strip()]
    return [text]


def _list_em(pred: list[str], gold: list[str]) -> int:
    return int(sorted(normalize_answer(p) for p in pred) == sorted(normalize_answer(g) for g in gold))


def _list_f1(pred: list[str], gold: list[str]) -> float:
    if not pred or not gold:
        return float(not pred and not gold)
    pairs = sorted(
        ((i, j, token_f1(p, g)) for i, p in enumerate(pred) for j, g in enumerate(gold)),
        key=lambda t: (-t[2], t[0], t[1]),
    )
    used_p: set[int] = set()
    used_g: set[int] = set()
    total = 0.0
    for i, j, f in pairs:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        total += f
    return total / max(len(pred), len(gold))


def answer_scores(pred, gold) -> tuple[int, float]:
    """(exact match, token F1) for string or list answers.

    When the gold answer is a list and the prediction is a flat string, the
    prediction is split on commas/semicolons before matching. A null gold
    answer (an example with no known answer) scores (0, 0.0) whatever the
    prediction.
    """
    if gold is None:
        return 0, 0.0
    if isinstance(gold, (list, tuple)):
        pred_list = _as_list(pred)
        gold_list = [str(g) for g in gold]
        return _list_em(pred_list, gold_list), _list_f1(pred_list, gold_list)
    em = exact_match(str(pred), str(gold))
    return em, token_f1(str(pred), str(gold))


def acc_at_k(ranked_ids: Sequence[str], gold: set[str], k: int, mode: str = "all") -> int:
    """1 iff the top-k covers the gold set ("all") or hits any of it ("any")."""
    if not gold:
        raise EmptyGold("acc@k needs a non-empty gold set")
    if k < 1:
        raise ValueError("k must be at least 1")
    top = set(ranked_ids[:k])
    if mode == "all":
        return int(gold <= top)
    if mode == "any":
        return int(bool(gold & top))
    raise ValueError(f"unknown acc mode {mode!r}")


def recall_at_k(ranked_ids: Sequence[str], gold: set[str], k: int) -> float:
    if not gold:
        raise EmptyGold("recall@k needs a non-empty gold set")
    return len(set(ranked_ids[:k]) & gold) / len(gold)


# ---------------------------------------------------------------------------
# Evaluation runs
# ---------------------------------------------------------------------------


@dataclass
class RetrievalReport:
    per_k: dict[int, dict[str, float]]  # ascending cutoffs: acc, acc_any, recall
    n_queries: int
    corpus_size: int
    mean_coarse_retained: float

    def pretty(self) -> str:
        lines = [
            f"queries: {self.n_queries}   corpus: {self.corpus_size} tables",
            f"after coarse (mean): {self.mean_coarse_retained:.1f} tables "
            f"({100 * (self.mean_coarse_retained / max(self.corpus_size, 1)):.1f}% retained)",
            "k      acc@k    acc_any@k  recall@k",
        ]
        for k, row in self.per_k.items():
            lines.append(f"{k:<6d} {row['acc']:.4f}   {row['acc_any']:.4f}     {row['recall']:.4f}")
        return "\n".join(lines)


@dataclass
class AnswerReport:
    em: float
    f1: float
    n_examples: int
    n_parse_failures: int
    n_na: int
    per_example: list[dict] = field(default_factory=list)

    def pretty(self) -> str:
        return (
            f"examples: {self.n_examples}   EM: {self.em:.4f}   F1: {self.f1:.4f}   "
            f"NA: {self.n_na}   parse failures: {self.n_parse_failures}"
        )


def _check_dataset(dataset: BenchmarkDataset, ix: HypergraphIndex) -> None:
    """An index of any other corpus ranks tables the dataset does not hold,
    and a dataset without examples has no mean to report."""
    if ix.corpus_digest != corpus_digest(dataset.tables):
        raise UsageError("the index was built from another corpus than the dataset's tables")
    if not dataset.examples:
        raise EmptyGold("dataset has no examples")


def run_retrieval_eval(
    dataset: BenchmarkDataset,
    ix: HypergraphIndex,
    embedder: EmbedderHandle,
    cfg: PPRConfig | None = None,
    tau: float = DEFAULT_TAU,
    ks: Sequence[int] = (10, 20, 50),
) -> RetrievalReport:
    """Mean acc@k (both modes) and recall@k over the dataset's examples.
    Each query is ranked to max(ks), whatever ``cfg.top_n`` holds."""
    _check_dataset(dataset, ix)
    ks = sorted(set(ks))
    run_cfg = replace(cfg or PPRConfig(), top_n=max(ks))
    sums = {k: {"acc": 0.0, "acc_any": 0.0, "recall": 0.0} for k in ks}
    retained: list[int] = []
    for example in dataset.examples:
        if not example.gold_table_ids:
            raise EmptyGold(f"example {example.query.id} has no gold tables")
        coarse, result = retrieve(example.query, ix, embedder, run_cfg, tau)
        ranked_ids = [tid for tid, _ in result.ranked]
        retained.append(len(coarse.union_ids))
        for k in ks:
            sums[k]["acc"] += acc_at_k(ranked_ids, example.gold_table_ids, k)
            sums[k]["acc_any"] += acc_at_k(ranked_ids, example.gold_table_ids, k, "any")
            sums[k]["recall"] += recall_at_k(ranked_ids, example.gold_table_ids, k)
    n = len(dataset.examples)
    per_k = {k: {name: total / n for name, total in sums[k].items()} for k in ks}
    return RetrievalReport(
        per_k=per_k,
        n_queries=n,
        corpus_size=len(ix),
        mean_coarse_retained=float(np.mean(retained)),
    )


def run_e2e_eval(
    dataset: BenchmarkDataset,
    ix: HypergraphIndex,
    embedder: EmbedderHandle,
    generate: GenerateFn,
    cfg: PPRConfig | None = None,
    tau: float = DEFAULT_TAU,
) -> AnswerReport:
    """Retrieve, prompt, generate, parse, score. NA answers, parse failures
    and examples whose gold answer is null score 0: a null gold answer (a
    merged example with an unanswered source, or an unanswered single
    source) matches no prediction, not even the text "None"."""
    _check_dataset(dataset, ix)
    cfg = cfg or PPRConfig()
    per_example: list[dict] = []
    for example in dataset.examples:
        coarse, result = retrieve(example.query, ix, embedder, cfg, tau)
        tables = [dataset.tables.get(tid) for tid, _ in result.ranked]
        bundle = build_prompt(example.query.text, result, tables, example.query.task_type)
        raw = generate(bundle.system, bundle.user)
        record = {"id": example.query.id, "em": 0, "f1": 0.0, "parse_ok": True, "is_na": False}
        try:
            parsed = parse_response(raw)
        except MissingAnswerTags:
            record["parse_ok"] = False
        else:
            record["is_na"] = parsed.is_na
            if not parsed.is_na:
                em, f1 = answer_scores(parsed.answer, example.query.gold_answer)
                record.update(em=em, f1=f1, pred=parsed.answer)
        per_example.append(record)
    n = len(dataset.examples)
    return AnswerReport(
        em=sum(r["em"] for r in per_example) / n,
        f1=sum(r["f1"] for r in per_example) / n,
        n_examples=n,
        n_parse_failures=sum(not r["parse_ok"] for r in per_example),
        n_na=sum(r["is_na"] for r in per_example),
        per_example=per_example,
    )
