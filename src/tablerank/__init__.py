"""tablerank: graph-based retrieval over corpora of individual tables."""

from .corpus import Query, Table, TableCorpus, TaskType, load_corpus, save_corpus, validate_table
from .features import EmbedderHandle, NodeFeatures
from .index import HypergraphIndex, load_index, save_index
from .coarse import CoarseResult, coarse_retrieve, query_features
from .fine import PPRConfig, RetrievalResult, fine_retrieve, ppr, retrieve
from .prompting import PromptBundle, ParsedResponse, build_prompt, parse_response, render_table_html
from .benchmark import (
    BenchmarkDataset,
    BenchmarkExample,
    SourceQuery,
    build_benchmark,
    load_benchmark,
    save_benchmark,
)
from .evaluation import (
    AnswerReport,
    RetrievalReport,
    acc_at_k,
    exact_match,
    recall_at_k,
    run_e2e_eval,
    run_retrieval_eval,
    token_f1,
)

__version__ = "0.1.0"

# Set-up names, imported from ``tablerank.build`` (and so scipy) on first use:
# a process that only loads an index and answers queries never imports them.
_BUILD_NAMES = ("CorpusFeatures", "build_index", "extract_all", "kmeans")


def __getattr__(name: str):
    if name in _BUILD_NAMES:
        from . import build

        return getattr(build, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_BUILD_NAMES])

__all__ = [
    "AnswerReport",
    "BenchmarkDataset",
    "BenchmarkExample",
    "CoarseResult",
    "CorpusFeatures",
    "EmbedderHandle",
    "HypergraphIndex",
    "NodeFeatures",
    "PPRConfig",
    "ParsedResponse",
    "PromptBundle",
    "Query",
    "RetrievalReport",
    "RetrievalResult",
    "SourceQuery",
    "Table",
    "TableCorpus",
    "TaskType",
    "acc_at_k",
    "build_benchmark",
    "build_index",
    "build_prompt",
    "coarse_retrieve",
    "exact_match",
    "extract_all",
    "fine_retrieve",
    "kmeans",
    "load_benchmark",
    "load_corpus",
    "load_index",
    "parse_response",
    "ppr",
    "query_features",
    "recall_at_k",
    "render_table_html",
    "retrieve",
    "run_e2e_eval",
    "run_retrieval_eval",
    "save_benchmark",
    "save_corpus",
    "save_index",
    "token_f1",
    "validate_table",
    "__version__",
]
