"""Graph-aware prompt assembly and tagged-response parsing.

The prompt walks the model through three steps: pick the relevant tables
(with the retrieved tables rendered as plain HTML grids and the inter-table
similarity edges listed as JSON records), answer the task, and emit its
chain of thought between <reasoning> tags plus the final answer between
<answer> tags. "NA" inside the answer tags means the model could not find an
answer.

Tables are aliased "Table 1".."Table n" in rank order; graph records refer to
those aliases and only cover edges among the ranked tables, each undirected
edge emitted once with the lower alias first. Edge scores are rounded to
three decimals.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._http import HttpCallError, post_json
from .corpus import Table, TaskType
from .errors import GeneratorUnavailable, MissingAnswerTags
from .fine import RetrievalResult

SYSTEM_MESSAGE = (
    "You are an expert in tabular data analysis. "
    "You are given a query and a set of tables to answer questions."
)

TASK_INSTRUCTIONS: dict[TaskType, str] = {
    TaskType.TFV: (
        "Use the retrieved most relevant tables to verify whether the provided "
        "claim/query are true or false. Work through the problem step by step, "
        "and then return a 0 if it's false, or 1 if it's true. Only return 0 or 1 "
        "without any other information."
    ),
    TaskType.SINGLE_HOP: (
        "Use the retrieved most relevant tables to answer the given query. The "
        "answer is located in a single table cell. Work through the problem step "
        "by step, and then return the answer as a short string copied from the "
        "table, without any other information."
    ),
    TaskType.MULTI_HOP: (
        "Use the retrieved most relevant tables to answer the given query. The "
        "answer may span multiple table cells, rows, or tables. Work through the "
        "problem step by step, and then return all answer strings as a single "
        "comma-separated list, without any other information."
    ),
}

_STEP_ONE = """# Step One: Find most relevant tables to answer the query
- Read the query and the tables carefully.
- Given the query, figure out and find the most relevant tables (normally 1-3 tables) from the set of table nodes to answer the query.
- The inter-relationship among each node is also provided in the graph-related information.
- Once you have identified the relevant tables, follow step two to answer the query."""

_STEP_THREE = """# Step Three: Output Instructions (MUST strictly follow)
- You MUST think step by step via the chain-of-thought for the given task and then give a final answer.
- Your output MUST conclude two components: the chain-of-thought (CoT) steps to reach the final answer, and the final answer itself.
- For the CoT component, you MUST enclose your reasoning between <reasoning> and </reasoning> tags.
- For the final answer component, you MUST enclose your answer between <answer> and </answer> tags."""

_NA_RULE = (
    "- If you still cannot find the answer from the given tables and your "
    "pretrained knowledge, then output your thinking steps and the final answer "
    "using <answer>NA</answer>."
)

_REASONING_RE = re.compile(r"<reasoning>(.*?)</reasoning>", re.DOTALL)
_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)


@dataclass
class PromptBundle:
    system: str
    user: str
    graph_records: list[dict]
    task_instruction: str
    fewshot: list[str]


@dataclass
class ParsedResponse:
    reasoning: str | None
    answer: str
    is_na: bool


def _escape_html(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_table_html(t: Table) -> str:
    """Attribute-free HTML grid: caption, header row, then the body rows."""
    lines = ["<table>"]
    lines.append(f"<caption>{_escape_html(t.caption)}</caption>")
    lines.append("<tr>" + "".join(f"<th>{_escape_html(h)}</th>" for h in t.headers) + "</tr>")
    for row in t.entries:
        lines.append("<tr>" + "".join(f"<td>{_escape_html(c)}</td>" for c in row) + "</tr>")
    lines.append("</table>")
    return "\n".join(lines)


def _graph_records(result: RetrievalResult) -> list[dict]:
    g = result.subgraph
    pos = np.array([g.node_ids.index(tid) for tid, _ in result.ranked])
    edges = g.has_edge(pos[:, None], pos[None, :]).tolist()
    weights = g.weights[np.ix_(pos, pos)].tolist()
    records: list[dict] = []
    for a in range(len(pos)):
        for b in range(a + 1, len(pos)):
            if edges[a][b]:
                records.append(
                    {
                        "source_node": f"Table {a + 1}",
                        "target_node": f"Table {b + 1}",
                        "relationship": {
                            "type": "similarity",
                            "score": round(weights[a][b], 3),
                        },
                    }
                )
    return records


def build_prompt(
    q_text: str,
    result: RetrievalResult,
    tables: Sequence[Table],
    task_type: TaskType,
    fewshot: Sequence[str] = (),
) -> PromptBundle:
    """Assemble the three-step prompt for the ranked tables.

    ``tables`` must supply the Table object for every ranked id (extra tables
    are ignored). Graph records cover only edges among the ranked tables.
    """
    if not result.ranked:
        raise ValueError("cannot build a prompt from an empty retrieval result")
    by_id = {t.id: t for t in tables}
    missing = [tid for tid, _ in result.ranked if tid not in by_id]
    if missing:
        raise ValueError(f"no Table provided for ranked ids: {missing[:5]}")

    records = _graph_records(result)
    rendered = []
    for i, (tid, _) in enumerate(result.ranked):
        rendered.append(f"Table {i + 1} (id: {tid}):\n{render_table_html(by_id[tid])}")
    record_lines = "\n".join(json.dumps(r, sort_keys=False) for r in records)
    task_instruction = TASK_INSTRUCTIONS[task_type]
    fewshot_block = "\n".join(fewshot) if fewshot else "(no examples provided)"

    user = "\n".join(
        [
            "# The query is the question you need to answer",
            "# The set of tables are the source of information you can retrieve to help you answer the given query.",
            "",
            "Now, follow the provided information and instructions below.",
            "",
            _STEP_ONE,
            "",
            "The query is:",
            q_text,
            "The retrieved tables are:",
            "\n".join(rendered),
            "Graph Related Information:",
            record_lines if record_lines else "(no edges among the retrieved tables)",
            "",
            "# Step Two: Answer the query based on the retrieved tables",
            "The detailed instruction for this task is:",
            task_instruction,
            "",
            _STEP_THREE,
            "",
            "Here are few-shot examples to demonstrate the final answer component format:",
            fewshot_block,
            "",
            _NA_RULE,
            "",
            "Now Output Your response below:",
        ]
    )
    return PromptBundle(
        system=SYSTEM_MESSAGE,
        user=user,
        graph_records=records,
        task_instruction=task_instruction,
        fewshot=list(fewshot),
    )


def parse_response(text: str) -> ParsedResponse:
    """Extract the first reasoning block (optional) and the first answer block.

    Raises MissingAnswerTags when no complete answer block exists. The answer
    payload is whitespace-trimmed; a bare "NA" sets the is_na flag.
    """
    answer_match = _ANSWER_RE.search(text)
    if answer_match is None:
        raise MissingAnswerTags(text[:120])
    reasoning_match = _REASONING_RE.search(text)
    reasoning = reasoning_match.group(1).strip() if reasoning_match else None
    answer = answer_match.group(1).strip()
    return ParsedResponse(reasoning=reasoning, answer=answer, is_na=answer == "NA")


# ---------------------------------------------------------------------------
# Generation endpoint client
# ---------------------------------------------------------------------------

GENERATION_TEMPERATURE = 0.1
GENERATION_MAX_TOKENS = 4096
GENERATION_TOP_P = 0.95

GenerateFn = Callable[[str, str], str]


def http_generator(endpoint: str) -> GenerateFn:
    """Client for the POST {endpoint}/generate protocol."""
    url = endpoint.rstrip("/") + "/generate"

    def generate(system: str, user: str) -> str:
        try:
            resp = post_json(
                url,
                {
                    "system": system,
                    "user": user,
                    "temperature": GENERATION_TEMPERATURE,
                    "max_tokens": GENERATION_MAX_TOKENS,
                    "top_p": GENERATION_TOP_P,
                },
            )
        except HttpCallError as exc:
            raise GeneratorUnavailable(endpoint, exc.cause) from exc
        text = resp.get("text")
        if not isinstance(text, str):
            raise GeneratorUnavailable(endpoint, "response lacks a text field")
        return text

    return generate


def stub_na_generator() -> GenerateFn:
    """Offline stand-in that always answers NA; useful for plumbing checks."""

    def generate(system: str, user: str) -> str:
        return "<reasoning>No generator is configured.</reasoning><answer>NA</answer>"

    return generate


def make_generator(endpoint: str) -> GenerateFn:
    if endpoint == "stub:na":
        return stub_na_generator()
    return http_generator(endpoint)
