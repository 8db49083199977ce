import json

import numpy as np
import pytest

from tablerank.corpus import TaskType
from tablerank.errors import MissingAnswerTags
from tablerank.fine import RetrievalResult
from tablerank.prompting import (
    SYSTEM_MESSAGE,
    TASK_INSTRUCTIONS,
    build_prompt,
    make_generator,
    parse_response,
    render_table_html,
    stub_na_generator,
)

from conftest import make_table, prompt_graph_records


def make_result(ids, weights: np.ndarray, scores=None, tau: float = 0.1, top_n=None) -> RetrievalResult:
    n = len(ids)
    nodes = sorted(ids)  # node i stands for nodes[i]
    scores = scores if scores is not None else np.linspace(1.0, 0.1, n)
    scores = scores / scores.sum()
    order = sorted(range(n), key=lambda i: (-scores[i], nodes[i]))[:top_n]
    # the edges among the ranked nodes, by rank; with tau > 0, exactly the
    # positive weights are edges
    edges = [
        (a, b, float(weights[order[a], order[b]]))
        for a in range(len(order))
        for b in range(a + 1, len(order))
        if tau == 0.0 or weights[order[a], order[b]] > 0.0
    ]
    result = RetrievalResult(
        ranked=[(nodes[i], float(scores[i])) for i in order],
        timings={},
        all_scores=scores,
        iterations=1,
        converged=True,
        weights=weights[np.ix_(order, order)],
        tau=tau,
    )
    assert result.edges == edges
    return result


class TestRenderTableHtml:
    def test_minimal_table(self):
        t = make_table("one", caption="tiny", headers=["only"], entries=[["cell"]])
        html = render_table_html(t)
        assert html.splitlines()[0] == "<table>"
        assert "<caption>tiny</caption>" in html
        assert "<th>only</th>" in html
        assert "<td>cell</td>" in html

    def test_angle_brackets_escaped(self):
        t = make_table("esc", caption="a <b> & c", headers=["x<y"], entries=[["<script>"]])
        html = render_table_html(t)
        assert "<script>" not in html
        assert "&lt;script&gt;" in html
        assert "x&lt;y" in html
        assert "&amp;" in html

    def test_row_and_header_counts(self):
        t = make_table("counts", headers=["a", "b"], entries=[["1", "2"], ["3", "4"]])
        html = render_table_html(t)
        assert html.count("<th>") == 2
        assert html.count("<tr>") == 3  # header row + 2 body rows


class TestBuildPrompt:
    def test_template_edge_score_three_decimals(self):
        # Two retrieved tables joined by one edge whose weight rounds to 0.674.
        weights = np.array([[0.0, 0.6744], [0.6744, 0.0]])
        result = make_result(["ta", "tb"], weights)
        tables = [make_table("ta"), make_table("tb")]
        bundle = build_prompt("which table?", result, tables, TaskType.SINGLE_HOP)
        records = prompt_graph_records(bundle.user)
        assert len(records) == 1
        rec = records[0]
        assert rec["relationship"] == {"type": "similarity", "score": 0.674}
        assert '"score": 0.674' in bundle.user

    def test_edgeless_pair_still_valid(self):
        result = make_result(["ta", "tb"], np.zeros((2, 2)))
        bundle = build_prompt("q?", result, [make_table("ta"), make_table("tb")],
                              TaskType.SINGLE_HOP)
        assert prompt_graph_records(bundle.user) == []
        assert "Graph Related Information:" in bundle.user

    def test_tau_zero_pair_is_a_weight_zero_edge(self):
        result = make_result(["ta", "tb"], np.zeros((2, 2)), tau=0.0)
        bundle = build_prompt("q?", result, [make_table("ta"), make_table("tb")],
                              TaskType.SINGLE_HOP)
        assert [rec["relationship"]["score"] for rec in prompt_graph_records(bundle.user)] == [0.0]

    def test_tfv_instruction_contract(self):
        result = make_result(["ta"], np.zeros((1, 1)))
        bundle = build_prompt("claim", result, [make_table("ta")], TaskType.TFV)
        assert "return a 0 if it's false, or 1 if it's true" in TASK_INSTRUCTIONS[TaskType.TFV]
        assert TASK_INSTRUCTIONS[TaskType.TFV] in bundle.user

    def test_structural_blocks_present_in_order(self):
        result = make_result(["ta", "tb"], np.array([[0.0, 0.5], [0.5, 0.0]]))
        bundle = build_prompt("the query text", result,
                              [make_table("ta"), make_table("tb")], TaskType.SINGLE_HOP)
        u = bundle.user
        assert bundle.system == SYSTEM_MESSAGE
        positions = [
            u.index("# Step One: Find most relevant tables to answer the query"),
            u.index("The query is:"),
            u.index("the query text"),
            u.index("The retrieved tables are:"),
            u.index("Graph Related Information:"),
            u.index("# Step Two: Answer the query based on the retrieved tables"),
            u.index("# Step Three: Output Instructions (MUST strictly follow)"),
            u.index("<reasoning>"),
            u.index("Here are few-shot examples to demonstrate the final answer component format:\n"
                    "(no examples provided)\n"),
            u.index("<answer>NA</answer>"),
            u.index("Now Output Your response below:"),
        ]
        assert positions == sorted(positions)

    def test_records_only_reference_ranked_tables(self):
        rng = np.random.default_rng(1)
        ids = [f"t{i}" for i in range(5)]
        w = rng.uniform(0.1, 0.9, size=(5, 5))
        w = np.triu(w, 1) + np.triu(w, 1).T
        result = make_result(ids, w, top_n=3)  # rank cutoff below subgraph size
        tables = [make_table(t) for t in ids]
        bundle = build_prompt("q", result, tables, TaskType.MULTI_HOP)
        aliases = {f"Table {i + 1}" for i in range(3)}
        for rec in prompt_graph_records(bundle.user):
            assert rec["source_node"] in aliases
            assert rec["target_node"] in aliases
            assert 0.0 <= rec["relationship"]["score"] <= 1.0

    def test_prompt_length_monotone_in_table_count(self):
        rng = np.random.default_rng(2)
        lengths = []
        for n in (1, 2, 4, 6):
            ids = [f"t{i}" for i in range(n)]
            w = np.zeros((n, n))
            result = make_result(ids, w)
            tables = [make_table(t) for t in ids]
            bundle = build_prompt("q", result, tables, TaskType.SINGLE_HOP)
            lengths.append(len(bundle.user))
        assert lengths == sorted(lengths)

    def test_records_follow_ranked_nodes(self):
        # Rank order (tc, ta, tb) differs from node order (ta, tb, tc); the
        # one edge, between nodes 1 and 2, joins Table 3 and Table 1.
        weights = np.zeros((3, 3))
        weights[1, 2] = weights[2, 1] = 0.8
        result = make_result(["ta", "tb", "tc"], weights, scores=np.array([0.3, 0.2, 0.5]))
        assert [tid for tid, _ in result.ranked] == ["tc", "ta", "tb"]
        tables = [make_table(t) for t in ("ta", "tb", "tc")]
        bundle = build_prompt("q", result, tables, TaskType.SINGLE_HOP)
        records = prompt_graph_records(bundle.user)
        assert [(r["source_node"], r["target_node"]) for r in records] == [("Table 1", "Table 3")]

    def test_record_lines_are_the_json_dumps_of_their_records(self):
        # Weights that round to 0.0, to a whole number and to three decimals.
        rng = np.random.default_rng(4)
        ids = [f"t{i}" for i in range(8)]
        w = rng.uniform(0.0, 1.0, size=(8, 8)) ** 3
        w[0, 1] = 1.0
        w[0, 2] = 4e-4
        w = np.triu(w, 1) + np.triu(w, 1).T
        result = make_result(ids, w, tau=0.0)
        bundle = build_prompt("q", result, [make_table(t) for t in ids], TaskType.SINGLE_HOP)
        records = prompt_graph_records(bundle.user)
        assert len(records) == 8 * 7 // 2
        block = "\n".join(json.dumps(rec) for rec in records)
        assert "Graph Related Information:\n" + block + "\n\n" in bundle.user

    def test_missing_table_object_rejected(self):
        result = make_result(["ta", "tb"], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            build_prompt("q", result, [make_table("ta")], TaskType.SINGLE_HOP)


class TestParseResponse:
    def test_reasoning_and_answer(self):
        parsed = parse_response("<reasoning>r</reasoning><answer>1</answer>")
        assert (parsed.reasoning, parsed.answer, parsed.is_na) == ("r", "1", False)

    def test_na_flag(self):
        parsed = parse_response("<answer>NA</answer>")
        assert parsed.reasoning is None
        assert parsed.is_na

    def test_missing_tags(self):
        with pytest.raises(MissingAnswerTags):
            parse_response("no tags anywhere")

    def test_first_complete_block_wins(self):
        parsed = parse_response(
            "<answer>first</answer> noise <answer>second</answer>"
        )
        assert parsed.answer == "first"

    def test_multiline_blocks(self):
        parsed = parse_response(
            "prefix <reasoning>line one\nline two</reasoning>\n<answer>42\n</answer> suffix"
        )
        assert parsed.reasoning == "line one\nline two"
        assert parsed.answer == "42"

    def test_round_trip_on_synthetic_outputs(self):
        rng = np.random.default_rng(9)
        for i in range(200):
            answer = f"payload {i}" if i % 5 else "NA"
            reasoning = f"thought {i}" if i % 3 else None
            body = f"<answer>{answer}</answer>"
            if reasoning is not None:
                body = f"<reasoning>{reasoning}</reasoning>" + body
            noise_pre = "x" * int(rng.integers(0, 5))
            parsed = parse_response(noise_pre + body + "trailing")
            assert parsed.answer == answer
            assert parsed.reasoning == reasoning
            assert parsed.is_na == (answer == "NA")


class TestGeneratorClients:
    def test_stub_na(self):
        generate = stub_na_generator()
        out = generate("sys", "user")
        assert parse_response(out).is_na

    def test_make_generator_stub(self):
        assert parse_response(make_generator("stub:na")("s", "u")).is_na

    def test_http_generator_protocol(self, http_server):
        seen = {}

        def respond(path, payload):
            seen.update(payload)
            assert path == "/generate"
            return 200, {"text": "<answer>ok</answer>"}

        with http_server(respond) as url:
            generate = make_generator(url)
            out = generate("sys prompt", "user prompt")
        assert parse_response(out).answer == "ok"
        assert seen["system"] == "sys prompt"
        assert seen["temperature"] == 0.1
        assert seen["max_tokens"] == 4096
        assert seen["top_p"] == 0.95

    def test_http_generator_unavailable(self):
        from tablerank.errors import GeneratorUnavailable

        generate = make_generator("http://127.0.0.1:9")
        with pytest.raises(GeneratorUnavailable):
            generate("s", "u")
