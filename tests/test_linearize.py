from tablerank.corpus import Query, TaskType
from tablerank.linearize import linearize, linearize_query

from conftest import make_table


class TestLinearize:
    def test_reference_sequence(self):
        t = make_table("t", caption="NFL 2019", headers=["Team", "Wins"])
        assert linearize(t) == "[Table] [Caption] NFL 2019 [Header] Team [Header] Wins"

    def test_empty_caption_keeps_empty_payload(self):
        t = make_table("t", caption="", headers=["x"], entries=[["1"]])
        assert linearize(t) == "[Table] [Caption]  [Header] x"

    def test_header_marker_count_matches_columns(self):
        t = make_table("t", headers=[f"h{i}" for i in range(5)], entries=[["c"] * 5])
        seq = linearize(t)
        assert seq.count("[Header]") == 5
        assert seq.count("[Caption]") == 1
        assert seq.startswith("[Table]")

    def test_marker_text_in_payload_is_escaped(self):
        import re

        t = make_table("t", caption="weird [Header] caption", headers=["[Table] col"],
                       entries=[["x"]])
        seq = linearize(t)
        # Only the structural marker remains unescaped.
        assert len(re.findall(r"(?<!\[)\[Header\](?!\])", seq)) == 1
        assert "[[Header]]" in seq and "[[Table]]" in seq

    def test_deterministic_and_distinct(self):
        a = make_table("a", caption="one", headers=["x"], entries=[["1"]])
        b = make_table("b", caption="two", headers=["x"], entries=[["1"]])
        assert linearize(a) == linearize(a)
        assert linearize(a) != linearize(b)


class TestLinearizeQuery:
    def test_whitespace_normalized(self):
        q = Query(id="q", text="  Who   won? ", task_type=TaskType.SINGLE_HOP)
        assert linearize_query(q) == "Who won?"

    def test_idempotent(self):
        q = Query(id="q", text="Already clean text", task_type=TaskType.SINGLE_HOP)
        once = linearize_query(q)
        again = linearize_query(Query(id="q", text=once, task_type=TaskType.SINGLE_HOP))
        assert once == again == "Already clean text"

    def test_multi_sentence_untouched_beyond_whitespace(self):
        q = Query(id="q", text="First question?\n  And then a second one.",
                  task_type=TaskType.MULTI_HOP)
        assert linearize_query(q) == "First question? And then a second one."
