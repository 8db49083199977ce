"""Flatten tables and queries into plain token sequences.

A table's schema (caption + headers) is rendered as a single line of
bracketed position markers and payloads:

    [Table] [Caption] {caption} [Header] {h_1} ... [Header] {h_M}

Entries and metadata are deliberately not included; the schema alone is what
gets embedded. Queries pass through untouched except for whitespace
normalization, so they can run through the same feature extractors as tables.
"""

from __future__ import annotations

import re

from .corpus import Query, Table

MARKER_TABLE = "[Table]"
MARKER_CAPTION = "[Caption]"
MARKER_HEADER = "[Header]"

_MARKER_RE = re.compile(r"\[(Table|Caption|Header)\]")
_WS_RE = re.compile(r"\s+")


def _escape_markers(text: str) -> str:
    # Payload text containing a literal marker is escaped by doubling the
    # brackets so the marker grammar stays unambiguous.
    return _MARKER_RE.sub(lambda m: f"[[{m.group(1)}]]", text)


def linearize(t: Table) -> str:
    """Render a table's schema as its marker-delimited sequence."""
    parts = [MARKER_TABLE, MARKER_CAPTION, _escape_markers(t.caption)]
    for h in t.headers:
        parts.append(MARKER_HEADER)
        parts.append(_escape_markers(h))
    return " ".join(parts)


def linearize_query(q: Query) -> str:
    """Whitespace-normalized query text; no structural markers are added."""
    return normalize_whitespace(q.text)


def normalize_whitespace(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()
