"""Table corpus ingestion, validation, and persistence.

A table is a caption, an ordered header row, an N x M grid of text cells, and
a free-form metadata map. Corpora are ordered collections of tables with
unique ids; iteration order always matches the source file so that every
downstream artifact (features, index, benchmark) is reproducible byte for
byte.

On-disk corpus format (version 1, documented in docs/FORMATS.md): one JSON
object per line with keys ``caption``, ``entries``, ``headers``, ``id``,
``metadata``, serialized with sorted keys and compact separators.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator

from .errors import IOFailure, SchemaViolation

CORPUS_FORMAT_VERSION = 1

_RECORD_KEYS = {"id", "caption", "headers", "entries", "metadata"}


class TaskType(str, Enum):
    TFV = "TFV"
    SINGLE_HOP = "SingleHopTQA"
    MULTI_HOP = "MultiHopTQA"


@dataclass(frozen=True)
class Violation:
    """A single invariant breach found by a validator. Data, not a fault."""

    kind: str
    message: str
    row: int | None = None


@dataclass
class Table:
    id: str
    caption: str
    headers: list[str]
    entries: list[list[str]]
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.headers)


@dataclass
class Query:
    id: str
    text: str
    task_type: TaskType
    gold_table_ids: set[str] = field(default_factory=set)
    gold_answer: object = None


class TableCorpus:
    """Ordered, duplicate-free collection of tables.

    Read-only after construction; safe to share across threads.
    """

    def __init__(self, tables: list[Table], source_tag: str = ""):
        self.tables = list(tables)
        self.source_tag = source_tag
        self._by_id: dict[str, Table] = {}
        for t in self.tables:
            if t.id in self._by_id:
                raise SchemaViolation([(t.id, "duplicate table id")])
            self._by_id[t.id] = t

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables)

    def __len__(self) -> int:
        return len(self.tables)

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._by_id

    def get(self, table_id: str) -> Table:
        return self._by_id[table_id]

    def ids(self) -> list[str]:
        return [t.id for t in self.tables]


def validate_table(t: Table) -> list[Violation]:
    """Check one table against its invariants. Empty list means valid.

    Duplicate-id detection is a corpus-level concern and is not checked here.
    """
    violations: list[Violation] = []
    if not t.id:
        violations.append(Violation("empty_id", "table id must be non-empty"))
    if not isinstance(t.caption, str):
        violations.append(Violation("bad_caption", "caption must be text"))
    m = len(t.headers)
    if m < 1:
        violations.append(Violation("empty_headers", "table must have at least one column"))
    for j, h in enumerate(t.headers):
        if not isinstance(h, str):
            violations.append(Violation("bad_header", f"header {j} must be text"))
    if len(t.entries) < 1:
        violations.append(Violation("no_rows", "table must have at least one entry row"))
    for i, row in enumerate(t.entries):
        if len(row) != m:
            violations.append(
                Violation("ragged_row", f"row {i} has {len(row)} cells, expected {m}", row=i)
            )
        else:
            for cell in row:
                if not isinstance(cell, str):
                    violations.append(Violation("bad_cell", f"row {i} contains a non-text cell", row=i))
                    break
    return violations


def validate_query(q: Query) -> list[Violation]:
    violations: list[Violation] = []
    if not q.text.strip():
        violations.append(Violation("empty_query", "query text is empty after trimming"))
    if q.task_type == TaskType.TFV and q.gold_answer is not None and q.gold_answer not in (0, 1):
        violations.append(Violation("bad_label", f"TFV answer must be 0 or 1, got {q.gold_answer!r}"))
    return violations


def _cell_text(value: object) -> str:
    """Coerce a scalar JSON/CSV value to canonical text. Never infers numerics back."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    raise TypeError(f"cell value of unsupported type {type(value).__name__}")


def _table_from_record(rec: dict, lineno: int, violations: list[tuple[str, str]]) -> Table | None:
    if not isinstance(rec, dict):
        violations.append((f"<line {lineno}>", "record is not an object"))
        return None
    tid = rec.get("id")
    label = str(tid) if tid else f"<line {lineno}>"
    unknown = set(rec) - _RECORD_KEYS
    if unknown:
        violations.append((label, f"unknown fields {sorted(unknown)}"))
        return None
    try:
        table = Table(
            id=_cell_text(rec.get("id", "")),
            caption=_cell_text(rec.get("caption", "")),
            headers=[_cell_text(h) for h in rec.get("headers", [])],
            entries=[[_cell_text(c) for c in row] for row in rec.get("entries", [])],
            metadata={str(k): _cell_text(v) for k, v in (rec.get("metadata") or {}).items()},
        )
    except (TypeError, AttributeError) as exc:
        violations.append((label, f"malformed record: {exc}"))
        return None
    for v in validate_table(table):
        violations.append((table.id or label, v.message))
    return table


def _load_jsonl(path: Path, violations: list[tuple[str, str]]) -> list[Table]:
    tables: list[Table] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            violations.append((f"<line {lineno}>", f"invalid JSON: {exc.msg}"))
            continue
        t = _table_from_record(rec, lineno, violations)
        if t is not None:
            tables.append(t)
    return tables


def _load_csv_dir(path: Path, violations: list[tuple[str, str]]) -> list[Table]:
    tables: list[Table] = []
    for fp in sorted(path.glob("*.csv")):
        try:
            with fp.open(newline="", encoding="utf-8") as f:
                rows = list(csv.reader(f))
        except OSError as exc:
            raise IOFailure(f"cannot read {fp}: {exc}") from exc
        tid = fp.stem
        if not rows:
            violations.append((tid, "file has no header row"))
            continue
        table = Table(
            id=tid,
            caption="",
            headers=list(rows[0]),
            entries=[list(r) for r in rows[1:]],
            metadata={"source_file": fp.name},
        )
        for v in validate_table(table):
            violations.append((tid, v.message))
        tables.append(table)
    return tables


def load_corpus(path: str | Path, format: str = "jsonl", source_tag: str = "") -> TableCorpus:
    """Load a corpus from disk, enforcing all table and corpus invariants.

    Malformed tables are collected and surfaced together as a single
    SchemaViolation; nothing is silently dropped. ``format`` is either
    ``jsonl`` (canonical, one record per line) or ``csv_dir`` (a directory of
    delimited files; filename stem becomes the table id, first row the
    headers).
    """
    p = Path(path)
    if not p.exists():
        raise IOFailure(f"no such path: {p}")
    violations: list[tuple[str, str]] = []
    if format == "jsonl":
        tables = _load_jsonl(p, violations)
    elif format == "csv_dir":
        if not p.is_dir():
            raise IOFailure(f"csv_dir format requires a directory, got {p}")
        tables = _load_csv_dir(p, violations)
    else:
        raise ValueError(f"unknown corpus format {format!r}")

    seen: set[str] = set()
    for t in tables:
        if t.id in seen:
            violations.append((t.id, "duplicate table id"))
        seen.add(t.id)
    if violations:
        raise SchemaViolation(violations)
    return TableCorpus(tables, source_tag=source_tag or p.name)


def table_record_bytes(t: Table) -> bytes:
    """Canonical serialized form of one table; the unit of the corpus format."""
    rec = {
        "caption": t.caption,
        "entries": t.entries,
        "headers": t.headers,
        "id": t.id,
        "metadata": dict(sorted(t.metadata.items())),
    }
    return json.dumps(rec, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def save_corpus(corpus: TableCorpus, path: str | Path) -> None:
    """Write the canonical one-record-per-line form. Byte-deterministic."""
    p = Path(path)
    try:
        with p.open("wb") as f:
            for t in corpus:
                f.write(table_record_bytes(t))
                f.write(b"\n")
    except OSError as exc:
        raise IOFailure(f"cannot write {p}: {exc}") from exc
