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

_RECORD_KEYS = {"id", "caption", "headers", "entries", "metadata"}


class TaskType(str, Enum):
    TFV = "TFV"
    SINGLE_HOP = "SingleHopTQA"
    MULTI_HOP = "MultiHopTQA"


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
    gold_answer: object = None


class TableCorpus:
    """Ordered, duplicate-free collection of tables.

    Read-only after construction; safe to share across threads.
    """

    def __init__(self, tables: list[Table]):
        self.tables = list(tables)
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


def validate_table(t: Table) -> list[str]:
    """The table's invariant breaches, one message each; empty means valid.

    Duplicate-id detection is a corpus-level concern and is not checked here.
    """
    messages: list[str] = []
    if not t.id:
        messages.append("table id must be non-empty")
    if not isinstance(t.caption, str):
        messages.append("caption must be text")
    m = len(t.headers)
    if m < 1:
        messages.append("table must have at least one column")
    for j, h in enumerate(t.headers):
        if not isinstance(h, str):
            messages.append(f"header {j} must be text")
    if len(t.entries) < 1:
        messages.append("table must have at least one entry row")
    for i, row in enumerate(t.entries):
        if len(row) != m:
            messages.append(f"row {i} has {len(row)} cells, expected {m}")
        elif not all(isinstance(cell, str) for cell in row):
            messages.append(f"row {i} contains a non-text cell")
    return messages


def tfv_label_error(label: object) -> str | None:
    """Why ``label`` is not a TFV label, or None if it is one. A TFV label is
    the integer 0 or 1: the builder conjoins merged labels as integers, and
    ``True`` or ``1.0`` would score as the text "True" or "1.0"."""
    if type(label) is int and label in (0, 1):
        return None
    return f"TFV answer must be 0 or 1, got {label!r}"


def validate_query(q: Query) -> list[str]:
    """The query's breaches, one message each: blank text, or a TFV gold
    answer that is neither null nor a TFV label. Empty means valid."""
    messages: list[str] = []
    if not q.text.strip():
        messages.append("query text is empty after trimming")
    if q.task_type == TaskType.TFV and q.gold_answer is not None and (bad := tfv_label_error(q.gold_answer)):
        messages.append(bad)
    return messages


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


def _array(value: object, what: str) -> list:
    """``value`` if it is a JSON array; a string would otherwise be iterated
    character by character."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a JSON array, got {value!r}")
    return value


def _metadata(value: object) -> dict[str, str]:
    """Absent or null metadata is empty; any other non-object is refused."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise TypeError(f"metadata must be a JSON object, got {value!r}")
    return {str(k): _cell_text(v) for k, v in value.items()}


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
            headers=[_cell_text(h) for h in _array(rec.get("headers", []), "headers")],
            entries=[
                [_cell_text(c) for c in _array(row, f"row {i}")]
                for i, row in enumerate(_array(rec.get("entries", []), "entries"))
            ],
            metadata=_metadata(rec.get("metadata")),
        )
    except TypeError as exc:
        violations.append((f"<line {lineno}>", f"malformed record: {exc}"))
        return None
    for message in validate_table(table):
        violations.append((table.id or label, message))
    return table


def read_text(path: Path) -> str:
    """The file's UTF-8 text; a missing, unreadable or non-UTF-8 file is an
    IOFailure naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IOFailure(f"cannot read {path}: {exc}") from exc


def json_error(exc: ValueError | RecursionError) -> str:
    """The violation for a line ``json.loads`` refused: besides a
    JSONDecodeError, a RecursionError (a line nested too deeply for the
    parser) or a ValueError (an integer too long to convert)."""
    return f"invalid JSON: {exc.msg if isinstance(exc, json.JSONDecodeError) else exc}"


def _load_jsonl(path: Path, violations: list[tuple[str, str]]) -> list[Table]:
    tables: list[Table] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            violations.append((f"<line {lineno}>", json_error(exc)))
            continue
        t = _table_from_record(rec, lineno, violations)
        if t is not None:
            tables.append(t)
    return tables


def _load_csv_dir(path: Path, violations: list[tuple[str, str]]) -> list[Table]:
    tables: list[Table] = []
    for fp in sorted(path.glob("*.csv")):
        tid = fp.stem
        try:
            with fp.open(newline="", encoding="utf-8") as f:
                rows = list(csv.reader(f))
        except (OSError, UnicodeDecodeError) as exc:
            raise IOFailure(f"cannot read {fp}: {exc}") from exc
        except csv.Error as exc:  # such as a cell past the csv module's field size limit
            violations.append((tid, f"malformed CSV: {exc}"))
            continue
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
        for message in validate_table(table):
            violations.append((tid, message))
        tables.append(table)
    return tables


def load_corpus(path: str | Path, format: str = "jsonl") -> TableCorpus:
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
    return TableCorpus(tables)


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
