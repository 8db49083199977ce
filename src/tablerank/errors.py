"""Exception types shared across the package.

Validation findings (ragged rows, bad labels, ...) are plain messages returned
by the validators; exceptions are reserved for faults that stop an operation.
"""

from __future__ import annotations


class TableRankError(Exception):
    """Base class for all package errors."""


class IOFailure(TableRankError):
    """File could not be read or written (missing, truncated, malformed container)."""


class SchemaViolation(TableRankError):
    """One or more records in a corpus source violate the table contract.

    Carries every collected violation so a bad file is reported in full
    rather than failing on the first offending record.
    """

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = list(violations)
        lines = "; ".join(f"{tid}: {reason}" for tid, reason in self.violations[:10])
        more = "" if len(self.violations) <= 10 else f" (+{len(self.violations) - 10} more)"
        super().__init__(f"{len(self.violations)} schema violation(s): {lines}{more}")


class EmbedderUnavailable(TableRankError):
    def __init__(self, endpoint: str, cause: str, batch_start: int | None = None):
        self.endpoint = endpoint
        self.cause = cause
        self.batch_start = batch_start
        at = "" if batch_start is None else f" (batch starting at item {batch_start})"
        super().__init__(f"embedding endpoint {endpoint!r} unavailable{at}: {cause}")


class DimensionMismatch(TableRankError):
    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"expected vectors of dimension {expected}, got {got}")


class EmptyCorpus(TableRankError):
    """An operation that needs at least one document received none."""


class KTooLarge(TableRankError):
    def __init__(self, k: int, n_points: int):
        self.k = k
        self.n_points = n_points
        super().__init__(f"cannot form {k} clusters from {n_points} points")


class VersionMismatch(TableRankError):
    def __init__(self, found: int, expected: int):
        self.found = found
        self.expected = expected
        super().__init__(f"index format version {found} does not match expected {expected}")


class MissingAnswerTags(TableRankError):
    def __init__(self, excerpt: str):
        self.excerpt = excerpt
        super().__init__(f"response contains no <answer>...</answer> block: {excerpt!r}")


class EmptyGold(TableRankError):
    """A retrieval metric was asked to score an example with no gold tables."""


class GeneratorUnavailable(TableRankError):
    def __init__(self, endpoint: str, cause: str):
        self.endpoint = endpoint
        self.cause = cause
        super().__init__(f"generation endpoint {endpoint!r} unavailable: {cause}")


class UsageError(TableRankError):
    """Bad command-line or configuration input."""
