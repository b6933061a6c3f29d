"""Exception types shared across the toolkit.

These types alone decide how the CLI exits: a ``ParseError`` or
``ValidationError`` (bad input, bad argument values included) exits 1, a
``TransportError`` or an ``OSError`` exits 2, and a ``PipelineStageError``
exits as its cause would. Any other exception is a bug and shows a traceback.
"""

from __future__ import annotations


class FusekitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(FusekitError):
    """A line of an input file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(FusekitError, ValueError):
    """Parsed data or an argument violates a documented invariant; also a ValueError."""


class AnswerTagError(ValidationError):
    """A model response did not contain a usable answer tag.

    `reason` is one of "missing", "non_numeric", "out_of_range" so a
    caller can pick the right retry prompt.
    """

    def __init__(self, message: str, reason: str):
        self.reason = reason
        super().__init__(message)


class TransportError(FusekitError):
    """A remote service could not be reached or kept failing."""


class PipelineStageError(FusekitError):
    """A pipeline stage failed; carries the stage name and query id."""

    def __init__(self, stage: str, query_id: str | None, cause: Exception):
        self.stage = stage
        self.query_id = query_id
        self.cause = cause
        where = f"stage {stage!r}" + (f", query {query_id!r}" if query_id else "")
        super().__init__(f"{where}: {cause}")
