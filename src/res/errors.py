"""Exception taxonomy shared by the whole package.

Errors fall into four groups: bad API usage (wrong frame, unknown id),
bad declarations (unsatisfiable presumption, empty conclusion, malformed
relation), impossible observations, and source-text parse failures that
carry one located message per problem.
"""

from __future__ import annotations

from ._record import record


class ResError(Exception):
    """Base class for every error raised by this package."""


class UsageError(ResError):
    """An operation was called with arguments it cannot accept."""


class DeclarationError(ResError):
    """A structure declaration is invalid (argument, relation, or option)."""


class EvidenceError(ResError):
    """The observed evidence is unsatisfiable; nothing can be conditioned on it."""


@record
class SourceError:
    """One located problem in a source text."""

    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class FormulaError(DeclarationError):
    """A formula or conclusion literal failed to parse or to resolve."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class ParseError(ResError):
    """A document failed to parse; carries every located error found."""

    def __init__(self, errors: list[SourceError]):
        self.errors = list(errors)
        summary = "; ".join(str(e) for e in self.errors[:3])
        if len(self.errors) > 3:
            summary += f"; ... ({len(self.errors)} errors)"
        super().__init__(summary)
