"""Conditioning a structure on observed evidence.

An argument is triggered by an observation when the observation implies its
presumption.  Conditioning therefore only ever narrows: it selects the
triggered arguments and restricts the closed strength relation to them,
copying nothing.  Strengthening the observation can only shrink the
triggered set, yet the surviving comparisons may tell a different story,
which is the whole point of the method.

Conditioning always starts from the full structure.  There is deliberately
no operation that conditions an already conditioned view, because chaining
observations that way is not equivalent to conditioning on their
conjunction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EvidenceError, UsageError
from .order import OrderClosure
from .semantics import EvidenceSentence
from .structure import Argument, EvidenceStructure


@dataclass(frozen=True)
class ConditionedStructure:
    """A read-only view of a structure under one observation."""

    structure: EvidenceStructure
    closure: OrderClosure
    given: EvidenceSentence
    triggered: tuple[Argument, ...]


def condition(
    structure: EvidenceStructure, closure: OrderClosure, given: EvidenceSentence
) -> ConditionedStructure:
    """Restrict *structure* to the arguments triggered by *given*."""
    if given.frame != structure.evidence_frame:
        raise UsageError("observation belongs to a different evidence frame")
    if not given.is_satisfiable():
        raise EvidenceError(
            f"inconsistent observations: {given.describe()!r} has no models"
        )
    if closure.structure is not structure:
        raise UsageError("closure was built for a different structure")
    triggered = tuple(
        argument
        for argument in structure.arguments
        if given.implies(argument.presumption)
    )
    return ConditionedStructure(structure, closure, given, triggered)
