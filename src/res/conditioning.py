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

from functools import cached_property

from ._record import record
from .errors import EvidenceError, UsageError
from .order import OrderClosure
from .semantics import ConclusionSentence, EvidenceSentence
from .structure import Argument, EvidenceStructure


@record
class ConditionedStructure:
    """A read-only view of a structure under one observation.

    The first query builds ``support_masks``; it takes no part in equality.
    """

    structure: EvidenceStructure
    closure: OrderClosure
    given: EvidenceSentence
    triggered: tuple[Argument, ...]

    @cached_property
    def support_masks(self) -> "SupportMasks":
        return SupportMasks(self)


class SupportMasks:
    """A view's triggered arguments as bits of their pool positions.

    ``signature(p)`` is the pair (S(p), D(p)): S(p) the triggered arguments
    concluding a subset of ``p``, D(p) those at most as strong as one of
    S(p) by the closure rows.  It is cached per members mask, and ``p``'s
    frame is checked on every call, so a foreign frame never reads the cache.
    """

    def __init__(self, view: ConditionedStructure):
        rows, row = view.closure._rows, view.closure._row
        position = view.structure.position
        at = [position(argument.id) for argument in view.triggered]
        self.frame = view.structure.conclusion_frame
        self.bits = [1 << i for i in at]
        self._rows = [rows[i] or row(i) for i in at]
        self._by_conclusion: dict[int, int] = {}
        for argument, bit in zip(view.triggered, self.bits):
            members = argument.conclusion.members
            self._by_conclusion[members] = self._by_conclusion.get(members, 0) | bit
        self._signatures: dict[int, tuple[int, int]] = {}

    def signature(self, p: ConclusionSentence) -> tuple[int, int]:
        if p.frame is not self.frame and p.frame != self.frame:
            raise UsageError("conclusion belongs to a different frame")
        found = self._signatures.get(p.members)
        if found is None:  # the groups are disjoint, so their sum is their union
            support = sum(
                bits for members, bits in self._by_conclusion.items()
                if members & ~p.members == 0
            )
            found = self._signatures[p.members] = support, sum(
                bit for bit, row in zip(self.bits, self._rows) if row & support
            )
        return found


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
    models = given.models  # the frame is checked above, once
    triggered = tuple(
        argument
        for argument in structure.arguments
        if models & ~argument.presumption.models == 0
    )
    return ConditionedStructure(structure, closure, given, triggered)
