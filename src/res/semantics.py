"""Finite propositional semantics for evidence and conclusions.

Evidence is described over a frame of at most 16 boolean atoms; a sentence
denotes the set of valuations that satisfy it, held as a bit mask over the
2**n valuations (valuation ``v`` makes atom ``i`` true iff bit ``i`` of ``v``
is set).  Conclusions live over a separate frame of at most 24 mutually
exclusive alternatives; a conclusion sentence is simply a subset of them.
Implication is set inclusion on both sides, so every semantic question is an
exact integer operation with no prover in sight.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import formula as _formula
from ._record import field, record
from .errors import DeclarationError, UsageError

MAX_ATOMS = 16
MAX_ALTERNATIVES = 24


def _check_names(names: tuple[str, ...], what: str, cap: int) -> None:
    if not names:
        raise DeclarationError(f"a frame needs at least one {what}")
    if len(names) > cap:
        raise DeclarationError(f"too many {what}s: {len(names)} (limit {cap})")
    seen = set()
    for name in names:
        if not isinstance(name, str) or not _formula.IDENTIFIER.fullmatch(name):
            raise DeclarationError(f"{what} name {name!r} is not an identifier")
        if name in seen:
            raise DeclarationError(f"duplicate {what} name {name!r}")
        seen.add(name)


@record
class EvidenceFrame:
    """An ordered tuple of evidence atoms."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        _check_names(self.atoms, "atom", MAX_ATOMS)
        # Derived once per frame; none is a field, so none is compared.
        valuations = 1 << len(self.atoms)
        object.__setattr__(self, "valuations", valuations)
        object.__setattr__(self, "full_mask", (1 << valuations) - 1)
        # Atom i's mask: a block of 2**i zeros then 2**i ones, doubled to width.
        masks: dict[str, int] = {}
        for i, name in enumerate(self.atoms):
            half = 1 << i
            mask, width = ((1 << half) - 1) << half, 2 * half
            while width < valuations:
                mask |= mask << width
                width *= 2
            masks[name] = mask
        object.__setattr__(self, "atom_masks", masks)

    @property
    def size(self) -> int:
        return len(self.atoms)


@record
class EvidenceSentence:
    """A set of valuations of an :class:`EvidenceFrame`.

    ``text`` records how the sentence was written down; it takes no part in
    equality, which is purely semantic.
    """

    frame: EvidenceFrame
    models: int
    text: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not 0 <= self.models <= self.frame.full_mask:
            raise UsageError("model mask out of range for this frame")

    def _check(self, other: "EvidenceSentence") -> None:
        if self.frame != other.frame:
            raise UsageError("evidence sentences belong to different frames")

    def implies(self, other: "EvidenceSentence") -> bool:
        self._check(other)
        return self.models & ~other.models == 0

    def is_satisfiable(self) -> bool:
        return self.models != 0

    def is_tautology(self) -> bool:
        return self.models == self.frame.full_mask

    def __and__(self, other: "EvidenceSentence") -> "EvidenceSentence":
        self._check(other)
        return EvidenceSentence(
            self.frame,
            self.models & other.models,
            _and_text(self.text, other.text),
        )

    def __or__(self, other: "EvidenceSentence") -> "EvidenceSentence":
        self._check(other)
        return EvidenceSentence(
            self.frame,
            self.models | other.models,
            _or_text(self.text, other.text),
        )

    def describe(self) -> str:
        """The source text when known, otherwise a formula over the frame.

        The grammar has no constants, so a contradiction is written
        ``a & !a`` and a tautology ``a | !a``, with ``a`` the first atom.
        Every form reads back through :func:`build_sentence` except the
        ``<k/n valuations>`` summary for frames over 6 atoms, which is
        for display only.
        """
        if self.text is not None:
            return self.text
        first = self.frame.atoms[0]
        if self.models == 0:
            return f"{first} & !{first}"
        if self.is_tautology():
            return f"{first} | !{first}"
        if self.frame.size <= 6:
            return self._as_minterms()
        count = bin(self.models).count("1")
        return f"<{count}/{self.frame.valuations} valuations>"

    def _as_minterms(self) -> str:
        terms = []
        for v in range(self.frame.valuations):
            if self.models >> v & 1:
                lits = [
                    name if v >> i & 1 else "!" + name
                    for i, name in enumerate(self.frame.atoms)
                ]
                terms.append(" & ".join(lits))
        if len(terms) == 1:
            return terms[0]
        return " | ".join(f"({t})" for t in terms)


def _and_text(left: str | None, right: str | None) -> str | None:
    if left is None or right is None:
        return None
    lt = f"({left})" if "|" in left else left
    rt = f"({right})" if "|" in right else right
    return f"{lt} & {rt}"


def _or_text(left: str | None, right: str | None) -> str | None:
    if left is None or right is None:
        return None
    return f"{left} | {right}"


def build_sentence(
    frame: EvidenceFrame, formula: str, line: int = 1, column: int = 1
) -> EvidenceSentence:
    """Parse *formula* over *frame*; errors are located at *line*, *column*."""
    mask = _formula.parse_formula_mask(
        formula, frame.atom_masks, frame.full_mask, line, column
    )
    return EvidenceSentence(frame, mask, formula.strip())


@record
class ConclusionFrame:
    """An ordered tuple of mutually exclusive, exhaustive alternatives."""

    alternatives: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        _check_names(self.alternatives, "alternative", MAX_ALTERNATIVES)
        # Derived once per frame; neither is a field, so neither is compared.
        object.__setattr__(self, "full_mask", (1 << len(self.alternatives)) - 1)
        object.__setattr__(
            self,
            "alternative_bits",
            {name: 1 << i for i, name in enumerate(self.alternatives)},
        )

    @property
    def size(self) -> int:
        return len(self.alternatives)


@record
class ConclusionSentence:
    """A subset of the alternatives of a :class:`ConclusionFrame`."""

    frame: ConclusionFrame
    members: int

    def __post_init__(self):
        if not 0 <= self.members <= self.frame.full_mask:
            raise UsageError("member mask out of range for this frame")

    def _check(self, other: "ConclusionSentence") -> None:
        if self.frame != other.frame:
            raise UsageError("conclusion sentences belong to different frames")

    def implies(self, other: "ConclusionSentence") -> bool:
        self._check(other)
        return self.members & ~other.members == 0

    def complement(self) -> "ConclusionSentence":
        return ConclusionSentence(self.frame, self.members ^ self.frame.full_mask)

    def __or__(self, other: "ConclusionSentence") -> "ConclusionSentence":
        self._check(other)
        return ConclusionSentence(self.frame, self.members | other.members)

    def is_empty(self) -> bool:
        return self.members == 0

    def is_full(self) -> bool:
        return self.members == self.frame.full_mask

    def names(self) -> tuple[str, ...]:
        alternatives, rest, names = self.frame.alternatives, self.members, []
        while rest:  # one step per set bit, lowest first
            low = rest & -rest
            names.append(alternatives[low.bit_length() - 1])
            rest ^= low
        return tuple(names)

    def describe(self) -> str:
        return "{" + ", ".join(self.names()) + "}"


def parse_conclusion(
    frame: ConclusionFrame, text: str, line: int = 1, column: int = 1
) -> ConclusionSentence:
    """Parse a conclusion literal such as ``{Al1, Al2}`` or ``!{Al1}``."""
    mask = _formula.parse_conclusion_mask(
        text, frame.alternative_bits, frame.full_mask, line, column
    )
    return ConclusionSentence(frame, mask)


def conclusion_of(frame: ConclusionFrame, names: Iterable[str]) -> ConclusionSentence:
    """Build a conclusion from alternative names."""
    bits = frame.alternative_bits
    mask = 0
    for name in names:
        try:
            mask |= bits[name]
        except KeyError:
            raise DeclarationError(f"unknown alternative {name!r}") from None
    return ConclusionSentence(frame, mask)
