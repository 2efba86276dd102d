"""The value contract of the package's public record types."""

from __future__ import annotations

import pytest

from res import (
    Argument,
    ChainStep,
    ConclusionFrame,
    ConclusionSentence,
    ConditionedStructure,
    ConsistencyReport,
    DirectionTrace,
    EvidenceFrame,
    EvidenceSentence,
    ExplanationTrace,
    HasseDiagram,
    RankResult,
    RelationDeclaration,
    SeedReason,
    SourceError,
    StructureDocument,
    StructureOptions,
    SupportMatch,
    ValidationReport,
    Violation,
    build_closure,
    build_sentence,
    candidate_sentences,
    condition,
    conclusion_of,
    explain,
    fixture_text,
    hasse,
    load_structure,
    parse_document,
    rank,
)

HOMINIDS = load_structure(fixture_text("hominids.res"))
CLOSURE = build_closure(HOMINIDS)
ATOMS, ALTERNATIVES = HOMINIDS.evidence_frame, HOMINIDS.conclusion_frame


def _view():
    return condition(HOMINIDS, CLOSURE, build_sentence(ATOMS, "e1 & e2 & e12 & e23 & e13"))


def _explanation():
    b5, b1 = (conclusion_of(ALTERNATIVES, [name]) for name in ("B5", "B1"))
    return explain(_view(), b5, b1)


def _matched():
    """The first support match that carries a provenance chain."""
    matches = _explanation().backward.matches
    return next(m for m in matches if m.provenance)


def _declaration():
    return RelationDeclaration("argument", "strict", "a1", "a6", 1)


#: (type, a factory of fresh equal instances, a field, frozen?)
RECORDS = [
    (EvidenceFrame, lambda: EvidenceFrame(("e1", "e2")), "atoms", True),
    (ConclusionFrame, lambda: ConclusionFrame(("B1", "B5")), "alternatives", True),
    (EvidenceSentence, lambda: build_sentence(ATOMS, "e1 & !e2"), "models", True),
    (ConclusionSentence, lambda: conclusion_of(ALTERNATIVES, ["B1"]), "members", True),
    (StructureOptions, lambda: StructureOptions(conjunction_arguments=True),
     "conjunction_arguments", True),
    (Argument, lambda: load_structure(fixture_text("hominids.res")).arguments[5],
     "origins", True),
    (RelationDeclaration, _declaration, "kind", True),
    (SeedReason, lambda: SeedReason("declaration", "#1 a1 < a6"), "detail", True),
    (ChainStep, lambda: _matched().provenance[0], "reason", True),
    (Violation, lambda: Violation(_declaration(), ("a6", "a1"), ()), "counter", True),
    (SourceError, lambda: SourceError(3, 7, "unknown atom 'x'"), "message", True),
    (ConditionedStructure, _view, "given", True),
    (RankResult, lambda: rank(_view(), candidate_sentences(ALTERNATIVES, "singletons")),
     "strata", True),
    (HasseDiagram, lambda: hasse(_view(), candidate_sentences(ALTERNATIVES, "singletons")),
     "edges", True),
    (SupportMatch, _matched, "matched_by", True),
    (DirectionTrace, lambda: _explanation().forward, "holds", True),
    (ExplanationTrace, _explanation, "verdict", True),
    (ValidationReport, lambda: ValidationReport(["e"], ["w"]), "warnings", False),
    (ConsistencyReport, lambda: ConsistencyReport([]), "violations", False),
    (StructureDocument, lambda: parse_document(fixture_text("hominids.res")),
     "options", False),
]


@pytest.mark.parametrize(
    "kind,make,name,frozen", RECORDS, ids=[kind.__name__ for kind, *_ in RECORDS]
)
def test_records_are_values(kind, make, name, frozen):
    first, second = make(), make()
    assert type(first) is kind and first is not second
    assert first == second and not first != second
    assert first != (getattr(first, name),)  # a record is not a tuple
    if frozen:
        assert hash(first) == hash(second)
        with pytest.raises(AttributeError):
            setattr(first, name, getattr(second, name))
        assert first == second
    else:
        with pytest.raises(TypeError):
            hash(first)
        setattr(first, name, getattr(second, name))


def test_sentence_text_is_not_compared():
    first = build_sentence(ATOMS, "e1 & e2")
    second = build_sentence(ATOMS, "e2 & (e1)")
    assert first.text != second.text
    assert first == second and hash(first) == hash(second)
    assert EvidenceSentence(ATOMS, first.models) == first


def test_records_of_different_types_differ():
    assert EvidenceFrame(("a",)) != ConclusionFrame(("a",))
    assert ConclusionFrame(("a",)) != EvidenceFrame(("a",))
    assert SeedReason("k", "d") != ChainStep("k", "d", SeedReason("k", "d"))
