"""Qualitative reasoning about evidence.

Arguments pair a presumption (a formula over evidence atoms) with a
conclusion (a set of rival alternatives).  A declared relative-strength
relation between arguments is closed under a small set of structural
rules, observations trigger the arguments they entail, and conclusions
are then compared by whether every supporting argument of one side is
matched by an at-least-as-strong supporter of the other.

Typical use::

    from res import load_structure, build_closure, condition, compare
    from res import build_sentence, conclusion_of

    structure = load_structure(text)
    closure = build_closure(structure)
    seen = build_sentence(structure.evidence_frame, "!e1 & !e2")
    state = condition(structure, closure, seen)
    verdict = compare(state,
                      conclusion_of(structure.conclusion_frame, ["Al1"]),
                      conclusion_of(structure.conclusion_frame, ["Al2"]))
"""

from ._record import replace
from .conditioning import ConditionedStructure, condition
from .decision import (
    ComparisonVerdict,
    DirectionTrace,
    ExplanationTrace,
    HasseDiagram,
    RankResult,
    SupportMatch,
    candidate_sentences,
    compare,
    explain,
    hasse,
    is_plausible,
    leq_conclusions,
    rank,
    supports_of,
)
from .dsl import (
    StructureDocument,
    fixture_path,
    fixture_text,
    load_structure,
    parse_document,
)
from .errors import (
    DeclarationError,
    EvidenceError,
    FormulaError,
    ParseError,
    ResError,
    SourceError,
    UsageError,
)
from .order import (
    ChainStep,
    ConsistencyReport,
    OrderClosure,
    SeedReason,
    Violation,
    build_closure,
    check_consistency,
)
from .semantics import (
    ConclusionFrame,
    ConclusionSentence,
    EvidenceFrame,
    EvidenceSentence,
    build_sentence,
    conclusion_of,
    parse_conclusion,
)
from .structure import (
    Argument,
    EvidenceStructure,
    RelationDeclaration,
    StructureOptions,
    ValidationReport,
)

__version__ = "0.1.0"

__all__ = [
    "Argument",
    "ChainStep",
    "ComparisonVerdict",
    "ConclusionFrame",
    "ConclusionSentence",
    "ConditionedStructure",
    "ConsistencyReport",
    "DeclarationError",
    "DirectionTrace",
    "EvidenceError",
    "EvidenceFrame",
    "EvidenceSentence",
    "EvidenceStructure",
    "ExplanationTrace",
    "FormulaError",
    "HasseDiagram",
    "OrderClosure",
    "ParseError",
    "RankResult",
    "RelationDeclaration",
    "ResError",
    "SeedReason",
    "SourceError",
    "StructureDocument",
    "StructureOptions",
    "SupportMatch",
    "UsageError",
    "ValidationReport",
    "Violation",
    "build_closure",
    "build_sentence",
    "candidate_sentences",
    "check_consistency",
    "compare",
    "conclusion_of",
    "condition",
    "explain",
    "fixture_path",
    "fixture_text",
    "hasse",
    "is_plausible",
    "leq_conclusions",
    "load_structure",
    "parse_conclusion",
    "parse_document",
    "rank",
    "replace",
    "supports_of",
    "__version__",
]
