"""The declaration language: parsing, serialization, bundled fixtures.

A document is line oriented.  ``#`` starts a comment; blank lines are
ignored.  The header is fixed: a ``structure`` line, the evidence atoms,
the alternatives, then an optional ``options:`` line.  After that, in any
order::

    arg <label>: <formula> => <conclusion>
    arg: <formula> => <conclusion>
    refute: <formula> => <conclusion> [singletons|complement_set]
    rel: <term> < <term>        # also <= and ~
    rel: pres(<formula>) < pres(<formula>)

Relation terms are either two argument labels or two ``pres(...)`` forms,
never mixed.  Parsing gathers every error it can find, each with a line
and column, before giving up.
"""

from __future__ import annotations

import re

from ._record import field, record
from .errors import DeclarationError, FormulaError, ParseError, SourceError
from .formula import IDENTIFIER
from .semantics import (
    ConclusionFrame,
    ConclusionSentence,
    EvidenceFrame,
    EvidenceSentence,
    build_sentence,
    parse_conclusion,
)
from .structure import (
    EvidenceStructure,
    KIND_SYMBOLS,
    LEVEL_ARGUMENT,
    LEVEL_PRESUMPTION,
    OPTION_FIELDS,
    POLICY_COMPLEMENT_SET,
    POLICY_SINGLETONS,
    StructureOptions,
    parse_option,
)

_ARG_HEAD = re.compile(rf"arg(?:\s+({IDENTIFIER.pattern}))?\s*:\s*")
_REFUTE_HEAD = re.compile(r"refute\s*:\s*")
_REL_HEAD = re.compile(r"rel\s*:\s*")
_PRES_OPEN = re.compile(r"pres\s*\(")
# Longest symbol first, so that "<=" is not read as "<".
_REL_SYMBOLS = sorted(KIND_SYMBOLS.items(), key=lambda item: -len(item[1]))


@record
class ArgDecl:
    label: str | None
    presumption: EvidenceSentence
    conclusion: ConclusionSentence
    formula_text: str
    conclusion_text: str
    line: int


@record
class RefuteDecl:
    presumption: EvidenceSentence
    refuted: ConclusionSentence
    policy: str
    formula_text: str
    conclusion_text: str
    line: int


@record
class RelDecl:
    level: str
    kind: str
    left: "str | EvidenceSentence"
    right: "str | EvidenceSentence"
    left_text: str
    right_text: str
    line: int
    column: int


@record(frozen=False)
class StructureDocument:
    """The parsed, still declarative form of one structure."""

    name: str
    evidence_frame: EvidenceFrame
    conclusion_frame: ConclusionFrame
    options: StructureOptions
    body: list = field(default_factory=list)

    def to_structure(self) -> EvidenceStructure:
        """Build the evidence structure and run its generation passes."""
        structure = EvidenceStructure(
            self.evidence_frame, self.conclusion_frame, self.options, self.name
        )
        errors: list[SourceError] = []
        for decl in self.body:
            try:
                if isinstance(decl, ArgDecl):
                    structure.add_support(decl.presumption, decl.conclusion, decl.label)
                elif isinstance(decl, RefuteDecl):
                    structure.add_refutation(decl.presumption, decl.refuted, decl.policy)
            except DeclarationError as err:
                errors.append(SourceError(decl.line, 1, str(err)))
        for decl in self.body:
            if not isinstance(decl, RelDecl):
                continue
            try:
                if decl.level == LEVEL_ARGUMENT:
                    structure.declare_argument_relation(decl.kind, decl.left, decl.right)
                else:
                    structure.declare_presumption_relation(
                        decl.kind, decl.left, decl.right
                    )
            except DeclarationError as err:
                errors.append(SourceError(decl.line, decl.column, str(err)))
        if errors:
            raise ParseError(errors)
        structure.run_generation_passes()
        return structure

    def serialize(self) -> str:
        """Canonical text for this document; reparsing is semantics-preserving."""
        lines = [
            f"structure {self.name}",
            "evidence atoms: " + ", ".join(self.evidence_frame.atoms),
            "alternatives: " + ", ".join(self.conclusion_frame.alternatives),
            "options: "
            + ", ".join(
                f"{name}={str(getattr(self.options, name)).lower()}"
                for name in OPTION_FIELDS
            ),
            "",
        ]
        for decl in self.body:
            if isinstance(decl, ArgDecl):
                head = f"arg {decl.label}:" if decl.label else "arg:"
                lines.append(f"{head} {decl.formula_text} => {decl.conclusion_text}")
            elif isinstance(decl, RefuteDecl):
                lines.append(
                    f"refute: {decl.formula_text} => {decl.conclusion_text} {decl.policy}"
                )
            else:
                symbol = KIND_SYMBOLS[decl.kind]
                if decl.level == LEVEL_ARGUMENT:
                    lines.append(f"rel: {decl.left_text} {symbol} {decl.right_text}")
                else:
                    lines.append(
                        f"rel: pres({decl.left_text}) {symbol} pres({decl.right_text})"
                    )
        return "\n".join(lines) + "\n"


class _DocumentParser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.errors: list[SourceError] = []
        self.name: str | None = None
        self.atoms: list[str] | None = None
        self.alternatives: list[str] | None = None
        self.option_values: dict[str, object] = {}
        self.options_line = 0
        self.body_lines: list[tuple[int, str]] = []
        # (parse function, stripped text) -> sentence, for this document only;
        # a failed parse is not kept, so every bad occurrence is reported.
        self.parsed: dict[tuple, object] = {}

    def error(self, line: int, column: int, message: str) -> None:
        self.errors.append(SourceError(line, column, message))

    def parse(self) -> StructureDocument:
        self._split_header()
        if self.errors:
            raise ParseError(self.errors)
        frames = self._build_frames()
        if frames is None:
            raise ParseError(self.errors)
        evidence_frame, conclusion_frame = frames
        try:
            options = StructureOptions(**self.option_values)  # type: ignore[arg-type]
        except DeclarationError as err:
            self.error(self.options_line, 1, f"options: {err}")
            options = StructureOptions()
        document = StructureDocument(
            self.name or "structure", evidence_frame, conclusion_frame, options
        )
        for number, content in self.body_lines:
            try:
                self._parse_body_line(document, number, content)
            except FormulaError as err:
                self.error(number, err.column, err.message)
        if self.errors:
            raise ParseError(self.errors)
        return document

    # -- header -------------------------------------------------------------

    def _split_header(self) -> None:
        stage = 0  # 0 structure, 1 atoms, 2 alternatives, 3 options/body
        for number, raw in enumerate(self.lines, start=1):
            content = raw.split("#", 1)[0].rstrip()
            if not content.strip():
                continue
            word = content.strip().split(None, 1)[0].rstrip(":")
            if stage == 0:
                if word != "structure":
                    self.error(number, 1, "expected a 'structure <name>' line first")
                    return
                self._parse_name(number, content.strip())
                stage = 1
            elif stage == 1:
                if word != "evidence":
                    self.error(number, 1, "expected an 'evidence atoms:' line")
                    return
                self.atoms = self._parse_name_list(
                    number, content, r"evidence\s+atoms\s*:", "atom"
                )
                stage = 2
            elif stage == 2:
                if word != "alternatives":
                    self.error(number, 1, "expected an 'alternatives:' line")
                    return
                self.alternatives = self._parse_name_list(
                    number, content, r"alternatives\s*:", "alternative"
                )
                stage = 3
            elif word == "options" and not self.options_line:
                self._parse_options(number, content)
            elif word in ("structure", "evidence", "alternatives", "options"):
                self.error(number, 1, f"unexpected extra {word!r} line")
            else:
                self.body_lines.append((number, content))
        if stage < 3 and not self.errors:
            missing = ["structure", "evidence atoms", "alternatives"][stage]
            self.error(len(self.lines) + 1, 1, f"missing {missing!r} line")

    def _parse_name(self, number: int, content: str) -> None:
        parts = content.split(None, 1)
        if len(parts) != 2 or not IDENTIFIER.fullmatch(parts[1].strip()):
            self.error(number, 1, "structure name must be an identifier")
            return
        self.name = parts[1].strip()

    def _parse_name_list(self, number, content, head_pattern, what) -> list[str] | None:
        m = re.match(head_pattern, content.strip())
        if m is None:
            self.error(number, 1, f"malformed {what} list")
            return None
        names = []
        for piece in content.strip()[m.end() :].split(","):
            name = piece.strip()
            if not IDENTIFIER.fullmatch(name):
                self.error(number, 1, f"{what} name {name!r} is not an identifier")
                return None
            names.append(name)
        return names

    def _parse_options(self, number: int, content: str) -> None:
        self.options_line = number
        rest = content.strip()[len("options") :].lstrip()
        if not rest.startswith(":"):
            self.error(number, 1, "expected ':' after 'options'")
            return
        for piece in rest[1:].split(","):
            if not piece.strip():
                continue
            try:
                name, value = parse_option(piece)
                self.option_values[name] = value
            except DeclarationError as err:
                self.error(number, 1, str(err))

    def _build_frames(self):
        try:
            evidence_frame = EvidenceFrame(tuple(self.atoms or ()))
            conclusion_frame = ConclusionFrame(tuple(self.alternatives or ()))
        except DeclarationError as err:
            self.error(1, 1, str(err))
            return None
        overlap = set(evidence_frame.atoms) & set(conclusion_frame.alternatives)
        if overlap:
            self.error(
                1, 1, f"names used both as atom and alternative: {sorted(overlap)}"
            )
            return None
        return evidence_frame, conclusion_frame

    # -- body ---------------------------------------------------------------

    def _parse_body_line(self, document, number: int, content: str) -> None:
        stripped = content.strip()
        indent = len(content) - len(content.lstrip()) + 1
        word = stripped.split(None, 1)[0].rstrip(":")
        if word == "arg":
            self._parse_arg(document, number, stripped, indent)
        elif word == "refute":
            self._parse_refute(document, number, stripped, indent)
        elif word == "rel":
            self._parse_rel(document, number, stripped, indent)
        else:
            self.error(number, indent, f"unknown statement {word!r}")

    def _parsed(self, parse, frame, text: str, number: int, column: int):
        key = parse, text.strip()
        sentence = self.parsed.get(key)
        if sentence is None:
            sentence = self.parsed[key] = parse(frame, text, number, column)
        return sentence

    def _split_arrow(self, number, stripped, indent, head_end):
        arrow = stripped.find("=>", head_end)
        if arrow < 0:
            raise FormulaError("expected '=>'", number, indent + len(stripped))
        return (
            stripped[head_end:arrow],
            indent + head_end,
            stripped[arrow + 2 :],
            indent + arrow + 2,
        )

    def _parse_arg(self, document, number, stripped, indent) -> None:
        m = _ARG_HEAD.match(stripped)
        if m is None:
            raise FormulaError("malformed arg line", number, indent)
        formula, fcol, conclusion, ccol = self._split_arrow(
            number, stripped, indent, m.end()
        )
        document.body.append(
            ArgDecl(
                m.group(1),
                self._parsed(
                    build_sentence, document.evidence_frame, formula, number, fcol
                ),
                self._parsed(
                    parse_conclusion, document.conclusion_frame, conclusion, number, ccol
                ),
                formula.strip(),
                conclusion.strip(),
                number,
            )
        )

    def _parse_refute(self, document, number, stripped, indent) -> None:
        m = _REFUTE_HEAD.match(stripped)
        if m is None:
            raise FormulaError("malformed refute line", number, indent)
        formula, fcol, tail, tcol = self._split_arrow(number, stripped, indent, m.end())
        brace = tail.find("}")
        if brace < 0:
            raise FormulaError("expected a conclusion in braces", number, tcol)
        conclusion, policy_text = tail[: brace + 1], tail[brace + 1 :].strip()
        policy = policy_text or POLICY_SINGLETONS
        if policy not in (POLICY_SINGLETONS, POLICY_COMPLEMENT_SET):
            raise FormulaError(
                f"unknown refutation policy {policy_text!r}",
                number,
                tcol + brace + 1,
            )
        document.body.append(
            RefuteDecl(
                self._parsed(
                    build_sentence, document.evidence_frame, formula, number, fcol
                ),
                self._parsed(
                    parse_conclusion, document.conclusion_frame, conclusion, number, tcol
                ),
                policy,
                formula.strip(),
                conclusion.strip(),
                number,
            )
        )

    def _parse_rel(self, document, number, stripped, indent) -> None:
        m = _REL_HEAD.match(stripped)
        if m is None:
            raise FormulaError("malformed rel line", number, indent)
        rest, rest_col = stripped[m.end() :], indent + m.end()
        left, after = self._parse_rel_term(document, number, rest, rest_col, 0)
        after_ws = _skip_spaces(rest, after)
        for kind, symbol in _REL_SYMBOLS:
            if rest.startswith(symbol, after_ws):
                break
        else:
            raise FormulaError(
                "expected '<', '<=' or '~'", number, rest_col + after_ws
            )
        right_start = after_ws + len(symbol)
        right, end = self._parse_rel_term(document, number, rest, rest_col, right_start)
        if rest[end:].strip():
            raise FormulaError("trailing input", number, rest_col + end)
        if type(left[0]) is not type(right[0]):
            raise FormulaError(
                "a relation must compare two arguments or two presumptions",
                number,
                rest_col,
            )
        value, text = left
        rvalue, rtext = right
        level = LEVEL_ARGUMENT if isinstance(value, str) else LEVEL_PRESUMPTION
        document.body.append(
            RelDecl(level, kind, value, rvalue, text, rtext, number, rest_col)
        )

    def _parse_rel_term(self, document, number, rest, rest_col, start):
        """Returns ((value, text), end); value is a label or a sentence."""
        at = _skip_spaces(rest, start)
        m = _PRES_OPEN.match(rest, at)
        if m:
            depth, i = 1, m.end()
            while i < len(rest) and depth:
                if rest[i] == "(":
                    depth += 1
                elif rest[i] == ")":
                    depth -= 1
                i += 1
            if depth:
                raise FormulaError("unbalanced 'pres('", number, rest_col + at)
            inner = rest[m.end() : i - 1]
            sentence = self._parsed(
                build_sentence, document.evidence_frame, inner, number, rest_col + m.end()
            )
            return (sentence, inner.strip()), i
        m = IDENTIFIER.match(rest, at)
        if m is None:
            raise FormulaError(
                "expected an argument label or pres(...)", number, rest_col + at
            )
        return (m.group(), m.group()), m.end()


def _skip_spaces(text: str, at: int) -> int:
    while at < len(text) and text[at] in " \t":
        at += 1
    return at


def parse_document(text: str) -> StructureDocument:
    """Parse a document, collecting every located error before failing."""
    return _DocumentParser(text).parse()


def load_structure(text: str) -> EvidenceStructure:
    """Parse, build and generate a structure from document text."""
    return parse_document(text).to_structure()


def fixture_text(name: str) -> str:
    """Source text of a bundled fixture such as ``example1.res``."""
    return fixture_path(name).read_text()


def fixture_path(name: str) -> Path:
    from pathlib import Path  # not at the top: the CLI never pays for it
    return Path(__file__).with_name("fixtures") / name
