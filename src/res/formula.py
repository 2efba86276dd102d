"""Parsing for evidence formulas and conclusion literals.

Formulas use `!` (negation), `&` (conjunction), `|` (disjunction) with the
usual precedence `!` > `&` > `|`, parentheses, and atom identifiers matching
``[A-Za-z][A-Za-z0-9_]*``.  The unicode spellings of the three connectives
are accepted as aliases.  Conclusion literals are written ``{Al1, Al2}`` or,
for a complement, ``!{Al1}``.

The functions here work on bit masks so that both the sentence layer and the
declaration language can share one grammar: an evidence formula evaluates to
a set of valuations, a conclusion literal to a set of alternatives.  Errors
report a line and column relative to the enclosing source text.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

from .errors import FormulaError

#: The one identifier rule: atoms, alternatives, labels and structure names.
IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# The kind of every symbol token; the unicode spellings of the three
# connectives are aliases.
_KINDS = {**{c: c for c in "!&|(){},"}, "¬": "!", "∧": "&", "∨": "|"}

# Blanks (group 1), then an identifier (group 2) or one other character.
_TOKEN = re.compile(rf"([ \t]*)(?:({IDENTIFIER.pattern})|(.))", re.S)


def tokenize(
    text: str, line: int = 1, column: int = 1, what: str = "formula"
) -> list[tuple[str, str, int]]:
    """Split the *what* in *text* into ``(kind, value, column)`` tokens, with
    *kind* "ident", a symbol or "end"; *text* sits at *line*, *column*."""
    stripped = text.strip()
    if not stripped:
        raise FormulaError(f"empty {what}", line, column)
    column += len(text) - len(text.lstrip())
    tokens = []
    for blanks, ident, other in _TOKEN.findall(stripped):
        column += len(blanks)
        if ident:
            tokens.append(("ident", ident, column))
            column += len(ident)
            continue
        kind = _KINDS.get(other)
        if kind is None:
            raise FormulaError(f"unexpected character {other!r}", line, column)
        tokens.append((kind, kind, column))
        column += 1
    tokens.append(("end", "", column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            self.fail(f"expected {kind!r}")
        self.pos += 1
        return tok

    def fail(self, message: str):
        kind, value, column = self.tokens[self.pos]
        shown = f" before {value!r}" if kind != "end" else " at end of formula"
        raise FormulaError(message + shown, self.line, column)


class _FormulaParser(_Parser):
    """expr := term {"|" term} ; term := factor {"&" factor} ;
    factor := "!" factor | "(" expr ")" | ident"""

    def __init__(self, tokens, line, atom_masks: Mapping[str, int], full: int):
        super().__init__(tokens, line)
        self.atom_masks = atom_masks
        self.full = full

    def parse(self) -> int:
        value = self.expr()
        if self.tokens[self.pos][0] != "end":
            self.fail("trailing input")
        return value

    def expr(self) -> int:
        value = self.term()
        while self.tokens[self.pos][0] == "|":
            self.pos += 1
            value |= self.term()
        return value

    def term(self) -> int:
        value = self.factor()
        while self.tokens[self.pos][0] == "&":
            self.pos += 1
            value &= self.factor()
        return value

    def factor(self) -> int:
        kind, value, column = self.tokens[self.pos]
        if kind == "ident":
            self.pos += 1
            try:
                return self.atom_masks[value]
            except KeyError:
                raise FormulaError(
                    f"unknown atom {value!r}", self.line, column
                ) from None
        if kind == "!":
            self.pos += 1
            return self.factor() ^ self.full
        if kind == "(":
            self.pos += 1
            inner = self.expr()
            self.take(")")
            return inner
        self.fail("expected an atom, '!' or '('")


def parse_formula_mask(
    text: str,
    atom_masks: Mapping[str, int],
    full: int,
    line: int = 1,
    column: int = 1,
) -> int:
    """Parse an evidence formula into its valuation mask."""
    tokens = tokenize(text, line, column)
    return _FormulaParser(tokens, line, atom_masks, full).parse()


def parse_conclusion_mask(
    text: str,
    alternative_bits: Mapping[str, int],
    full: int,
    line: int = 1,
    column: int = 1,
) -> int:
    """Parse a conclusion literal (``{...}`` or ``!{...}``) into a member mask."""
    tokens = tokenize(text, line, column, "conclusion")
    parser = _Parser(tokens, line)
    complement = tokens[0][0] == "!"
    parser.pos = int(complement)
    parser.take("{")
    mask = 0
    if tokens[parser.pos][0] != "}":
        while True:
            _, name, at = parser.take("ident")
            try:
                mask |= alternative_bits[name]
            except KeyError:
                raise FormulaError(
                    f"unknown alternative {name!r}", line, at
                ) from None
            if tokens[parser.pos][0] != ",":
                break
            parser.pos += 1
    parser.take("}")
    if tokens[parser.pos][0] != "end":
        parser.fail("trailing input")
    return mask ^ full if complement else mask
