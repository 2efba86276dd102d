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
from dataclasses import dataclass
from typing import Mapping

from .errors import FormulaError

#: The one identifier rule: atoms, alternatives, labels and structure names.
IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Unicode aliases for the three connectives.
_ALIASES = {"¬": "!", "∧": "&", "∨": "|"}

_SYMBOLS = {"!", "&", "|", "(", ")", "{", "}", ","}


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", one of the symbols, or "end"
    value: str
    column: int  # 1-based, relative to the enclosing line


def tokenize(text: str, column: int = 1) -> list[Token]:
    """Split *text* into tokens; *column* is the position of text[0]."""
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        ch = _ALIASES.get(ch, ch)
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, column + i))
            i += 1
            continue
        m = IDENTIFIER.match(text, i)
        if m:
            tokens.append(Token("ident", m.group(), column + i))
            i = m.end()
            continue
        raise FormulaError(f"unexpected character {text[i]!r}", column=column + i)
    tokens.append(Token("end", "", column + len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    @property
    def here(self) -> Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> Token:
        tok = self.here
        if tok.kind != kind:
            self.fail(f"expected {kind!r}", tok)
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.here
        shown = f" before {tok.value!r}" if tok.kind != "end" else " at end of formula"
        raise FormulaError(message + shown, self.line, tok.column)


class _FormulaParser(_Parser):
    """expr := term {"|" term} ; term := factor {"&" factor} ;
    factor := "!" factor | "(" expr ")" | ident"""

    def __init__(self, tokens, line, atom_masks: Mapping[str, int], full: int):
        super().__init__(tokens, line)
        self.atom_masks = atom_masks
        self.full = full

    def parse(self) -> int:
        value = self.expr()
        if self.here.kind != "end":
            self.fail("trailing input")
        return value

    def expr(self) -> int:
        value = self.term()
        while self.here.kind == "|":
            self.pos += 1
            value |= self.term()
        return value

    def term(self) -> int:
        value = self.factor()
        while self.here.kind == "&":
            self.pos += 1
            value &= self.factor()
        return value

    def factor(self) -> int:
        tok = self.here
        if tok.kind == "!":
            self.pos += 1
            return self.factor() ^ self.full
        if tok.kind == "(":
            self.pos += 1
            value = self.expr()
            self.take(")")
            return value
        if tok.kind == "ident":
            self.pos += 1
            try:
                return self.atom_masks[tok.value]
            except KeyError:
                raise FormulaError(
                    f"unknown atom {tok.value!r}", self.line, tok.column
                ) from None
        self.fail("expected an atom, '!' or '('", tok)
        raise AssertionError("unreachable")


def _tokens(text: str, what: str, line: int, column: int) -> list[Token]:
    """Tokens of *text* located on *line*; *column* is the position of text[0]."""
    stripped = text.strip()
    if not stripped:
        raise FormulaError(f"empty {what}", line, column)
    offset = column + (len(text) - len(text.lstrip()))
    try:
        return tokenize(stripped, offset)
    except FormulaError as err:
        raise FormulaError(err.message, line, err.column) from None


def parse_formula_mask(
    text: str,
    atom_masks: Mapping[str, int],
    full: int,
    line: int = 1,
    column: int = 1,
) -> int:
    """Parse an evidence formula into its valuation mask."""
    tokens = _tokens(text, "formula", line, column)
    return _FormulaParser(tokens, line, atom_masks, full).parse()


def parse_conclusion_mask(
    text: str,
    alternative_bits: Mapping[str, int],
    full: int,
    line: int = 1,
    column: int = 1,
) -> int:
    """Parse a conclusion literal (``{...}`` or ``!{...}``) into a member mask."""
    parser = _Parser(_tokens(text, "conclusion", line, column), line)
    complement = False
    if parser.here.kind == "!":
        complement = True
        parser.pos += 1
    parser.take("{")
    mask = 0
    if parser.here.kind != "}":
        while True:
            tok = parser.take("ident")
            try:
                mask |= alternative_bits[tok.value]
            except KeyError:
                raise FormulaError(
                    f"unknown alternative {tok.value!r}", line, tok.column
                ) from None
            if parser.here.kind != ",":
                break
            parser.pos += 1
    parser.take("}")
    if parser.here.kind != "end":
        parser.fail("trailing input")
    return mask ^ full if complement else mask
