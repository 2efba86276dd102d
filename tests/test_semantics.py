"""Sentence semantics against an independent truth-table evaluator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from res import (
    ConclusionFrame,
    ConclusionSentence,
    DeclarationError,
    EvidenceFrame,
    EvidenceSentence,
    FormulaError,
    build_sentence,
    conclusion_of,
    parse_conclusion,
)

from strategies import random_formula_text

THREE = EvidenceFrame(("w", "x", "y"))


# -- an independent model of formulas ----------------------------------------
#
# Formulas are built as explicit trees, rendered to text for the parser,
# and evaluated per valuation by plain recursion over the tree.  The two
# routes share nothing but the convention that atom i is true in
# valuation v exactly when bit i of v is set.


def all_trees(atoms, height):
    if height <= 1:
        return [("atom", name) for name in atoms]
    smaller = all_trees(atoms, height - 1)
    trees = [("atom", name) for name in atoms]
    trees += [("not", t) for t in smaller]
    trees += [(op, a, b) for op in ("and", "or") for a in smaller for b in smaller]
    return trees


def render(tree) -> str:
    kind = tree[0]
    if kind == "atom":
        return tree[1]
    if kind == "not":
        return "!(" + render(tree[1]) + ")"
    middle = " & " if kind == "and" else " | "
    return "(" + render(tree[1]) + middle + "(" + render(tree[2]) + ")" + ")"


def holds(tree, assignment) -> bool:
    kind = tree[0]
    if kind == "atom":
        return assignment[tree[1]]
    if kind == "not":
        return not holds(tree[1], assignment)
    if kind == "and":
        return holds(tree[1], assignment) and holds(tree[2], assignment)
    return holds(tree[1], assignment) or holds(tree[2], assignment)


def reference_models(frame, tree) -> int:
    mask = 0
    for v in range(frame.valuations):
        assignment = {
            name: bool(v >> i & 1) for i, name in enumerate(frame.atoms)
        }
        if holds(tree, assignment):
            mask |= 1 << v
    return mask


def test_every_formula_up_to_height_three_matches_the_truth_tables():
    trees = all_trees(THREE.atoms, 3)
    assert len(trees) == 1179
    for tree in trees:
        sentence = build_sentence(THREE, render(tree))
        assert sentence.models == reference_models(THREE, tree), render(tree)


def test_random_deeper_formulas_match_the_truth_tables():
    rng = random.Random(91)
    for _ in range(300):
        text = random_formula_text(rng, THREE.atoms, depth=5)
        sentence = build_sentence(THREE, text)
        # Parse the text back into a tree with a tiny independent parser:
        # rebuilding the tree is exactly what the engine must have done.
        assert sentence.models == reference_models(THREE, _reparse(text)), text


def _reparse(text: str):
    """A minimal second parser used only to cross-check random formulas."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()!&|":
            tokens.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def parse_or():
        node = parse_and()
        while peek() == "|":
            take()
            node = ("or", node, parse_and())
        return node

    def parse_and():
        node = parse_unit()
        while peek() == "&":
            take()
            node = ("and", node, parse_unit())
        return node

    def parse_unit():
        token = take()
        if token == "!":
            return ("not", parse_unit())
        if token == "(":
            node = parse_or()
            take()
            return node
        return ("atom", token)

    return parse_or()


def test_atom_bit_convention():
    # Atom i is true in valuation v exactly when v has bit i set.
    for i, name in enumerate(THREE.atoms):
        expected = 0
        for v in range(8):
            if v >> i & 1:
                expected |= 1 << v
        assert build_sentence(THREE, name).models == expected


def test_atom_masks_match_the_valuation_definition():
    for n in range(1, 13):
        frame = EvidenceFrame(tuple(f"a{i}" for i in range(n)))
        for i, name in enumerate(frame.atoms):
            expected = sum(1 << v for v in range(frame.valuations) if v >> i & 1)
            assert build_sentence(frame, name).models == expected
    frame = EvidenceFrame(tuple(f"a{i}" for i in range(16)))
    sampled = random.Random(16).sample(range(frame.valuations), 400)
    for i, name in enumerate(frame.atoms):
        models = build_sentence(frame, name).models
        assert models >> frame.valuations == 0
        for v in sampled + [0, frame.valuations - 1]:
            assert models >> v & 1 == v >> i & 1


def test_frame_masks_are_built_once_and_frames_compare_by_name():
    names = tuple(f"a{i}" for i in range(16))
    frame = EvidenceFrame(names)
    assert frame.full_mask is frame.full_mask, "full_mask is rebuilt on every read"
    assert frame.full_mask == (1 << 65536) - 1 and frame.valuations == 65536
    assert frame.atom_masks is frame.atom_masks, "atom_masks is rebuilt on every read"
    alternatives = ConclusionFrame(tuple(f"A{i}" for i in range(24)))
    assert alternatives.full_mask is alternatives.full_mask
    assert alternatives.alternative_bits is alternatives.alternative_bits
    assert alternatives.alternative_bits == {f"A{i}": 1 << i for i in range(24)}
    # The derived values take no part in equality or hashing: twins whose
    # tables are emptied still match the originals.
    twin, alternatives_twin = EvidenceFrame(names), ConclusionFrame(alternatives.alternatives)
    object.__setattr__(twin, "atom_masks", {})
    object.__setattr__(alternatives_twin, "alternative_bits", {})
    assert twin == frame and hash(twin) == hash(frame)
    assert alternatives_twin == alternatives and hash(alternatives_twin) == hash(alternatives)
    assert frame == EvidenceFrame(list(names)) and hash(frame) == hash(EvidenceFrame(names))
    assert frame != EvidenceFrame(names[:15])
    assert EvidenceFrame(("a", "b")) != EvidenceFrame(("b", "a"))
    assert alternatives == ConclusionFrame(alternatives.alternatives)
    assert hash(alternatives) == hash(ConclusionFrame(alternatives.alternatives))


def test_unicode_connectives_are_aliases():
    assert (
        build_sentence(THREE, "¬w ∧ (x ∨ y)").models
        == build_sentence(THREE, "!w & (x | y)").models
    )


# -- algebraic laws ----------------------------------------------------------

frames = st.sampled_from(
    [EvidenceFrame(("w",)), EvidenceFrame(("w", "x")), THREE]
)


@st.composite
def sentence_pairs(draw):
    frame = draw(frames)
    full = frame.full_mask
    a = EvidenceSentence(frame, draw(st.integers(0, full)))
    b = EvidenceSentence(frame, draw(st.integers(0, full)))
    return a, b


@settings(max_examples=100)
@given(sentence_pairs())
def test_connective_laws(pair):
    a, b = pair
    assert (a & b).implies(a)
    assert a.implies(a | b)
    assert a.implies(a)


@settings(max_examples=100)
@given(sentence_pairs())
def test_implication_is_a_partial_order_up_to_equivalence(pair):
    a, b = pair
    if a.implies(b) and b.implies(a):
        assert a == b
    assert a.is_satisfiable() == (a.models != 0)
    assert a.is_tautology() == (a.models == a.frame.full_mask)


@settings(max_examples=60)
@given(sentence_pairs())
def test_describe_reparses_to_the_same_models(pair):
    a, _ = pair
    assert build_sentence(a.frame, a.describe()).models == a.models


def test_describe_synthesised_text():
    w, x, y = (build_sentence(THREE, n) for n in THREE.atoms)
    assert (w & x).describe() == "w & x"
    assert ((w | x) & y).describe() == "(w | x) & y"
    assert (w | x).describe() == "w | x"
    # The grammar has no constants; both extremes are written over atom w.
    assert EvidenceSentence(THREE, 0).describe() == "w & !w"
    assert EvidenceSentence(THREE, THREE.full_mask).describe() == "w | !w"
    for models in (0, THREE.full_mask):
        text = EvidenceSentence(THREE, models).describe()
        assert build_sentence(THREE, text).models == models


# -- parse errors ------------------------------------------------------------


def test_unknown_atom_is_named_and_located():
    with pytest.raises(FormulaError) as caught:
        build_sentence(THREE, "w & bogus")
    assert "bogus" in str(caught.value)
    assert caught.value.column == 5


@pytest.mark.parametrize(
    "bad", ["", "w &", "& w", "(w", "w)", "!", "w x", "w & ()"]
)
def test_malformed_formulas_raise(bad):
    with pytest.raises(FormulaError):
        build_sentence(THREE, bad)


# -- frames ------------------------------------------------------------------


def test_frame_bounds():
    with pytest.raises(DeclarationError):
        EvidenceFrame(())
    with pytest.raises(DeclarationError):
        EvidenceFrame(tuple(f"a{i}" for i in range(17)))
    with pytest.raises(DeclarationError):
        EvidenceFrame(("w", "w"))
    with pytest.raises(DeclarationError):
        EvidenceFrame(("w", ""))
    assert EvidenceFrame(tuple(f"a{i}" for i in range(16))).valuations == 2**16
    with pytest.raises(DeclarationError):
        ConclusionFrame(tuple(f"b{i}" for i in range(25)))
    assert ConclusionFrame(("A",)).size == 1


@pytest.mark.parametrize("name", ["A,B", "x y", "2x", "", 7])
def test_frames_accept_only_identifiers(name):
    with pytest.raises(DeclarationError, match="not an identifier"):
        EvidenceFrame(("w", name))
    with pytest.raises(DeclarationError, match="not an identifier"):
        ConclusionFrame(("A", name))


def test_sentence_errors_are_located_where_the_text_sits():
    with pytest.raises(FormulaError) as caught:
        build_sentence(THREE, "  w & bogus", line=4, column=10)
    assert (caught.value.line, caught.value.column) == (4, 16)
    with pytest.raises(FormulaError) as caught:
        parse_conclusion(ALTS, " {A, D}", line=2, column=5)
    assert (caught.value.line, caught.value.column) == (2, 10)


# Recorded before the tokenizer became one regex scan.
PINNED_SENTENCE_ERRORS = [
    ("formula", "\t w ∧ (x ∨ ", 3, 7, ("expected an atom, '!' or '(' at end of formula", 3, 17)),
    ("formula", " \t ", 2, 4, ("empty formula", 2, 4)),
    ("formula", "w & $ x", 1, 1, ("unexpected character '$'", 1, 5)),
    ("formula", "  w  y", 6, 9, ("trailing input before 'y'", 6, 14)),
    ("formula", "(w | (x)", 1, 1, ("expected ')' at end of formula", 1, 9)),
    ("conclusion", "\t!{A,}", 5, 2, ("expected 'ident' before '}'", 5, 7)),
    ("conclusion", " {A} x", 1, 3, ("trailing input before 'x'", 1, 8)),
    ("conclusion", "{A, Q}", 2, 2, ("unknown alternative 'Q'", 2, 6)),
    ("conclusion", "", 4, 4, ("empty conclusion", 4, 4)),
]


@pytest.mark.parametrize("kind, text, line, column, expected", PINNED_SENTENCE_ERRORS)
def test_sentence_errors_are_pinned(kind, text, line, column, expected):
    parse = build_sentence if kind == "formula" else parse_conclusion
    with pytest.raises(FormulaError) as caught:
        parse(THREE if kind == "formula" else ALTS, text, line, column)
    assert (caught.value.message, caught.value.line, caught.value.column) == expected


def test_mixed_frames_are_rejected():
    other = EvidenceFrame(("w", "x", "y"))
    a = build_sentence(THREE, "w")
    b = build_sentence(EvidenceFrame(("w", "x")), "w")
    assert other == THREE  # frames are value objects
    with pytest.raises(Exception):
        a & b


# -- conclusions -------------------------------------------------------------

ALTS = ConclusionFrame(("A", "B", "C"))


def test_conclusion_basics():
    ab = conclusion_of(ALTS, ["A", "B"])
    b = conclusion_of(ALTS, ["B"])
    assert b.implies(ab) and not ab.implies(b)
    assert ab.complement().names() == ("C",)
    assert (b | conclusion_of(ALTS, ["C"])).describe() == "{B, C}"
    assert ab.describe() == "{A, B}"
    assert conclusion_of(ALTS, []).is_empty()
    assert ab.complement().complement().members == ab.members


def test_conclusion_parsing():
    assert parse_conclusion(ALTS, "{A, C}").names() == ("A", "C")
    assert parse_conclusion(ALTS, "!{B}").names() == ("A", "C")
    assert parse_conclusion(ALTS, "{ A }").names() == ("A",)
    with pytest.raises(FormulaError):
        parse_conclusion(ALTS, "{A, D}")
    with pytest.raises(FormulaError):
        parse_conclusion(ALTS, "{A")
    with pytest.raises(FormulaError):
        parse_conclusion(ALTS, "A")
    with pytest.raises(DeclarationError):
        conclusion_of(ALTS, ["Z"])


def _names_by_definition(sentence):
    return tuple(
        name
        for i, name in enumerate(sentence.frame.alternatives)
        if sentence.members >> i & 1
    )


def test_names_and_describe_match_the_definition():
    # Names run against the bit order, so a walk in the wrong order shows.
    frames = [
        ConclusionFrame(tuple(f"alt{size - i}" for i in range(size)))
        for size in range(1, 9)
    ]
    cases = [ConclusionSentence(f, m) for f in frames for m in range(f.full_mask + 1)]
    wide = ConclusionFrame(tuple(f"w{23 - i}" for i in range(24)))
    rng = random.Random(2401)
    masks = [0, 1, 1 << 23, wide.full_mask]
    masks += [rng.randint(0, wide.full_mask) for _ in range(500 - len(masks))]
    cases += [ConclusionSentence(wide, m) for m in masks]
    assert len(cases) == 510 + 500
    for sentence in cases:
        expected = _names_by_definition(sentence)
        assert sentence.names() == expected
        assert sentence.describe() == "{" + ", ".join(expected) + "}"
