"""The declaration language: parsing, located errors, serialization."""

from __future__ import annotations

import random

import pytest

from res import (
    EvidenceSentence,
    ParseError,
    build_closure,
    build_sentence,
    fixture_path,
    fixture_text,
    load_structure,
    parse_conclusion,
    parse_document,
)
from res import dsl
from res.dsl import ArgDecl, RefuteDecl, RelDecl

from strategies import random_document_text


HEADER = """\
structure t
evidence atoms: e1, e2
alternatives: Al1, Al2, Al3
"""


def parse_errors(text):
    with pytest.raises(ParseError) as caught:
        parse_document(text).to_structure()
    return caught.value.errors


# ---------------------------------------------------------------------------
# The bundled structures parse to the expected shape.
# ---------------------------------------------------------------------------


def test_example1_document_shape():
    document = parse_document(fixture_text("example1.res"))
    assert document.name == "example1"
    assert document.evidence_frame.atoms == ("e1", "e2")
    assert document.conclusion_frame.alternatives == ("Al1", "Al2", "Al3")
    assert not document.options.conjunction_arguments
    kinds = [type(decl).__name__ for decl in document.body]
    assert kinds == ["ArgDecl", "ArgDecl", "ArgDecl", "RefuteDecl"]
    structure = document.to_structure()
    assert [a.id for a in structure.arguments] == ["t1a", "t1b", "t2", "a1", "a2"]
    assert structure.declarations == ()


def test_hominids_document_shape():
    document = parse_document(fixture_text("hominids.res"))
    assert document.name == "hominids"
    assert len(document.evidence_frame.atoms) == 5
    assert len(document.conclusion_frame.alternatives) == 5
    assert document.options.conjunction_arguments
    args = [d for d in document.body if isinstance(d, ArgDecl)]
    rels = [d for d in document.body if isinstance(d, RelDecl)]
    assert len(args) == 12
    assert [a.label for a in args] == [f"a{i}" for i in range(1, 13)]
    assert len(rels) == 4
    assert all(r.level == "presumption" and r.kind == "strict" for r in rels)
    structure = document.to_structure()
    assert len(structure.arguments) == 23


def test_fixture_helpers():
    assert fixture_text("example1.res").startswith("#")
    assert fixture_path("hominids.res").exists()
    with pytest.raises(FileNotFoundError):
        fixture_text("missing.res")


# ---------------------------------------------------------------------------
# Located errors.
# ---------------------------------------------------------------------------


def test_unknown_atom_is_located():
    line = "arg a1: e3 => {Al1}"
    (err,) = parse_errors(HEADER + line + "\n")
    assert err.line == 4
    assert err.column == line.index("e3") + 1
    assert "e3" in err.message


def test_unknown_alternative_is_located():
    line = "arg a1: e1 => {Al9}"
    (err,) = parse_errors(HEADER + line + "\n")
    assert err.line == 4
    assert "Al9" in err.message


def test_missing_header_lines():
    (err,) = parse_errors("")
    assert "structure" in err.message
    (err,) = parse_errors("structure t\n")
    assert "evidence atoms" in err.message
    (err,) = parse_errors("structure t\nevidence atoms: e1\n")
    assert "alternatives" in err.message
    (err,) = parse_errors("structure t\nalternatives: A\n")
    assert "evidence atoms" in err.message


def test_duplicate_header_line_rejected():
    text = HEADER + "alternatives: B1\n"
    (err,) = parse_errors(text)
    assert err.line == 4
    assert "extra 'alternatives'" in err.message


def test_bad_structure_name():
    (err,) = parse_errors("structure 9lives\n")
    assert "identifier" in err.message
    (err,) = parse_errors("structure\n")
    assert "identifier" in err.message


def test_bad_name_lists():
    (err,) = parse_errors("structure t\nevidence atoms: e1, 2e\n")
    assert "'2e'" in err.message
    (err,) = parse_errors("structure t\nevidence atoms: e1,\nalternatives: A, B\n")
    assert "''" in err.message


def test_atom_alternative_overlap_rejected():
    text = "structure t\nevidence atoms: e1, shared\nalternatives: shared, B\n"
    (err,) = parse_errors(text)
    assert "both as atom and alternative" in err.message


def test_bad_options():
    (err,) = parse_errors(
        "structure t\nevidence atoms: e1\nalternatives: A, B\noptions: bogus=1\n"
    )
    assert "bogus" in err.message
    (err,) = parse_errors(
        "structure t\nevidence atoms: e1\nalternatives: A, B\n"
        "options: same_presumption_equal=maybe\n"
    )
    assert "maybe" in err.message
    (err,) = parse_errors(
        "structure t\nevidence atoms: e1\nalternatives: A, B\noptions true\n"
    )
    assert "':'" in err.message


def test_inconsistent_options_are_located_at_the_options_line():
    errors = parse_errors(
        HEADER + "# the options follow\n"
        "options: conjunction_lifting=true, disjunction_closure=true\n"
        "arg a1: e9 => {Al1}\n"
    )
    assert [(e.line, e.column) for e in errors] == [(5, 1), (6, 9)]
    assert errors[0].message == (
        "options: conjunction_lifting requires conjunction_arguments"
    )
    (err,) = parse_errors(HEADER + "options: disjunction_closure_cap=0\n")
    assert err.line == 4
    assert err.message == "options: disjunction_closure_cap must be positive"


def test_unknown_statement():
    (err,) = parse_errors(HEADER + "foo: bar\n")
    assert err.line == 4
    assert "'foo'" in err.message


def test_arg_line_errors():
    (err,) = parse_errors(HEADER + "arg a1: e1 -> {Al1}\n")
    assert "'=>'" in err.message
    (err,) = parse_errors(HEADER + "arg a1: e1 => Al1\n")
    assert "'{'" in err.message
    (err,) = parse_errors(HEADER + "arg 1a: e1 => {Al1}\n")
    assert "malformed arg line" in err.message


def test_refute_line_errors():
    (err,) = parse_errors(HEADER + "refute: e1 => Al1\n")
    assert "braces" in err.message
    (err,) = parse_errors(HEADER + "refute: e1 => {Al1} sometimes\n")
    assert "'sometimes'" in err.message
    # Valid policies parse to the declared policy.
    document = parse_document(HEADER + "refute: e1 => {Al1} complement_set\n")
    (decl,) = document.body
    assert isinstance(decl, RefuteDecl)
    assert decl.policy == "complement_set"


def test_rel_line_errors():
    body = "arg a1: e1 => {Al1}\narg a2: e2 => {Al2}\n"
    (err,) = parse_errors(HEADER + body + "rel: a1 >> a2\n")
    assert "'<', '<=' or '~'" in err.message
    (err,) = parse_errors(HEADER + body + "rel: a1 < pres(e1)\n")
    assert "two arguments or two presumptions" in err.message
    (err,) = parse_errors(HEADER + body + "rel: a1 < a2 junk\n")
    assert "trailing input" in err.message
    (err,) = parse_errors(HEADER + body + "rel: pres(e1 < a2\n")
    assert "unbalanced" in err.message
    (err,) = parse_errors(HEADER + body + "rel: < a2\n")
    assert "argument label or pres(...)" in err.message


# Every (message, line, column) below was recorded before the tokenizer
# became one regex scan; columns count characters from 1, tabs included.
PINNED_ERRORS = [
    ("  \targ a1: e1 & bogus => {Al1}", [("unknown atom 'bogus'", 4, 17)]),
    ("arg a1:\t  e1 &\t$ e2 => {Al1}", [("unexpected character '$'", 4, 16)]),
    ("arg a1: e1 & e2$ => {Al1}", [("unexpected character '$'", 4, 16)]),
    ("arg a1: ¬ => {Al1}", [("expected an atom, '!' or '(' at end of formula", 4, 10)]),
    ("arg a1: e1 ∧ ∧ e2 => {Al1}", [("expected an atom, '!' or '(' before '&'", 4, 14)]),
    ("arg a1: ∨e1 => {Al1}", [("expected an atom, '!' or '(' before '|'", 4, 9)]),
    ("arg a1: e1 ∨ (e2 ∧ ¬) => {Al1}", [("expected an atom, '!' or '(' before ')'", 4, 21)]),
    ("arg a1: ¬e1 ∧ bogus => {Al1}", [("unknown atom 'bogus'", 4, 15)]),
    ("arg a1: e1 e2 => {Al1}", [("trailing input before 'e2'", 4, 12)]),
    ("arg a1: e1) => {Al1}", [("trailing input before ')'", 4, 11)]),
    ("arg a1: e1 => {Al1} {Al2}", [("trailing input before '{'", 4, 21)]),
    ("arg a1: e1 =>\t{Al1}\t)", [("trailing input before ')'", 4, 21)]),
    ("arg a1: (e1 & e2 => {Al1}", [("expected ')' at end of formula", 4, 17)]),
    ("arg a1: ((e1) => {Al1}", [("expected ')' at end of formula", 4, 14)]),
    ("arg a1:   => {Al1}", [("empty formula", 4, 11)]),
    ("arg a1: e1 & (e2 | !) => {Al1}", [("expected an atom, '!' or '(' before ')'", 4, 21)]),
    ("arg a1: e1 & é => {Al1}", [("unexpected character 'é'", 4, 14)]),
    ("arg a1: e1\xa0& e2 => {Al1}", [("unexpected character '\\xa0'", 4, 11)]),
    ("arg a1: e1 => !{", [("expected 'ident' at end of formula", 4, 17)]),
    ("arg a1: e1 => {Al1,}", [("expected 'ident' before '}'", 4, 20)]),
    ("arg a1: e1 => {Al1, Zed}", [("unknown alternative 'Zed'", 4, 21)]),
    ("arg a1: e1 => { Al1 Al2 }", [("expected '}' before 'Al2'", 4, 21)]),
    ("arg a1: e1 => {Al1; Al2}", [("unexpected character ';'", 4, 19)]),
    ("arg a1: e1 => !!{Al1}", [("expected '{' before '!'", 4, 16)]),
    ("refute: e1 => !{Al4}", [("unknown alternative 'Al4'", 4, 17)]),
    ("refute:\te1 ∧ $ => {Al1} complement_set", [("unexpected character '$'", 4, 14)]),
    ("rel: pres(e1 & (e2) < pres(e1)", [("unbalanced 'pres('", 6, 6)]),
    ("rel: pres(e1) < pres(e1 | e2", [("unbalanced 'pres('", 6, 17)]),
    ("rel: pres(e1) < pres( zz & e1 )", [("unknown atom 'zz'", 6, 23)]),
    ("rel:  pres(\t¬ zz) ~ pres(e1)", [("unknown atom 'zz'", 6, 15)]),
    ("rel: pres() < pres(e1)", [("empty formula", 6, 11)]),
    ("rel: pres(e1 e2) <= pres(e1)", [("trailing input before 'e2'", 6, 14)]),
]


@pytest.mark.parametrize("line, expected", PINNED_ERRORS)
def test_formula_and_conclusion_errors_are_pinned(line, expected):
    body = "arg a1: e1 => {Al1}\narg a2: e2 => {Al2}\n" if line.startswith("rel") else ""
    errors = parse_errors(HEADER + body + line + "\n")
    assert [(e.message, e.line, e.column) for e in errors] == expected


def test_errors_found_at_structure_build_time_point_at_their_lines():
    body = "arg a1: e1 => {Al1}\nrel: a1 < zz\n"
    (err,) = parse_errors(HEADER + body)
    assert err.line == 5
    assert "zz" in err.message

    duplicate = "arg a1: e1 => {Al1}\narg a1: e2 => {Al2}\n"
    (err,) = parse_errors(HEADER + duplicate)
    assert err.line == 5
    assert "a1" in err.message

    unsatisfiable = "arg a1: e1 & !e1 => {Al1}\n"
    (err,) = parse_errors(HEADER + unsatisfiable)
    assert err.line == 4


def test_every_problem_is_reported_not_just_the_first():
    text = HEADER + "arg a1: e9 => {Al1}\narg a2: e1 => {Zoo}\n"
    errors = parse_errors(text)
    assert [e.line for e in errors] == [4, 5]
    summary = str(ParseError(errors))
    assert "e9" in summary and "Zoo" in summary


def test_validation_failures_surface_as_parse_errors():
    text = (
        "structure t\nevidence atoms: e1\nalternatives: A, B\n"
        "options: conjunction_lifting=true\n"
        "arg a1: e1 => {A}\n"
    )
    errors = parse_errors(text)
    assert any("conjunction_lifting" in e.message for e in errors)


def test_each_distinct_text_is_parsed_once_per_document(monkeypatch):
    formulas, conclusions = [], []
    build, conclude = dsl.build_sentence, dsl.parse_conclusion

    def counted_build(frame, text, *where):
        formulas.append(text.strip())
        return build(frame, text, *where)

    def counted_conclude(frame, text, *where):
        conclusions.append(text.strip())
        return conclude(frame, text, *where)

    monkeypatch.setattr(dsl, "build_sentence", counted_build)
    monkeypatch.setattr(dsl, "parse_conclusion", counted_conclude)
    body = (
        "arg a1: e1 & e2 => {Al1}\n"
        "arg a2:   e1 & e2   =>   {Al1}\n"
        "arg a3: e1&e2 => { Al1 }\n"
        "refute: e1 & e2 => {Al1} complement_set\n"
        "rel: pres(e1 & e2) < pres( e1 )\n"
        "rel: pres(e1) <= pres(e1&e2)\n"
    )
    document = parse_document(HEADER + body)
    assert formulas == ["e1 & e2", "e1&e2", "e1"]  # 6 formulas before the memo
    assert conclusions == ["{Al1}", "{ Al1 }"]  # 4 before
    first, second, third, refute, rel, _ = document.body
    assert second.presumption is first.presumption is refute.presumption
    assert rel.left is first.presumption
    # The memo keys on text, so equal masks keep the text they were written as.
    assert third.presumption == first.presumption
    assert third.presumption.describe() == "e1&e2"
    assert document.serialize().splitlines()[5:] == [
        "arg a1: e1 & e2 => {Al1}",
        "arg a2: e1 & e2 => {Al1}",
        "arg a3: e1&e2 => { Al1 }",
        "refute: e1 & e2 => {Al1} complement_set",
        "rel: pres(e1 & e2) < pres(e1)",
        "rel: pres(e1) <= pres(e1&e2)",
    ]


def test_a_repeated_bad_text_is_reported_at_each_occurrence():
    body = (
        "arg a1: e1 & zz => {Al1}\n"
        "arg a2:    e1 & zz => {Al2}\n"
        "rel: pres(e1 & zz) < pres(e1)\n"
        "arg a3: e1 => {Zed}\n"
        "arg a4: e2 =>  {Zed}\n"
    )
    errors = parse_errors(HEADER + body)
    assert [(e.message, e.line, e.column) for e in errors] == [
        ("unknown atom 'zz'", 4, 14),
        ("unknown atom 'zz'", 5, 17),
        ("unknown atom 'zz'", 6, 16),
        ("unknown alternative 'Zed'", 7, 16),
        ("unknown alternative 'Zed'", 8, 17),
    ]


# ---------------------------------------------------------------------------
# Tolerated syntax.
# ---------------------------------------------------------------------------


def test_comments_blank_lines_and_spacing():
    text = (
        "# leading comment\n\n"
        "structure   spaced\n"
        "evidence atoms:   e1 ,  e2   # trailing comment\n"
        "alternatives: A, B\n"
        "\n"
        "   arg a1:   e1 & !e2   =>   { A , B }  # indented\n"
        "rel:   a1   <=   a1\n"
    )
    structure = load_structure(text)
    assert structure.name == "spaced"
    (argument,) = structure.arguments
    assert argument.presumption.describe() == "e1 & !e2"
    assert argument.conclusion.describe() == "{A, B}"
    assert len(structure.declarations) == 1


def test_unicode_connectives_in_formulas():
    text = HEADER + "arg a1: ¬e1 ∧ (e2 ∨ e1) => {Al1}\n"
    structure = load_structure(text)
    (argument,) = structure.arguments
    assert argument.presumption.models == load_structure(
        HEADER + "arg a1: !e1 & (e2 | e1) => {Al1}\n"
    ).arguments[0].presumption.models


def test_negated_conclusions():
    structure = load_structure(HEADER + "arg a1: e1 => !{Al2}\n")
    (argument,) = structure.arguments
    assert argument.conclusion.describe() == "{Al1, Al3}"


# ---------------------------------------------------------------------------
# Serialization round-trips.
# ---------------------------------------------------------------------------


def assert_same_semantics(document, reparsed):
    left = document.to_structure()
    right = reparsed.to_structure()
    assert left.options == right.options
    assert [
        (a.id, a.presumption.models, a.conclusion.members, a.origins)
        for a in left.arguments
    ] == [
        (a.id, a.presumption.models, a.conclusion.members, a.origins)
        for a in right.arguments
    ]
    assert len(left.declarations) == len(right.declarations)
    first = build_closure(left)
    second = build_closure(right)
    ids = [a.id for a in left.arguments]
    for low in ids:
        for high in ids:
            assert first.leq(low, high) == second.leq(low, high)


@pytest.mark.parametrize("name", ["example1.res", "hominids.res"])
def test_fixture_round_trip(name):
    document = parse_document(fixture_text(name))
    text = document.serialize()
    reparsed = parse_document(text)
    assert_same_semantics(document, reparsed)
    assert reparsed.serialize() == text


def test_random_document_round_trips():
    rng = random.Random(20240817)
    for _ in range(150):
        text = random_document_text(rng)
        document = parse_document(text)
        canonical = document.serialize()
        reparsed = parse_document(canonical)
        assert reparsed.serialize() == canonical
        assert_same_semantics(document, reparsed)


def test_memoised_parse_matches_a_direct_parse_of_each_line():
    rng = random.Random(20261018)
    for _ in range(150):
        text = random_document_text(rng)
        # Repeat every argument under a new label, so formulas recur, and
        # write its conjunctions without blanks, so equal masks get new text.
        text += "".join(
            line.replace("arg t", "arg u", 1).replace(" & ", "&") + "\n"
            for line in text.splitlines()
            if line.startswith("arg ")
        )
        lines = text.splitlines()
        document = parse_document(text)
        evidence, conclusions = document.evidence_frame, document.conclusion_frame
        for decl in document.body:
            if isinstance(decl, ArgDecl):
                parsed = [(decl.presumption, decl.formula_text),
                          (decl.conclusion, decl.conclusion_text)]
            elif isinstance(decl, RefuteDecl):
                parsed = [(decl.presumption, decl.formula_text),
                          (decl.refuted, decl.conclusion_text)]
            elif decl.level == "presumption":
                parsed = [(decl.left, decl.left_text), (decl.right, decl.right_text)]
            else:
                continue
            for sentence, written in parsed:
                assert written in lines[decl.line - 1]
                if isinstance(sentence, EvidenceSentence):
                    direct = build_sentence(evidence, written)
                    assert sentence.text == direct.text == written
                else:
                    direct = parse_conclusion(conclusions, written)
                assert sentence == direct
        canonical = document.serialize()
        assert parse_document(canonical).serialize() == canonical
