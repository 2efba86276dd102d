"""The declaration language: parsing, located errors, replaying the body."""

from __future__ import annotations

import random
import re

import pytest

from res import (
    EvidenceSentence,
    EvidenceStructure,
    ParseError,
    build_sentence,
    fixture_path,
    fixture_text,
    load_structure,
    parse_conclusion,
    parse_document,
    replace,
)
from res import dsl

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
    methods = [method.__name__ for _, _, method, _ in document.body]
    assert methods == ["add_support", "add_support", "add_support", "add_refutation"]
    structure = document.to_structure()
    assert [a.id for a in structure.arguments] == ["t1a", "t1b", "t2", "a1", "a2"]
    assert structure.declarations == ()


def test_hominids_document_shape():
    document = parse_document(fixture_text("hominids.res"))
    assert document.name == "hominids"
    assert len(document.evidence_frame.atoms) == 5
    assert len(document.conclusion_frame.alternatives) == 5
    assert document.options.conjunction_arguments
    methods = [method.__name__ for _, _, method, _ in document.body]
    assert methods == ["add_support"] * 12 + ["declare_presumption_relation"] * 4
    args = [args for _, _, _, args in document.body]
    assert [label for _, _, label in args[:12]] == [f"a{i}" for i in range(1, 13)]
    assert all(kind == "strict" for kind, _, _ in args[12:])
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
    for cap in (4097, 100000000):
        (err,) = parse_errors(HEADER + f"options: disjunction_closure_cap={cap}\n")
        assert err.line == 4
        assert err.message == "options: disjunction_closure_cap must be at most 4096"
    document = parse_document(HEADER + "options: disjunction_closure_cap=4096\n")
    assert document.options.disjunction_closure_cap == 4096


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
    ((_, _, method, (_, _, policy)),) = document.body
    assert method is EvidenceStructure.add_refutation
    assert policy == "complement_set"


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
    first, second, third, refute, rel, last = (args for *_, args in document.body)
    assert second[0] is first[0] is refute[0] is rel[1]
    assert second[1] is first[1] is refute[1]
    assert last[1] is rel[2]
    # The memo keys on text, so equal masks keep the text they were written as.
    assert third[0] == first[0] and third[1] == first[1]
    assert [third[0].describe(), last[2].describe()] == ["e1&e2", "e1&e2"]
    assert [first[0].describe(), rel[2].describe()] == ["e1 & e2", "e1"]


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
# Replaying the body: arguments first, then relations, each error located.
# ---------------------------------------------------------------------------


def test_a_relation_may_name_labels_declared_below_it():
    text = HEADER + "rel: a2 < a1\narg a1: e1 => {Al1}\narg a2: e2 => {Al2}\n"
    structure = load_structure(text)
    (declaration,) = structure.declarations
    assert (declaration.kind, declaration.left, declaration.right) == ("strict", "a2", "a1")


def test_build_errors_list_the_arguments_first_then_the_relations():
    body = (
        "rel: a1 < zz\n"
        "arg a1: e1 => {Al1}\n"
        "arg a1: e2 => {Al2}\n"
        "  rel:  yy <= a1\n"
        "  arg a3: e1 & !e1 => {Al3}\n"
        "    refute: e2 => {Al1, Al2, Al3}\n"
    )
    errors = parse_errors(HEADER + body)
    assert [(e.message, e.line, e.column) for e in errors] == [
        ("duplicate argument label 'a1'", 6, 1),
        ("unsatisfiable presumption 'e1 & !e1'", 8, 3),
        ("refuting the full set of alternatives leaves nothing to support", 9, 5),
        ("relation references unknown argument 'zz'", 4, 6),
        ("relation references unknown argument 'yy'", 7, 9),
    ]


def test_one_document_built_twice_gives_equal_pools():
    rng = random.Random(20261019)
    texts = [fixture_text("example1.res"), fixture_text("hominids.res")]
    texts += [random_document_text(rng) for _ in range(30)]
    for text in texts:
        document = parse_document(text)
        first, second = document.to_structure(), document.to_structure()
        assert first is not second
        assert first.arguments == second.arguments  # ids and origins included
        assert first.declarations == second.declarations


def test_options_replaced_before_building_are_honoured():
    document = parse_document(fixture_text("hominids.res"))
    assert len(document.to_structure().arguments) == 23
    document.options = replace(document.options, conjunction_arguments=False)
    structure = document.to_structure()
    assert not structure.options.conjunction_arguments
    assert len(structure.arguments) == 12


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
        for line, _, method, args in document.body:
            source = lines[line - 1]
            if method is EvidenceStructure.declare_argument_relation:
                continue
            if method is EvidenceStructure.declare_presumption_relation:
                match = re.fullmatch(r"rel: pres\((.*)\) (?:<=|<|~) pres\((.*)\)", source)
                parsed = zip(args[1:], match.groups())
            else:
                if method is EvidenceStructure.add_support:
                    assert source.startswith(f"arg {args[2]}: ")
                formula, tail = source.split(": ", 1)[1].split(" => ")
                parsed = zip(args[:2], (formula, tail[: tail.index("}") + 1]))
            for sentence, written in parsed:
                if isinstance(sentence, EvidenceSentence):
                    direct = build_sentence(evidence, written)
                    assert sentence.text == direct.text == written
                else:
                    direct = parse_conclusion(conclusions, written)
                assert sentence == direct
