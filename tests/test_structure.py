"""Building structures: declarations, expansion, generation passes."""

from __future__ import annotations

import dataclasses
import random

import pytest

from res import (
    ConclusionFrame,
    ConclusionSentence,
    DeclarationError,
    EvidenceFrame,
    EvidenceSentence,
    EvidenceStructure,
    StructureOptions,
    UsageError,
    build_closure,
    build_sentence,
    conclusion_of,
    fixture_text,
    parse_document,
    replace,
)
from res.structure import ORIGIN_DISJUNCTION, parse_option

from strategies import build_structure, random_recipe

FRAME = EvidenceFrame(("x", "y"))
ALTS = ConclusionFrame(("A", "B", "C"))


def fresh(**options) -> EvidenceStructure:
    return EvidenceStructure(FRAME, ALTS, StructureOptions(**options), "t")


def sentence(text: str) -> EvidenceSentence:
    return build_sentence(FRAME, text)


def c(*names) -> ConclusionSentence:
    return conclusion_of(ALTS, names)


# -- adding arguments --------------------------------------------------------


def test_labels_auto_ids_and_merging():
    s = fresh()
    assert s.add_support(sentence("x"), c("A"), "first") == "first"
    assert s.add_support(sentence("y"), c("B")) == "a1"
    # A semantically equal presumption merges, even written differently.
    assert s.add_support(sentence("x | (x & y)"), c("A")) == "first"
    assert len(s.arguments) == 2
    # The merged argument keeps its original texts.
    assert s.argument("first").presumption.describe() == "x"


def test_merge_records_alias_labels():
    s = fresh()
    s.add_support(sentence("x"), c("A"), "one")
    s.add_support(sentence("x"), c("A"), "two")
    assert s.position("two") == s.position("one") == 0
    assert s.argument("two") is s.argument("one")
    with pytest.raises(DeclarationError):
        s.add_support(sentence("y"), c("B"), "one")


def test_auto_ids_skip_taken_labels():
    s = fresh()
    s.add_support(sentence("x"), c("A"), "a1")
    assert s.add_support(sentence("y"), c("B")) == "a2"


def test_rejects_degenerate_arguments():
    s = fresh()
    with pytest.raises(DeclarationError):
        s.add_support(sentence("x & !x"), c("A"))
    with pytest.raises(DeclarationError):
        s.add_support(sentence("x"), c())
    other = EvidenceFrame(("p",))
    with pytest.raises(UsageError):
        s.add_support(build_sentence(other, "p"), c("A"))


def test_refutation_expands_per_policy():
    s = fresh()
    s.add_refutation(sentence("x"), c("A"))
    assert [(a.id, a.conclusion.names()) for a in s.arguments] == [
        ("a1", ("B",)),
        ("a2", ("C",)),
    ]
    assert s.arguments[0].origins == ("refutation-expansion",)

    s2 = fresh()
    s2.add_refutation(sentence("x"), c("A"), "complement_set")
    assert [a.conclusion.names() for a in s2.arguments] == [("B", "C")]

    with pytest.raises(DeclarationError):
        fresh().add_refutation(sentence("x"), c("A", "B", "C"))
    with pytest.raises(DeclarationError):
        fresh().add_refutation(sentence("x"), c("A"), "bogus")


# -- declarations ------------------------------------------------------------


def test_relation_declarations():
    s = fresh()
    s.add_support(sentence("x"), c("A"), "p")
    s.add_support(sentence("y"), c("B"), "q")
    s.declare_argument_relation("strict", "p", "q")
    s.declare_presumption_relation("leq", sentence("x"), sentence("y"))
    assert [d.kind for d in s.declarations] == ["strict", "leq"]
    assert s.declarations[0].ordinal == 1
    with pytest.raises(DeclarationError):
        s.declare_argument_relation("strict", "p", "nope")
    with pytest.raises(DeclarationError):
        s.declare_argument_relation("sideways", "p", "q")
    with pytest.raises(DeclarationError):
        s.declare_presumption_relation("leq", sentence("x & !x"), sentence("y"))


def test_argument_relations_follow_aliases():
    s = fresh()
    s.add_support(sentence("x"), c("A"), "one")
    s.add_support(sentence("x"), c("A"), "two")
    s.add_support(sentence("y"), c("B"), "other")
    s.declare_argument_relation("leq", "two", "other")
    assert s.declarations[0].left == "one"


def test_declarations_are_final_once_the_passes_have_run():
    s = fresh()
    s.add_support(sentence("x"), c("A"), "p")
    s.add_support(sentence("y"), c("B"), "q")
    s.declare_presumption_relation("leq", sentence("x"), sentence("y"))
    s.declare_argument_relation("strict", "p", "q")
    assert [(d.level, d.ordinal) for d in s.declarations] == [
        ("presumption", 1), ("argument", 2)
    ]
    s.run_generation_passes()
    declarations = s.declarations
    with pytest.raises(UsageError, match="frozen"):
        s.declare_argument_relation("leq", "q", "p")
    with pytest.raises(UsageError, match="frozen"):
        s.declare_presumption_relation("leq", sentence("y"), sentence("x"))
    assert s.declarations is declarations and len(declarations) == 2


# -- generation passes -------------------------------------------------------


def generated(s: EvidenceStructure) -> list[str]:
    """Run the generation passes; the ids of the arguments they added."""
    count = len(s.arguments)
    s.run_generation_passes()
    return [a.id for a in s.arguments[count:]]


def test_conjunction_pass_only_joins_equal_conclusions():
    s = fresh(conjunction_arguments=True)
    s.add_support(sentence("x"), c("A"), "p")
    s.add_support(sentence("y"), c("A"), "q")
    s.add_support(sentence("y"), c("B"), "r")
    added = generated(s)
    assert added == ["a1"]
    joined = s.argument("a1")
    assert joined.presumption.describe() == "x & y"
    assert joined.conclusion.names() == ("A",)
    assert joined.origins == ("conjunction-rule",)
    assert joined.parents == ((s.argument("p").presumption, s.argument("q").presumption),)


def test_conjunction_pass_skips_unsatisfiable_joins():
    s = fresh(conjunction_arguments=True)
    s.add_support(sentence("x"), c("A"))
    s.add_support(sentence("!x"), c("A"))
    assert generated(s) == []


def test_conjunction_merge_adds_origin_and_parents_to_existing():
    s = fresh(conjunction_arguments=True)
    s.add_support(sentence("x & y"), c("A"), "joint")
    s.add_support(sentence("x"), c("A"), "wide")
    s.add_support(sentence("y"), c("A"), "other")
    added = generated(s)
    # x & y already exists, so nothing new appears ...
    assert "joint" not in added
    # ... but the existing argument now carries the conjunction origin.
    joint = s.argument("joint")
    assert "conjunction-rule" in joint.origins
    assert (s.argument("wide").presumption, s.argument("other").presumption) in joint.parents


def test_conjunction_pass_is_off_by_default():
    s = fresh()
    s.add_support(sentence("x"), c("A"))
    s.add_support(sentence("y"), c("A"))
    assert generated(s) == []


def test_disjunction_closure_reaches_a_fixpoint():
    s = fresh(disjunction_closure=True)
    s.add_support(sentence("x"), c("A"), "p")
    s.add_support(sentence("y"), c("B"), "q")
    added = generated(s)
    assert len(added) == 1
    new = s.argument(added[0])
    assert new.presumption.models == sentence("x | y").models
    assert new.conclusion.names() == ("A", "B")
    assert not s.disjunction_capped
    # The pool is closed: every pair's disjunction is already in it.
    keys = {(a.presumption.models, a.conclusion.members) for a in s.arguments}
    for first in s.arguments:
        for second in s.arguments:
            presumption = first.presumption | second.presumption
            conclusion = first.conclusion | second.conclusion
            assert (presumption.models, conclusion.members) in keys


def test_disjunction_closure_cap():
    s = fresh(disjunction_closure=True, disjunction_closure_cap=1)
    s.add_support(sentence("x"), c("A"))
    s.add_support(sentence("y"), c("B"))
    s.add_support(sentence("x & y"), c("C"))
    assert len(generated(s)) == 1
    assert s.disjunction_capped
    report = s.validate()
    assert report.ok
    assert any("cap" in w for w in report.warnings)


def test_generation_passes_are_idempotent():
    # The passes run once: a second run raises and leaves the pool as it is.
    s = fresh(conjunction_arguments=True, disjunction_closure=True)
    s.add_support(sentence("x"), c("A"))
    s.add_support(sentence("y"), c("A"))
    s.run_generation_passes()
    pool = s.arguments
    with pytest.raises(UsageError, match="frozen"):
        s.run_generation_passes()
    assert s.arguments == pool


def test_the_disjunction_cap_budgets_the_whole_structure():
    document = parse_document(fixture_text("example1.res"))
    document.options = replace(
        document.options, disjunction_closure=True, disjunction_closure_cap=4
    )
    s = document.to_structure()
    assert len(s.arguments) == 9
    assert s.disjunction_capped
    with pytest.raises(UsageError, match="frozen"):
        s.run_generation_passes()
    assert len(s.arguments) == 9


class AllPairsStructure(EvidenceStructure):
    """The disjunction pass as defined: every round joins every pair."""

    def _disjoin(self, pool):
        budget = self.options.disjunction_closure_cap
        grew = True
        while grew:
            grew = False
            count = len(pool)
            for i in range(count):
                for j in range(i + 1, count):
                    size = len(pool)
                    self._add(
                        pool[i].presumption | pool[j].presumption,
                        pool[i].conclusion | pool[j].conclusion,
                        None,
                        ORIGIN_DISJUNCTION,
                    )
                    if len(pool) > size:
                        grew = True
                        budget -= 1
                        if not budget:
                            self.disjunction_capped = True
                            return


def test_disjunction_rounds_match_the_all_pairs_definition():
    rng = random.Random(14)
    capped = 0
    for _ in range(60):
        recipe = dataclasses.replace(
            random_recipe(rng, max_atoms=3, max_arguments=10, allow_generation=True,
                          max_alternatives=5),
            disjunction_closure=True,
            disjunction_closure_cap=rng.choice((1, 5, 40, 4096)),
        )
        rounds, pairs = build_structure(recipe), build_structure(recipe, AllPairsStructure)
        assert rounds.arguments == pairs.arguments  # ids, origins and parents too
        assert [a.presumption.describe() for a in rounds.arguments] == [
            a.presumption.describe() for a in pairs.arguments
        ]
        assert rounds.disjunction_capped == pairs.disjunction_capped
        capped += rounds.disjunction_capped
    assert 0 < capped < 60


# -- options and validation --------------------------------------------------


def test_option_parsing():
    assert parse_option("same_presumption_equal=true") == ("same_presumption_equal", True)
    assert parse_option(" conjunction_arguments = false ") == ("conjunction_arguments", False)
    assert parse_option("disjunction_closure_cap=32") == ("disjunction_closure_cap", 32)
    with pytest.raises(DeclarationError):
        parse_option("same_presumption_equal=yes")
    with pytest.raises(DeclarationError):
        parse_option("disjunction_closure_cap=many")
    with pytest.raises(DeclarationError, match="unknown option 'unheard_of'"):
        parse_option("unheard_of=true")
    with pytest.raises(DeclarationError, match="not name=value"):
        parse_option("same_presumption_equal")


def test_option_problems():
    """Inconsistent options never reach a structure: construction raises."""
    StructureOptions(conjunction_arguments=True, conjunction_lifting=True)
    with pytest.raises(DeclarationError, match="requires conjunction_arguments"):
        StructureOptions(conjunction_lifting=True)
    with pytest.raises(DeclarationError, match="must be positive"):
        StructureOptions(disjunction_closure_cap=0)
    with pytest.raises(DeclarationError, match="requires conjunction_arguments"):
        replace(
            StructureOptions(conjunction_arguments=True, conjunction_lifting=True),
            conjunction_arguments=False,
        )


def test_validate_flags_option_problems():
    """A structure with inconsistent options is refused before validate() runs;
    the same structure with consistent options validates."""
    with pytest.raises(DeclarationError, match="conjunction_lifting"):
        fresh(conjunction_lifting=True)
    s = fresh(conjunction_arguments=True, conjunction_lifting=True)
    s.add_support(sentence("x"), c("A"))
    report = s.validate()
    assert report.ok
    assert not any("conjunction_lifting" in e for e in report.errors)


def test_validate_warns_on_vacuous_support():
    s = fresh()
    s.add_support(sentence("x"), c("A", "B", "C"))
    report = s.validate()
    assert report.ok
    assert any("every alternative" in w or "vacuous" in w for w in report.warnings)


def test_validate_warns_on_presumption_relation_with_no_arguments():
    s = fresh()
    s.add_support(sentence("x"), c("A"))
    s.declare_presumption_relation("strict", sentence("y"), sentence("x"))
    report = s.validate()
    assert report.ok
    assert any("y" in w for w in report.warnings)


def test_validate_matches_presumptions_semantically():
    s = fresh()
    s.add_support(sentence("x & (y | !y)"), c("A"), "p")
    s.add_support(sentence("y"), c("C"))
    s.declare_presumption_relation("strict", sentence("y"), sentence("x"))
    s.declare_presumption_relation("leq", sentence("!!y"), sentence("x & y"))
    report = s.validate()
    assert report.ok
    # `x` is written differently from p's presumption but has its models;
    # only `x & y` is presumed by no argument.
    assert report.warnings == ["relation #2: no argument presumes 'x & y'"]


# -- fixture structure shape -------------------------------------------------


def test_example1_shape(example1):
    structure, _ = example1
    assert [a.id for a in structure.arguments] == ["t1a", "t1b", "t2", "a1", "a2"]
    assert structure.arguments[3].conclusion.names() == ("Al2",)
    assert structure.arguments[4].conclusion.names() == ("Al3",)
    assert structure.arguments[3].origins == ("refutation-expansion",)
    assert structure.declarations == ()


def test_hominids_shape(hominids):
    structure, _ = hominids
    assert len(structure.arguments) == 23
    declared = [a for a in structure.arguments if "declared" in a.origins]
    generated = [a for a in structure.arguments if "conjunction-rule" in a.origins]
    assert len(declared) == 12
    assert len(generated) == 11
    assert all(a.parents for a in generated)
    assert [a.id for a in generated] == [f"a{i}" for i in range(13, 24)]
    assert [d.kind for d in structure.declarations] == ["strict"] * 4
    assert structure.argument("a17").presumption.describe() == "e2 & e13"


def test_add_support_cannot_forge_a_generated_argument():
    # A declared argument that claimed conjunction-rule parents used to be
    # lifted by the declared presumption order: q <= p via conjunction-lifting.
    s = fresh(conjunction_arguments=True, conjunction_lifting=True)
    x, y = sentence("x"), sentence("y")
    s.add_support(x, c("A"), "p")
    with pytest.raises(TypeError):
        s.add_support(y, c("B"), "q", origin="conjunction-rule", parents=((x, x),))
    s.add_support(y, c("B"), "q")
    s.declare_presumption_relation("strict", x, y)
    s.run_generation_passes()
    closure = build_closure(s)
    assert s.argument("q").origins == ("declared",)
    assert s.argument("q").parents == ()
    assert closure.leq("p", "q") and not closure.leq("q", "p")
