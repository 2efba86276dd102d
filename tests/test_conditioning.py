"""Conditioning on observations: triggering and relation restriction."""

from __future__ import annotations

import random

import pytest

from res import (
    ComparisonVerdict,
    EvidenceError,
    UsageError,
    build_closure,
    build_sentence,
    compare,
    condition,
    conclusion_of,
)

import oracle
from oracle import Recipe
from strategies import build_engine, random_given_pair, random_recipe


def ids_triggered(structure, closure, formula):
    given = build_sentence(structure.evidence_frame, formula)
    return [a.id for a in condition(structure, closure, given).triggered]


def test_example1_triggered_sets(example1):
    structure, closure = example1
    assert ids_triggered(structure, closure, "!e1 & !e2") == ["t2"]
    assert ids_triggered(structure, closure, "!e1 & e2") == ["a1", "a2"]
    assert ids_triggered(structure, closure, "e1 & !e2") == ["t1a", "t1b", "t2"]
    assert ids_triggered(structure, closure, "e1 & e2") == ["t1a", "t1b", "a1", "a2"]
    # Partial evidence triggers only what it entails.
    assert ids_triggered(structure, closure, "e1") == ["t1a", "t1b"]
    assert ids_triggered(structure, closure, "e1 | e2") == []


def test_hominids_triggered_sets(hominids):
    structure, closure = hominids
    before = ids_triggered(
        structure, closure, "e1 & e12 & !e2 & !e23 & !e13"
    )
    assert before == ["a1", "a4", "a5", "a6"]
    after = ids_triggered(structure, closure, "e1 & e2 & e12 & e23 & e13")
    assert after == [a.id for a in structure.arguments]


def test_conditioned_structure_api(example1):
    structure, closure = example1
    given = build_sentence(structure.evidence_frame, "e1 & e2")
    conditioned = condition(structure, closure, given)
    # The view holds what it was built from and the triggered arguments;
    # t2 is not triggered, so it takes no part in any comparison.
    assert conditioned.structure is structure
    assert conditioned.closure is closure
    assert conditioned.given == given
    assert [a.id for a in conditioned.triggered] == ["t1a", "t1b", "a1", "a2"]


def test_relation_chains_may_pass_through_untriggered_arguments():
    # a <= u <= b is declared, and the observation triggers a and b only;
    # {A} (supported by a) still sits strictly below {C} (supported by b)
    # because the closure is computed on the full structure first.
    recipe = Recipe(
        atoms=("x", "y"),
        alternatives=("A", "B", "C"),
        supports=(
            (0b1010, 1),  # a: x => {A}
            (0b1100, 2),  # u: y => {B}
            (0b1010, 4),  # b: x => {C}
        ),
        arg_rels=(("leq", 0, 1), ("leq", 1, 2)),
        same_presumption_equal=False,
    )
    structure, closure = build_engine(recipe)
    a, u, b = (arg.id for arg in structure.arguments)
    conditioned = condition(
        structure, closure, build_sentence(structure.evidence_frame, "x & !y")
    )
    assert [arg.id for arg in conditioned.triggered] == [a, b]
    frame = structure.conclusion_frame
    lower, upper = conclusion_of(frame, ["A"]), conclusion_of(frame, ["C"])
    verdict = compare(conditioned, lower, upper)
    assert verdict is ComparisonVerdict.STRICTLY_LESS


def test_monotone_triggering_seeded_batch():
    rng = random.Random(1105)
    for _ in range(300):
        recipe = random_recipe(rng)
        structure, closure = build_engine(recipe)
        narrower_mask, wider_mask = random_given_pair(rng, len(recipe.atoms))
        frame = structure.evidence_frame
        from res.semantics import EvidenceSentence

        narrower = EvidenceSentence(frame, narrower_mask)
        wider = EvidenceSentence(frame, wider_mask)
        assert narrower.implies(wider)
        with_wider = {a.id for a in condition(structure, closure, wider).triggered}
        with_narrower = {
            a.id for a in condition(structure, closure, narrower).triggered
        }
        assert with_wider <= with_narrower


def test_triggering_matches_oracle():
    rng = random.Random(5150)
    for _ in range(100):
        recipe = random_recipe(rng, allow_generation=True)
        structure, closure = build_engine(recipe)
        model = oracle.evaluate(recipe)
        full = (1 << (1 << len(recipe.atoms))) - 1
        given_mask = rng.randint(1, full)
        from res.semantics import EvidenceSentence

        conditioned = condition(
            structure,
            closure,
            EvidenceSentence(structure.evidence_frame, given_mask),
        )
        position = {a.id: i for i, a in enumerate(structure.arguments)}
        engine_indices = [position[a.id] for a in conditioned.triggered]
        assert engine_indices == oracle.triggered(model, given_mask)


def test_condition_errors(example1):
    structure, closure = example1
    with pytest.raises(EvidenceError):
        condition(
            structure, closure, build_sentence(structure.evidence_frame, "e1 & !e1")
        )
    from res import EvidenceFrame

    foreign = build_sentence(EvidenceFrame(("e1", "e2")), "e1")
    # Same atom names, but a distinct frame value is fine; a wrong one is not.
    condition(structure, closure, foreign)
    with pytest.raises(UsageError):
        condition(
            structure,
            closure,
            build_sentence(EvidenceFrame(("other",)), "other"),
        )


def test_closure_must_belong_to_the_structure(example1):
    structure, _ = example1
    other_structure, other_closure = (
        build_engine(
            Recipe(atoms=("e1", "e2"), alternatives=("Al1", "Al2", "Al3"),
                   supports=((0b1010, 1),))
        )
    )
    with pytest.raises(UsageError):
        condition(
            structure,
            other_closure,
            build_sentence(structure.evidence_frame, "e1"),
        )


def test_conditioning_is_not_cumulative():
    # One argument presumes x & y.  Observing x triggers nothing, and no
    # further filtering of that empty result can ever recover the argument;
    # observing x & y directly does trigger it.  So conditioning step by
    # step is not the same as conditioning on the conjunction.
    recipe = Recipe(
        atoms=("x", "y"),
        alternatives=("A", "B"),
        supports=((0b1000, 1),),  # presumption x & y
    )
    structure, closure = build_engine(recipe)
    frame = structure.evidence_frame
    x = build_sentence(frame, "x")
    y = build_sentence(frame, "y")
    both = build_sentence(frame, "x & y")

    first_step = condition(structure, closure, x)
    assert list(first_step.triggered) == []
    # Re-filtering the first step's survivors by y is the would-be second
    # step; starting from nothing it must end with nothing.
    second_step = [
        a for a in first_step.triggered if y.implies(a.presumption)
    ]
    assert second_step == []

    direct = condition(structure, closure, both)
    assert [a.presumption.describe() for a in direct.triggered] == ["x & y"]
    assert len(direct.triggered) != len(second_step)
