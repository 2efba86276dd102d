"""Acceptance criteria for the release, one test per criterion.

Each test prints ``[acceptance] criterion N: PASS`` when it succeeds, so a
``pytest -v -s tests/test_acceptance.py`` run reads as a checklist.  The
criteria pin the worked small example (three alternatives, two evidence
atoms, one refutation) and the five-hypothesis case study, then sweep
randomized and exhaustive structure families against the independent
evaluator in ``tests/oracle.py``.
"""

from __future__ import annotations

import itertools
import random

from res import (
    ComparisonVerdict,
    build_closure,
    build_sentence,
    check_consistency,
    compare,
    condition,
    fixture_text,
    is_plausible,
    load_structure,
    rank,
)
from res.semantics import ConclusionSentence, EvidenceSentence

import oracle
from oracle import Recipe
from strategies import build_engine, random_given_pair, random_recipe
from test_order import assert_closure_laws, assert_same_closure

EQ = ComparisonVerdict.EQUAL
LT = ComparisonVerdict.STRICTLY_LESS
GT = ComparisonVerdict.STRICTLY_GREATER
NC = ComparisonVerdict.INCOMPARABLE


def observe(pair, formula):
    structure, closure = pair
    given = build_sentence(structure.evidence_frame, formula)
    return condition(structure, closure, given)


def sentence(structure, *names):
    frame = structure.conclusion_frame
    members = 0
    for name in names:
        members |= 1 << frame.alternatives.index(name)
    return ConclusionSentence(frame, members)


def verdicts_for_first_three_cases(pair):
    structure, _ = pair
    al1 = sentence(structure, "Al1")
    al2 = sentence(structure, "Al2")
    al3 = sentence(structure, "Al3")
    rest = sentence(structure, "Al2", "Al3")
    case1 = observe(pair, "!e1 & !e2")
    case2 = observe(pair, "!e1 & e2")
    case3 = observe(pair, "e1 & !e2")
    return (
        compare(case1, al1, rest),
        compare(case1, al2, al3),
        compare(case1, al1, al2),
        compare(case1, al1, al3),
        compare(case2, al1, al2),
        compare(case2, al1, al3),
        compare(case3, al1, al2),
        compare(case3, al2, al3),
        is_plausible(case3, al1),
    )


def test_criterion_01(example1):
    """Nothing observed against either atom: the refutable alternative wins."""
    structure, _ = example1
    case1 = observe(example1, "!e1 & !e2")
    al1 = sentence(structure, "Al1")
    assert compare(case1, al1, sentence(structure, "Al2", "Al3")) is GT
    assert compare(case1, sentence(structure, "Al2"), sentence(structure, "Al3")) is NC
    assert compare(case1, al1, sentence(structure, "Al2")) is GT
    assert compare(case1, al1, sentence(structure, "Al3")) is GT
    print("\n[acceptance] criterion 1: PASS")


def test_criterion_02(example1):
    """The refuting atom alone pushes the first alternative below the others."""
    structure, _ = example1
    case2 = observe(example1, "!e1 & e2")
    al1 = sentence(structure, "Al1")
    assert compare(case2, al1, sentence(structure, "Al2")) is LT
    assert compare(case2, al1, sentence(structure, "Al3")) is LT
    print("\n[acceptance] criterion 2: PASS")


def test_criterion_03(example1):
    """Supporting atom without the refuting one: the first alternative leads."""
    structure, _ = example1
    case3 = observe(example1, "e1 & !e2")
    al1 = sentence(structure, "Al1")
    assert compare(case3, al1, sentence(structure, "Al2")) is GT
    assert compare(case3, sentence(structure, "Al2"), sentence(structure, "Al3")) is GT
    assert is_plausible(case3, al1)
    print("\n[acceptance] criterion 3: PASS")


def test_criterion_04():
    """Both atoms observed; a presumption-strength declaration breaks the tie.

    With defaults the first alternative sits below the second and is not
    comparable with the third.  Declaring arguments presuming e2 strictly
    below arguments presuming e1 flips that last verdict, while neither
    that declaration nor its reverse changes any verdict in the first
    three cases.
    """
    def fresh(extra=""):
        return load_structure(fixture_text("example1.res") + extra)

    def with_pres_strict(lower, upper):
        structure = fresh(f"rel: pres({lower}) < pres({upper})\n")
        return structure, build_closure(structure)

    plain = fresh()
    pair = (plain, build_closure(plain))
    structure = plain
    al1 = sentence(structure, "Al1")
    al2 = sentence(structure, "Al2")
    al3 = sentence(structure, "Al3")
    case4 = observe(pair, "e1 & e2")
    assert compare(case4, al1, al2) is LT
    assert compare(case4, al1, al3) is NC

    baseline = verdicts_for_first_three_cases(pair)

    strengthened = with_pres_strict("e2", "e1")
    case4_strengthened = observe(strengthened, "e1 & e2")
    assert compare(case4_strengthened, al1, al3) is GT

    for lower, upper in (("e2", "e1"), ("e1", "e2")):
        modified = with_pres_strict(lower, upper)
        assert verdicts_for_first_three_cases(modified) == baseline
        assert check_consistency(modified[1], modified[0]).ok
    print("\n[acceptance] criterion 4: PASS")


def test_criterion_05(hominids):
    """Partial fossil record: the single-family hypothesis is uniquely maximal."""
    structure, _ = hominids
    partial = observe(hominids, "e1 & e12 & !e2 & !e23 & !e13")
    candidates = [sentence(structure, f"B{i}") for i in range(1, 6)]
    result = rank(partial, candidates)
    assert result.maximal == (candidates[0],)
    print("\n[acceptance] criterion 5: PASS")


def test_criterion_06(hominids, hominids_lifting):
    """Full record: the two-split hypothesis dominates; lifting refines ties."""
    structure, _ = hominids
    full = observe(hominids, "e1 & e2 & e12 & e23 & e13")
    b = {i: sentence(structure, f"B{i}") for i in range(1, 6)}
    candidates = [b[i] for i in range(1, 6)]
    result = rank(full, candidates)
    assert result.maximal == (b[5],)
    for i in range(1, 5):
        assert compare(full, b[5], b[i]) is GT

    lifted_structure, _ = hominids_lifting
    lifted = observe(hominids_lifting, "e1 & e2 & e12 & e23 & e13")
    lb = {i: sentence(lifted_structure, f"B{i}") for i in range(1, 6)}
    assert compare(lifted, lb[2], lb[3]) is GT
    lifted_rank = rank(lifted, [lb[i] for i in range(1, 6)])
    assert lb[5] in lifted_rank.maximal
    assert compare(lifted, lb[5], lb[2]) is EQ  # the permitted tie
    print("\n[acceptance] criterion 6: PASS")


def test_criterion_07():
    """Wider evidence never triggers more: 1,000 random structures, 0 violations."""
    rng = random.Random(70_000)
    violations = 0
    for _ in range(1000):
        recipe = random_recipe(rng, max_atoms=4, max_arguments=8)
        structure, closure = build_engine(recipe)
        frame = structure.evidence_frame
        narrower_mask, wider_mask = random_given_pair(rng, len(recipe.atoms))
        narrower = EvidenceSentence(frame, narrower_mask)
        wider = EvidenceSentence(frame, wider_mask)
        assert narrower.implies(wider)
        with_wider = {a.id for a in condition(structure, closure, wider).triggered}
        with_narrower = {
            a.id for a in condition(structure, closure, narrower).triggered
        }
        if not with_wider <= with_narrower:
            violations += 1
    assert violations == 0
    print("\n[acceptance] criterion 7: PASS")


X_MASK = 0b1010  # models of x over valuations (!x!y, x!y, !xy, xy)
Y_MASK = 0b1100  # models of y
FAMILY_BASE = (
    (X_MASK, 1),          # x => {A}
    (X_MASK, 3),          # x => {A, B}
    (X_MASK & Y_MASK, 4),  # x & y => {C}
    (Y_MASK, 2),          # y => {B}
)
RELATION_STATES = (None, "leq", "strict", "equal")


def exhaustive_family():
    """Every structure over the fixed 2-atom, 4-argument base: each subset
    of the arguments, each relation state per unordered argument pair."""
    for bits in range(1, 1 << len(FAMILY_BASE)):
        chosen = [i for i in range(len(FAMILY_BASE)) if bits >> i & 1]
        supports = tuple(FAMILY_BASE[i] for i in chosen)
        pairs = list(itertools.combinations(range(len(chosen)), 2))
        for states in itertools.product(RELATION_STATES, repeat=len(pairs)):
            arg_rels = tuple(
                (state, i, j)
                for (i, j), state in zip(pairs, states)
                if state is not None
            )
            yield Recipe(
                atoms=("x", "y"),
                alternatives=("A", "B", "C"),
                supports=supports,
                arg_rels=arg_rels,
            )


def _assert_same_verdicts(structure, closure, model, given_mask, pairs):
    conditioned = condition(
        structure, closure, EvidenceSentence(structure.evidence_frame, given_mask)
    )
    active = oracle.triggered(model, given_mask)
    frame = structure.conclusion_frame
    names = structure.conclusion_frame.alternatives

    def to_names(mask):
        return frozenset(n for i, n in enumerate(names) if mask >> i & 1)

    for first_mask, second_mask in pairs:
        engine = compare(
            conditioned,
            ConclusionSentence(frame, first_mask),
            ConclusionSentence(frame, second_mask),
        )
        expected = oracle.verdict(
            model, active, to_names(first_mask), to_names(second_mask)
        )
        assert engine.value == expected, (given_mask, first_mask, second_mask)


def test_criterion_08():
    """Engine and brute-force evaluator agree on every verdict: exhaustively
    over the small family, then on 1,000 random larger instances."""
    full_pairs = [
        (p, q) for p in range(1, 8) for q in range(1, 8)
    ]
    singleton_pairs = [(1 << i, 1 << j) for i in range(3) for j in range(3)]
    count = 0
    for recipe in exhaustive_family():
        structure, closure = build_engine(recipe)
        model = oracle.evaluate(recipe)
        assert_same_closure(structure, closure, model)
        _assert_same_verdicts(
            structure, closure, model, X_MASK & Y_MASK, full_pairs
        )
        _assert_same_verdicts(structure, closure, model, X_MASK, singleton_pairs)
        count += 1
    assert count == 4380  # 4 + 24 + 256 + 4096 over the four subset sizes

    rng = random.Random(88_000)
    for _ in range(1000):
        recipe = random_recipe(rng, allow_generation=True)
        structure, closure = build_engine(recipe)
        model = oracle.evaluate(recipe)
        assert_same_closure(structure, closure, model)
        frame = structure.conclusion_frame
        given_mask = rng.randint(1, (1 << (1 << len(recipe.atoms))) - 1)
        pairs = [
            (rng.randint(1, frame.full_mask), rng.randint(1, frame.full_mask))
            for _ in range(3)
        ]
        _assert_same_verdicts(structure, closure, model, given_mask, pairs)
    print("\n[acceptance] criterion 8: PASS")


def test_criterion_09(example1, hominids, hominids_lifting):
    """The closed relation obeys its laws everywhere, and neither bundled
    structure has a consistency violation."""
    for structure, closure in (example1, hominids, hominids_lifting):
        assert_closure_laws(structure, closure)
        report = check_consistency(closure, structure)
        assert report.ok and not report.violations

    rng = random.Random(99_000)
    for _ in range(200):
        recipe = random_recipe(rng, allow_generation=True)
        structure, closure = build_engine(recipe)
        assert_closure_laws(structure, closure)
    print("\n[acceptance] criterion 9: PASS")


def test_criterion_10():
    """Concrete witnesses: conditioning is not cumulative, and plausibility
    is not monotone in the evidence."""
    # Non-cumulativity: one argument presumes x & y.  Conditioning on x
    # triggers nothing, and filtering that empty result by y still leaves
    # nothing; conditioning on x & y directly triggers the argument.
    recipe = Recipe(atoms=("x", "y"), alternatives=("A", "B"),
                    supports=((X_MASK & Y_MASK, 1),))
    structure, closure = build_engine(recipe)
    frame = structure.evidence_frame
    step_one = condition(structure, closure, build_sentence(frame, "x"))
    assert list(step_one.triggered) == []
    step_two = [
        a
        for a in step_one.triggered
        if build_sentence(frame, "y").implies(a.presumption)
    ]
    direct = condition(structure, closure, build_sentence(frame, "x & y"))
    assert len(step_two) != len(direct.triggered)

    # Non-monotonicity: with arguments <x, {A}> and <x & y, {B}>, observing
    # x makes {A} plausible; strengthening the observation to x & y (which
    # implies x) defeats it via presumption specificity.
    recipe = Recipe(
        atoms=("x", "y"),
        alternatives=("A", "B"),
        supports=((X_MASK, 1), (X_MASK & Y_MASK, 2)),
    )
    structure, closure = build_engine(recipe)
    frame = structure.evidence_frame
    weaker = build_sentence(frame, "x")
    stronger = build_sentence(frame, "x & y")
    assert stronger.implies(weaker)
    a_sentence = ConclusionSentence(structure.conclusion_frame, 1)
    assert is_plausible(condition(structure, closure, weaker), a_sentence)
    assert not is_plausible(condition(structure, closure, stronger), a_sentence)
    # Re-evaluate the defeated case: the complement has become the winner.
    assert is_plausible(
        condition(structure, closure, stronger), a_sentence.complement()
    )
    print("\n[acceptance] criterion 10: PASS")
