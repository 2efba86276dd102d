"""Conclusion comparison, plausibility, ranking, diagrams, explanations."""

from __future__ import annotations

import dataclasses
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from res import (
    ComparisonVerdict,
    OrderClosure,
    ResError,
    UsageError,
    build_sentence,
    candidate_sentences,
    compare,
    condition,
    explain,
    hasse,
    is_plausible,
    leq_conclusions,
    parse_conclusion,
    rank,
    supports_of,
)
from res.semantics import ConclusionSentence, EvidenceSentence

import oracle
from strategies import KINDS, build_engine, random_recipe, recipes

EQ = ComparisonVerdict.EQUAL
LT = ComparisonVerdict.STRICTLY_LESS
GT = ComparisonVerdict.STRICTLY_GREATER
NC = ComparisonVerdict.INCOMPARABLE
# The verdict for (q, p) given the one for (p, q), written out here rather
# than read from the engine.
MIRROR = {LT: GT, GT: LT, EQ: EQ, NC: NC}


def observe(structure, closure, formula):
    return condition(
        structure, closure, build_sentence(structure.evidence_frame, formula)
    )


def concl(structure, text):
    return parse_conclusion(structure.conclusion_frame, text)


# ---------------------------------------------------------------------------
# Anchored verdicts on the bundled structures.
# ---------------------------------------------------------------------------


def test_example1_verdicts_one_atom_observed(example1):
    structure, closure = example1
    al1, al2, al3 = (concl(structure, f"{{Al{i}}}") for i in (1, 2, 3))

    neither = observe(structure, closure, "!e1 & !e2")
    assert compare(neither, al1, al2) is GT
    assert compare(neither, al1, al3) is GT
    assert compare(neither, al2, al3) is NC  # both unsupported
    assert compare(neither, al1, al1) is EQ
    # An unsupported conclusion is not even comparable to itself.
    assert compare(neither, al2, al2) is NC
    assert is_plausible(neither, al1)
    assert not is_plausible(neither, al2)

    only_second = observe(structure, closure, "!e1 & e2")
    assert compare(only_second, al2, al3) is EQ
    assert compare(only_second, al1, al2) is LT
    assert not is_plausible(only_second, al2)
    assert is_plausible(only_second, concl(structure, "{Al2, Al3}"))


def test_example1_verdicts_both_atoms_observed(example1):
    structure, closure = example1
    al1, al2, al3 = (concl(structure, f"{{Al{i}}}") for i in (1, 2, 3))

    first_only = observe(structure, closure, "e1 & !e2")
    assert compare(first_only, al1, al2) is GT
    assert compare(first_only, al2, al3) is GT
    assert compare(first_only, al1, al3) is GT
    assert is_plausible(first_only, al1)

    both = observe(structure, closure, "e1 & e2")
    assert compare(both, al1, al2) is LT
    assert compare(both, al1, al3) is NC
    assert compare(both, al2, al3) is GT
    result = rank(both, [al1, al2, al3])
    assert result.maximal == (al2,)
    assert result.strata[0] == (al2,)
    # The countervailing argument keeps the complement level with Al2.
    assert not is_plausible(both, al2)


def test_example1_observing_flips_the_leader(example1):
    structure, closure = example1
    al1 = concl(structure, "{Al1}")
    al2 = concl(structure, "{Al2}")
    assert compare(observe(structure, closure, "e1 & !e2"), al1, al2) is GT
    assert compare(observe(structure, closure, "e1 & e2"), al1, al2) is LT


def test_hominids_verdicts_full_evidence(hominids):
    structure, closure = hominids
    full = observe(structure, closure, "e1 & e2 & e12 & e23 & e13")
    b = {i: concl(structure, f"{{B{i}}}") for i in range(1, 6)}
    for i in range(1, 5):
        assert compare(full, b[5], b[i]) is GT
    assert compare(full, b[1], b[2]) is LT
    assert compare(full, b[2], b[3]) is NC
    assert compare(full, b[2], b[4]) is NC
    assert compare(full, b[3], b[4]) is NC
    assert compare(full, b[1], b[3]) is NC
    assert compare(full, b[1], b[4]) is NC
    result = rank(full, [b[i] for i in range(1, 6)])
    assert result.maximal == (b[5],)
    assert is_plausible(full, b[5])


def test_hominids_verdicts_before_third_form(hominids):
    structure, closure = hominids
    partial = observe(structure, closure, "e1 & e12 & !e2 & !e23 & !e13")
    b = {i: concl(structure, f"{{B{i}}}") for i in range(1, 6)}
    result = rank(partial, [b[i] for i in range(1, 6)])
    assert result.maximal == (b[1],)
    assert compare(partial, b[3], b[4]) is EQ
    assert compare(partial, b[4], b[5]) is EQ
    assert compare(partial, b[2], b[3]) is LT
    assert compare(partial, b[3], b[1]) is LT

    diagram = hasse(partial, [b[i] for i in range(1, 6)])
    assert diagram.classes == ((b[1],), (b[2],), (b[3], b[4], b[5]))
    assert set(diagram.edges) == {(1, 2), (2, 0)}


def test_hominids_verdicts_with_conjunction_lifting(hominids_lifting):
    structure, closure = hominids_lifting
    full = observe(structure, closure, "e1 & e2 & e12 & e23 & e13")
    b = {i: concl(structure, f"{{B{i}}}") for i in range(1, 6)}
    assert compare(full, b[2], b[5]) is EQ
    assert compare(full, b[2], b[3]) is GT
    assert compare(full, b[2], b[4]) is GT
    assert compare(full, b[3], b[4]) is GT
    result = rank(full, [b[i] for i in range(1, 6)])
    assert result.maximal == (b[2], b[5])


def test_hominids_explanation_details(hominids):
    structure, closure = hominids
    full = observe(structure, closure, "e1 & e2 & e12 & e23 & e13")
    trace = explain(full, concl(structure, "{B5}"), concl(structure, "{B1}"))
    assert trace.verdict is GT
    assert not trace.forward.holds
    assert trace.forward.unmatched  # some argument for B5 has no answer in B1
    assert trace.backward.holds
    (match,) = trace.backward.matches
    assert match.support == "a1"
    assert match.matched_by == "a17"
    assert [step.reason.kind for step in match.provenance] == ["declaration"]


# ---------------------------------------------------------------------------
# Differential against the independent model.
# ---------------------------------------------------------------------------


def test_verdicts_match_oracle():
    rng = random.Random(90125)
    for _ in range(150):
        recipe = random_recipe(rng, allow_generation=True)
        structure, closure = build_engine(recipe)
        model = oracle.evaluate(recipe)
        frame = structure.evidence_frame
        cframe = structure.conclusion_frame
        full = (1 << (1 << len(recipe.atoms))) - 1
        given_mask = rng.randint(1, full)
        conditioned = condition(
            structure, closure, EvidenceSentence(frame, given_mask)
        )
        active = oracle.triggered(model, given_mask)
        for _ in range(4):
            first_mask = rng.randint(0, cframe.full_mask)
            second_mask = rng.randint(0, cframe.full_mask)
            first = ConclusionSentence(cframe, first_mask)
            second = ConclusionSentence(cframe, second_mask)
            to_names = lambda mask: frozenset(
                name
                for i, name in enumerate(recipe.alternatives)
                if mask >> i & 1
            )
            expected = oracle.verdict(
                model, active, to_names(first_mask), to_names(second_mask)
            )
            assert compare(conditioned, first, second).value == expected
            if 0 < first_mask < cframe.full_mask:
                assert is_plausible(conditioned, first) == oracle.plausible(
                    model, active, to_names(first_mask)
                )


@settings(max_examples=80, deadline=None)
@given(recipes(), st.data())
def test_mask_kernel_matches_the_definition(recipe, data):
    structure, closure = build_engine(recipe)
    model = oracle.evaluate(recipe)
    full = (1 << (1 << len(recipe.atoms))) - 1
    given_mask = data.draw(st.integers(1, full), label="given")
    observed = EvidenceSentence(structure.evidence_frame, given_mask)
    view = condition(structure, closure, observed)
    twin = condition(structure, closure, observed)
    active = oracle.triggered(model, given_mask)
    frame = structure.conclusion_frame
    candidates = candidate_sentences(frame, "all")
    result = rank(view, candidates)
    queries = candidates + [ConclusionSentence(frame, 0)]
    names = [frozenset(c.names()) for c in queries]
    for i, first in enumerate(queries):
        for j, second in enumerate(queries):
            if i < len(candidates) and j < len(candidates):
                expected = oracle.verdict(model, active, names[i], names[j])
                assert result.matrix[i][j].value == expected
            # The reversed pair, asked again of the same (now cached) view.
            expected = oracle.verdict(model, active, names[j], names[i])
            assert compare(view, second, first).value == expected
        definitional = [
            a for a in view.triggered if a.conclusion.members & ~first.members == 0
        ]
        assert supports_of(view, first) == definitional
    # The masks live on the queried view only and leave equality alone.
    assert "support_masks" in vars(view) and "support_masks" not in vars(twin)
    assert view == twin and hash(view) == hash(twin)


def _naive_strata(matrix):
    """Peel the unbeaten candidates off a matrix of verdict names, on sets."""
    remaining, strata = set(range(len(matrix))), []
    while remaining:
        layer = sorted(
            i
            for i in remaining
            if not any(matrix[i][j] == "StrictlyLess" for j in remaining - {i})
        )
        strata.append(layer)
        remaining -= set(layer)
    return strata


def test_rank_of_all_candidates_matches_the_oracle(monkeypatch):
    from res import decision

    calls = []
    kernel = decision.compare

    def counted(conditioned, first, second):
        calls.append((first.members, second.members))
        return kernel(conditioned, first, second)

    monkeypatch.setattr(decision, "compare", counted)
    rng = random.Random(5150)
    unsupported, sizes = 0, set()
    for case in range(200):
        recipe = random_recipe(rng, allow_generation=True, max_alternatives=5)
        structure, closure = build_engine(recipe)
        model = oracle.evaluate(recipe)
        full = (1 << (1 << len(recipe.atoms))) - 1
        given_mask = rng.randint(1, full)
        view = condition(
            structure, closure, EvidenceSentence(structure.evidence_frame, given_mask)
        )
        active = oracle.triggered(model, given_mask)
        candidates = candidate_sentences(structure.conclusion_frame, "all")
        sizes.add(structure.conclusion_frame.size)
        if case % 3 == 0:  # a shuffled subset, so positions differ from masks
            candidates = rng.sample(candidates, rng.randint(1, len(candidates)))
        names = [frozenset(c.names()) for c in candidates]
        calls.clear()
        result = rank(view, candidates)
        count = len(candidates)
        assert calls == [
            (candidates[i].members, candidates[j].members)
            for i in range(count)
            for j in range(i, count)
        ]
        expected = [
            [oracle.verdict(model, active, names[i], names[j]) for j in range(count)]
            for i in range(count)
        ]
        assert [[v.value for v in row] for row in result.matrix] == expected
        for i in range(count):
            if not oracle.supports(model, active, names[i]):
                unsupported += 1
                assert result.matrix[i][i] is NC
        assert [
            sorted(candidates.index(c) for c in layer) for layer in result.strata
        ] == _naive_strata(expected)
    assert unsupported > 0 and sizes == {2, 3, 4, 5}
    # 24 candidates: one compare per pair i <= j, 24 * 25 / 2 of them.
    calls.clear()
    rank(view, (candidate_sentences(structure.conclusion_frame, "all") * 24)[:24])
    assert len(calls) == 300


def test_a_foreign_frame_never_reads_a_warm_signature_cache(hominids):
    from res import ConclusionFrame

    structure, closure = hominids
    view = observe(structure, closure, "e1 & e2")
    frame = structure.conclusion_frame
    twin = ConclusionFrame(tuple(f"Z{i}" for i in range(frame.size)))
    assert twin.full_mask == frame.full_mask and twin != frame
    candidates = candidate_sentences(frame, "all")
    rank(view, candidates)  # every mask of the frame is now cached
    for ours in (candidates[0], candidates[14], candidates[-1]):
        foreign = ConclusionSentence(twin, ours.members)
        for call in (compare, leq_conclusions, explain):
            with pytest.raises(UsageError, match="different frame"):
                call(view, foreign, ours)
            with pytest.raises(UsageError, match="different frame"):
                call(view, ours, foreign)
        with pytest.raises(UsageError, match="different frame"):
            supports_of(view, foreign)
        for at in (0, len(candidates) // 2, len(candidates)):
            mixed = candidates[:at] + [foreign] + candidates[at:]
            with pytest.raises(UsageError, match="different frame"):
                rank(view, mixed)


def test_rank_makes_no_closure_lookups(hominids, monkeypatch):
    structure, closure = hominids
    calls = []
    leq = OrderClosure.leq

    def counted(self, lower, upper):
        calls.append((lower, upper))
        return leq(self, lower, upper)

    monkeypatch.setattr(OrderClosure, "leq", counted)
    view = observe(structure, closure, "e1 & e2 & e12 & e23 & e13")
    rank(view, candidate_sentences(structure.conclusion_frame, "all"))
    assert calls == []  # 60,653 before the mask kernel
    # explain still looks up the rival it shows beside a support that is
    # not itself a rival, and only then.
    trace = explain(view, concl(structure, "{B5}"), concl(structure, "{B1}"))
    shown = {
        (match.support, rival)
        for direction in (trace.forward, trace.backward)
        for match in direction.matches
        if match.support not in direction.target_supports
        for rival in direction.target_supports
    }
    assert ("a6", "a1") in calls and set(calls) <= shown


# ---------------------------------------------------------------------------
# Laws the comparison obeys by construction.
# ---------------------------------------------------------------------------


def _random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        recipe = random_recipe(rng, allow_generation=True)
        structure, closure = build_engine(recipe)
        full = (1 << (1 << len(recipe.atoms))) - 1
        conditioned = condition(
            structure,
            closure,
            EvidenceSentence(structure.evidence_frame, rng.randint(1, full)),
        )
        yield rng, structure, conditioned


def _random_conclusion(rng, structure):
    frame = structure.conclusion_frame
    return ConclusionSentence(frame, rng.randint(0, frame.full_mask))


def test_comparison_is_mirrored():
    for rng, structure, conditioned in _random_cases(11, 120):
        p = _random_conclusion(rng, structure)
        q = _random_conclusion(rng, structure)
        assert compare(conditioned, p, q) is MIRROR[compare(conditioned, q, p)]


def test_comparison_is_transitive():
    for rng, structure, conditioned in _random_cases(12, 120):
        p, q, r = (_random_conclusion(rng, structure) for _ in range(3))
        if leq_conclusions(conditioned, p, q) and leq_conclusions(
            conditioned, q, r
        ):
            assert leq_conclusions(conditioned, p, r)


def test_weaker_conclusions_are_at_most_as_believable():
    for rng, structure, conditioned in _random_cases(13, 120):
        q = _random_conclusion(rng, structure)
        narrower = ConclusionSentence(
            structure.conclusion_frame, q.members & rng.randint(0, q.frame.full_mask)
        )
        assert narrower.implies(q)
        if supports_of(conditioned, q):
            assert leq_conclusions(conditioned, narrower, q)


def test_a_conclusion_and_its_complement_are_never_both_plausible():
    for rng, structure, conditioned in _random_cases(14, 120):
        frame = structure.conclusion_frame
        mask = rng.randint(1, frame.full_mask - 1) if frame.full_mask > 1 else 1
        if not 0 < mask < frame.full_mask:
            continue
        p = ConclusionSentence(frame, mask)
        assert not (
            is_plausible(conditioned, p)
            and is_plausible(conditioned, p.complement())
        )


def test_supports_match_their_definition():
    for rng, structure, conditioned in _random_cases(15, 80):
        p = _random_conclusion(rng, structure)
        expected = [
            a
            for a in conditioned.triggered
            if a.conclusion.members & ~p.members == 0
        ]
        assert supports_of(conditioned, p) == expected


# ---------------------------------------------------------------------------
# Ranking and diagram structure.
# ---------------------------------------------------------------------------


def _ranked_cases(seed, count):
    for rng, structure, conditioned in _random_cases(seed, count):
        candidates = candidate_sentences(
            structure.conclusion_frame,
            rng.choice(("singletons", "singletons+complements")),
        )
        yield structure, conditioned, candidates, rank(conditioned, candidates)


def test_rank_matrix_is_mirrored_and_consistent():
    for structure, conditioned, candidates, result in _ranked_cases(21, 60):
        count = len(candidates)
        for i in range(count):
            for j in range(count):
                assert result.matrix[i][j] is MIRROR[result.matrix[j][i]]
                assert result.matrix[i][j] is compare(
                    conditioned, candidates[i], candidates[j]
                )


def test_rank_maximal_and_strata():
    for structure, conditioned, candidates, result in _ranked_cases(22, 60):
        matrix = result.matrix
        for i, candidate in enumerate(candidates):
            beaten = any(
                matrix[i][j] is LT for j in range(len(candidates)) if j != i
            )
            assert (candidate in result.maximal) == (not beaten)
        assert result.strata[0] == result.maximal
        flattened = [c for layer in result.strata for c in layer]
        assert sorted(c.members for c in flattened) == sorted(
            c.members for c in candidates
        )


def test_hasse_classes_partition_and_edges_cover():
    for structure, conditioned, candidates, result in _ranked_cases(23, 40):
        diagram = hasse(conditioned, candidates)
        flattened = [c for group in diagram.classes for c in group]
        assert sorted(c.members for c in flattened) == sorted(
            c.members for c in candidates
        )
        reps = [group[0] for group in diagram.classes]
        for group in diagram.classes:
            for a in group:
                for b in group:
                    # An unsupported candidate alone in its class is not
                    # even comparable to itself; distinct classmates must
                    # be genuinely equal.
                    if a is not b:
                        assert compare(conditioned, a, b) is EQ

        def less(a, b):
            return compare(conditioned, reps[a], reps[b]) is LT

        total = len(diagram.classes)
        expected_edges = {
            (a, b)
            for a in range(total)
            for b in range(total)
            if a != b
            and less(a, b)
            and not any(less(a, c) and less(c, b) for c in range(total))
        }
        assert set(diagram.edges) == expected_edges
        # Covering edges of a strict order never close a cycle.
        assert all(not less(b, a) for a, b in diagram.edges)


def test_example1_diagram_when_nothing_is_observed_against_it(example1):
    structure, closure = example1
    neither = observe(structure, closure, "!e1 & !e2")
    candidates = candidate_sentences(structure.conclusion_frame, "singletons")
    diagram = hasse(neither, candidates)
    al1, al2, al3 = candidates
    assert diagram.classes == ((al1,), (al2,), (al3,))
    assert set(diagram.edges) == {(1, 0), (2, 0)}


# ---------------------------------------------------------------------------
# Explanations replay the comparison.
# ---------------------------------------------------------------------------


def test_explanations_agree_with_compare():
    for rng, structure, conditioned in _random_cases(31, 80):
        p = _random_conclusion(rng, structure)
        q = _random_conclusion(rng, structure)
        trace = explain(conditioned, p, q)
        assert trace.verdict is compare(conditioned, p, q)
        for direction in (trace.forward, trace.backward):
            assert direction.holds == leq_conclusions(
                conditioned, direction.source, direction.target
            )
            assert direction.source_supported == bool(
                supports_of(conditioned, direction.source)
            )
            if direction.source_supported:
                assert direction.holds == (not direction.unmatched)
                for match in direction.matches:
                    if match.matched_by is None:
                        assert match.support in direction.unmatched
                    elif match.support != match.matched_by:
                        assert match.provenance
                        assert match.provenance[0].lower == match.support
                        assert match.provenance[-1].upper == match.matched_by
            else:
                assert direction.matches == ()
                assert direction.holds == bool(direction.target_supports)


def test_every_verdict_comes_from_the_one_kernel(example1, monkeypatch):
    # Flip the kernel on the signatures of {Al1} <= {Al3} only; compare,
    # leq_conclusions and explain must all follow it.  Under e1 & e2 the
    # three singletons have distinct signatures, so the flip picks out one
    # pair.  rank is left out: a flipped kernel can make the strict order cyclic.
    from res import decision

    structure, closure = example1
    both = observe(structure, closure, "e1 & e2")
    al1, al3 = concl(structure, "{Al1}"), concl(structure, "{Al3}")
    signature = both.support_masks.signature
    pair = signature(al1), signature(al3)
    assert pair == ((1, 3), (16, 24))
    assert compare(both, al1, al3) is NC
    kernel = decision._leq

    def flipped(first, second):
        answer = kernel(first, second)
        return not answer if (first, second) == pair else answer

    monkeypatch.setattr(decision, "_leq", flipped)
    assert compare(both, al1, al3) is LT
    assert compare(both, al3, al1) is GT
    assert leq_conclusions(both, al1, al3)
    trace = explain(both, al1, al3)
    assert trace.verdict is LT
    assert trace.forward.holds
    assert not trace.backward.holds


def test_rank_refuses_a_cyclic_strict_order(example1, monkeypatch):
    # A faulty kernel that puts {Al1} < {Al2} < {Al3} < {Al1} leaves no
    # candidate unbeaten; rank must raise instead of looping forever.  The
    # kernel sees signatures, distinct for the three singletons under e1 & e2.
    from res import decision

    structure, closure = example1
    both = observe(structure, closure, "e1 & e2")
    singles = candidate_sentences(structure.conclusion_frame, "singletons")
    pos = {both.support_masks.signature(c): i for i, c in enumerate(singles)}
    assert len(pos) == 3

    def cyclic(first, second):
        return (pos[second] - pos[first]) % 3 in (0, 1)

    monkeypatch.setattr(decision, "_leq", cyclic)
    with pytest.raises(ResError, match="cyclic"):
        rank(both, singles)


def test_signatures_match_their_definition():
    # S(p): the triggered arguments concluding inside p.  D(p): the triggered
    # arguments the closure puts at or below one of S(p).  Every members
    # mask of the frame is read, in a shuffled order, from one view.
    rng = random.Random(1818)
    lifted = wider = 0
    for k in range(100):
        recipe = random_recipe(rng, allow_generation=True)
        if k % 2:
            # Relate presumptions the arguments carry, so that lifting fires.
            masks = sorted({mask for (mask, _) in recipe.supports})
            related = tuple((rng.choice(KINDS), rng.choice(masks), rng.choice(masks))
                            for _ in range(rng.randint(0, 3)))
            recipe = dataclasses.replace(recipe, pres_rels=recipe.pres_rels + related,
                                         conjunction_arguments=True,
                                         conjunction_lifting=True)
        structure, closure = build_engine(recipe)
        lifted += structure.options.conjunction_lifting
        # One observed model triggers every argument whose presumption it meets.
        given = 1 << rng.randrange(1 << len(recipe.atoms))
        view = condition(structure, closure,
                         EvidenceSentence(structure.evidence_frame, given))
        bit = {a.id: 1 << structure.position(a.id) for a in view.triggered}
        frame = structure.conclusion_frame
        order = list(range(frame.full_mask + 1))
        rng.shuffle(order)
        for members in order:
            support = [a.id for a in view.triggered
                       if a.conclusion.members & ~members == 0]
            dominated = [a.id for a in view.triggered
                         if any(closure.leq(a.id, b) for b in support)]
            signature = view.support_masks.signature(ConclusionSentence(frame, members))
            assert signature == (sum(bit[a] for a in support),
                                 sum(bit[a] for a in dominated))
            wider += len(dominated) > len(support)
    assert lifted > 40 and wider > 150


def test_a_comparison_reads_each_signature_once(hominids, monkeypatch):
    from res.conditioning import SupportMasks

    structure, closure = hominids
    view = observe(structure, closure, "e1 & e2")
    b1, b2 = concl(structure, "{B1}"), concl(structure, "{B1, B2}")
    reads = []
    signature = SupportMasks.signature

    def counted(masks, p):
        reads.append(p.members)
        return signature(masks, p)

    monkeypatch.setattr(SupportMasks, "signature", counted)
    for call in (compare, leq_conclusions):
        reads.clear()
        call(view, b1, b2)
        assert reads == [b1.members, b2.members]


# ---------------------------------------------------------------------------
# Candidate generation and input checking.
# ---------------------------------------------------------------------------


def test_candidate_modes(hominids):
    structure, _ = hominids
    frame = structure.conclusion_frame
    singles = candidate_sentences(frame, "singletons")
    assert [c.describe() for c in singles] == [
        "{B1}", "{B2}", "{B3}", "{B4}", "{B5}"
    ]
    with_complements = candidate_sentences(frame, "singletons+complements")
    assert len(with_complements) == 10
    assert len({c.members for c in with_complements}) == 10
    everything = candidate_sentences(frame, "all")
    assert len(everything) == 2**5 - 1

    from res import ConclusionFrame

    two = ConclusionFrame(("A", "B"))
    # With two alternatives each complement is the other singleton.
    assert len(candidate_sentences(two, "singletons+complements")) == 2
    wide = ConclusionFrame(tuple(f"C{i}" for i in range(6)))
    with pytest.raises(UsageError):
        candidate_sentences(wide, "all")
    with pytest.raises(UsageError):
        candidate_sentences(two, "everything")


def test_input_checking(example1):
    structure, closure = example1
    conditioned = observe(structure, closure, "e1")
    frame = structure.conclusion_frame
    with pytest.raises(UsageError):
        is_plausible(conditioned, ConclusionSentence(frame, 0))
    with pytest.raises(UsageError):
        is_plausible(conditioned, ConclusionSentence(frame, frame.full_mask))
    with pytest.raises(UsageError):
        rank(conditioned, [])

    from res import ConclusionFrame

    foreign = ConclusionSentence(ConclusionFrame(("X", "Y")), 1)
    with pytest.raises(UsageError):
        supports_of(conditioned, foreign)
    with pytest.raises(UsageError):
        compare(conditioned, foreign, foreign)
