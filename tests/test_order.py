"""The closed strength relation, checked against the naive oracle."""

from __future__ import annotations

import dataclasses
import random
from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from res import (
    ConclusionFrame,
    EvidenceFrame,
    EvidenceStructure,
    StructureOptions,
    UsageError,
    build_closure,
    build_sentence,
    check_consistency,
    conclusion_of,
    fixture_text,
    load_structure,
    parse_document,
    replace,
)
from res import order

import oracle
from oracle import Recipe
from strategies import KINDS, build_engine, random_recipe, recipes


def atom_mask(atom_count: int, i: int) -> int:
    return sum(1 << v for v in range(2**atom_count) if v >> i & 1)


def models_set(argument) -> tuple[frozenset, frozenset]:
    models = argument.presumption.models
    return (
        frozenset(v for v in range(argument.presumption.frame.valuations)
                  if models >> v & 1),
        frozenset(argument.conclusion.names()),
    )


def assert_same_closure(structure, closure, model: oracle.OracleModel):
    engine_args = [models_set(a) for a in structure.arguments]
    oracle_args = [(a.presumption, a.conclusion) for a in model.arguments]
    assert engine_args == oracle_args
    ids = closure.ids
    count = len(engine_args)
    engine_rel = {
        (i, j)
        for i in range(count)
        for j in range(count)
        if closure.leq(ids[i], ids[j])
    }
    assert engine_rel == model.leq
    assert structure.disjunction_capped == model.capped


def assert_closure_laws(structure, closure):
    args = structure.arguments
    ids = [a.id for a in args]
    for a in ids:
        assert closure.leq(a, a)
    for a in ids:
        for b in ids:
            for c in ids:
                if closure.leq(a, b) and closure.leq(b, c):
                    assert closure.leq(a, c)
    for lower in args:
        for upper in args:
            if lower.id == upper.id:
                continue
            same = lower.presumption.models == upper.presumption.models
            if same and lower.conclusion.implies(upper.conclusion):
                assert closure.leq(lower.id, upper.id)
            if upper.presumption.implies(lower.presumption) and not same:
                assert closure.leq(lower.id, upper.id)
    for declaration in structure.declarations:
        if declaration.level != "argument":
            continue
        assert closure.leq(declaration.left, declaration.right)
        if declaration.kind == "equal":
            assert closure.leq(declaration.right, declaration.left)


# -- fixture recipes ---------------------------------------------------------

E1 = atom_mask(2, 0)
E2 = atom_mask(2, 1)
EXAMPLE1_RECIPE = Recipe(
    atoms=("e1", "e2"),
    alternatives=("Al1", "Al2", "Al3"),
    supports=((E1, 1), (E1, 2), ((~E2) & 0b1111, 1)),
    refutes=((E2, 1, "singletons"),),
)


def hominids_recipe(lifting: bool) -> Recipe:
    a = {name: atom_mask(5, i) for i, name in
         enumerate(("e1", "e2", "e12", "e23", "e13"))}
    alt = {f"B{i + 1}": 1 << i for i in range(5)}
    supports = tuple(
        (a[e], alt[b])
        for (e, b) in [
            ("e1", "B1"), ("e2", "B2"), ("e2", "B5"),
            ("e12", "B3"), ("e12", "B4"), ("e12", "B5"),
            ("e23", "B2"), ("e23", "B4"), ("e23", "B5"),
            ("e13", "B2"), ("e13", "B3"), ("e13", "B5"),
        ]
    )
    pres_rels = (
        ("strict", a["e12"], a["e1"]),
        ("strict", a["e1"], a["e2"] & a["e13"]),
        ("strict", a["e12"], a["e13"]),
        ("strict", a["e23"], a["e13"]),
    )
    return Recipe(
        atoms=("e1", "e2", "e12", "e23", "e13"),
        alternatives=("B1", "B2", "B3", "B4", "B5"),
        supports=supports,
        pres_rels=pres_rels,
        conjunction_arguments=True,
        conjunction_lifting=lifting,
    )


def test_example1_closure_matches_oracle(example1):
    structure, closure = example1
    model = oracle.evaluate(EXAMPLE1_RECIPE)
    assert_same_closure(structure, closure, model)


@pytest.mark.parametrize("lifting", [False, True])
def test_hominids_closure_matches_oracle(lifting, hominids, hominids_lifting):
    structure, closure = hominids_lifting if lifting else hominids
    model = oracle.evaluate(hominids_recipe(lifting))
    assert_same_closure(structure, closure, model)


def test_fixture_closure_laws(example1, hominids, hominids_lifting):
    for structure, closure in (example1, hominids, hominids_lifting):
        assert_closure_laws(structure, closure)


# -- random differential -----------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(recipes())
def test_random_recipes_match_oracle(recipe):
    structure, closure = build_engine(recipe)
    assert_same_closure(structure, closure, oracle.evaluate(recipe))


@settings(max_examples=60, deadline=None)
@given(recipes())
def test_random_recipes_satisfy_closure_laws(recipe):
    structure, closure = build_engine(recipe)
    assert_closure_laws(structure, closure)


def test_seeded_differential_batch():
    rng = random.Random(2024)
    for _ in range(150):
        recipe = random_recipe(rng, allow_generation=True)
        structure, closure = build_engine(recipe)
        assert_same_closure(structure, closure, oracle.evaluate(recipe))


# -- declaration order must not matter ---------------------------------------


def keyed_relation(structure, closure):
    keys = [models_set(a) for a in structure.arguments]
    ids = closure.ids
    count = len(keys)
    return {
        (keys[i], keys[j])
        for i in range(count)
        for j in range(count)
        if closure.leq(ids[i], ids[j])
    }


def test_declaration_order_is_irrelevant():
    rng = random.Random(77)
    tried = 0
    while tried < 40:
        recipe = random_recipe(rng, allow_generation=True)
        if recipe.refutes or len(set(recipe.supports)) != len(recipe.supports):
            continue
        tried += 1
        count = len(recipe.supports)
        flipped = dataclasses.replace(
            recipe,
            supports=tuple(reversed(recipe.supports)),
            arg_rels=tuple(
                (kind, count - 1 - left, count - 1 - right)
                for (kind, left, right) in recipe.arg_rels
            ),
            pres_rels=tuple(reversed(recipe.pres_rels)),
        )
        structure, closure = build_engine(recipe)
        if structure.disjunction_capped:
            continue  # a hit cap keeps whichever arguments came first
        assert keyed_relation(structure, closure) == keyed_relation(
            *build_engine(flipped)
        )


# -- regrouped seeding: presumptions compared by models, not by text ---------

REGROUP_DOCUMENT = """\
structure regroup
evidence atoms: x, y
alternatives: A, B, C
options: conjunction_arguments=true, conjunction_lifting=true

arg p: x & y => {A}
arg q: y & x => {B}
arg r: !(!x | !y) => {A, B}
arg s: x => {C}
arg t: x => {A}
arg u: y => {A}
arg w: x & !y => {C}
rel: p < p
rel: pres(x) ~ pres(x)
rel: s < t
rel: pres(y & x) <= pres(x & !y)
rel: pres(y) < pres(x & y)
"""


@pytest.mark.parametrize("same_presumption_equal", [True, False])
def test_regrouped_seeding_matches_oracle(same_presumption_equal):
    # One presumption written three ways; self-relations at both levels.
    x, y = atom_mask(2, 0), atom_mask(2, 1)
    recipe = Recipe(
        atoms=("x", "y"),
        alternatives=("A", "B", "C"),
        supports=(
            (x & y, 1), (x & y, 2), (x & y, 3), (x, 4), (x, 1), (y, 1), (x & ~y, 4)
        ),
        arg_rels=(("strict", 0, 0), ("strict", 3, 4)),
        pres_rels=(("equal", x, x), ("leq", x & y, x & ~y), ("strict", y, x & y)),
        same_presumption_equal=same_presumption_equal,
        conjunction_arguments=True,
        conjunction_lifting=True,
    )
    document = parse_document(REGROUP_DOCUMENT)
    document.options = replace(
        document.options, same_presumption_equal=same_presumption_equal
    )
    structure = document.to_structure()
    closure = build_closure(structure)
    model = oracle.evaluate(recipe)
    assert_same_closure(structure, closure, model)
    # Only the option puts q, which concludes more than p, below p.
    assert closure.leq("q", "p") is same_presumption_equal

    report = check_consistency(closure, structure)
    where = {a.id: i for i, a in enumerate(structure.arguments)}
    strict = set()
    for violation in report.violations:
        high, low = violation.counter
        strict.add((where[low], where[high]))
    assert strict == oracle.strict_violations(model)
    # Only the self-relation p < p is refuted without a chain.
    empty = [v.counter for v in report.violations if not v.chain]
    assert empty == [("p", "p")]


# -- a built structure cannot change ------------------------------------------


def test_the_built_structure_cannot_be_changed():
    structure = load_structure(fixture_text("example1.res"))
    pool, options = structure.arguments, structure.options
    evidence = build_sentence(structure.evidence_frame, "e1 & e2")
    al3 = conclusion_of(structure.conclusion_frame, ["Al3"])
    # The generation passes have run, so the pool is final ...
    with pytest.raises(UsageError, match="frozen"):
        structure.add_support(evidence, al3, "late")
    with pytest.raises(AttributeError):
        structure.arguments.append(pool[0])
    with pytest.raises(AttributeError):
        structure.arguments = pool + pool[:1]
    # ... the frames and options are read-only, and the declared relations
    # change only through the checked declare_* methods.
    with pytest.raises(AttributeError):
        structure.options = replace(options, same_presumption_equal=False)
    with pytest.raises(AttributeError):
        structure.evidence_frame = EvidenceFrame(("z", "w"))
    with pytest.raises(AttributeError):
        structure.declarations.append(None)
    with pytest.raises(AttributeError):
        structure.declarations = ()
    assert structure.arguments is pool and structure.options is options
    assert structure.declarations == ()


def test_declaring_after_the_closure_raises():
    structure = load_structure(fixture_text("example1.res"))
    closure = build_closure(structure)
    with pytest.raises(UsageError, match="frozen"):
        structure.declare_argument_relation("strict", "t1a", "t2")
    with pytest.raises(UsageError, match="frozen"):
        structure.declare_presumption_relation(
            "strict",
            build_sentence(structure.evidence_frame, "e1"),
            build_sentence(structure.evidence_frame, "!e2"),
        )
    assert structure.declarations == ()
    assert not closure.leq("t1a", "t2")


def test_building_a_closure_only_reads_the_structure():
    structure = load_structure(fixture_text("hominids.res"))
    pool, declarations = structure.arguments, structure.declarations
    first = build_closure(structure)
    second = build_closure(structure)
    assert structure.arguments is pool and structure.declarations is declarations
    assert declarations and first.ids == second.ids
    for lower in first.ids:
        for upper in first.ids:
            assert first.leq(lower, upper) == second.leq(lower, upper)


def test_adding_support_after_the_closure_raises():
    structure = load_structure(fixture_text("example1.res"))
    closure = build_closure(structure)
    before = structure.arguments
    evidence = build_sentence(structure.evidence_frame, "e1 & e2")
    al3 = conclusion_of(structure.conclusion_frame, ["Al3"])
    with pytest.raises(UsageError, match="frozen"):
        structure.add_support(evidence, al3, "late")
    with pytest.raises(UsageError, match="frozen"):
        structure.add_refutation(evidence, al3)
    assert structure.arguments == before
    assert closure.ids == tuple(a.id for a in before)


@pytest.mark.parametrize(
    "extra", ["rel: t1a ~ t2\n", "arg extra: e1 => {Al3}\nrel: extra ~ t1a\n"]
)
def test_consistency_audit_needs_the_closure_of_that_structure(extra):
    # Auditing another structure against this closure used to report a
    # violation the other structure does not have, or raise a bare KeyError.
    text = fixture_text("example1.res")
    closure = build_closure(load_structure(text))
    other = load_structure(text + extra)
    assert check_consistency(build_closure(other), other).ok
    with pytest.raises(UsageError, match="closure was built for a different structure"):
        check_consistency(closure, other)


# -- strictness is derived, never seeded -------------------------------------


def test_single_strict_declaration_stays_strict():
    recipe = Recipe(
        atoms=("x", "y"),
        alternatives=("A", "B"),
        supports=((atom_mask(2, 0), 1), (atom_mask(2, 1), 2)),
        arg_rels=(("strict", 0, 1),),
    )
    structure, closure = build_engine(recipe)
    first, second = (a.id for a in structure.arguments)
    assert closure.leq(first, second)
    assert not closure.leq(second, first)
    assert check_consistency(closure, structure).ok


def test_declared_strict_collapsed_by_sharing_a_presumption():
    recipe = Recipe(
        atoms=("x",),
        alternatives=("A", "B"),
        supports=((1 << 1, 1), (1 << 1, 2)),
        arg_rels=(("strict", 0, 1),),
    )
    structure, closure = build_engine(recipe)
    report = check_consistency(closure, structure)
    assert not report.ok
    violation = report.violations[0]
    assert violation.declaration.kind == "strict"
    assert violation.chain
    steps = violation.chain
    ids = [a.id for a in structure.arguments]
    assert steps[0].lower == ids[1] and steps[-1].upper == ids[0]
    assert [step.reason.kind for step in steps] == ["same-presumption"]
    for step in steps:
        assert closure.provenance_chain(step.lower, step.upper) == [step]


def test_consistency_differential():
    rng = random.Random(4096)
    for _ in range(200):
        recipe = random_recipe(rng, allow_generation=True)
        structure, closure = build_engine(recipe)
        model = oracle.evaluate(recipe)
        report = check_consistency(closure, structure)
        where = {a.id: i for i, a in enumerate(structure.arguments)}
        engine_pairs = set()
        for violation in report.violations:
            high, low = violation.counter
            engine_pairs.add((where[low], where[high]))
        assert engine_pairs == oracle.strict_violations(model)


def test_fixture_consistency_is_clean(example1, hominids, hominids_lifting):
    for structure, closure in (example1, hominids, hominids_lifting):
        report = check_consistency(closure, structure)
        assert report.ok and report.violations == []


# -- provenance --------------------------------------------------------------


def test_provenance_chains_are_walkable(hominids):
    structure, closure = hominids
    ids = [a.id for a in structure.arguments]
    seen_kinds = set()
    for lower in ids:
        for upper in ids:
            if not closure.leq(lower, upper):
                with pytest.raises(UsageError):
                    closure.provenance_chain(lower, upper)
                continue
            chain = closure.provenance_chain(lower, upper)
            if lower == upper:
                assert chain == []
                continue
            assert chain[0].lower == lower
            assert chain[-1].upper == upper
            for earlier, later in zip(chain, chain[1:]):
                assert earlier.upper == later.lower
            for step in chain:
                # Every step is one seed pair, shown with its recorded reason.
                assert closure.provenance_chain(step.lower, step.upper) == [step]
                seen_kinds.add(step.reason.kind)
    assert "declaration" in seen_kinds
    assert "presumption-specificity" in seen_kinds
    assert "same-presumption" in seen_kinds


def test_lifting_seeds_show_up(hominids_lifting):
    structure, closure = hominids_lifting
    # The conjoined support for B4 sits below the conjoined support for B3
    # because e12 matches and e23 is declared weaker than e13.
    lower = next(
        a.id for a in structure.arguments
        if a.presumption.describe() == "e12 & e23"
        and a.conclusion.names() == ("B4",)
    )
    upper = next(
        a.id for a in structure.arguments
        if a.presumption.describe() == "e12 & e13"
        and a.conclusion.names() == ("B3",)
    )
    chain = closure.provenance_chain(lower, upper)
    assert any(step.reason.kind == "conjunction-lifting" for step in chain)
    assert closure.leq(lower, upper) and not closure.leq(upper, lower)


def test_closure_rejects_invalid_structures():
    # A pool whose generation passes have not run is unfinished: closing it
    # would silently leave out the conjunction argument.
    frame = EvidenceFrame(("x", "y"))
    structure = EvidenceStructure(
        frame, ConclusionFrame(("A", "B")), StructureOptions(conjunction_arguments=True)
    )
    conclusion = conclusion_of(structure.conclusion_frame, ["A"])
    structure.add_support(build_sentence(frame, "x"), conclusion, "p")
    structure.add_support(build_sentence(frame, "y"), conclusion, "q")
    with pytest.raises(UsageError, match=r"run_generation_passes\(\)"):
        build_closure(structure)
    structure.declare_argument_relation("leq", "p", "q")  # still open
    structure.run_generation_passes()
    closure = build_closure(structure)
    assert closure.ids == ("p", "q", "a1")
    assert structure.argument("a1").origins == ("conjunction-rule",)


# -- the seed relation by definition -----------------------------------------


def reference_seeds(structure) -> dict[tuple[int, int], tuple[str, str]]:
    """Every seed pair with its first (kind, detail), found pair by pair.

    The passes run in the closure's order; the declared presumption order
    that lifting reads is closed by a naive fixpoint.
    """
    arguments = structure.arguments
    where = {a.id: k for k, a in enumerate(arguments)}
    seeds: dict[tuple[int, int], tuple[str, str]] = {}

    def seed(i, j, kind, detail):
        seeds.setdefault((i, j), (kind, detail))

    def carrying(sentence):
        return [k for k, a in enumerate(arguments) if a.presumption == sentence]

    for declaration in structure.declarations:
        detail = f"#{declaration.ordinal} {declaration.describe()}"
        if declaration.level == "argument":
            pairs = [(where[declaration.left], where[declaration.right])]
        else:
            lows, highs = carrying(declaration.left), carrying(declaration.right)
            pairs = [(i, j) for i in lows for j in highs]
        for (i, j) in pairs:
            seed(i, j, "declaration", detail)
            if declaration.kind == "equal":
                seed(j, i, "declaration", detail)

    share_equal = structure.options.same_presumption_equal
    for i, lower in enumerate(arguments):
        for j, upper in enumerate(arguments):
            if i == j or lower.presumption != upper.presumption:
                continue
            if lower.conclusion.implies(upper.conclusion):
                detail = f"{lower.id} concludes a subset of {upper.id}"
                seed(i, j, "conclusion-implication", detail)
            if share_equal:
                detail = f"{lower.id} and {upper.id} share a presumption"
                seed(i, j, "same-presumption", detail)
    for i, lower in enumerate(arguments):
        for j, upper in enumerate(arguments):
            if upper.presumption.implies(lower.presumption) and not (
                lower.presumption.implies(upper.presumption)
            ):
                detail = f"{upper.id} presumes strictly more than {lower.id}"
                seed(i, j, "presumption-specificity", detail)

    if not structure.options.conjunction_lifting:
        return seeds
    declared = set()
    for declaration in structure.declarations:
        if declaration.level == "presumption":
            left, right = declaration.left.models, declaration.right.models
            declared.add((left, right))
            if declaration.kind == "equal":
                declared.add((right, left))
    while True:
        grown = declared | {
            (a, d) for (a, b) in declared for (c, d) in declared if b == c
        }
        if grown == declared:
            break
        declared = grown

    def below(x, y):
        return x.models == y.models or (x.models, y.models) in declared

    def lifted(source, target):
        return any(
            below(x, target.presumption) and below(y, target.presumption)
            or any(
                below(x, tx) and below(y, ty) or below(x, ty) and below(y, tx)
                for (tx, ty) in target.parents
            )
            for (x, y) in source.parents
        )

    for i, source in enumerate(arguments):
        if "conjunction-rule" not in source.origins:
            continue
        for j, target in enumerate(arguments):
            if i != j and lifted(source, target):
                detail = f"parents of {source.id} are each outweighed toward"
                seed(i, j, "conjunction-lifting", f"{detail} {target.id}")
    return seeds


def seed_pairs(closure) -> set[tuple[int, int]]:
    """The non-loop seed pairs of *closure*'s full successor masks."""
    masks = [closure._successors_of(i) for i in range(len(closure.ids))]
    return {
        (i, j)
        for i, mask in enumerate(masks)
        for j in range(len(masks))
        if i != j and mask >> j & 1
    }


def assert_seeds_match_definition(structure, closure):
    expected = reference_seeds(structure)
    # The closure is reflexive and no chain steps on a loop, so loops are
    # left out; the reasons below still cover them.
    assert seed_pairs(closure) == {(i, j) for (i, j) in expected if i != j}
    for (i, j), (kind, detail) in expected.items():
        reason = closure._reason(i, j)
        assert (reason.kind, reason.detail) == (kind, detail)


def sixteen_atom_structure(arguments: int, cap: int, seed: int = 16):
    """Conjunctions of one to three literals over 16 atoms, closed under
    disjunction up to *cap*: the presumption masks are 65,536 bits wide."""
    atoms = tuple(f"e{i}" for i in range(16))
    alternatives = tuple(f"A{i}" for i in range(8))
    frame, conclusions = EvidenceFrame(atoms), ConclusionFrame(alternatives)
    options = StructureOptions(disjunction_closure=True, disjunction_closure_cap=cap)
    structure = EvidenceStructure(frame, conclusions, options)
    rng = random.Random(seed)
    for _ in range(arguments):
        chosen = rng.sample(atoms, rng.randint(1, 3))
        literals = [rng.choice(("", "!")) + atom for atom in chosen]
        structure.add_support(
            build_sentence(frame, " & ".join(literals)),
            conclusion_of(conclusions, [rng.choice(alternatives)]),
        )
    presumptions = [a.presumption for a in structure.arguments[:4]]
    structure.declare_presumption_relation("strict", *presumptions[:2])
    structure.declare_presumption_relation("equal", *presumptions[2:])
    structure.run_generation_passes()
    return structure


def test_fixture_seeds_match_definition(example1, hominids, hominids_lifting):
    for structure, closure in (example1, hominids, hominids_lifting):
        assert_seeds_match_definition(structure, closure)


@settings(max_examples=120, deadline=None)
@given(recipes(max_atoms=4, max_arguments=10), st.booleans(), st.data())
def test_random_seeds_match_definition(recipe, lifting, data):
    if lifting:
        # Relate presumptions the arguments carry, so that lifting fires.
        masks = sorted({mask for (mask, _) in recipe.supports})
        related = data.draw(
            st.lists(
                st.tuples(st.sampled_from(KINDS), st.sampled_from(masks),
                          st.sampled_from(masks)),
                max_size=3,
            )
        )
        recipe = dataclasses.replace(
            recipe,
            pres_rels=recipe.pres_rels + tuple(related),
            conjunction_arguments=True,
            conjunction_lifting=True,
        )
    assert_seeds_match_definition(*build_engine(recipe))


def test_sixteen_atom_seeds_match_definition():
    structure = sixteen_atom_structure(10, 64)
    assert structure.evidence_frame.valuations == 1 << 16
    assert len(structure.arguments) == 74 and structure.disjunction_capped
    assert_seeds_match_definition(structure, build_closure(structure))


def test_seed_reasons_are_built_on_demand(monkeypatch):
    made = []

    def counting(kind, detail):
        made.append(kind)
        return real(kind, detail)

    real = order.SeedReason
    monkeypatch.setattr(order, "SeedReason", counting)
    document = parse_document(fixture_text("hominids.res"))
    document.options = replace(document.options, conjunction_lifting=True)
    structure = document.to_structure()
    closure = build_closure(structure)
    assert len(seed_pairs(closure)) == 146 and made == []

    # A seed pair's chain is its one step, shown with its first reason.
    expected = reference_seeds(structure)
    ids = closure.ids
    for (i, j), reason in expected.items():
        if i != j:
            step = order.ChainStep(ids[i], ids[j], real(*reason))
            assert closure.provenance_chain(ids[i], ids[j]) == [step]
    assert len(made) == sum(i != j for (i, j) in expected)

    # The audit's chains show the same reasons.
    regroup = parse_document(REGROUP_DOCUMENT).to_structure()
    regroup_closure = build_closure(regroup)
    expected = reference_seeds(regroup)
    where = {a.id: k for k, a in enumerate(regroup.arguments)}
    steps = [
        step
        for violation in check_consistency(regroup_closure, regroup).violations
        for step in violation.chain
    ]
    assert steps
    for step in steps:
        pair = (where[step.lower], where[step.upper])
        assert (step.reason.kind, step.reason.detail) == expected[pair]


# -- provenance chains by definition -----------------------------------------


def reference_chain(successors, seeds, start: int, goal: int) -> list[tuple]:
    """A breadth-first chain over sorted successor lists, as
    ``(lower, upper, kind, detail)`` steps: the first path found wins."""
    parent = {start: start}
    queue = deque([start])
    while queue:
        here = queue.popleft()
        if here == goal:
            break
        for there in successors[here]:
            if there not in parent:
                parent[there] = here
                queue.append(there)
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return [(i, j, *seeds[(i, j)]) for i, j in zip(path, path[1:])]


def assert_chains_match_reference(structure, closure, starts=None) -> int:
    """Check every chain of *closure*, from each of *starts* in turn (every
    position in order by default); return how many take several steps."""
    seeds = reference_seeds(structure)
    ids = closure.ids
    where = {name: k for k, name in enumerate(ids)}
    successors = [
        sorted(j for (i, j) in seeds if i == k and j != k) for k in range(len(ids))
    ]
    longer = 0
    for start in range(len(ids)) if starts is None else starts:
        for goal in range(len(ids)):
            if not closure.leq(ids[start], ids[goal]):
                continue
            chain = [
                (where[step.lower], where[step.upper], step.reason.kind,
                 step.reason.detail)
                for step in closure.provenance_chain(ids[start], ids[goal])
            ]
            assert chain == reference_chain(successors, seeds, start, goal)
            longer += len(chain) > 1
    return longer


def test_chains_match_a_reference_search(example1, hominids, hominids_lifting):
    longer = sum(
        assert_chains_match_reference(*engine)
        for engine in (example1, hominids, hominids_lifting)
    )
    rng = random.Random(15)
    for _ in range(300):
        recipe = random_recipe(rng, allow_generation=True)
        longer += assert_chains_match_reference(*build_engine(recipe))
    # Multi-step chains pin the tie-break between equally short paths.
    assert longer > 100


# -- rows closed on first read -----------------------------------------------


def filled(memo: list[int]) -> set[int]:
    """The positions whose row or successor mask has been computed."""
    return {i for i, mask in enumerate(memo) if mask}


def test_rows_read_in_any_order_match_the_oracle():
    rng = random.Random(17)
    longer = 0
    for k in range(200):
        recipe = random_recipe(rng, allow_generation=True)
        if k % 2:
            # Relate presumptions the arguments carry, so that lifting fires.
            masks = sorted({mask for (mask, _) in recipe.supports})
            related = tuple((rng.choice(KINDS), rng.choice(masks), rng.choice(masks))
                            for _ in range(rng.randint(0, 3)))
            recipe = dataclasses.replace(recipe, pres_rels=recipe.pres_rels + related,
                                         conjunction_arguments=True,
                                         conjunction_lifting=True)
        model = oracle.evaluate(recipe)
        structure, closure = build_engine(recipe)
        if k % 3 == 0:
            check_consistency(closure, structure)
        ids = closure.ids
        starts = list(range(len(ids)))
        rng.shuffle(starts)
        for i in starts:
            for j in range(len(ids)):
                assert closure.leq(ids[i], ids[j]) == ((i, j) in model.leq)
        # Which rows were closed first changes no chain.
        fresh = build_closure(structure)
        if k % 3 == 1:
            check_consistency(fresh, structure)
        rng.shuffle(starts)
        longer += assert_chains_match_reference(structure, fresh, starts)
        longer += assert_chains_match_reference(structure, closure, starts)
    assert longer > 100


def test_only_the_rows_read_are_closed(hominids):
    structure = hominids[0]
    closure = build_closure(structure)  # the fixture's closure is shared
    # Its four declarations are strict, so the audit reads the row of each
    # argument presuming a declared upper side: e1, e2 & e13 and e13.
    assert check_consistency(closure, structure).ok
    assert [closure.ids[i] for i in sorted(filled(closure._rows))] == [
        "a1", "a10", "a11", "a12", "a14", "a17"
    ]
    assert len(filled(closure._successors)) == 10

    # Without a strict declaration the audit reads nothing: an equal one is
    # seeded both ways, so it always holds.
    hominids_text = fixture_text("hominids.res")
    for text in (fixture_text("example1.res"), hominids_text.replace(") < pres(", ") <= pres("),
                 hominids_text.replace(") < pres(", ") ~ pres(")):
        quiet = parse_document(text).to_structure()
        quiet_closure = build_closure(quiet)
        assert check_consistency(quiet_closure, quiet).ok
        assert len(quiet.arguments) > 2
        assert filled(quiet_closure._rows) == filled(quiet_closure._successors) == set()

    # One query closes one row, and fills the successor masks of the groups
    # the row reaches, whole: the search never expands a position it cannot reach.
    groups = structure.presumption_groups
    for name, reached in (("a1", 3), ("a2", 7), ("a4", 16), ("a15", 1)):
        closure = build_closure(structure)
        start = structure.position(name)
        closure.leq(name, "a1")
        row = closure._rows[start]
        assert filled(closure._rows) == {start} and row.bit_count() == reached
        inside = {i for i in range(len(closure.ids)) if row >> i & 1}
        assert filled(closure._successors) == inside == {
            j for i in inside for j in groups[structure.arguments[i].presumption.models]
        }
