"""Recipe builders and random generators shared across the test suite.

:func:`build_engine` feeds a primitive :class:`oracle.Recipe` through the
public package API; ``tests/oracle.py`` evaluates the same recipe through
an unrelated code path.  The random generators below are all driven by an
explicit seeded ``random.Random`` (or by hypothesis) so every run is
reproducible.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st

from res import (
    ConclusionFrame,
    ConclusionSentence,
    EvidenceFrame,
    EvidenceSentence,
    EvidenceStructure,
    OrderClosure,
    StructureOptions,
    build_closure,
    build_sentence,
)

from oracle import Recipe, build_arguments

ATOM_NAMES = ("w", "x", "y", "z")
ALTERNATIVE_NAMES = ("A", "B", "C", "D", "E")

KINDS = ("leq", "strict", "equal")
POLICIES = ("singletons", "complement_set")


def build_engine(recipe: Recipe) -> tuple[EvidenceStructure, OrderClosure]:
    """Run one recipe through the real package, end to end."""
    structure = build_structure(recipe)
    return structure, build_closure(structure)


def build_structure(recipe: Recipe, kind=EvidenceStructure) -> EvidenceStructure:
    """Build one recipe as a *kind* of structure and run its generation passes."""
    frame = EvidenceFrame(recipe.atoms)
    conclusion_frame = ConclusionFrame(recipe.alternatives)
    options = StructureOptions(
        same_presumption_equal=recipe.same_presumption_equal,
        conjunction_arguments=recipe.conjunction_arguments,
        conjunction_lifting=recipe.conjunction_lifting,
        disjunction_closure=recipe.disjunction_closure,
        disjunction_closure_cap=recipe.disjunction_closure_cap,
    )
    structure = kind(frame, conclusion_frame, options, name="generated")
    for (pres_mask, concl_mask) in recipe.supports:
        structure.add_support(
            EvidenceSentence(frame, pres_mask),
            ConclusionSentence(conclusion_frame, concl_mask),
        )
    for (pres_mask, refuted_mask, policy) in recipe.refutes:
        structure.add_refutation(
            EvidenceSentence(frame, pres_mask),
            ConclusionSentence(conclusion_frame, refuted_mask),
            policy,
        )
    base_ids = [a.id for a in structure.arguments]
    for (kind, left, right) in recipe.arg_rels:
        structure.declare_argument_relation(kind, base_ids[left], base_ids[right])
    for (kind, left_mask, right_mask) in recipe.pres_rels:
        structure.declare_presumption_relation(
            kind,
            EvidenceSentence(frame, left_mask),
            EvidenceSentence(frame, right_mask),
        )
    structure.run_generation_passes()
    return structure


# -- seeded random recipes ---------------------------------------------------


def random_recipe(
    rng: random.Random,
    max_atoms: int = 4,
    max_arguments: int = 8,
    allow_generation: bool = False,
    max_alternatives: int = 4,
) -> Recipe:
    atom_count = rng.randint(1, max_atoms)
    alternative_count = rng.randint(2, max_alternatives)
    atoms = ATOM_NAMES[:atom_count]
    alternatives = ALTERNATIVE_NAMES[:alternative_count]
    pres_full = (1 << (1 << atom_count)) - 1
    concl_full = (1 << alternative_count) - 1

    supports = tuple(
        (rng.randint(1, pres_full), rng.randint(1, concl_full))
        for _ in range(rng.randint(1, max_arguments))
    )
    refutes = []
    while rng.random() < 0.25 and concl_full > 1:
        refutes.append(
            (
                rng.randint(1, pres_full),
                rng.randint(1, concl_full - 1),
                rng.choice(POLICIES),
            )
        )

    conjunction = allow_generation and rng.random() < 0.5
    partial = Recipe(
        atoms=atoms,
        alternatives=alternatives,
        supports=supports,
        refutes=tuple(refutes),
    )
    base_count = build_arguments(partial)[1]

    arg_rels = []
    for _ in range(rng.randint(0, 3)):
        if base_count < 2:
            break
        left, right = rng.sample(range(base_count), 2)
        arg_rels.append((rng.choice(KINDS), left, right))
    pres_rels = tuple(
        (
            rng.choice(KINDS),
            rng.randint(1, pres_full),
            rng.randint(1, pres_full),
        )
        for _ in range(rng.randint(0, 2))
    )

    return Recipe(
        atoms=atoms,
        alternatives=alternatives,
        supports=supports,
        refutes=tuple(refutes),
        arg_rels=tuple(arg_rels),
        pres_rels=pres_rels,
        same_presumption_equal=rng.random() < 0.8,
        conjunction_arguments=conjunction,
        conjunction_lifting=conjunction and rng.random() < 0.5,
        disjunction_closure=allow_generation and rng.random() < 0.15,
        disjunction_closure_cap=64,
    )


def random_given_pair(rng: random.Random, atom_count: int) -> tuple[int, int]:
    """Two satisfiable evidence masks with the first entailing the second."""
    full = (1 << (1 << atom_count)) - 1
    wider = rng.randint(1, full)
    narrower = wider & rng.randint(1, full)
    if narrower == 0:
        narrower = wider
    return narrower, wider


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def recipes(draw, max_atoms: int = 3, max_arguments: int = 6, allow_generation=True):
    atom_count = draw(st.integers(1, max_atoms))
    alternative_count = draw(st.integers(2, 4))
    atoms = ATOM_NAMES[:atom_count]
    alternatives = ALTERNATIVE_NAMES[:alternative_count]
    pres_full = (1 << (1 << atom_count)) - 1
    concl_full = (1 << alternative_count) - 1

    supports = tuple(
        draw(
            st.lists(
                st.tuples(
                    st.integers(1, pres_full), st.integers(1, concl_full)
                ),
                min_size=1,
                max_size=max_arguments,
            )
        )
    )
    refutes = tuple(
        draw(
            st.lists(
                st.tuples(
                    st.integers(1, pres_full),
                    st.integers(1, concl_full - 1),
                    st.sampled_from(POLICIES),
                ),
                max_size=2,
            )
        )
    )
    partial = Recipe(
        atoms=atoms, alternatives=alternatives, supports=supports, refutes=refutes
    )
    base_count = build_arguments(partial)[1]
    arg_rels = tuple(
        draw(
            st.lists(
                st.tuples(
                    st.sampled_from(KINDS),
                    st.integers(0, base_count - 1),
                    st.integers(0, base_count - 1),
                ).filter(lambda t: t[1] != t[2]),
                max_size=3,
            )
        )
    )
    pres_rels = tuple(
        draw(
            st.lists(
                st.tuples(
                    st.sampled_from(KINDS),
                    st.integers(1, pres_full),
                    st.integers(1, pres_full),
                ),
                max_size=2,
            )
        )
    )
    conjunction = allow_generation and draw(st.booleans())
    return Recipe(
        atoms=atoms,
        alternatives=alternatives,
        supports=supports,
        refutes=refutes,
        arg_rels=arg_rels,
        pres_rels=pres_rels,
        same_presumption_equal=draw(st.booleans()),
        conjunction_arguments=conjunction,
        conjunction_lifting=conjunction and draw(st.booleans()),
        disjunction_closure=allow_generation and draw(st.booleans()),
        disjunction_closure_cap=64,
    )


# -- random DSL documents ----------------------------------------------------


def random_formula_text(rng: random.Random, atoms, depth: int = 3) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice(atoms)
    if roll < 0.55:
        inner = random_formula_text(rng, atoms, depth - 1)
        if not inner.isidentifier():
            inner = f"({inner})"
        return f"!{inner}"
    op = "&" if roll < 0.8 else "|"
    left = random_formula_text(rng, atoms, depth - 1)
    right = random_formula_text(rng, atoms, depth - 1)
    text = f"{left} {op} {right}"
    return f"({text})" if rng.random() < 0.3 else text


def _satisfiable_formula(rng: random.Random, frame: EvidenceFrame, atoms) -> str:
    while True:
        text = random_formula_text(rng, atoms)
        if build_sentence(frame, text).is_satisfiable():
            return text


def _conclusion_text(rng: random.Random, alternatives) -> str:
    chosen = rng.sample(alternatives, rng.randint(1, len(alternatives)))
    body = "{" + ", ".join(sorted(chosen)) + "}"
    if len(chosen) < len(alternatives) and rng.random() < 0.25:
        return "!" + body
    return body


def random_document_text(rng: random.Random) -> str:
    """A syntactically valid, buildable document with random content."""
    atoms = list(ATOM_NAMES[: rng.randint(1, 3)])
    alternatives = list(ALTERNATIVE_NAMES[: rng.randint(2, 4)])
    frame = EvidenceFrame(tuple(atoms))
    lines = [
        f"structure gen{rng.randint(0, 999)}",
        "evidence atoms: " + ", ".join(atoms),
        "alternatives: " + ", ".join(alternatives),
    ]
    conjunction = rng.random() < 0.4
    if conjunction or rng.random() < 0.4:
        shown = [f"conjunction_arguments={str(conjunction).lower()}"]
        if conjunction and rng.random() < 0.5:
            shown.append("conjunction_lifting=true")
        if rng.random() < 0.4:
            shown.append(f"same_presumption_equal={str(rng.random() < 0.7).lower()}")
        lines.append("options: " + ", ".join(shown))
    lines.append("")
    labels = []
    for i in range(rng.randint(1, 5)):
        label = f"t{i + 1}"
        labels.append(label)
        lines.append(
            f"arg {label}: {_satisfiable_formula(rng, frame, atoms)} => "
            f"{_conclusion_text(rng, alternatives)}"
        )
    if rng.random() < 0.3:
        refuted = rng.sample(alternatives, rng.randint(1, len(alternatives) - 1))
        policy = rng.choice((" singletons", " complement_set", ""))
        lines.append(
            f"refute: {_satisfiable_formula(rng, frame, atoms)} => "
            "{" + ", ".join(sorted(refuted)) + "}" + policy
        )
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5 and len(labels) >= 2:
            left, right = rng.sample(labels, 2)
            op = rng.choice(("<", "<=", "~"))
            lines.append(f"rel: {left} {op} {right}")
        else:
            op = rng.choice(("<", "<=", "~"))
            lines.append(
                f"rel: pres({_satisfiable_formula(rng, frame, atoms)}) {op} "
                f"pres({_satisfiable_formula(rng, frame, atoms)})"
            )
    return "\n".join(lines) + "\n"
