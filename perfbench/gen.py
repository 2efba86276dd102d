"""Seeded inputs for the benchmark.

Every generator takes a ``random.Random`` and returns plain data: the
``.res`` text the program parses, plus a primitive recipe (masks and
indices, no engine objects) that ``tests/oracle.py`` can evaluate on its
own.  Masks follow the engine's convention: valuation ``v`` makes atom
``i`` true iff bit ``i`` of ``v`` is set.

Arguments are written before refutations so that the engine's pool order
(document order) and the oracle's (supports, then refutation expansions)
agree index for index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SYNTH_ATOMS = tuple(f"e{i}" for i in range(8))
SYNTH_ALTERNATIVES = tuple(f"H{i}" for i in range(12))
LARGE_ALTERNATIVES = tuple(f"H{i}" for i in range(16))
TINY_ATOMS = ("w", "x", "y", "z")
TINY_ALTERNATIVES = ("A", "B", "C", "D")
KINDS = ("leq", "strict", "equal")
SYMBOLS = {"leq": "<=", "strict": "<", "equal": "~"}
POLICIES = ("singletons", "complement_set")

#: The two evidence records of ``hominids.res`` that its goldens use.
HOMINIDS_STATES = (
    "e1 & e12 & !e2 & !e23 & !e13",
    "e1 & e2 & e12 & e23 & e13",
)


@dataclass
class Document:
    """One generated structure document and its oracle recipe."""

    kind: str
    text: str
    recipe: dict


def atom_masks(count: int) -> list[int]:
    valuations = 1 << count
    return [
        sum(1 << v for v in range(valuations) if v >> i & 1) for i in range(count)
    ]


def full_mask(count: int) -> int:
    return (1 << (1 << count)) - 1


def conjunction(rng: random.Random, atoms, masks, full, size: int):
    """A conjunction of *size* distinct literals, as (text, mask)."""
    picked = sorted(rng.sample(range(len(atoms)), size))
    parts, mask = [], full
    for i in picked:
        if rng.random() < 0.5:
            parts.append(atoms[i])
            mask &= masks[i]
        else:
            parts.append("!" + atoms[i])
            mask &= full ^ masks[i]
    return " & ".join(parts), mask


def formula(rng: random.Random, atoms, masks, full, depth: int = 3):
    """A random formula over ``! & |`` with parentheses, as (text, mask)."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        i = rng.randrange(len(atoms))
        return atoms[i], masks[i]
    if roll < 0.55:
        text, mask = formula(rng, atoms, masks, full, depth - 1)
        if not text.isidentifier():
            text = f"({text})"
        return "!" + text, full ^ mask
    left, lmask = formula(rng, atoms, masks, full, depth - 1)
    right, rmask = formula(rng, atoms, masks, full, depth - 1)
    if roll < 0.8:
        return f"({left} & {right})", lmask & rmask
    return f"({left} | {right})", lmask | rmask


def satisfiable_formula(rng, atoms, masks, full):
    while True:
        text, mask = formula(rng, atoms, masks, full)
        if mask:
            return text, mask


def conclusion_text(alternatives, members: int) -> str:
    return "{" + ", ".join(a for i, a in enumerate(alternatives) if members >> i & 1) + "}"


class _Writer:
    """Accumulates document lines and the matching oracle recipe."""

    def __init__(self, name, atoms, alternatives, options: dict):
        self.atoms, self.alternatives, self.options = atoms, alternatives, options
        self.header = [
            f"structure {name}",
            "evidence atoms: " + ", ".join(atoms),
            "alternatives: " + ", ".join(alternatives),
        ]
        shown = {k: v for k, v in options.items() if k != "same_presumption_equal" or not v}
        if shown:
            self.header.append(
                "options: "
                + ", ".join(
                    f"{k}={str(v).lower() if isinstance(v, bool) else v}"
                    for k, v in shown.items()
                )
            )
        self.header.append("")
        self.args, self.refutes, self.rels = [], [], []
        self.supports, self.refute_recipe, self.arg_rels, self.pres_rels = [], [], [], []
        self.presumptions: list[tuple[str, int]] = []
        self._base: dict[tuple[int, int], int] = {}
        self.label_index: dict[str, int] = {}

    def argument(self, label, pres, members) -> None:
        text, mask = pres
        self.args.append(f"arg {label}: {text} => {conclusion_text(self.alternatives, members)}")
        self.supports.append((mask, members))
        self.presumptions.append(pres)
        self.label_index[label] = self._base.setdefault((mask, members), len(self._base))

    def refute(self, pres, members, policy) -> None:
        text, mask = pres
        self.refutes.append(
            f"refute: {text} => {conclusion_text(self.alternatives, members)} {policy}"
        )
        self.refute_recipe.append((mask, members, policy))

    def argument_relation(self, kind, left, right) -> None:
        self.rels.append(f"rel: {left} {SYMBOLS[kind]} {right}")
        self.arg_rels.append((kind, self.label_index[left], self.label_index[right]))

    def presumption_relation(self, kind, left, right) -> None:
        self.rels.append(f"rel: pres({left[0]}) {SYMBOLS[kind]} pres({right[0]})")
        self.pres_rels.append((kind, left[1], right[1]))

    def finish(self, kind: str) -> Document:
        lines = self.header + self.args + self.refutes + self.rels
        recipe = dict(
            atoms=tuple(self.atoms),
            alternatives=tuple(self.alternatives),
            supports=tuple(self.supports),
            refutes=tuple(self.refute_recipe),
            arg_rels=tuple(self.arg_rels),
            pres_rels=tuple(self.pres_rels),
            **self.options,
        )
        return Document(kind, "\n".join(lines) + "\n", recipe)


def _balanced(rng: random.Random, values, count: int) -> list:
    """*count* draws that use every value equally often, in random order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _conjunction_family(rng, name, kind, count, alternatives, options, pres_rels):
    """Arguments presuming 1-3 literals over 8 atoms, singleton conclusions.

    Presumption sizes and conclusions are balanced rather than drawn
    independently, so structures from different seeds cost about the same
    to close and to query.
    """
    masks, full = atom_masks(len(SYNTH_ATOMS)), full_mask(len(SYNTH_ATOMS))
    writer = _Writer(name, SYNTH_ATOMS, alternatives, options)
    sizes = _balanced(rng, (1, 2, 3), count)
    targets = _balanced(rng, range(len(alternatives)), count)
    for i in range(count):
        pres = conjunction(rng, SYNTH_ATOMS, masks, full, sizes[i])
        writer.argument(f"s{i}", pres, 1 << targets[i])
    for _ in range(pres_rels):
        left, right = rng.sample(writer.presumptions, 2)
        writer.presumption_relation(rng.choice(KINDS), left, right)
    return writer.finish(kind)


def synthetic(rng: random.Random, count: int) -> Document:
    """The synthetic scaling family: *count* declared arguments, 8 atoms,
    12 alternatives and a few presumption-level declarations."""
    return _conjunction_family(
        rng, f"synth{count}", f"synthetic-{count}", count, SYNTH_ALTERNATIVES, {}, 6
    )


def partial_valuation(rng: random.Random, fixed: int):
    """An observation fixing *fixed* of the 8 synthetic atoms, as (text, mask)."""
    masks, full = atom_masks(len(SYNTH_ATOMS)), full_mask(len(SYNTH_ATOMS))
    return conjunction(rng, SYNTH_ATOMS, masks, full, fixed)


def tiny(rng: random.Random, name: str) -> Document:
    """At most 4 atoms and 8 base arguments, with random options
    (generation passes too)."""
    atoms = TINY_ATOMS[: rng.randint(1, 4)]
    alternatives = TINY_ALTERNATIVES[: rng.randint(2, 4)]
    masks, full = atom_masks(len(atoms)), full_mask(len(atoms))
    concl_full = (1 << len(alternatives)) - 1
    conj = rng.random() < 0.4
    options = dict(
        same_presumption_equal=rng.random() < 0.8,
        conjunction_arguments=conj,
        conjunction_lifting=conj and rng.random() < 0.5,
        disjunction_closure=rng.random() < 0.15,
        disjunction_closure_cap=32,
    )
    writer = _Writer(name, atoms, alternatives, options)
    labels = []
    for i in range(rng.randint(1, 5)):
        label = f"t{i + 1}"
        labels.append(label)
        writer.argument(
            label,
            satisfiable_formula(rng, atoms, masks, full),
            rng.randint(1, concl_full),
        )
    for _ in range(rng.randint(0, 1)):  # expands to at most 3 arguments
        writer.refute(
            satisfiable_formula(rng, atoms, masks, full),
            rng.randint(1, concl_full - 1),
            rng.choice(POLICIES),
        )
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5 and len(labels) >= 2:
            writer.argument_relation(rng.choice(KINDS), *rng.sample(labels, 2))
        else:
            writer.presumption_relation(
                rng.choice(KINDS),
                rng.choice(writer.presumptions),
                satisfiable_formula(rng, atoms, masks, full),
            )
    return writer.finish("tiny")


#: Large-document templates: (kind, declared arguments, options).  Each
#: block of the build-check deck draws the next template in turn, so every
#: seed sees the same mix of sizes and generation passes.
LARGE_TEMPLATES = (
    ("plain", 300, {}),
    ("conjunction", 90, {"conjunction_arguments": True}),
    ("plain", 200, {}),
    ("disjunction", 110, {"disjunction_closure": True, "disjunction_closure_cap": 150}),
    ("lifting", 80, {"conjunction_arguments": True, "conjunction_lifting": True}),
    ("plain", 100, {}),
)


def large(rng: random.Random, name: str, template) -> Document:
    kind, count, options = template
    options = {"same_presumption_equal": rng.random() < 0.8, **options}
    return _conjunction_family(
        rng, name, kind, count, LARGE_ALTERNATIVES, options, rng.randint(4, 8)
    )


def hominids_recipe() -> dict:
    """The oracle recipe of the bundled ``hominids.res``."""
    atoms = ("e1", "e2", "e12", "e23", "e13")
    alternatives = ("B1", "B2", "B3", "B4", "B5")
    masks = dict(zip(atoms, atom_masks(len(atoms))))
    supports = [
        ("e1", "B1"), ("e2", "B2"), ("e2", "B5"), ("e12", "B3"), ("e12", "B4"),
        ("e12", "B5"), ("e23", "B2"), ("e23", "B4"), ("e23", "B5"),
        ("e13", "B2"), ("e13", "B3"), ("e13", "B5"),
    ]
    relations = [
        (masks["e12"], masks["e1"]),
        (masks["e1"], masks["e2"] & masks["e13"]),
        (masks["e12"], masks["e13"]),
        (masks["e23"], masks["e13"]),
    ]
    return dict(
        atoms=atoms,
        alternatives=alternatives,
        supports=tuple(
            (masks[atom], 1 << alternatives.index(alt)) for atom, alt in supports
        ),
        pres_rels=tuple(("strict", low, high) for low, high in relations),
        conjunction_arguments=True,
    )

