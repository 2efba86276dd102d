#!/usr/bin/env python3
"""Rank the five family-tree hypotheses before and after the third fossil form.

Reproduces the bundled case study: twelve arguments over five evidence
atoms, automatic conjunction arguments, and four declared presumption
strengths.  Prints the believability ranking for the partial record
(before the third form is known) and the full record, then explains the
decisive comparison.  ``--lifting`` additionally transfers declared
strengths onto the generated conjunction arguments, which breaks the
remaining ties.

Usage::

    python scripts/run_hominids.py [--lifting] [--dot]
"""

from __future__ import annotations

import argparse

from res import (
    build_closure,
    build_sentence,
    candidate_sentences,
    condition,
    explain,
    fixture_text,
    hasse,
    parse_document,
    rank,
    render,
    replace,
)

BEFORE = "e1 & e12 & !e2 & !e23 & !e13"
AFTER = "e1 & e2 & e12 & e23 & e13"


def build(lifting: bool):
    document = parse_document(fixture_text("hominids.res"))
    if lifting:
        document.options = replace(
            document.options, conjunction_lifting=True
        )
    structure = document.to_structure()
    return structure, build_closure(structure)


def show(structure, closure, title, formula, dot: bool):
    conditioned = condition(
        structure, closure, build_sentence(structure.evidence_frame, formula)
    )
    candidates = candidate_sentences(structure.conclusion_frame, "singletons")
    print(f"== {title}")
    print(render.rank_text(conditioned, rank(conditioned, candidates)))
    print()
    diagram = hasse(conditioned, candidates)
    if dot:
        print(render.diagram_dot(conditioned, diagram))
    else:
        print(render.diagram_text(conditioned, diagram))
    print()
    return conditioned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--lifting",
        action="store_true",
        help="transfer declared presumption strengths onto conjunction "
        "arguments (overrides the document's conjunction_lifting option)",
    )
    parser.add_argument(
        "--dot", action="store_true", help="emit diagrams as DOT digraphs"
    )
    args = parser.parse_args()

    structure, closure = build(args.lifting)
    print(
        f"structure {structure.name}: {len(structure.arguments)} arguments "
        f"({sum('conjunction-rule' in a.origins for a in structure.arguments)}"
        " generated by the conjunction rule)"
    )
    print()
    show(structure, closure, f"before the third form: given {BEFORE}",
         BEFORE, args.dot)
    after = show(structure, closure, f"full record: given {AFTER}",
                 AFTER, args.dot)

    frame = structure.conclusion_frame
    b5 = candidate_sentences(frame, "singletons")[4]
    b1 = candidate_sentences(frame, "singletons")[0]
    print("== why the two-split hypothesis overtakes the single family")
    print(render.explain_text(after, explain(after, b5, b1)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
