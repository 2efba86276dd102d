#!/usr/bin/env python3
"""Walk the small three-alternative structure through its four observations.

For each way of observing the two evidence atoms, print which arguments
trigger, the pairwise ranking of the three alternatives, and whether the
first alternative is more believable than its complement.  The last case
also shows how a presumption-strength declaration refines an otherwise
incomparable pair.

Usage::

    python scripts/run_example1.py [--format text|json]
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
    is_plausible,
    load_structure,
    rank,
    render,
)

CASES = [
    ("neither atom holds", "!e1 & !e2"),
    ("only the refuting atom holds", "!e1 & e2"),
    ("only the supporting atom holds", "e1 & !e2"),
    ("both atoms hold", "e1 & e2"),
]
REFINEMENT = "rel: pres(e2) < pres(e1)"


def run_case(structure, closure, title, formula, fmt):
    given = build_sentence(structure.evidence_frame, formula)
    conditioned = condition(structure, closure, given)
    candidates = candidate_sentences(structure.conclusion_frame, "singletons")
    result = rank(conditioned, candidates)
    al1 = candidates[0]

    print(f"== {title}: given {formula}")
    if fmt == "json":
        print(render.rank_json(conditioned, result))
    else:
        print(render.condition_text(conditioned))
        print()
        print(render.rank_text(conditioned, result))
    print(render.plausible_text(conditioned, al1, is_plausible(conditioned, al1)))
    print()


def show_refinement(fmt):
    """Declaring e2-arguments strictly below e1-arguments settles Al1 vs Al3."""
    structure = load_structure(fixture_text("example1.res") + REFINEMENT + "\n")
    closure = build_closure(structure)
    conditioned = condition(
        structure, closure, build_sentence(structure.evidence_frame, "e1 & e2")
    )
    al1, _, al3 = candidate_sentences(structure.conclusion_frame, "singletons")
    trace = explain(conditioned, al1, al3)
    print(f"== both atoms hold, with {REFINEMENT}")
    if fmt == "json":
        print(render.explain_json(conditioned, trace))
    else:
        print(render.explain_text(conditioned, trace))
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args()

    structure = load_structure(fixture_text("example1.res"))
    closure = build_closure(structure)
    print(f"structure {structure.name}: "
          f"{len(structure.arguments)} arguments after refutation expansion")
    print()
    for title, formula in CASES:
        run_case(structure, closure, title, formula, args.format)
    show_refinement(args.format)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
