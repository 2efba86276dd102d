#!/usr/bin/env python3
"""Search random structures for non-monotonicity and non-cumulativity.

Two behaviors separate this engine from cumulative reasoning systems:

* a plausible conclusion can stop being plausible when the observation is
  strengthened (non-monotonicity), and
* conditioning on ``e`` and then on ``e'`` is not the same as conditioning
  on ``e & e'`` in one step (non-cumulativity), because an argument whose
  presumption needs both parts never survives the first step.

This script samples random structures and observation pairs, measures how
often each behavior shows up, and prints the first few concrete witnesses
as ready-to-run documents.

Usage::

    python scripts/find_witnesses.py --trials 2000 --seed 7
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass

from res import (
    ConclusionFrame,
    EvidenceFrame,
    EvidenceStructure,
    StructureOptions,
    build_closure,
    condition,
    is_plausible,
)
from res.semantics import ConclusionSentence, EvidenceSentence

ATOMS = ("w", "x", "y", "z")
ALTERNATIVES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class SearchConfig:
    trials: int = 2000
    seed: int = 7
    max_atoms: int = 3
    max_arguments: int = 6
    show: int = 2  # witnesses of each kind to print in full


def random_structure(rng: random.Random, config: SearchConfig):
    atom_count = rng.randint(1, config.max_atoms)
    frame = EvidenceFrame(ATOMS[:atom_count])
    conclusion_frame = ConclusionFrame(ALTERNATIVES[: rng.randint(2, 4)])
    structure = EvidenceStructure(
        frame, conclusion_frame, StructureOptions(), "sampled"
    )
    full = frame.full_mask
    for _ in range(rng.randint(1, config.max_arguments)):
        presumption = EvidenceSentence(frame, rng.randint(1, full))
        conclusion = ConclusionSentence(
            conclusion_frame, rng.randint(1, conclusion_frame.full_mask)
        )
        structure.add_support(presumption, conclusion)
    structure.run_generation_passes()
    return structure, build_closure(structure)


def random_given_pair(rng: random.Random, frame) -> tuple:
    wider = rng.randint(1, frame.full_mask)
    narrower = wider & rng.randint(1, frame.full_mask)
    return (narrower or wider), wider


def document_text(structure) -> str:
    lines = [
        f"structure {structure.name}",
        "evidence atoms: " + ", ".join(structure.evidence_frame.atoms),
        "alternatives: " + ", ".join(structure.conclusion_frame.alternatives),
    ]
    for argument in structure.arguments:
        lines.append(
            f"arg {argument.id}: {argument.presumption.describe()} "
            f"=> {argument.conclusion.describe()}"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    defaults = SearchConfig()
    parser.add_argument("--trials", type=int, default=defaults.trials)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--max-atoms", type=int, default=defaults.max_atoms)
    parser.add_argument(
        "--max-arguments", type=int, default=defaults.max_arguments
    )
    parser.add_argument("--show", type=int, default=defaults.show)
    args = parser.parse_args()
    config = SearchConfig(
        args.trials, args.seed, args.max_atoms, args.max_arguments, args.show
    )

    rng = random.Random(config.seed)
    monotonicity_flips = 0
    cumulativity_gaps = 0
    shown_flips = 0
    shown_gaps = 0

    for _ in range(config.trials):
        structure, closure = random_structure(rng, config)
        frame = structure.evidence_frame
        narrower_mask, wider_mask = random_given_pair(rng, frame)
        narrower = EvidenceSentence(frame, narrower_mask)
        wider = EvidenceSentence(frame, wider_mask)

        weak_case = condition(structure, closure, wider)
        strong_case = condition(structure, closure, narrower)

        # Non-monotonicity: plausible under the weaker observation, not
        # under the stronger one.
        conclusion_frame = structure.conclusion_frame
        members = rng.randint(1, conclusion_frame.full_mask - 1)
        candidate = ConclusionSentence(conclusion_frame, members)
        if is_plausible(weak_case, candidate) and not is_plausible(
            strong_case, candidate
        ):
            monotonicity_flips += 1
            if shown_flips < config.show:
                shown_flips += 1
                print("-- non-monotonicity witness")
                print(document_text(structure))
                print(
                    f"plausible({candidate.describe()}) holds given "
                    f"{wider.describe()} but fails given {narrower.describe()}"
                )
                print()

        # Non-cumulativity: condition on the wider sentence, keep the
        # survivors the narrower one still entails, and compare with
        # conditioning on the narrower sentence directly.
        survivors = [
            a
            for a in weak_case.triggered
            if narrower.implies(a.presumption)
        ]
        direct = list(strong_case.triggered)
        if [a.id for a in survivors] != [a.id for a in direct]:
            cumulativity_gaps += 1
            if shown_gaps < config.show:
                shown_gaps += 1
                print("-- non-cumulativity witness")
                print(document_text(structure))
                print(
                    f"two steps ({wider.describe()} then "
                    f"{narrower.describe()}) trigger "
                    f"{[a.id for a in survivors]}; one step triggers "
                    f"{[a.id for a in direct]}"
                )
                print()

    print(
        f"{config.trials} trials: "
        f"{monotonicity_flips} non-monotonicity flips "
        f"({monotonicity_flips / config.trials:.1%}), "
        f"{cumulativity_gaps} non-cumulativity gaps "
        f"({cumulativity_gaps / config.trials:.1%})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
