"""The relative-strength preorder over a structure's arguments.

The closed relation is the least reflexive, transitive relation containing
five families of seed pairs:

* declared argument-level relations (an equality seeds both directions);
* declared presumption-level relations, expanded to every pair of arguments
  carrying the two presumptions;
* arguments sharing a presumption rank below those concluding more
  (conclusion implication with equal presumptions);
* an argument whose presumption is strictly more specific dominates one
  with a strictly weaker presumption, whatever the two conclusions;
* optionally, equality across one presumption, and lifting of declared
  presumption-level strengths to conjunction-rule arguments.

Strictness is never seeded: ``a`` is strictly below ``b`` exactly when the
closure holds one way and not the other.  Declared strict or equal pairs
are instead audited afterwards by :func:`check_consistency`, which reports
each violation with a seed-by-seed provenance chain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import UsageError
from .structure import (
    EvidenceStructure,
    KIND_EQUAL,
    KIND_LEQ,
    KIND_STRICT,
    LEVEL_ARGUMENT,
    LEVEL_PRESUMPTION,
    ORIGIN_CONJUNCTION,
    RelationDeclaration,
)

SEED_DECLARATION = "declaration"
SEED_CONSTRAINT_CONCLUSION = "conclusion-implication"
SEED_CONSTRAINT_SPECIFICITY = "presumption-specificity"
SEED_SAME_PRESUMPTION = "same-presumption"
SEED_LIFTING = "conjunction-lifting"


@dataclass(frozen=True)
class SeedReason:
    """Why one seed pair is in the relation."""

    kind: str
    detail: str

    def describe(self) -> str:
        return f"{self.kind}: {self.detail}" if self.detail else self.kind


@dataclass(frozen=True)
class ChainStep:
    """One seeded link ``lower`` is at most ``upper`` in a provenance chain."""

    lower: str
    upper: str
    reason: SeedReason


class OrderClosure:
    """The closed strength relation, queryable by argument id."""

    def __init__(
        self, structure: EvidenceStructure, seeds: dict[tuple[int, int], SeedReason]
    ):
        self.structure = structure
        self.ids = tuple(a.id for a in structure.arguments)
        self._seeds = seeds
        # One seed graph serves both the rows and the chains' tie-break.
        self._successors = _successors(seeds, len(self.ids))
        self._rows = _reach(self._successors)

    def leq(self, lower: str, upper: str) -> bool:
        """Is *lower* at most as strong as *upper*?"""
        position = self.structure.position
        return bool(self._rows[position(lower)] >> position(upper) & 1)

    def provenance_chain(self, lower: str, upper: str) -> list[ChainStep]:
        """A shortest seed-by-seed derivation of ``lower <= upper``.

        Empty for a reflexive pair; raises if the relation does not hold.
        """
        start, goal = self.structure.position(lower), self.structure.position(upper)
        if not self._rows[start] >> goal & 1:
            raise UsageError(f"{lower!r} is not at most {upper!r}; no chain exists")
        if start == goal:
            return []
        parent: dict[int, int] = {start: start}
        queue = deque([start])
        while queue:
            here = queue.popleft()
            if here == goal:
                break
            for there in self._successors[here]:
                if there not in parent:
                    parent[there] = here
                    queue.append(there)
        steps: list[ChainStep] = []
        node = goal
        while node != start:
            prev = parent[node]
            reason = self._seeds[(prev, node)]
            steps.append(ChainStep(self.ids[prev], self.ids[node], reason))
            node = prev
        steps.reverse()
        return steps


def _reach(successors: list[list[int]]) -> list[int]:
    """Reflexive-transitive closure of a graph given by successor lists.

    Row ``i`` is a bitmask holding ``i`` itself and every node a path from
    ``i`` reaches, found by breadth-first search.
    """
    rows: list[int] = []
    for start in range(len(successors)):
        seen = 1 << start
        queue = deque([start])
        while queue:
            for there in successors[queue.popleft()]:
                bit = 1 << there
                if not seen & bit:
                    seen |= bit
                    queue.append(there)
        rows.append(seen)
    return rows


def _successors(pairs, count: int) -> list[list[int]]:
    """Successor lists of the non-loop *pairs*, each list in sorted order."""
    successors: list[list[int]] = [[] for _ in range(count)]
    for (i, j) in sorted(pairs):
        if i != j:
            successors[i].append(j)
    return successors


def _declared_pairs(declaration, structure) -> list[tuple[int, int]]:
    """The (lower, upper) argument positions one declaration relates."""
    if declaration.level == LEVEL_ARGUMENT:
        position = structure.position
        return [(position(declaration.left), position(declaration.right))]
    groups = structure.presumption_groups
    lows = groups.get(declaration.left.models, [])
    highs = groups.get(declaration.right.models, [])
    return [(i, j) for i in lows for j in highs]


def build_closure(structure: EvidenceStructure) -> OrderClosure:
    """Seed and close the strength relation of a structure whose pool is final.

    This makes the structure's declarations final too: a closure would
    silently go stale if one could still be added.
    """
    declarations = structure.seal_declarations()
    arguments = structure.arguments
    # One reason per pair, the first recorded; chains only ever show that.
    seeds: dict[tuple[int, int], SeedReason] = {}

    def seed(i: int, j: int, kind: str, detail: str) -> None:
        if (i, j) not in seeds:
            seeds[(i, j)] = SeedReason(kind, detail)

    for declaration in declarations:
        detail = f"#{declaration.ordinal} {declaration.describe()}"
        for (i, j) in _declared_pairs(declaration, structure):
            seed(i, j, SEED_DECLARATION, detail)
            if declaration.kind == KIND_EQUAL:
                seed(j, i, SEED_DECLARATION, detail)

    # add_support has checked every frame, so raw masks compare directly.
    groups = structure.presumption_groups
    same_presumption_equal = structure.options.same_presumption_equal
    for members in groups.values():
        for i in members:
            lower = arguments[i]
            for j in members:
                if i == j:
                    continue
                upper = arguments[j]
                if lower.conclusion.members & ~upper.conclusion.members == 0:
                    detail = f"{lower.id} concludes a subset of {upper.id}"
                    seed(i, j, SEED_CONSTRAINT_CONCLUSION, detail)
                if same_presumption_equal:
                    detail = f"{lower.id} and {upper.id} share a presumption"
                    seed(i, j, SEED_SAME_PRESUMPTION, detail)
    for weak, lows in groups.items():
        for strong, highs in groups.items():
            if strong == weak or strong & ~weak:
                continue  # strong's presumption is not strictly more specific
            for i in lows:
                for j in highs:
                    low_id, high_id = arguments[i].id, arguments[j].id
                    detail = f"{high_id} presumes strictly more than {low_id}"
                    seed(i, j, SEED_CONSTRAINT_SPECIFICITY, detail)

    if structure.options.conjunction_lifting:
        _seed_lifting(structure, seed)

    return OrderClosure(structure, seeds)


def _seed_lifting(structure: EvidenceStructure, seed) -> None:
    """Seed conjunction-lifting pairs from the declared presumption order."""
    position: dict[int, int] = {}
    declared: list[tuple[int, int]] = []
    for declaration in structure.declarations:
        if declaration.level == LEVEL_PRESUMPTION:
            low = position.setdefault(declaration.left.models, len(position))
            high = position.setdefault(declaration.right.models, len(position))
            declared.append((low, high))
            if declaration.kind == KIND_EQUAL:
                declared.append((high, low))
    rows = _reach(_successors(declared, len(position)))

    def below(x, y) -> bool:
        at, to = position.get(x.models), position.get(y.models)
        return x.models == y.models or (
            at is not None and to is not None and bool(rows[at] >> to & 1)
        )

    def lifted(source, target) -> bool:
        # Both parents sit below the whole target presumption (the collapsed
        # bound), or below the target's two parents, in either pairing.
        return any(
            below(x, target.presumption) and below(y, target.presumption)
            or any(
                below(x, tx) and below(y, ty) or below(x, ty) and below(y, tx)
                for (tx, ty) in target.parents
            )
            for (x, y) in source.parents
        )

    arguments = structure.arguments
    for i, source in enumerate(arguments):
        if ORIGIN_CONJUNCTION not in source.origins or not source.parents:
            continue
        for j, target in enumerate(arguments):
            if i != j and lifted(source, target):
                detail = f"parents of {source.id} are each outweighed toward {target.id}"
                seed(i, j, SEED_LIFTING, detail)


@dataclass(frozen=True)
class Violation:
    """A declared strict/equal relation the closure fails to honour."""

    declaration: RelationDeclaration
    counter: tuple[str, str]  # the pair whose presence (or absence) offends
    chain: tuple[ChainStep, ...]  # derivation of the offending direction

    def describe(self) -> str:
        lower, upper = self.counter
        if self.declaration.kind == KIND_STRICT:
            return (
                f"declared {self.declaration.describe()!r} but the closure also "
                f"makes {lower} at most {upper}"
            )
        return (
            f"declared {self.declaration.describe()!r} but the closure does not "
            f"relate {lower} and {upper} both ways"
        )


@dataclass
class ConsistencyReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_consistency(
    closure: OrderClosure, structure: EvidenceStructure
) -> ConsistencyReport:
    """Audit every declared strict and equal relation against the closure.

    A strict declaration is violated when the reverse direction is also
    derivable (the pair collapsed into an equivalence); the report then
    carries the chain that derives the reverse direction.
    """
    if closure.structure is not structure:
        raise UsageError("closure was built for a different structure")
    report = ConsistencyReport()
    ids, rows = closure.ids, closure._rows
    for declaration in structure.declarations:
        if declaration.kind == KIND_LEQ:
            continue
        for (low, high) in _declared_pairs(declaration, structure):
            up, down = rows[low] >> high & 1, rows[high] >> low & 1
            if declaration.kind == KIND_STRICT and down:
                counter = (ids[high], ids[low])
                chain = tuple(closure.provenance_chain(*counter))
                report.violations.append(Violation(declaration, counter, chain))
            elif declaration.kind == KIND_EQUAL and not (up and down):
                counter = (ids[low], ids[high])
                report.violations.append(Violation(declaration, counter, ()))
    return report
