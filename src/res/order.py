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

Every seed is found by index or sorted scan: a presumption group meets only
the groups with fewer models, and lifting looks its targets up by
presumption and by parent pair.  A seed pair keeps
only its first cause; its :class:`SeedReason` is built on demand.

Strictness is never seeded: ``a`` is strictly below ``b`` exactly when the
closure holds one way and not the other.  Declared strict or equal pairs
are instead audited afterwards by :func:`check_consistency`, which reports
each violation with a seed-by-seed provenance chain.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations, product

from ._record import field, record
from .errors import UsageError
from .structure import (
    EvidenceStructure,
    KIND_EQUAL,
    KIND_LEQ,
    KIND_STRICT,
    LEVEL_ARGUMENT,
    LEVEL_PRESUMPTION,
    RelationDeclaration,
)

SEED_DECLARATION = "declaration"
SEED_CONSTRAINT_CONCLUSION = "conclusion-implication"
SEED_CONSTRAINT_SPECIFICITY = "presumption-specificity"
SEED_SAME_PRESUMPTION = "same-presumption"
SEED_LIFTING = "conjunction-lifting"


@record
class SeedReason:
    """Why one seed pair is in the relation."""

    kind: str
    detail: str

    def describe(self) -> str:
        return f"{self.kind}: {self.detail}" if self.detail else self.kind


@record
class ChainStep:
    """One seeded link ``lower`` is at most ``upper`` in a provenance chain."""

    lower: str
    upper: str
    reason: SeedReason


#: The detail of each structural seed kind, from the lower and upper ids.
_DETAILS = {
    SEED_CONSTRAINT_CONCLUSION: "{0} concludes a subset of {1}",
    SEED_SAME_PRESUMPTION: "{0} and {1} share a presumption",
    SEED_CONSTRAINT_SPECIFICITY: "{1} presumes strictly more than {0}",
    SEED_LIFTING: "parents of {0} are each outweighed toward {1}",
}


class OrderClosure:
    """The closed strength relation, queryable by argument id.

    *seeds* maps each seed pair of positions to its cause, a seed kind or a
    declaration, as :func:`build_closure` finds them: specificity over the
    presumption groups sorted by model count, lifting by presumption and
    parent-pair lookup.  :meth:`_reason` builds the reason when a chain
    shows it.
    """

    def __init__(self, structure: EvidenceStructure, seeds: dict):
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

    def _reason(self, i: int, j: int) -> SeedReason:
        """Why the seed pair of positions ``(i, j)`` is in the relation."""
        cause = self._seeds[(i, j)]
        if isinstance(cause, RelationDeclaration):
            return SeedReason(SEED_DECLARATION, f"#{cause.ordinal} {cause.describe()}")
        return SeedReason(cause, _DETAILS[cause].format(self.ids[i], self.ids[j]))

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
        path = [goal]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()
        return [
            ChainStep(self.ids[i], self.ids[j], self._reason(i, j))
            for i, j in zip(path, path[1:])
        ]


def _reach(successors: list[list[int]]) -> list[int]:
    """Reflexive-transitive closure of a graph given by successor lists.

    Row ``i`` is a bitmask holding ``i`` itself and every node a path from
    ``i`` reaches.  A search from ``start`` takes the finished row of each
    node below ``start`` it meets whole, instead of searching past it.
    """
    rows: list[int] = []
    for start in range(len(successors)):
        seen = 1 << start
        stack = [start]
        while stack:
            for there in successors[stack.pop()]:
                if seen >> there & 1:
                    continue
                if there < start:
                    seen |= rows[there]
                else:
                    seen |= 1 << there
                    stack.append(there)
        rows.append(seen)
    return rows


def _successors(pairs, count: int) -> list[list[int]]:
    """Successor lists of the non-loop *pairs*, each list in sorted order."""
    successors: list[list[int]] = [[] for _ in range(count)]
    for (i, j) in pairs:
        if i != j:
            successors[i].append(j)
    return [sorted(nexts) for nexts in successors]


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
    # The passes run in a fixed order, and each pair keeps its first cause.
    seeds: dict[tuple[int, int], str | RelationDeclaration] = {}
    seed = seeds.setdefault

    for declaration in declarations:
        for (i, j) in _declared_pairs(declaration, structure):
            seed((i, j), declaration)
            if declaration.kind == KIND_EQUAL:
                seed((j, i), declaration)

    # add_support has checked every frame, so raw masks compare directly.
    groups = structure.presumption_groups
    same_presumption_equal = structure.options.same_presumption_equal
    for members in groups.values():
        for (i, j) in permutations(members, 2):
            upper = arguments[j].conclusion.members
            if arguments[i].conclusion.members | upper == upper:
                seed((i, j), SEED_CONSTRAINT_CONCLUSION)
            elif same_presumption_equal:
                seed((i, j), SEED_SAME_PRESUMPTION)
    # A strictly more specific presumption has fewer models, so it sorts
    # earlier.
    for (strong, weak) in combinations(sorted(groups, key=int.bit_count), 2):
        if strong | weak == weak:
            for pair in product(groups[weak], groups[strong]):
                seed(pair, SEED_CONSTRAINT_SPECIFICITY)

    if structure.options.conjunction_lifting:
        _seed_lifting(structure, seed)

    return OrderClosure(structure, seeds)


def _seed_lifting(structure: EvidenceStructure, seed) -> None:
    """Seed conjunction-lifting pairs from the declared presumption order.

    Parents ``(x, y)`` lift to each target presuming something above both,
    or with parents above ``x`` and ``y`` in either pairing: the targets are
    looked up by presumption and by parent pair.
    """
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
    # The declared presumptions each mask lies below, the mask itself included.
    above = {mask: {high for high, k in position.items() if row >> k & 1}
             for mask, row in zip(position, rows)}

    arguments = structure.arguments
    by_pair: dict[tuple[int, int], list[int]] = {}
    for j, target in enumerate(arguments):
        for (tx, ty) in target.parents:
            by_pair.setdefault((tx.models, ty.models), []).append(j)
            by_pair.setdefault((ty.models, tx.models), []).append(j)
    groups = structure.presumption_groups
    for i, source in enumerate(arguments):
        for (x, y) in source.parents:
            up_x, up_y = (above.get(p.models, {p.models}) for p in (x, y))
            targets = [j for u in up_x & up_y for j in groups.get(u, ())]
            targets += [j for u in up_x for v in up_y for j in by_pair.get((u, v), ())]
            for j in set(targets) - {i}:
                seed((i, j), SEED_LIFTING)


@record
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


@record(frozen=False)
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
