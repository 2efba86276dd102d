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

The seeds are one successor bit mask per argument.  :func:`build_closure`
ORs in the declarations, the same-presumption masks and lifting (looked up
by presumption and by parent pair) at once.  Nothing else is closed until
it is read: a presumption group's specificity seeds, found among the groups
with fewer models, when a search first expands one of its members, and an
argument's row when it is first read.  Both are memoised.  Only a declared
pair keeps its cause; any other pair's :class:`SeedReason` is worked out
from its two arguments when a chain shows it.

Strictness is never seeded: ``a`` is strictly below ``b`` exactly when the
closure holds one way and not the other.  Declared strict pairs are instead
audited afterwards by :func:`check_consistency`, which reports each
violation with a seed-by-seed provenance chain.
"""

from __future__ import annotations

from collections import deque

from ._record import field, record
from .errors import UsageError
from .structure import (
    EvidenceStructure,
    KIND_EQUAL,
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

    *seeds* holds each argument position's eagerly found seeds as one bit
    mask, *bits* each presumption group's members as one, and *declared*
    each declared pair's first declaration; :meth:`_reason` works out any
    other seed pair's cause from its two arguments.  Rows and full successor
    masks (the seeds with specificity added) are closed on first read and
    memoised in ``_rows`` and ``_successors``, where ``0`` means not yet:
    each holds its own argument, so none is ever ``0``.
    """

    def __init__(self, structure: EvidenceStructure, seeds: list, declared: dict,
                 bits: dict):
        self.structure = structure
        self.ids = tuple(a.id for a in structure.arguments)
        self._seeds = seeds
        self._declared = declared
        self._bits = bits
        # A strictly more specific presumption has fewer models: it sorts earlier.
        self._groups = sorted(bits, key=int.bit_count)
        self._successors = [0] * len(seeds)
        self._rows = [0] * len(seeds)

    def _row(self, i: int) -> int:
        """Row *i*: *i* and every position it is at most as strong as."""
        return self._rows[i] or _reach(i, self._rows, self._successors, self._successors_of)

    def _successors_of(self, i: int) -> int:
        """The full successor mask of *i*, filling in those of its whole group."""
        if not self._successors[i]:
            weak, groups = self.structure.arguments[i].presumption.models, self._groups
            stronger = sum(self._bits[strong] for strong in groups[:groups.index(weak)]
                           if strong | weak == weak)
            for j in self.structure.presumption_groups[weak]:
                self._successors[j] = self._seeds[j] | stronger
        return self._successors[i]

    def leq(self, lower: str, upper: str) -> bool:
        """Is *lower* at most as strong as *upper*?"""
        position = self.structure.position
        i = position(lower)
        return bool((self._rows[i] or self._row(i)) >> position(upper) & 1)

    def _reason(self, i: int, j: int) -> SeedReason:
        """The first cause of seed pair ``(i, j)``, in the order seeds are found."""
        if (i, j) in self._declared:
            cause = self._declared[(i, j)]
            return SeedReason(SEED_DECLARATION, f"#{cause.ordinal} {cause.describe()}")
        low, high = self.structure.arguments[i], self.structure.arguments[j]
        kind = SEED_LIFTING
        if low.presumption.models != high.presumption.models:
            if high.presumption.implies(low.presumption):
                kind = SEED_CONSTRAINT_SPECIFICITY
        elif low.conclusion.implies(high.conclusion):
            kind = SEED_CONSTRAINT_CONCLUSION
        elif self.structure.options.same_presumption_equal:
            kind = SEED_SAME_PRESUMPTION
        return SeedReason(kind, _DETAILS[kind].format(self.ids[i], self.ids[j]))

    def provenance_chain(self, lower: str, upper: str) -> list[ChainStep]:
        """A shortest seed-by-seed derivation of ``lower <= upper``.

        Breadth-first, visiting successors lowest position first.  Empty
        for a reflexive pair; raises if the relation does not hold.
        """
        start, goal = self.structure.position(lower), self.structure.position(upper)
        if not self._row(start) >> goal & 1:
            raise UsageError(f"{lower!r} is not at most {upper!r}; no chain exists")
        if start == goal:
            return []
        # Closing a row expands every position it holds, so every position
        # the search meets has its full successor mask.
        parent, seen, queue = {}, 1 << start, deque([start])
        while True:
            here = queue.popleft()
            fresh = self._successors[here] & ~seen
            if fresh >> goal & 1:
                break
            seen |= fresh
            while fresh:
                there = (fresh & -fresh).bit_length() - 1
                parent[there] = here
                queue.append(there)
                fresh &= fresh - 1
        path = [goal, here]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()
        return [
            ChainStep(self.ids[i], self.ids[j], self._reason(i, j))
            for i, j in zip(path, path[1:])
        ]


def _reach(start: int, rows: list[int], successors: list[int], expand) -> int:
    """Close row *start* of a graph given by successor masks; memoise it in *rows*.

    Row ``i`` is a bitmask holding ``i`` itself and every node a path from
    ``i`` reaches.  ``0`` in *rows* marks a row not closed yet, and ``0`` in
    *successors* a mask that ``expand(node)`` gives.  The search expands one
    frontier mask at a time, and takes the finished row of each node it
    meets whole, instead of searching past it.
    """
    seen, reach = 1 << start, successors[start] or expand(start)
    while frontier := reach & ~seen:
        seen |= frontier
        reach = 0
        while frontier:
            node = (frontier & -frontier).bit_length() - 1
            if row := rows[node]:
                seen |= row
                frontier &= ~row
            else:
                reach |= successors[node] or expand(node)
                frontier &= frontier - 1
    rows[start] = seen
    return seen


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
    """Seed and close the strength relation of a final structure, reading it only."""
    if structure.presumption_groups is None:
        raise UsageError(
            f"structure {structure.name!r}: call run_generation_passes() before "
            "building a closure"
        )
    arguments = structure.arguments
    seeds = [0] * len(arguments)
    # Only a declared pair keeps its cause: the first declaration of it.
    declared: dict[tuple[int, int], RelationDeclaration] = {}
    for declaration in structure.declarations:
        for (i, j) in _declared_pairs(declaration, structure):
            seeds[i] |= 1 << j
            declared.setdefault((i, j), declaration)
            if declaration.kind == KIND_EQUAL:
                seeds[j] |= 1 << i
                declared.setdefault((j, i), declaration)

    # add_support has checked every frame, so raw masks compare directly.
    groups = structure.presumption_groups
    bits = {models: sum(1 << i for i in members) for models, members in groups.items()}
    same_presumption_equal = structure.options.same_presumption_equal
    for models, members in groups.items():
        for i in members:
            lower = arguments[i].conclusion.members
            seeds[i] |= bits[models] if same_presumption_equal else sum(
                1 << j for j in members if not lower & ~arguments[j].conclusion.members
            )

    if structure.options.conjunction_lifting:
        _seed_lifting(structure, seeds, bits)

    return OrderClosure(structure, seeds, declared, bits)


def _seed_lifting(structure, seeds: list[int], bits: dict[int, int]) -> None:
    """OR the conjunction-lifting seeds into *seeds*.

    Parents ``(x, y)`` lift to each target presuming something above both
    in the declared presumption order, or with parents above ``x`` and
    ``y`` in either pairing.  The targets are looked up by parent pair, a
    presumption ``u`` standing as the pair ``(u, u)`` for its group *bits*.
    """
    position: dict[int, int] = {}
    declared: list[int] = []
    for declaration in structure.declarations:
        if declaration.level == LEVEL_PRESUMPTION:
            low = position.setdefault(declaration.left.models, len(position))
            high = position.setdefault(declaration.right.models, len(position))
            declared += [0] * (len(position) - len(declared))
            declared[low] |= 1 << high
            if declaration.kind == KIND_EQUAL:
                declared[high] |= 1 << low
    rows = [0] * len(declared)
    for k in range(len(declared)):  # every mask is known, so expand only reads
        _reach(k, rows, declared, declared.__getitem__)
    # The declared presumptions each mask lies below, the mask itself included.
    above = {mask: {high for high, k in position.items() if row >> k & 1}
             for mask, row in zip(position, rows)}

    arguments = structure.arguments
    by_pair = {(u, u): mask for u, mask in bits.items()}
    for j, target in enumerate(arguments):
        for (tx, ty) in target.parents:
            for pair in ((tx.models, ty.models), (ty.models, tx.models)):
                by_pair[pair] = by_pair.get(pair, 0) | 1 << j
    for i, source in enumerate(arguments):
        for (x, y) in source.parents:
            up_x, up_y = (above.get(p.models, {p.models}) for p in (x, y))
            for u in up_x:
                for v in up_y:
                    seeds[i] |= by_pair.get((u, v), 0)


@record
class Violation:
    """A declared strict relation the closure fails to honour."""

    declaration: RelationDeclaration
    counter: tuple[str, str]  # the reverse pair, whose presence offends
    chain: tuple[ChainStep, ...]  # derivation of the reverse pair

    def describe(self) -> str:
        lower, upper = self.counter
        return (f"declared {self.declaration.describe()!r} but the closure also "
                f"makes {lower} at most {upper}")


@record(frozen=False)
class ConsistencyReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_consistency(
    closure: OrderClosure, structure: EvidenceStructure
) -> ConsistencyReport:
    """Audit every declared strict relation against the closure.

    A strict declaration is violated when the reverse direction is also
    derivable (the pair collapsed into an equivalence); the report then
    carries the chain that derives the reverse direction.  An equal
    declaration seeds both directions, so it always holds.
    """
    if closure.structure is not structure:
        raise UsageError("closure was built for a different structure")
    report = ConsistencyReport()
    ids, row = closure.ids, closure._row
    for declaration in structure.declarations:
        if declaration.kind != KIND_STRICT:
            continue
        for (low, high) in _declared_pairs(declaration, structure):
            if row(high) >> low & 1:
                counter = (ids[high], ids[low])
                chain = tuple(closure.provenance_chain(*counter))
                report.violations.append(Violation(declaration, counter, chain))
    return report
