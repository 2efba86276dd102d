"""Comparing conclusions under an observation.

A conclusion is only as believable as the triggered arguments that support
it, where an argument supports a conclusion when its own conclusion implies
it.  One conclusion is at most as believable as another when every argument
for the first is matched by an at-least-as-strong argument for the second;
a conclusion with no support at all sits below anything that has some.
That definition is decided in one place, :func:`leq_conclusions`, and a
pair of its answers becomes a verdict through one table.  Everything else
here (verdicts, plausibility, maximal candidates, diagrams, explanations) is
bookkeeping over it: ``explain`` takes both directions from it as well, and
the matches it lists are for display only.  None of it ever invents an
order where the arguments are silent: ties and incomparable pairs are
reported, never broken.

The kernel decides on signatures: bit masks over pool positions that a view
caches per conclusion on first use (``SupportMasks.signature``).  S(p) holds
the triggered supports of p, D(q) the triggered arguments at most as strong
as one of S(q).  Then p <= q is ``S(p) & ~D(q) == 0``, or ``S(q) != 0`` when
S(p) is empty, with no closure lookup per support pair.  The frame of a
conclusion is checked on every lookup, cached or not.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

from ._record import record
from .conditioning import ConditionedStructure
from .errors import ResError, UsageError
from .order import ChainStep
from .semantics import ConclusionFrame, ConclusionSentence
from .structure import Argument


class ComparisonVerdict(enum.Enum):
    STRICTLY_LESS = "StrictlyLess"
    STRICTLY_GREATER = "StrictlyGreater"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"

    # Members are singletons, so identity hashes them, in C; no set of
    # verdicts is ever iterated into output.
    __hash__ = object.__hash__


def supports_of(
    conditioned: ConditionedStructure, p: ConclusionSentence
) -> list[Argument]:
    """Triggered arguments whose conclusion implies *p*, in triggered order."""
    masks = conditioned.support_masks
    support = masks.signature(p)[0]
    return [a for a, bit in zip(conditioned.triggered, masks.bits) if support & bit]


def leq_conclusions(
    conditioned: ConditionedStructure,
    first: ConclusionSentence,
    second: ConclusionSentence,
) -> bool:
    """Is *first* at most as believable as *second* under the observation?"""
    signature = conditioned.support_masks.signature
    base = signature(first)[0]
    support, dominated = signature(second)
    return base & ~dominated == 0 if base else support != 0


# The verdict for (first <= second, second <= first).
_VERDICTS = {
    (True, True): ComparisonVerdict.EQUAL,
    (True, False): ComparisonVerdict.STRICTLY_LESS,
    (False, True): ComparisonVerdict.STRICTLY_GREATER,
    (False, False): ComparisonVerdict.INCOMPARABLE,
}
# The verdict for (second, first), given the one for (first, second).
_MIRRORED = {verdict: _VERDICTS[b, a] for (a, b), verdict in _VERDICTS.items()}


def compare(
    conditioned: ConditionedStructure,
    first: ConclusionSentence,
    second: ConclusionSentence,
) -> ComparisonVerdict:
    return _VERDICTS[
        leq_conclusions(conditioned, first, second),
        leq_conclusions(conditioned, second, first),
    ]


def is_plausible(conditioned: ConditionedStructure, p: ConclusionSentence) -> bool:
    """Is *p* strictly more believable than its complement?"""
    if p.is_empty() or p.is_full():
        raise UsageError("plausibility needs a non-empty, non-full conclusion")
    return (
        compare(conditioned, p.complement(), p) is ComparisonVerdict.STRICTLY_LESS
    )


@record
class RankResult:
    """Pairwise verdicts over a candidate list, with nothing invented.

    ``strata`` peels maximal layers off repeatedly; its first layer,
    ``maximal``, holds the candidates no other candidate strictly beats.
    The strata are a presentation aid, the ``matrix`` is the authority.
    """

    candidates: tuple[ConclusionSentence, ...]
    matrix: tuple[tuple[ComparisonVerdict, ...], ...]
    strata: tuple[tuple[ConclusionSentence, ...], ...]

    @property
    def maximal(self) -> tuple[ConclusionSentence, ...]:
        return self.strata[0]


def rank(
    conditioned: ConditionedStructure, candidates: Sequence[ConclusionSentence]
) -> RankResult:
    if not candidates:
        raise UsageError("rank needs at least one candidate")
    count, less = len(candidates), ComparisonVerdict.STRICTLY_LESS
    matrix = [[None] * count for _ in range(count)]
    for i, first in enumerate(candidates):
        row = matrix[i]
        for j in range(i, count):
            row[j] = verdict = compare(conditioned, first, candidates[j])
            matrix[j][i] = _MIRRORED[verdict]
    beaten_by = [  # bit j: candidate j strictly beats candidate i
        sum(1 << j for j, verdict in enumerate(row) if verdict is less and j != i)
        for i, row in enumerate(matrix)
    ]
    strata: list[tuple[ConclusionSentence, ...]] = []
    remaining = (1 << count) - 1
    while remaining:
        layer = [
            i for i in range(count) if remaining >> i & 1 and not beaten_by[i] & remaining
        ]
        if not layer:  # only a faulty kernel can make the strict order cyclic
            raise ResError("the strict order over the candidates is cyclic")
        strata.append(tuple(candidates[i] for i in layer))
        remaining &= ~sum(1 << i for i in layer)
    return RankResult(tuple(candidates), tuple(map(tuple, matrix)), tuple(strata))


@record
class HasseDiagram:
    """Candidates grouped into equal-believability classes, with cover edges.

    ``edges`` pairs class indices ``(lower, higher)`` and is the transitive
    reduction of the strict relation between classes.
    """

    classes: tuple[tuple[ConclusionSentence, ...], ...]
    edges: tuple[tuple[int, int], ...]


def hasse(
    conditioned: ConditionedStructure, candidates: Sequence[ConclusionSentence]
) -> HasseDiagram:
    result = rank(conditioned, candidates)
    matrix = result.matrix
    # Group mutually-equal candidates; first occurrence names the class.
    classes: list[list[int]] = []
    for i in range(len(candidates)):
        home = next((g for g in classes if matrix[g[0]][i] is ComparisonVerdict.EQUAL), None)
        if home is None:
            classes.append([i])
        else:
            home.append(i)

    def less(a: int, b: int) -> bool:
        return matrix[classes[a][0]][classes[b][0]] is ComparisonVerdict.STRICTLY_LESS

    total = len(classes)
    edges = []
    for a in range(total):
        for b in range(total):
            if a == b or not less(a, b):
                continue
            if any(less(a, c) and less(c, b) for c in range(total)):
                continue  # not a covering pair
            edges.append((a, b))
    return HasseDiagram(
        tuple(tuple(result.candidates[i] for i in group) for group in classes),
        tuple(edges),
    )


@record
class SupportMatch:
    """One support of the weaker side and what, if anything, outweighs it."""

    support: str
    matched_by: str | None
    provenance: tuple[ChainStep, ...] = ()


@record
class DirectionTrace:
    """Evidence for or against ``source <= target``.

    ``holds`` is :func:`leq_conclusions`; the matches only show why.  With
    supports on the source side, each one is shown beside a rival at or
    above it, or none (it is then ``unmatched``).  With none, the direction
    rests solely on whether the target is supported at all.
    """

    source: ConclusionSentence
    target: ConclusionSentence
    holds: bool
    matches: tuple[SupportMatch, ...]
    target_supports: tuple[str, ...]

    @property
    def source_supported(self) -> bool:
        return bool(self.matches)

    @property
    def unmatched(self) -> tuple[str, ...]:
        return tuple(m.support for m in self.matches if m.matched_by is None)


@record
class ExplanationTrace:
    left: ConclusionSentence
    right: ConclusionSentence
    verdict: ComparisonVerdict
    forward: DirectionTrace  # left <= right
    backward: DirectionTrace  # right <= left


def explain(
    conditioned: ConditionedStructure,
    left: ConclusionSentence,
    right: ConclusionSentence,
) -> ExplanationTrace:
    """The comparison verdict together with enough detail to recheck it."""
    forward = _trace_direction(conditioned, left, right)
    backward = _trace_direction(conditioned, right, left)
    verdict = _VERDICTS[forward.holds, backward.holds]
    return ExplanationTrace(left, right, verdict, forward, backward)


def _trace_direction(conditioned, source, target) -> DirectionTrace:
    rival_ids = tuple(b.id for b in supports_of(conditioned, target))
    closure = conditioned.closure
    matches = []
    for argument in supports_of(conditioned, source):
        if argument.id in rival_ids:
            chosen = argument.id  # an argument always matches itself
        else:
            chosen = next((b for b in rival_ids if closure.leq(argument.id, b)), None)
        chain = () if chosen is None else closure.provenance_chain(argument.id, chosen)
        matches.append(SupportMatch(argument.id, chosen, tuple(chain)))
    holds = leq_conclusions(conditioned, source, target)
    return DirectionTrace(source, target, holds, tuple(matches), rival_ids)


def candidate_sentences(frame: ConclusionFrame, mode: str) -> list[ConclusionSentence]:
    """Candidate sets for ranking: ``singletons``, ``singletons+complements``
    or ``all`` non-empty subsets (the latter only for small frames)."""
    singles = [ConclusionSentence(frame, 1 << i) for i in range(frame.size)]
    if mode == "singletons":
        return singles
    if mode == "singletons+complements":
        out = list(singles)
        seen = {s.members for s in singles}
        for single in singles:
            other = single.complement()
            if other.members not in seen and not other.is_empty():
                seen.add(other.members)
                out.append(other)
        return out
    if mode == "all":
        if frame.size > 5:
            raise UsageError(
                "candidate mode 'all' is limited to frames with at most 5 alternatives"
            )
        return [
            ConclusionSentence(frame, members)
            for members in range(1, frame.full_mask + 1)
        ]
    raise UsageError(f"unknown candidate mode {mode!r}")
