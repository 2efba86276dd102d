"""Evidence structures: a pool of arguments plus relative-strength declarations.

An argument pairs a satisfiable presumption (evidence sentence) with a
non-empty conclusion.  Arguments enter the pool four ways: declared
directly, expanded from a refutation, generated by the conjunction rule
(two arguments for the same conclusion combine into one with the conjoined
presumption), or generated by disjunction closure.  Semantically equal
duplicates merge, keeping the earliest id and recording every origin.

Strength declarations relate either two named arguments or, wholesale, all
arguments carrying two given presumptions.  They are stored verbatim here;
the order module turns them, together with the structural constraints, into
the closed relation.
"""

from __future__ import annotations

from ._record import field, fields, record, replace
from .errors import DeclarationError, UsageError
from .semantics import ConclusionFrame, ConclusionSentence, EvidenceFrame, EvidenceSentence

ORIGIN_DECLARED = "declared"
ORIGIN_REFUTATION = "refutation-expansion"
ORIGIN_CONJUNCTION = "conjunction-rule"
ORIGIN_DISJUNCTION = "disjunction-closure"

#: Origins that make an argument part of the declared base (the pool the
#: conjunction rule draws from).
BASE_ORIGINS = frozenset({ORIGIN_DECLARED, ORIGIN_REFUTATION})

POLICY_SINGLETONS = "singletons"
POLICY_COMPLEMENT_SET = "complement_set"

KIND_LEQ = "leq"
KIND_STRICT = "strict"
KIND_EQUAL = "equal"

LEVEL_ARGUMENT = "argument"
LEVEL_PRESUMPTION = "presumption"

KIND_SYMBOLS = {KIND_LEQ: "<=", KIND_STRICT: "<", KIND_EQUAL: "~"}

#: The largest ``disjunction_closure_cap``: the closure holds n rows of n
#: bits, so a larger pool would cost seconds and memory quadratic in it.
MAX_DISJUNCTION_CLOSURE_CAP = 4096


@record
class Argument:
    """One argument: presume ``presumption``, conclude ``conclusion``.

    ``origins`` lists every way this argument entered the pool, earliest
    first.  ``parents`` records, for each conjunction-rule derivation, the
    pair of presumptions that were conjoined.
    """

    id: str
    presumption: EvidenceSentence
    conclusion: ConclusionSentence
    origins: tuple[str, ...] = (ORIGIN_DECLARED,)
    parents: tuple[tuple[EvidenceSentence, EvidenceSentence], ...] = ()

    def describe(self) -> str:
        return f"{self.id}: {self.presumption.describe()} => {self.conclusion.describe()}"


@record
class RelationDeclaration:
    """One declared strength relation, at argument or presumption level."""

    level: str  # LEVEL_ARGUMENT or LEVEL_PRESUMPTION
    kind: str  # KIND_LEQ, KIND_STRICT or KIND_EQUAL
    left: "str | EvidenceSentence"
    right: "str | EvidenceSentence"
    ordinal: int = 0  # 1-based position among the structure's declarations

    def describe(self) -> str:
        symbol = KIND_SYMBOLS[self.kind]
        if self.level == LEVEL_ARGUMENT:
            return f"{self.left} {symbol} {self.right}"
        return f"pres({self.left.describe()}) {symbol} pres({self.right.describe()})"


@record
class StructureOptions:
    """Behaviour toggles for building and closing a structure.

    ``same_presumption_equal`` makes arguments sharing one presumption
    equally strong.  ``conjunction_arguments`` runs the conjunction rule
    once over the declared base; ``conjunction_lifting`` additionally lets
    declared presumption-level strengths lift to conjoined presumptions.
    ``disjunction_closure`` iterates pairwise disjunction of arguments to a
    fixpoint, stopping after ``disjunction_closure_cap`` generated arguments.
    Inconsistent settings raise :class:`DeclarationError` on construction.
    """

    same_presumption_equal: bool = True
    conjunction_arguments: bool = False
    conjunction_lifting: bool = False
    disjunction_closure: bool = False
    disjunction_closure_cap: int = 512

    def __post_init__(self):
        if self.conjunction_lifting and not self.conjunction_arguments:
            raise DeclarationError("conjunction_lifting requires conjunction_arguments")
        if self.disjunction_closure_cap <= 0:
            raise DeclarationError("disjunction_closure_cap must be positive")
        if self.disjunction_closure_cap > MAX_DISJUNCTION_CLOSURE_CAP:
            raise DeclarationError(
                f"disjunction_closure_cap must be at most {MAX_DISJUNCTION_CLOSURE_CAP}"
            )


#: Option name to value type, in declaration order.
OPTION_FIELDS = {f.name: type(f.default) for f in fields(StructureOptions)}


def parse_option(item: str) -> tuple[str, bool | int]:
    """Parse one ``name=value`` option assignment; raises DeclarationError."""
    name, separator, raw = item.partition("=")
    name, raw = name.strip(), raw.strip()
    if not separator:
        raise DeclarationError(f"option {item.strip()!r} is not name=value")
    kind = OPTION_FIELDS.get(name)
    if kind is None:
        known = ", ".join(OPTION_FIELDS)
        raise DeclarationError(f"unknown option {name!r} (known: {known})")
    if kind is bool:
        if raw in ("true", "false"):
            return name, raw == "true"
        raise DeclarationError(f"option {name} expects true or false, got {raw!r}")
    try:
        return name, int(raw)
    except ValueError:
        raise DeclarationError(f"option {name} expects an integer, got {raw!r}") from None


@record(frozen=False)
class ValidationReport:
    """What :meth:`EvidenceStructure.validate` found.

    ``errors`` is always empty now that :meth:`~EvidenceStructure.validate`
    only warns.  It stays because ``check --format json`` prints it and
    callers read :attr:`ok`.
    """

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class EvidenceStructure:
    """A pool of arguments and declarations over a pair of frames.

    Add arguments (:meth:`add_support`, :meth:`add_refutation`) and declare
    relations (``declare_*``), then call :meth:`run_generation_passes` once,
    which makes both final, so a closure never goes stale.  Each argument
    and declaration is checked when it is added; the frames and options are
    read-only.
    """

    def __init__(
        self,
        evidence_frame: EvidenceFrame,
        conclusion_frame: ConclusionFrame,
        options: StructureOptions | None = None,
        name: str = "structure",
    ):
        self._evidence_frame = evidence_frame
        self._conclusion_frame = conclusion_frame
        self._options = options or StructureOptions()
        self.name = name
        # Lists while open; the generation passes turn both into tuples.
        self._arguments: list | tuple = []
        self._declarations: list | tuple = []
        self.disjunction_capped = False
        #: Argument positions by presumption models; set when the passes run.
        self.presumption_groups: dict[int, list[int]] | None = None
        self._position: dict[tuple[int, int], int] = {}
        self._by_id: dict[str, int] = {}  # ids and merged-away labels
        self._auto = 0

    @property
    def evidence_frame(self) -> EvidenceFrame:
        return self._evidence_frame

    @property
    def conclusion_frame(self) -> ConclusionFrame:
        return self._conclusion_frame

    @property
    def options(self) -> StructureOptions:
        return self._options

    @property
    def arguments(self) -> tuple[Argument, ...]:
        return tuple(self._arguments)

    @property
    def declarations(self) -> tuple[RelationDeclaration, ...]:
        return tuple(self._declarations)

    # -- building -----------------------------------------------------------

    def _check_open(self) -> None:
        """Raise once the generation passes have run."""
        if self.presumption_groups is not None:
            raise UsageError(
                f"structure {self.name!r} is frozen: it is final once "
                "run_generation_passes() has run; build a new structure instead"
            )

    def _fresh_id(self) -> str:
        while True:
            self._auto += 1
            candidate = f"a{self._auto}"
            if candidate not in self._by_id:
                return candidate

    def _claim(self, label: str, at: int) -> None:
        if label in self._by_id:
            raise DeclarationError(f"duplicate argument label {label!r}")
        self._by_id[label] = at

    def _check_sentences(self, presumption: EvidenceSentence, conclusion: ConclusionSentence):
        if presumption.frame != self.evidence_frame:
            raise UsageError("presumption belongs to a different evidence frame")
        if conclusion.frame != self.conclusion_frame:
            raise UsageError("conclusion belongs to a different conclusion frame")

    def add_support(
        self,
        presumption: EvidenceSentence,
        conclusion: ConclusionSentence,
        label: str | None = None,
    ) -> str:
        """Add one declared argument; returns its id (an existing id on a merge)."""
        return self._add(presumption, conclusion, label, ORIGIN_DECLARED)

    def _add(self, presumption, conclusion, label, origin, parents=()) -> str:
        """Add one argument of *origin*; only the passes record *parents*."""
        self._check_open()
        self._check_sentences(presumption, conclusion)
        pool = self._arguments
        if not presumption.is_satisfiable():
            raise DeclarationError(
                f"unsatisfiable presumption {presumption.describe()!r}"
            )
        if conclusion.is_empty():
            raise DeclarationError("an argument cannot conclude the empty set")
        key = (presumption.models, conclusion.members)
        at = self._position.get(key)
        if at is not None:
            existing = pool[at]
            if label is not None and label != existing.id:
                self._claim(label, at)
            origins = existing.origins
            if origin not in origins:
                origins = origins + (origin,)
            pool[at] = replace(
                existing, origins=origins, parents=existing.parents + parents
            )
            return existing.id
        arg_id = self._fresh_id() if label is None else label
        self._claim(arg_id, len(pool))
        self._position[key] = len(pool)
        pool.append(Argument(arg_id, presumption, conclusion, (origin,), parents))
        return arg_id

    def add_refutation(
        self,
        presumption: EvidenceSentence,
        refuted: ConclusionSentence,
        policy: str = POLICY_SINGLETONS,
    ) -> list[str]:
        """Expand evidence against *refuted* into supports for its rivals."""
        self._check_sentences(presumption, refuted)
        rest = refuted.complement()
        if rest.is_empty():
            raise DeclarationError(
                "refuting the full set of alternatives leaves nothing to support"
            )
        if policy == POLICY_SINGLETONS:
            targets = [
                ConclusionSentence(self.conclusion_frame, 1 << i)
                for i in range(self.conclusion_frame.size)
                if rest.members >> i & 1
            ]
        elif policy == POLICY_COMPLEMENT_SET:
            targets = [rest]
        else:
            raise DeclarationError(f"unknown refutation policy {policy!r}")
        return [
            self._add(presumption, target, None, ORIGIN_REFUTATION)
            for target in targets
        ]

    def position(self, arg_id: str) -> int:
        """Where the argument with this id (or merged-away label) sits in the pool."""
        try:
            return self._by_id[arg_id]
        except KeyError:
            raise UsageError(f"unknown argument id {arg_id!r}") from None

    def argument(self, arg_id: str) -> Argument:
        return self._arguments[self.position(arg_id)]

    def declare_argument_relation(self, kind: str, left: str, right: str) -> None:
        self._check_open()
        if kind not in KIND_SYMBOLS:
            raise DeclarationError(f"unknown relation kind {kind!r}")
        ids = []
        for label in (left, right):
            if label not in self._by_id:
                raise DeclarationError(f"relation references unknown argument {label!r}")
            ids.append(self.argument(label).id)
        self._declarations.append(
            RelationDeclaration(LEVEL_ARGUMENT, kind, *ids, len(self._declarations) + 1)
        )

    def declare_presumption_relation(
        self, kind: str, left: EvidenceSentence, right: EvidenceSentence
    ) -> None:
        self._check_open()
        if kind not in KIND_SYMBOLS:
            raise DeclarationError(f"unknown relation kind {kind!r}")
        for sentence in (left, right):
            if sentence.frame != self.evidence_frame:
                raise UsageError("relation presumption belongs to a different frame")
            if not sentence.is_satisfiable():
                raise DeclarationError(
                    f"relation references unsatisfiable presumption {sentence.describe()!r}"
                )
        self._declarations.append(
            RelationDeclaration(
                LEVEL_PRESUMPTION, kind, left, right, len(self._declarations) + 1
            )
        )

    # -- generation passes --------------------------------------------------

    def run_generation_passes(self) -> None:
        """Apply, in order, every generation pass the options enable.

        Runs once, then makes the pool and the declarations final, so the
        disjunction cap budgets the whole structure; adding, declaring or a
        second run then raises :class:`UsageError`.
        """
        self._check_open()
        pool = self._arguments
        if self._options.conjunction_arguments:
            self._conjoin(pool)
        if self._options.disjunction_closure:
            self._disjoin(pool)
        groups: dict[int, list[int]] = {}
        for i, argument in enumerate(pool):
            groups.setdefault(argument.presumption.models, []).append(i)
        self.presumption_groups = groups
        self._arguments = tuple(pool)
        self._declarations = tuple(self._declarations)

    def _conjoin(self, pool: list[Argument]) -> None:
        """One pass of the conjunction rule over the declared base.

        Two base arguments for one conclusion conjoin into an argument whose
        presumption is the conjunction, provided that is satisfiable.  It
        runs first, so the pool holds only the base.
        """
        base = tuple(pool)
        for i, first in enumerate(base):
            for second in base[i + 1 :]:
                if first.conclusion.members != second.conclusion.members:
                    continue
                joint = first.presumption & second.presumption
                if joint.is_satisfiable():
                    parents = ((first.presumption, second.presumption),)
                    self._add(joint, first.conclusion, None, ORIGIN_CONJUNCTION, parents)

    def _disjoin(self, pool: list[Argument]) -> None:
        """Iterate pairwise disjunction to a fixpoint (or the cap).

        Every pair of arguments spawns one with the disjoined presumptions
        and the union of the conclusions; rounds repeat until nothing new
        appears.  After the first round, a round pairs only with the arguments
        the round before added, in the order of all pairs: older pairs would
        only merge again.  Hitting the cap sets :attr:`disjunction_capped`.
        """
        limit = len(pool) + self._options.disjunction_closure_cap
        done = 0
        while done < len(pool):
            count = len(pool)
            for i in range(count):
                for j in range(max(i + 1, done), count):
                    first, second = pool[i], pool[j]
                    self._add(
                        first.presumption | second.presumption,
                        first.conclusion | second.conclusion,
                        None,
                        ORIGIN_DISJUNCTION,
                    )
                    if len(pool) == limit:
                        self.disjunction_capped = True
                        return
            done = count

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Warn about what is legal but likely unintended.

        Every argument and declaration was checked when it was added, so
        ``errors`` stays empty.
        """
        report = ValidationReport()
        presumed = {argument.presumption.models for argument in self._arguments}
        for argument in self._arguments:
            if argument.conclusion.is_full():
                report.warnings.append(
                    f"argument {argument.id} concludes every alternative (vacuous support)"
                )
        for declaration in self._declarations:
            if declaration.level != LEVEL_PRESUMPTION:
                continue
            for sentence in (declaration.left, declaration.right):
                if sentence.models not in presumed:
                    report.warnings.append(
                        f"relation #{declaration.ordinal}: no argument presumes "
                        f"{sentence.describe()!r}"
                    )
        if self.disjunction_capped:
            report.warnings.append(
                "disjunction closure stopped at the cap "
                f"({self._options.disjunction_closure_cap}); the pool is incomplete"
            )
        return report
