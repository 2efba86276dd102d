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

from dataclasses import dataclass, field, fields, replace

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class EvidenceStructure:
    """A mutable pool of arguments and declarations over a pair of frames.

    Build it up with :meth:`add_support`, :meth:`add_refutation` and the
    ``declare_*`` methods, run the generation passes the options ask for,
    then :meth:`validate` and hand it to :func:`res.order.build_closure`.
    That call freezes the structure: adding an argument or a declaration
    afterwards raises :class:`UsageError`, since the closure would go stale.
    """

    def __init__(
        self,
        evidence_frame: EvidenceFrame,
        conclusion_frame: ConclusionFrame,
        options: StructureOptions | None = None,
        name: str = "structure",
    ):
        self.evidence_frame = evidence_frame
        self.conclusion_frame = conclusion_frame
        self.options = options or StructureOptions()
        self.name = name
        self.arguments: list[Argument] = []
        self.declarations: list[RelationDeclaration] = []
        self.disjunction_capped = False
        self.frozen = False  # set by build_closure
        self._position: dict[tuple[int, int], int] = {}
        self._by_id: dict[str, int] = {}
        self._aliases: dict[str, str] = {}
        self._auto = 0

    # -- building -----------------------------------------------------------

    def _check_open(self) -> None:
        if self.frozen:
            raise UsageError(
                f"structure {self.name!r} is frozen because a closure was built "
                "from it; build a new structure instead"
            )

    def _fresh_id(self) -> str:
        while True:
            self._auto += 1
            candidate = f"a{self._auto}"
            if candidate not in self._by_id and candidate not in self._aliases:
                return candidate

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
        origin: str = ORIGIN_DECLARED,
        parents: tuple[tuple[EvidenceSentence, EvidenceSentence], ...] = (),
    ) -> str:
        """Add one argument; returns its id (an existing id on a merge)."""
        self._check_open()
        self._check_sentences(presumption, conclusion)
        if not presumption.is_satisfiable():
            raise DeclarationError(
                f"unsatisfiable presumption {presumption.describe()!r}"
            )
        if conclusion.is_empty():
            raise DeclarationError("an argument cannot conclude the empty set")
        key = (presumption.models, conclusion.members)
        at = self._position.get(key)
        if at is not None:
            existing = self.arguments[at]
            origins = existing.origins
            if origin not in origins:
                origins = origins + (origin,)
            merged = replace(
                existing, origins=origins, parents=existing.parents + parents
            )
            self.arguments[at] = merged
            if label is not None and label != existing.id:
                if label in self._by_id or label in self._aliases:
                    raise DeclarationError(f"duplicate argument label {label!r}")
                self._aliases[label] = existing.id
            return existing.id
        if label is not None:
            if label in self._by_id or label in self._aliases:
                raise DeclarationError(f"duplicate argument label {label!r}")
            arg_id = label
        else:
            arg_id = self._fresh_id()
        argument = Argument(arg_id, presumption, conclusion, (origin,), parents)
        self._position[key] = len(self.arguments)
        self._by_id[arg_id] = len(self.arguments)
        self.arguments.append(argument)
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
            self.add_support(presumption, target, origin=ORIGIN_REFUTATION)
            for target in targets
        ]

    def resolve_id(self, arg_id: str) -> str:
        """Map a label through merge aliases to the canonical argument id."""
        return self._aliases.get(arg_id, arg_id)

    def argument(self, arg_id: str) -> Argument:
        at = self._by_id.get(self.resolve_id(arg_id))
        if at is None:
            raise UsageError(f"unknown argument id {arg_id!r}")
        return self.arguments[at]

    def declare_argument_relation(self, kind: str, left: str, right: str) -> None:
        self._check_open()
        if kind not in (KIND_LEQ, KIND_STRICT, KIND_EQUAL):
            raise DeclarationError(f"unknown relation kind {kind!r}")
        left, right = self.resolve_id(left), self.resolve_id(right)
        for arg_id in (left, right):
            if arg_id not in self._by_id:
                raise DeclarationError(f"relation references unknown argument {arg_id!r}")
        self.declarations.append(
            RelationDeclaration(
                LEVEL_ARGUMENT, kind, left, right, len(self.declarations) + 1
            )
        )

    def declare_presumption_relation(
        self, kind: str, left: EvidenceSentence, right: EvidenceSentence
    ) -> None:
        self._check_open()
        if kind not in (KIND_LEQ, KIND_STRICT, KIND_EQUAL):
            raise DeclarationError(f"unknown relation kind {kind!r}")
        for sentence in (left, right):
            if sentence.frame != self.evidence_frame:
                raise UsageError("relation presumption belongs to a different frame")
            if not sentence.is_satisfiable():
                raise DeclarationError(
                    f"relation references unsatisfiable presumption {sentence.describe()!r}"
                )
        self.declarations.append(
            RelationDeclaration(
                LEVEL_PRESUMPTION, kind, left, right, len(self.declarations) + 1
            )
        )

    # -- generation passes --------------------------------------------------

    def generate_conjunction_arguments(self) -> list[str]:
        """Single pass of the conjunction rule over the declared base.

        Two base arguments for one conclusion conjoin into an argument whose
        presumption is the conjunction, provided that is satisfiable.  A
        no-op when the option is off.
        """
        if not self.options.conjunction_arguments:
            return []
        base = [a for a in self.arguments if set(a.origins) & BASE_ORIGINS]
        added: list[str] = []
        before = {a.id for a in self.arguments}
        for i, first in enumerate(base):
            for second in base[i + 1 :]:
                if first.conclusion.members != second.conclusion.members:
                    continue
                joint = first.presumption & second.presumption
                if not joint.is_satisfiable():
                    continue
                arg_id = self.add_support(
                    joint,
                    first.conclusion,
                    origin=ORIGIN_CONJUNCTION,
                    parents=((first.presumption, second.presumption),),
                )
                if arg_id not in before:
                    before.add(arg_id)
                    added.append(arg_id)
        return added

    def apply_disjunction_closure(self) -> list[str]:
        """Iterate pairwise disjunction to a fixpoint (or the cap).

        Every pair of arguments spawns one with the disjoined presumptions
        and the union of the conclusions; rounds repeat until nothing new
        appears.  Hitting the cap sets :attr:`disjunction_capped`.
        """
        if not self.options.disjunction_closure:
            return []
        cap = self.options.disjunction_closure_cap
        added: list[str] = []
        while True:
            count = len(self.arguments)
            grew = False
            for i in range(count):
                for j in range(i + 1, count):
                    first, second = self.arguments[i], self.arguments[j]
                    presumption = first.presumption | second.presumption
                    conclusion = first.conclusion | second.conclusion
                    known = (presumption.models, conclusion.members) in self._position
                    arg_id = self.add_support(
                        presumption, conclusion, origin=ORIGIN_DISJUNCTION
                    )
                    if not known:
                        added.append(arg_id)
                        grew = True
                        if len(added) >= cap:
                            self.disjunction_capped = True
                            return added
            if not grew:
                return added

    def run_generation_passes(self) -> None:
        """Apply, in order, every generation pass the options enable."""
        self.generate_conjunction_arguments()
        self.apply_disjunction_closure()

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check well-formedness; a structure with errors must not be closed."""
        report = ValidationReport()
        presumed = {argument.presumption.models for argument in self.arguments}
        for argument in self.arguments:
            if argument.presumption.frame != self.evidence_frame:
                report.errors.append(f"argument {argument.id}: foreign evidence frame")
            elif not argument.presumption.is_satisfiable():
                report.errors.append(
                    f"argument {argument.id}: unsatisfiable presumption"
                )
            if argument.conclusion.frame != self.conclusion_frame:
                report.errors.append(f"argument {argument.id}: foreign conclusion frame")
            elif argument.conclusion.is_empty():
                report.errors.append(f"argument {argument.id}: empty conclusion")
            elif argument.conclusion.is_full():
                report.warnings.append(
                    f"argument {argument.id} concludes every alternative (vacuous support)"
                )
        for declaration in self.declarations:
            label = f"relation #{declaration.ordinal}"
            if declaration.level == LEVEL_ARGUMENT:
                for arg_id in (declaration.left, declaration.right):
                    if arg_id not in self._by_id:
                        report.errors.append(
                            f"{label} references unknown argument {arg_id!r}"
                        )
            else:
                for sentence in (declaration.left, declaration.right):
                    if sentence.frame != self.evidence_frame:
                        report.errors.append(f"{label}: foreign evidence frame")
                    elif not sentence.is_satisfiable():
                        report.errors.append(f"{label}: unsatisfiable presumption")
                    elif sentence.models not in presumed:
                        report.warnings.append(
                            f"{label}: no argument presumes {sentence.describe()!r}"
                        )
        if self.disjunction_capped:
            report.warnings.append(
                "disjunction closure stopped at the cap "
                f"({self.options.disjunction_closure_cap}); the pool is incomplete"
            )
        return report
