"""The ``res`` command line tool.

Every subcommand reads one structure document, optionally overrides its
options, and answers one query::

    res check hominids.res
    res condition example1.res --given "!e1 & !e2"
    res compare example1.res --given "!e1 & !e2" "{Al1}" "{Al2, Al3}"
    res rank hominids.res --given "e1 & e12 & !e2 & !e23 & !e13"
    res plausible example1.res --given "e1 & !e2" Al1
    res diagram example1.res --given "!e1 & !e2" --format dot
    res explain example1.res --given "!e1 & !e2" Al2 Al3

Exit codes: 0 on success, 1 on usage, parse or declaration errors, 2 when
``check`` finds consistency violations.  A stdout closed before the answer
is written (``res rank ... | head -1``) exits 1 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import render
from ._record import replace
from .conditioning import condition
from .decision import candidate_sentences, compare, explain, is_plausible, hasse, rank
from .dsl import StructureDocument, parse_document
from .errors import DeclarationError, ParseError, ResError
from .formula import IDENTIFIER
from .order import build_closure, check_consistency
from .semantics import (
    ConclusionFrame,
    ConclusionSentence,
    build_sentence,
    conclusion_of,
    parse_conclusion,
)
from .structure import parse_option

_CONCLUSION_HELP = (
    "a conclusion literal such as '{Al1, Al2}' or '!{Al3}'; "
    "a bare alternative name means its singleton"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="res",
        description="Query evidence structures: order arguments by relative "
        "strength, condition on observations, and compare conclusions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help_text, *, given=True, formats=("text", "json")):
        sub = commands.add_parser(name, help=help_text, description=help_text)
        sub.add_argument("file", help="path to a structure document (.res)")
        if given:
            sub.add_argument(
                "--given",
                required=True,
                metavar="FORMULA",
                help="the observed evidence, a formula over the declared atoms",
            )
        sub.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="OPTION=VALUE",
            help="override a document option (repeatable)",
        )
        sub.add_argument("--format", choices=formats, default="text")
        return sub

    subcommand(
        "check",
        "validate a document and audit its declared relations for consistency",
        given=False,
    )
    subcommand("condition", "list the arguments the observed evidence triggers")

    sub = subcommand("compare", "compare two conclusions under the evidence")
    sub.add_argument("left", help=_CONCLUSION_HELP)
    sub.add_argument("right", help=_CONCLUSION_HELP)

    sub = subcommand(
        "plausible",
        "is the conclusion strictly more believable than its complement?",
    )
    sub.add_argument("sentence", help=_CONCLUSION_HELP)

    for name, help_text, formats in (
        ("rank", "pairwise verdicts and maximal elements over candidate "
         "conclusions", ("text", "json")),
        ("diagram", "the believability ordering as equivalence classes and "
         "covering edges", ("text", "json", "dot")),
    ):
        sub = subcommand(name, help_text, formats=formats)
        sub.add_argument(
            "--candidates",
            choices=("singletons", "singletons+complements", "all"),
            default="singletons",
            help="which candidate conclusions to rank when none are listed",
        )
        sub.add_argument(
            "operands", nargs="*", metavar="conclusion", help=_CONCLUSION_HELP
        )

    sub = subcommand(
        "explain",
        "compare two conclusions and show the argument matching behind "
        "the verdict",
    )
    sub.add_argument("left", help=_CONCLUSION_HELP)
    sub.add_argument("right", help=_CONCLUSION_HELP)
    return parser


def _operand(frame: ConclusionFrame, text: str) -> ConclusionSentence:
    stripped = text.strip()
    if IDENTIFIER.fullmatch(stripped):
        return conclusion_of(frame, [stripped])
    return parse_conclusion(frame, stripped)


def _apply_overrides(document: StructureDocument, overrides: list[str]) -> None:
    try:
        values = dict(parse_option(item) for item in overrides)
        document.options = replace(document.options, **values)
    except DeclarationError as err:
        items = ", ".join(repr(item) for item in overrides)
        raise ResError(f"bad --set {items}: {err}") from None


def _load(args) -> "StructureDocument":
    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    document = parse_document(text)
    _apply_overrides(document, args.overrides)
    return document


def _query(args, structure) -> tuple:
    """Answer the query *args* names; return the arguments of its views."""
    if args.command == "check":
        validation = structure.validate()
        consistency = check_consistency(build_closure(structure), structure)
        return structure, validation, consistency

    closure = build_closure(structure)
    given = build_sentence(structure.evidence_frame, args.given)
    conditioned = condition(structure, closure, given)

    if args.command == "condition":
        return (conditioned,)

    frame = structure.conclusion_frame
    if args.command in ("compare", "explain"):
        left = _operand(frame, args.left)
        right = _operand(frame, args.right)
        if args.command == "compare":
            return conditioned, left, right, compare(conditioned, left, right)
        return conditioned, explain(conditioned, left, right)

    if args.command == "plausible":
        sentence = _operand(frame, args.sentence)
        return conditioned, sentence, is_plausible(conditioned, sentence)

    # rank and diagram share their candidate handling
    if args.operands:
        candidates = [_operand(frame, item) for item in args.operands]
    else:
        candidates = candidate_sentences(frame, args.candidates)
    query = rank if args.command == "rank" else hasse
    return conditioned, query(conditioned, candidates)


def _run(args) -> int:
    inputs = _query(args, _load(args).to_structure())
    # Looked up at call time, so a rebound view is the one that runs.
    # Flushed here, so a reader that closed the pipe is noticed in main.
    print(getattr(render, f"{args.command}_{args.format}")(*inputs), flush=True)
    if args.command == "check" and not inputs[-1].ok:
        return 2  # the closure collapsed a declared strict relation
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        # parse_known_args so conclusion operands may follow options such
        # as --given; argparse alone refuses positionals after optionals.
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exit_request:
        # argparse exits with 2 on bad usage; keep 2 for consistency
        # violations and report usage problems as 1.
        return 0 if exit_request.code in (0, None) else 1
    if extra:
        if hasattr(args, "operands") and not any(
            item.startswith("-") for item in extra
        ):
            args.operands = [*args.operands, *extra]
        else:
            print(
                f"res: error: unrecognized arguments: {' '.join(extra)}",
                file=sys.stderr,
            )
            return 1
    try:
        return _run(args)
    except BrokenPipeError:
        _discard_stdout()
        return 1
    except ParseError as err:
        for located in err.errors:
            print(f"{args.file}:{located}", file=sys.stderr)
        return 1
    except (ResError, OSError) as err:
        print(f"res: error: {err}", file=sys.stderr)
        return 1


def _discard_stdout() -> None:
    """Point stdout's descriptor at devnull, so the flush at exit cannot fail."""
    try:
        descriptor = sys.stdout.fileno()
    except OSError:  # an in-memory stream has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, descriptor)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
