"""Rendering query results as text, JSON, or DOT.

``<command>_<format>`` is the one view of each pair the CLI offers; the views
of a command take the same arguments and return the text to print.

All output is deterministic: identical inputs give byte-identical bytes.
The JSON shapes are pinned by the schemas in ``tests/schemas.json`` so
downstream tooling can rely on the field names.
"""

from __future__ import annotations

from .conditioning import ConditionedStructure
from .decision import (
    ComparisonVerdict,
    ExplanationTrace,
    HasseDiagram,
    RankResult,
)
from .order import ChainStep, ConsistencyReport
from .structure import EvidenceStructure, ValidationReport

VERDICT_SYMBOLS = {
    ComparisonVerdict.STRICTLY_LESS: "<",
    ComparisonVerdict.STRICTLY_GREATER: ">",
    ComparisonVerdict.EQUAL: "=",
    ComparisonVerdict.INCOMPARABLE: "#",
}


def _json(payload: dict) -> str:
    import json  # only --format json needs it
    return json.dumps(payload, indent=2)


def _short(sentence) -> str:
    """Singleton conclusions read best as the bare alternative name."""
    names = sentence.names()
    if len(names) == 1:
        return names[0]
    return sentence.describe()


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    return "\n".join(
        "  ".join(map(str.ljust, row, widths)).rstrip() for row in (headers, *rows)
    )


def _chain_json(chain: tuple[ChainStep, ...]) -> list[dict]:
    return [
        {
            "lower": step.lower,
            "upper": step.upper,
            "reason": step.reason.kind,
            "detail": step.reason.detail,
        }
        for step in chain
    ]


def _chain_text(chain: tuple[ChainStep, ...]) -> str:
    if not chain:
        return "reflexive"
    return "; ".join(
        f"{s.lower} <= {s.upper} [{s.reason.kind}]" for s in chain
    )


# -- check -------------------------------------------------------------------


def check_text(
    structure: EvidenceStructure,
    validation: ValidationReport,
    consistency: ConsistencyReport,
) -> str:
    lines = [f"structure {structure.name}: {len(structure.arguments)} arguments, "
             f"{len(structure.declarations)} relation declarations"]
    for message in validation.errors:
        lines.append(f"error: {message}")
    for message in validation.warnings:
        lines.append(f"warning: {message}")
    if consistency.ok:
        lines.append("consistency: ok")
    else:
        lines.append(f"consistency: {len(consistency.violations)} violation(s)")
        for violation in consistency.violations:
            lines.append(f"  {violation.describe()}")
            if violation.chain:
                lines.append(f"    via {_chain_text(violation.chain)}")
    return "\n".join(lines)


def check_json(
    structure: EvidenceStructure,
    validation: ValidationReport,
    consistency: ConsistencyReport,
) -> str:
    return _json({
        "command": "check",
        "structure": structure.name,
        "arguments": len(structure.arguments),
        "declarations": len(structure.declarations),
        "errors": list(validation.errors),
        "warnings": list(validation.warnings),
        "violations": [
            {
                "declaration": v.declaration.describe(),
                "counter": list(v.counter),
                "provenance": _chain_json(v.chain),
            }
            for v in consistency.violations
        ],
        "ok": validation.ok and consistency.ok,
    })


# -- condition ---------------------------------------------------------------


def condition_text(conditioned: ConditionedStructure) -> str:
    header = (
        f"given {conditioned.given.describe()}: "
        f"{len(conditioned.triggered)} of "
        f"{len(conditioned.structure.arguments)} arguments triggered"
    )
    if not conditioned.triggered:
        return header
    rows = [
        [a.id, a.presumption.describe(), a.conclusion.describe(), ", ".join(a.origins)]
        for a in conditioned.triggered
    ]
    return header + "\n" + _table(["id", "presumption", "conclusion", "origins"], rows)


def condition_json(conditioned: ConditionedStructure) -> str:
    return _json({
        "command": "condition",
        "structure": conditioned.structure.name,
        "given": conditioned.given.describe(),
        "triggered": [
            {
                "id": a.id,
                "presumption": a.presumption.describe(),
                "conclusion": a.conclusion.describe(),
                "origins": list(a.origins),
            }
            for a in conditioned.triggered
        ],
    })


# -- compare / plausible -----------------------------------------------------


def _verdict_line(left, right, verdict) -> str:
    return f"{left.describe()} vs {right.describe()}: {verdict.value}"


def compare_text(conditioned: ConditionedStructure, left, right, verdict) -> str:
    return _verdict_line(left, right, verdict)


def compare_json(conditioned: ConditionedStructure, left, right, verdict) -> str:
    return _json({
        "command": "compare",
        "given": conditioned.given.describe(),
        "left": left.describe(),
        "right": right.describe(),
        "verdict": verdict.value,
    })


def plausible_text(conditioned: ConditionedStructure, p, result: bool) -> str:
    return f"plausible({p.describe()}): {'true' if result else 'false'}"


def plausible_json(conditioned: ConditionedStructure, p, result: bool) -> str:
    return _json({
        "command": "plausible",
        "given": conditioned.given.describe(),
        "sentence": p.describe(),
        "complement": p.complement().describe(),
        "plausible": result,
    })


# -- rank --------------------------------------------------------------------


def rank_text(conditioned: ConditionedStructure, result: RankResult) -> str:
    names = [_short(c) for c in result.candidates]
    short = {c.members: name for c, name in zip(result.candidates, names)}
    lines = [f"rank of {len(names)} candidates given {conditioned.given.describe()}"]
    lines.append("maximal: " + ", ".join(short[c.members] for c in result.maximal))
    for level, layer in enumerate(result.strata, start=1):
        lines.append(f"stratum {level}: " + ", ".join(short[c.members] for c in layer))
    symbol = VERDICT_SYMBOLS.__getitem__
    rows = [[name, *map(symbol, row)] for name, row in zip(names, result.matrix)]
    lines.append(_table([""] + names, rows))
    lines.append("legend: < less, > greater, = equal, # incomparable")
    return "\n".join(lines)


def rank_json(conditioned: ConditionedStructure, result: RankResult) -> str:
    return _json({
        "command": "rank",
        "given": conditioned.given.describe(),
        "candidates": [c.describe() for c in result.candidates],
        "maximal": [c.describe() for c in result.maximal],
        "strata": [[c.describe() for c in layer] for layer in result.strata],
        "matrix": [[v.value for v in row] for row in result.matrix],
    })


# -- diagram -----------------------------------------------------------------


def _class_label(group) -> str:
    return " ~ ".join(c.describe() for c in group)


def diagram_text(conditioned: ConditionedStructure, diagram: HasseDiagram) -> str:
    lines = [f"believability diagram given {conditioned.given.describe()}"]
    for i, group in enumerate(diagram.classes):
        lines.append(f"class {i}: {_class_label(group)}")
    if diagram.edges:
        for (low, high) in diagram.edges:
            lines.append(
                f"{_class_label(diagram.classes[low])}"
                f"  <  {_class_label(diagram.classes[high])}"
            )
    else:
        lines.append("no strict edges")
    return "\n".join(lines)


def diagram_json(conditioned: ConditionedStructure, diagram: HasseDiagram) -> str:
    return _json({
        "command": "diagram",
        "given": conditioned.given.describe(),
        "classes": [[c.describe() for c in group] for group in diagram.classes],
        "edges": [list(edge) for edge in diagram.edges],
    })


def diagram_dot(conditioned: ConditionedStructure, diagram: HasseDiagram) -> str:
    lines = ["digraph believability {", "  rankdir=BT;"]
    for i, group in enumerate(diagram.classes):
        label = _class_label(group).replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for (low, high) in diagram.edges:
        lines.append(f"  n{low} -> n{high};")
    lines.append("}")
    return "\n".join(lines)


# -- explain -----------------------------------------------------------------


def _direction_text(conditioned, direction) -> list[str]:
    head = (
        f"{direction.source.describe()} <= {direction.target.describe()}: "
        f"{'holds' if direction.holds else 'fails'}"
    )
    lines = [head]
    structure = conditioned.structure
    if not direction.source_supported:
        if direction.target_supports:
            lines.append(
                "  no supports to match; the other side is supported by "
                + ", ".join(direction.target_supports)
            )
        else:
            lines.append("  neither side has any triggered support")
        return lines
    for match in direction.matches:
        argument = structure.argument(match.support).describe()
        if match.matched_by is None:
            lines.append(f"  {argument}  UNMATCHED")
        else:
            rival = structure.argument(match.matched_by).describe()
            lines.append(f"  {argument}  matched by  {rival}")
            lines.append(f"    via {_chain_text(match.provenance)}")
    return lines


def explain_text(conditioned: ConditionedStructure, trace: ExplanationTrace) -> str:
    lines = [_verdict_line(trace.left, trace.right, trace.verdict)]
    lines.extend(_direction_text(conditioned, trace.forward))
    lines.extend(_direction_text(conditioned, trace.backward))
    return "\n".join(lines)


def explain_json(conditioned: ConditionedStructure, trace: ExplanationTrace) -> str:
    def direction(d):
        return {
            "source": d.source.describe(),
            "target": d.target.describe(),
            "holds": d.holds,
            "source_supported": d.source_supported,
            "supports": [m.support for m in d.matches],
            "matches": [
                {
                    "support": m.support,
                    "matched_by": m.matched_by,
                    "provenance": _chain_json(m.provenance),
                }
                for m in d.matches
                if m.matched_by is not None
            ],
            "unmatched": list(d.unmatched),
            "target_supports": list(d.target_supports),
        }

    return _json({
        "command": "explain",
        "given": conditioned.given.describe(),
        "left": trace.left.describe(),
        "right": trace.right.describe(),
        "verdict": trace.verdict.value,
        "directions": [direction(trace.forward), direction(trace.backward)],
    })
