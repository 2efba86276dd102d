"""Spans around the public entry points of ``res``, kept in memory.

:class:`Tracer` rebinds each public function at every module binding it is
reachable through (``res.cli`` imports ``rank`` by name, ``res.decision``
calls ``compare`` through its own global, the package re-exports both), and
wraps the three methods the pipeline calls on its objects.  Only public
names and public attributes are touched, so refactors of private fields do
not break the trace.

A span is ``[name, start_ns, end_ns, parent, op]``; ``parent`` is the index
of the enclosing span or -1.  Self time is a span's duration minus the part
of it that its direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: Module-level functions to wrap, as (module, attribute, span name).
FUNCTIONS = (
    ("res.cli", "main", "cli.main"),
    ("res.dsl", "parse_document", "dsl.parse_document"),
    ("res.semantics", "build_sentence", "semantics.build_sentence"),
    ("res.order", "build_closure", "order.build_closure"),
    ("res.order", "check_consistency", "order.check_consistency"),
    ("res.conditioning", "condition", "conditioning.condition"),
    ("res.decision", "rank", "decision.rank"),
    ("res.decision", "hasse", "decision.hasse"),
    ("res.decision", "compare", "decision.compare"),
    ("res.decision", "is_plausible", "decision.is_plausible"),
    ("res.decision", "explain", "decision.explain"),
)

#: Methods to wrap, as (module, class, method, span name).
METHODS = (
    ("res.dsl", "StructureDocument", "to_structure", "dsl.to_structure"),
    ("res.structure", "EvidenceStructure", "run_generation_passes",
     "structure.run_generation_passes"),
    ("res.structure", "EvidenceStructure", "validate", "structure.validate"),
)

#: Per-layer self-time metrics (ms per op) and the spans each one sums.
#: ``hasse`` is ranking plus grouping and ``is_plausible`` one comparison,
#: so they count toward rank and compare.
SELF_TIME = {
    "cli.interpreter_ms": ("cli.interpreter",),
    "cli.import_ms": ("cli.import",),
    "cli.main_ms": ("cli.main",),
    "dsl.parse_ms": ("dsl.parse_document",),
    "dsl.to_structure_ms": ("dsl.to_structure",),
    "structure.generate_ms": ("structure.run_generation_passes",),
    "structure.validate_ms": ("structure.validate",),
    "order.build_closure_ms": ("order.build_closure",),
    "order.check_consistency_ms": ("order.check_consistency",),
    "semantics.build_sentence_ms": ("semantics.build_sentence",),
    "conditioning.condition_ms": ("conditioning.condition",),
    "decision.rank_ms": ("decision.rank", "decision.hasse"),
    "decision.compare_ms": ("decision.compare", "decision.is_plausible"),
    "decision.explain_ms": ("decision.explain",),
    "render.ms": ("render.",),
}

#: Counts per op, in the order they are reported.
COUNTS = (
    "dsl.lines",
    "structure.arguments",
    "structure.generated_arguments",
    "structure.capped",
    "order.closure_pairs",
    "decision.compare_calls",
    "decision.closure_leq_calls",
    "render.bytes",
)

OP = "op"


def self_times(spans) -> list[int]:
    """Self time of every span: its duration minus the union of its direct
    children's intervals (clipped to the span)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def coverage(spans) -> float:
    """Share of op time that lies inside a layer span directly under the op."""
    selfs = self_times(spans)
    total = sum(s[2] - s[1] for s in spans if s[0] == OP)
    uncovered = sum(selfs[i] for i, s in enumerate(spans) if s[0] == OP)
    return 1.0 - uncovered / total if total else 0.0


def layer_metrics(spans, counts, ops: int) -> dict[str, float]:
    """Per-op self times (ms) and counts from one traced phase."""
    selfs = self_times(spans)
    by_name = defaultdict(int)
    for span, own in zip(spans, selfs):
        by_name[span[0]] += own
    out = {}
    for metric, names in SELF_TIME.items():
        total = sum(
            ns for name, ns in by_name.items()
            if any(name == n or (n.endswith(".") and name.startswith(n)) for n in names)
        )
        out[metric] = total / ops / 1e6 if ops else 0.0
    # A fresh ``import res`` includes interpreter start; report the rest.
    out["cli.import_ms"] = max(0.0, out["cli.import_ms"] - out["cli.interpreter_ms"])
    for name in COUNTS:
        out[name] = counts.get(name, 0) / ops if ops else 0.0
    total_args = counts.get("conditioning.total", 0)
    out["conditioning.triggered_share"] = (
        counts.get("conditioning.triggered", 0) / total_args if total_args else 0.0
    )
    return out


class Untraced:
    """A :class:`Tracer` that records nothing: an operation run through it
    makes the same calls as a traced one, without the spans."""

    last_op_ns = 0

    def span(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, fn, *args):
        started = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.last_op_ns = time.perf_counter_ns() - started


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.current = -1
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self._closures: list = []
        self._leq = None
        self.last_op_ns = 0

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> tuple[list, int]:
        record = [name, time.perf_counter_ns(), 0, self.current, self.op_id]
        self.spans.append(record)
        parent, self.current = self.current, len(self.spans) - 1
        return record, parent

    def end(self, record: list, parent: int) -> None:
        record[2] = time.perf_counter_ns()
        self.current = parent

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called *name*."""
        record, parent = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(record, parent)

    def op(self, fn, *args):
        """Run one benchmark operation inside an op span, under a fresh op
        id; its duration is left in :attr:`last_op_ns`."""
        self.op_id += 1
        record, parent = self.begin(OP)
        try:
            return fn(*args)
        finally:
            self.end(record, parent)
            self.last_op_ns = record[2] - record[1]
            self._count_closures()

    def _count_closures(self) -> None:
        # Outside the op span: n*n public ``leq`` calls through the
        # unwrapped method, so neither the timing nor the leq count moves.
        for closure in self._closures:
            ids = closure.ids
            self.counts["order.closure_pairs"] += sum(
                1 for a in ids for b in ids if self._leq(closure, a, b)
            )
        self._closures.clear()

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        from res import cli, order, render  # noqa: F401  (cli: a rebinding site)

        for module_name, attribute, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            self._rebind(original, self._wrap(name, original))
        for attribute in dir(render):
            value = getattr(render, attribute)
            if (
                not attribute.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == render.__name__
                and not isinstance(value, type)
            ):
                self._rebind(value, self._wrap(f"render.{attribute}", value))
        for module_name, class_name, method, name in METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            self._patch(cls, method, self._wrap(name, getattr(cls, method)))
        self._leq = leq = order.OrderClosure.leq
        counts, spans = self.counts, self.spans

        @functools.wraps(leq)
        def counted_leq(closure, lower, upper):
            # Only the queries' calls: ``check_consistency`` asks too.
            if self.current >= 0 and spans[self.current][0].startswith("decision."):
                counts["decision.closure_leq_calls"] += 1
            return leq(closure, lower, upper)

        self._patch(order.OrderClosure, "leq", counted_leq)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace *original* at every ``res`` module binding that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "res" or module_name.startswith("res.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, wrapper)

    def _wrap(self, name: str, fn):
        counts, closures = self.counts, self._closures

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "structure.run_generation_passes":
                before = len(args[0].arguments)
            record, parent = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record, parent)
            if name == "dsl.parse_document":
                counts["dsl.lines"] += len(args[0].splitlines())
            elif name == "dsl.to_structure":
                counts["structure.arguments"] += len(result.arguments)
            elif name == "structure.run_generation_passes":
                counts["structure.generated_arguments"] += len(args[0].arguments) - before
                counts["structure.capped"] += bool(args[0].disjunction_capped)
            elif name == "order.build_closure":
                closures.append(result)
            elif name == "conditioning.condition":
                counts["conditioning.triggered"] += len(result.triggered)
                counts["conditioning.total"] += len(result.structure.arguments)
            elif name == "decision.compare":
                counts["decision.compare_calls"] += 1
            elif name.startswith("render.") and isinstance(result, str):
                counts["render.bytes"] += len(result.encode("utf-8"))
            return result

        return traced

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as ``[name, start_ns, end_ns, parent, op]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)
