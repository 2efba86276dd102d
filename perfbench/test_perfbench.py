"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the root."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small(cls, seed: int, deck: int):
    """A workload whose digest covers only the first *deck* positions."""
    workload = cls(run.ROOT, seed)
    workload.deck_size = deck
    workload.oracle_sample = min(workload.oracle_sample, deck)
    return workload


def flip_one_verdict(monkeypatch):
    """Make ``compare`` misreport the first alternative against the second.

    The wrong verdict is never strict, so ``rank`` cannot meet a cycle."""
    import res
    from res import decision

    original = decision.compare
    incomparable = res.ComparisonVerdict.INCOMPARABLE
    flipped = {verdict: incomparable for verdict in res.ComparisonVerdict}
    flipped[incomparable] = res.ComparisonVerdict.EQUAL

    def compare(conditioned, first, second):
        verdict = original(conditioned, first, second)
        if (first.members, second.members) == (1, 2):
            return flipped[verdict]
        return verdict

    monkeypatch.setattr(decision, "compare", compare)


# -- seeded inputs ---------------------------------------------------------------


@pytest.mark.parametrize("cls", [workloads.QuerySweep, workloads.BuildCheck])
def test_same_seed_same_inputs_and_digest(cls):
    first, again, other = small(cls, 7, 6), small(cls, 7, 6), small(cls, 8, 6)
    assert first.deck == again.deck
    assert first.deck != other.deck
    for workload in (first, again):
        workload.setup()
    assert first.deck_digest() == again.deck_digest()
    assert first.deck_properties() == again.deck_properties()


def test_cli_deck_cycles_every_invocation():
    workload = workloads.CliGoldens(run.ROOT, 3)
    assert workload.deck == workloads.CliGoldens(run.ROOT, 3).deck
    assert sorted(workload.deck[:23]) == list(range(23))


def test_build_check_mix():
    workload = workloads.BuildCheck(run.ROOT, 1)
    kinds = [d.kind for d in workload.deck]
    assert kinds.count("tiny") == 3 * len(kinds) // 4
    for start in range(0, len(kinds), 4):
        assert kinds[start:start + 4].count("tiny") == 3


# -- self time -------------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    spans = [
        ["op", 0, 100, -1, 0],
        ["decision.rank", 10, 60, 0, 0],
        ["decision.compare", 20, 30, 1, 0],
        ["decision.compare", 40, 50, 1, 0],
        ["render.rank_text", 70, 90, 0, 0],
        ["op", 100, 150, -1, 1],
        ["order.build_closure", 100, 150, 5, 1],
        ["structure.validate", 105, 125, 6, 1],
        ["structure.validate", 115, 135, 6, 1],  # overlaps its sibling
    ]
    assert tracing.self_times(spans) == [30, 30, 10, 10, 20, 0, 20, 20, 20]
    assert tracing.coverage(spans) == pytest.approx(1 - 30 / 150)
    layers = tracing.layer_metrics(spans, {"decision.compare_calls": 2}, ops=2)
    assert layers["decision.rank_ms"] == pytest.approx(30 / 2 / 1e6)
    assert layers["decision.compare_ms"] == pytest.approx(20 / 2 / 1e6)
    assert layers["render.ms"] == pytest.approx(20 / 2 / 1e6)
    assert layers["order.build_closure_ms"] == pytest.approx(20 / 2 / 1e6)
    assert layers["structure.validate_ms"] == pytest.approx(40 / 2 / 1e6)
    assert layers["decision.compare_calls"] == 1
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - set(layers)
    assert missing == {"trace.overhead_share", "trace.coverage"}  # set by run.py


def test_cli_import_is_reported_above_the_interpreter_floor():
    spans = [
        ["op", 0, 100, -1, 0],
        ["cli.interpreter", 0, 30, 0, 0],
        ["cli.import", 30, 80, 0, 0],
        ["cli.main", 80, 100, 0, 0],
    ]
    layers = tracing.layer_metrics(spans, {}, ops=1)
    assert layers["cli.interpreter_ms"] == pytest.approx(30e-6)
    assert layers["cli.import_ms"] == pytest.approx(20e-6)
    assert layers["cli.main_ms"] == pytest.approx(20e-6)


def test_tracer_wraps_every_binding_and_restores_them():
    import res
    from res import cli, decision

    originals = (res.rank, cli.rank, decision.rank, decision.compare)
    workload = small(workloads.QuerySweep, 2, 2)
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.rank is decision.rank is res.rank is not originals[0]
        tracer.op(workload.run, 0)
    finally:
        tracer.uninstall()
    assert (res.rank, cli.rank, decision.rank, decision.compare) == originals
    names = {span[0] for span in tracer.spans}
    assert {"op", "decision.rank", "decision.compare", "decision.explain",
            "conditioning.condition", "render.rank_text"} <= names
    assert tracer.counts["decision.compare_calls"] > 0
    assert tracer.counts["decision.closure_leq_calls"] > 0


# -- failures --------------------------------------------------------------------


def test_flipped_verdict_is_a_failure(monkeypatch, tmp_path):
    oracle = run.load_oracle()
    honest = small(workloads.QuerySweep, 5, 5)
    honest.setup()
    recorded = tmp_path / "expected.json"
    recorded.write_text(json.dumps({honest.name: {"5": honest.deck_digest()}}))
    monkeypatch.setattr(run, "EXPECTED", recorded)
    assert run.verify(honest, 5, oracle) == (0, [])

    flip_one_verdict(monkeypatch)
    workload = small(workloads.QuerySweep, 5, 5)
    workload.setup()
    phase = run.timed_loop(workload, 0.001)
    attempted = len(phase.latencies_ns)
    failed, problems = run.verify(workload, attempted, oracle)
    assert failed == attempted and problems
    # Without a recorded digest the oracle sample still catches the flip.
    recorded.write_text("{}")
    failed, problems = run.verify(workload, attempted, oracle)
    assert failed > 0 and problems


def test_build_check_oracle_catches_a_wrong_closure(monkeypatch):
    import res

    oracle = run.load_oracle()
    workload = small(workloads.BuildCheck, 4, 8)
    workload.setup()
    assert workload.oracle_problems(oracle, range(8)) == {}
    original = res.OrderClosure.leq

    def leq(closure, lower, upper):  # wrong for the first pair of arguments
        return original(closure, lower, upper) != ((lower, upper) == closure.ids[:2])

    monkeypatch.setattr(res.OrderClosure, "leq", leq)
    assert workload.oracle_problems(oracle, range(8))


def test_generated_arguments_agree_with_the_trace():
    workload = small(workloads.BuildCheck, 6, 12)
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for position in range(workload.deck_size):
            workload.check(position, tracer.op(workload.run, position))
    finally:
        tracer.uninstall()
    generated = sum(workload.sizes[p][1] for p in range(workload.deck_size))
    assert generated == tracer.counts["structure.generated_arguments"] > 0


def test_golden_mismatch_and_exit_code_are_failures():
    workload = workloads.CliGoldens(run.ROOT, 0)
    _, golden = workload.cases[workload.deck[0]]
    assert workload.check(0, (0, golden)) is None
    assert workload.check(0, (0, golden.replace(b"<", b">", 1) + b" ")) is not None
    assert workload.check(0, (1, golden)) is not None
