#!/usr/bin/env python3
"""Benchmark of the ``res`` engine, standard library only.

Run from the root of a checkout::

    python3 perfbench/run.py --workload query-sweep --seed 1 --seconds 30 --trace 0

One client issues one operation at a time (a closed loop) for ``--seconds``
of measured operation time.  With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` the run is
split into an untraced half and a traced half and the JSON carries the
per-layer metrics.  Every output is checked, and the last line says how
many operations failed.

Throughput and latency are gated in *reference units*: each operation's
wall time divided by the median of the last few runs of the workload's
reference job (:meth:`workloads.Workload.reference_ns`), each timed just
before an operation.  The host's speed drifts by a third over tens of
seconds; an operation and the reference runs just before it slow down
alike, so their ratio holds still.  Set-up time is reported in seconds at
a nominal speed: its wall time times ``NOMINAL_REFERENCE_S`` over the
pure-Python reference job's time just before it.  Wall-time figures are
printed beside them.

``--workload all`` runs the three workloads one after another, each in its
own process.  ``--record`` instead runs one pass of the deck for each seed in
``RECORDED_SEEDS``, checks a sample four times the usual size against
``tests/oracle.py``, and stores the deck digest in
``perfbench/expected.json``.  A run on a seed without a recorded digest
checks that enlarged sample instead.
"""

from __future__ import annotations

import argparse
import collections
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
TRACE_DIR = ROOT / ".bench_traces"
#: Seeds whose deck digests ``--record`` stores in ``expected.json``.
RECORDED_SEEDS = range(32)
#: Recording, or a run without a recorded digest, checks this many times
#: the oracle sample of a run.
RECORD_SAMPLE = 4
#: How many times set-up is measured in one run; the median is reported.
SETUP_REPEATS = 11
#: Reference runs whose median is the unit of one operation's latency.
REFERENCE_WINDOW = 5
#: Seconds the pure-Python reference job takes at nominal speed (about its
#: time on a quiet 2-vCPU virtual machine); set-up times are reported at that speed.
NOMINAL_REFERENCE_S = 0.0003

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def load_program():
    """Import ``res`` from this checkout's ``src``, and nowhere else."""
    package = ROOT / "src" / "res" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no {package.relative_to(ROOT)} in {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import res

    if Path(res.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported res from {res.__file__}, not {package}")
    return res


def load_oracle():
    """``tests/oracle.py``, the naive evaluator, loaded by path."""
    path = ROOT / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("oracle", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["oracle"] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


class Phase:
    """Latencies, reference units and failures of one timed loop."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.references_ns: list[int] = []  # one reference run before each op
        self.in_refs: list[float] = []  # each latency in reference units
        self.failed = 0
        self.problems: list[str] = []

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies_ns) / (sum(self.latencies_ns) / 1e9)

    @property
    def ops_per_kref(self) -> float:
        return 1000 * len(self.in_refs) / sum(self.in_refs)


def setup_sample(workload) -> tuple[float, float]:
    """One set-up: (wall seconds, seconds at nominal reference speed)."""
    reference = statistics.median(
        workloads.python_reference_ns() for _ in range(REFERENCE_WINDOW)
    ) / 1e9
    seconds = workload.setup()
    return seconds, seconds / reference * NOMINAL_REFERENCE_S


def timed_loop(workload, seconds: float, tracer=None, setups=None) -> Phase:
    """Issue operations, one at a time, until *seconds* of op time have
    been measured.  Checks run between operations, outside the timing.

    With a *setups* list, set-up is repeated at even steps of the run until
    the list holds ``SETUP_REPEATS`` times, so its median spans the run."""
    phase = Phase()
    measured, limit = 0, seconds * 1e9
    references = collections.deque(maxlen=REFERENCE_WINDOW)
    while measured < limit:
        if setups is not None and measured >= limit * len(setups) / SETUP_REPEATS:
            setups.append(setup_sample(workload))
        references.append(workload.reference_ns())
        phase.references_ns.append(references[-1])
        position = len(phase.latencies_ns) % workload.deck_size
        error = result = None
        started = time.perf_counter_ns()
        try:
            if tracer is None:
                result = workload.run(position)
            else:
                result = tracer.op(workload.run_traced, position, tracer)
        except Exception as exc:  # an operation that raises is a failure
            error = f"position {position}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - started
        if tracer is not None:
            elapsed = tracer.last_op_ns
        phase.latencies_ns.append(elapsed)
        phase.in_refs.append(elapsed / statistics.median(references))
        measured += elapsed
        if error is None:
            error = workload.check(position, result)
        if error is not None:
            phase.failed += 1
            phase.problems.append(error)
    return phase


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def verify(workload, attempted: int, oracle) -> tuple[int, list[str]]:
    """Deck digest against the recorded one, and the oracle sample.

    A seed without a recorded digest gets the oracle sample that recording
    checks, ``RECORD_SAMPLE`` times the usual one.  Returns the extra
    failures to count and the problems found."""
    problems = []
    sample_size = workload.oracle_sample
    found = workload.deck_digest()
    if found is not None:
        recorded = json.loads(EXPECTED.read_text()).get(workload.name, {})
        expected = recorded.get(str(workload.seed))
        if expected is None:
            sample_size *= RECORD_SAMPLE
            print(f"digest {found} not recorded for seed {workload.seed}; "
                  f"oracle sample enlarged to {sample_size}")
        elif expected == found:
            print(f"digest {found} matches the recorded one")
        else:
            problems.append(f"digest {found} differs from the recorded {expected}")
            return attempted, problems
    if not sample_size:
        return 0, problems
    sample = workload.sample_positions(sample_size)
    disagreements = workload.oracle_problems(oracle, sample)
    print(f"oracle: {len(sample)} sampled positions, {len(disagreements)} disagree")
    problems += [f"position {p}: {m}" for p, messages in disagreements.items() for m in messages]
    return min(len(disagreements), attempted), problems


def report(metrics: dict[str, tuple[float, str]]) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:14.6f} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(args) -> int:
    load_program()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    workload.setup()  # warms up: compiles .pyc files, fills caches
    setups = [setup_sample(workload)]
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}")

    if args.trace:
        # The untraced half runs the traced operation without spans, so
        # trace.overhead_share compares like with like.
        untraced = timed_loop(workload, args.seconds / 2, tracing.Untraced())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_loop(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
    else:
        phases = [timed_loop(workload, args.seconds, setups=setups)]
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN if workload.name == "cli-goldens"
            else resource.RUSAGE_SELF
        ).ru_maxrss / 1024

    attempted = sum(len(p.latencies_ns) for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [problem for p in phases for problem in p.problems]
    extra, found = verify(workload, attempted, load_oracle())
    failed = min(attempted, failed + extra)
    problems += found
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    inputs = {**workload.inputs, **workload.deck_properties()}
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} ops)")

    if args.trace:
        ops = len(traced.latencies_ns)
        layers = tracing.layer_metrics(tracer.spans, tracer.counts, ops)
        layers["trace.overhead_share"] = 1 - traced.ops_per_kref / untraced.ops_per_kref
        layers["trace.coverage"] = tracing.coverage(tracer.spans)
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = report({m["name"]: (layers[m["name"]], m["unit"]) for m in units})
        tracer.write(TRACE_DIR / f"{workload.name}-seed{args.seed}.json")
        print(f"traced ops {ops}; spans written to {TRACE_DIR.name}/")
    else:
        phase = phases[0]
        latencies_ms = [ns / 1e6 for ns in phase.latencies_ns]
        print(f"latency samples {len(latencies_ms)}; wall time, not gated:")
        report({
            "ops_per_s": (phase.ops_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
            "latency_p90_ms": (p90(latencies_ms), "ms"),
            "reference_ms": (statistics.median(phase.references_ns) / 1e6, "ms"),
            "setup_wall_s": (statistics.median(wall for wall, _ in setups), "s"),
        })
        print("gated:")
        metrics = report({
            "ops_per_kref": (phase.ops_per_kref, "1/kref"),
            "latency_p50_ref": (statistics.median(phase.in_refs), "ref"),
            "latency_p90_ref": (p90(phase.in_refs), "ref"),
            "setup_s": (statistics.median(nominal for _, nominal in setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        })
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def record(args) -> int:
    """Store the deck digest of each seed, after an enlarged oracle check."""
    load_program()
    oracle = load_oracle()
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for seed in RECORDED_SEEDS:
        workload = workloads.WORKLOADS[args.workload](ROOT, seed)
        workload.setup()
        found = workload.deck_digest()
        if found is None:
            raise SystemExit(f"perfbench: {workload.name} has no digest to record")
        sample = workload.sample_positions(RECORD_SAMPLE * workload.oracle_sample)
        problems = workload.oracle_problems(oracle, sample)
        if problems:
            raise SystemExit(f"perfbench: seed {seed} disagrees with the oracle: {problems}")
        recorded.setdefault(workload.name, {})[str(seed)] = found
        print(f"{workload.name} seed {seed}: {found}", flush=True)
        EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process (so peak RSS is its own)."""
    codes = [
        subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]).returncode
        for name in workloads.WORKLOADS
    ]
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record deck digests of RECORDED_SEEDS instead of measuring")
    args = parser.parse_args(argv)
    if args.record:
        return record(args)
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
