"""The three workloads: what one operation is, how it is checked, and set-up.

Each workload turns its seed into a fixed *deck* of operations before any
timing starts.  The timed loop walks the deck in order and wraps around
when it runs out, so every run times the same mix.  An operation returns
engine objects; :meth:`Workload.check` turns them into plain data (public
fields only), outside the timed region.

* ``cli-goldens`` runs one ``fixtures/expected/manifest.json`` invocation
  in a fresh interpreter and compares stdout with the golden, byte for
  byte.
* ``query-sweep`` asks one closed structure "what now?" under one seeded
  observation: ``build_sentence`` -> ``condition`` -> ``rank`` ->
  ``rank_text`` -> ``explain`` -> ``explain_text``.
* ``build-check`` builds and audits one seeded document:
  ``parse_document`` -> ``to_structure`` -> ``validate`` ->
  ``build_closure`` -> ``check_consistency`` -> ``check_text``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import res; "
    "print(time.perf_counter() - t)"
)
CLI_ENTRY = "import sys; from res.cli import main; sys.exit(main(sys.argv[1:]))"

#: Fixed seeds of the synthetic family members (one seed per size), so a
#: query-sweep seed varies the observations, not the structures.
SYNTHETIC_SIZES = {"synthetic-200": (200, 2013), "synthetic-400": (400, 2014)}


def digest(record) -> str:
    return hashlib.sha256(
        json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def python_reference_ns() -> int:
    """One run of a fixed pure-Python loop of about 0.4 ms."""
    started = time.perf_counter_ns()
    table: dict[int, int] = {}
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter_ns() - started


def fresh_import_seconds(root: Path) -> float:
    """Time of ``import res`` inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=child_env(root), cwd=root, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(done.stdout.strip())


class Workload:
    """One workload's deck, operation, output check and set-up."""

    name = ""
    #: Operations in one pass of the deck; the digest covers one pass.
    deck_size = 0
    #: Deck positions that are re-derived with the oracle after the run.
    oracle_sample = 0

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.hashes: dict[int, str] = {}
        self.sizes: dict[int, tuple] = {}
        self.inputs: dict[str, float] = {}

    def setup(self) -> float:
        """Set up once; returns the seconds it took.  The runner repeats
        this through the run, so it must leave the workload ready."""
        return fresh_import_seconds(self.root)

    def reference_ns(self) -> int:
        """One run of the reference job that operations are measured in."""
        return python_reference_ns()

    def run(self, position: int):
        raise NotImplementedError

    def run_traced(self, position: int, tracer):
        """The operation as the traced run issues it, with *tracer* (a
        :class:`tracing.Tracer` or :class:`tracing.Untraced`) for extra spans."""
        return self.run(position)

    def record(self, position: int, result):
        """Plain data describing *result*; hashed for the digest."""
        raise NotImplementedError

    def check(self, position: int, result) -> str | None:
        """A problem with *result*, or None.  Repeats of a position must
        reproduce its first output."""
        record = self.record(position, result)
        self.sizes[position] = self.size_of(position, result)
        value = digest(record)
        first = self.hashes.setdefault(position, value)
        if first != value:
            return f"position {position} changed its output"
        return None

    def size_of(self, position: int, result) -> tuple:
        """Input properties of one operation, read off its result."""
        return ()

    def attempt(self, position: int) -> tuple[object, str | None]:
        """Run *position* untimed; returns (result, problem)."""
        try:
            result = self.run(position)
        except Exception as exc:  # a raising operation is a failure
            return None, f"{type(exc).__name__}: {exc}"
        return result, self.check(position, result)

    def deck_digest(self) -> str | None:
        """Digest over one pass of the deck; runs the positions the timed
        loop did not reach (untimed).  None when the workload has no digest."""
        for position in range(self.deck_size):
            if position not in self.hashes:
                _, problem = self.attempt(position)
                if problem is not None:
                    self.hashes[position] = problem
        joined = "".join(self.hashes[p] for p in range(self.deck_size))
        return hashlib.sha256(joined.encode()).hexdigest()

    def oracle_problems(self, oracle, positions) -> dict[int, list[str]]:
        """Re-run *positions* and compare each with the oracle; returns the
        disagreements by position."""
        return {}

    def deck_properties(self) -> dict:
        return {}

    def sample_positions(self, count: int) -> list[int]:
        """A seeded sample of *count* deck positions for the oracle."""
        picker = random.Random(f"oracle:{self.name}:{self.seed}")
        return sorted(picker.sample(range(self.deck_size), min(count, self.deck_size)))


# -- cli-goldens ---------------------------------------------------------------


class CliGoldens(Workload):
    name = "cli-goldens"
    deck_size = 23 * 8

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        expected = root / "src" / "res" / "fixtures" / "expected"
        cases = json.loads((expected / "manifest.json").read_text())
        self.cases = []
        for case in cases:
            fixture = str(root / "src" / "res" / "fixtures" / case["fixture"])
            argv = [fixture if part == "<fixture>" else part for part in case["argv"]]
            self.cases.append((argv, (expected / case["output"]).read_bytes()))
        self.deck = []
        while len(self.deck) < self.deck_size:
            order = list(range(len(self.cases)))
            self.rng.shuffle(order)
            self.deck.extend(order)
        self.env = child_env(root)
        self.inputs = {"invocations": len(self.cases)}

    def reference_ns(self) -> int:
        """A bare interpreter start (``python -c pass``): an operation runs
        in a child process, which the in-process loop would not track."""
        started = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.root,
                       capture_output=True, timeout=60, check=True)
        return time.perf_counter_ns() - started

    def run(self, position: int):
        argv, _ = self.cases[self.deck[position]]
        done = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            env=self.env, cwd=self.root, capture_output=True, timeout=60,
        )
        return done.returncode, done.stdout

    def run_traced(self, position: int, tracer):
        """The same invocation as its three parts: interpreter start, a
        fresh ``import res``, and ``cli.main`` in this process."""
        import res.cli

        tracer.span("cli.interpreter", subprocess.run, [sys.executable, "-c", "pass"],
                    env=self.env, cwd=self.root, capture_output=True, timeout=60,
                    check=True)
        tracer.span("cli.import", subprocess.run, [sys.executable, "-c", "import res"],
                    env=self.env, cwd=self.root, capture_output=True, timeout=60,
                    check=True)
        argv, _ = self.cases[self.deck[position]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = res.cli.main(argv)
        return code, out.getvalue().encode("utf-8")

    def check(self, position: int, result) -> str | None:
        code, stdout = result
        argv, golden = self.cases[self.deck[position]]
        if code != 0:
            return f"{argv[0]}: exit code {code}"
        if stdout != golden:
            return f"{' '.join(argv)}: stdout differs from the golden"
        return None

    def deck_digest(self) -> None:
        return None  # the goldens themselves are the reference


# -- query-sweep ---------------------------------------------------------------


class QuerySweep(Workload):
    name = "query-sweep"
    deck_size = 275
    oracle_sample = 10

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.documents = {
            key: gen.synthetic(random.Random(family_seed), size)
            for key, (size, family_seed) in SYNTHETIC_SIZES.items()
        }
        hominids = (root / "src" / "res" / "fixtures" / "hominids.res").read_text()
        self.documents["hominids"] = gen.Document(
            "hominids", hominids, gen.hominids_recipe()
        )
        # Blocks of five: one hominids query, two on each synthetic size;
        # synthetic observations fix 5, 6, 7 or 8 atoms in turn.
        fixed = {key: [] for key in SYNTHETIC_SIZES}
        states: list[str] = []
        self.deck = []
        while len(self.deck) < self.deck_size:
            block = ["hominids", "synthetic-200", "synthetic-200",
                     "synthetic-400", "synthetic-400"]
            self.rng.shuffle(block)
            for key in block:
                if key == "hominids":
                    if not states:
                        states = list(gen.HOMINIDS_STATES)
                        self.rng.shuffle(states)
                    given = states.pop()
                else:
                    if not fixed[key]:
                        fixed[key] = [5, 6, 7, 8]
                        self.rng.shuffle(fixed[key])
                    given = gen.partial_valuation(self.rng, fixed[key].pop())[0]
                self.deck.append((key, given, self.rng.random()))
        self.inputs = {
            "arguments_declared": sum(
                len(d.recipe["supports"]) for d in self.documents.values()
            ),
            "atoms": len(gen.SYNTH_ATOMS),
            "alternatives": len(gen.SYNTH_ALTERNATIVES),
        }

    def setup(self) -> float:
        import res

        self.structures = {}  # free the previous build first
        started = time.perf_counter()
        built = {}
        for key, document in self.documents.items():
            structure = res.parse_document(document.text).to_structure()
            built[key] = (structure, res.build_closure(structure))
        seconds = time.perf_counter() - started
        self.structures = built
        self.candidates = {
            key: res.candidate_sentences(
                structure.conclusion_frame,
                "all" if key == "hominids" else "singletons+complements",
            )
            for key, (structure, _) in built.items()
        }
        per_op = [len(self.candidates[key]) for key, _, _ in self.deck]
        self.inputs["arguments"] = sum(len(s.arguments) for s, _ in built.values())
        self.inputs["candidates_per_op"] = statistics.mean(per_op)
        return fresh_import_seconds(self.root) + seconds

    def run(self, position: int):
        from res import build_sentence, condition, explain, rank, render

        key, given, pick = self.deck[position]
        structure, closure = self.structures[key]
        candidates = self.candidates[key]
        conditioned = condition(structure, closure,
                                build_sentence(structure.evidence_frame, given))
        ranking = rank(conditioned, candidates)
        render.rank_text(conditioned, ranking)
        left = ranking.maximal[0]
        others = [c for c in candidates if c != left]
        trace = explain(conditioned, left, others[int(pick * len(others))])
        render.explain_text(conditioned, trace)
        return conditioned, ranking, trace

    def record(self, position: int, result):
        conditioned, ranking, trace = result

        def direction(d):
            return {
                "supported": d.source_supported,
                "holds": d.holds,
                "matches": [[m.support, m.matched_by] for m in d.matches],
                "unmatched": list(d.unmatched),
            }

        return {
            "structure": self.deck[position][0],
            "given": self.deck[position][1],
            "triggered": [a.id for a in conditioned.triggered],
            "candidates": [c.members for c in ranking.candidates],
            "matrix": [[v.value for v in row] for row in ranking.matrix],
            "maximal": [c.members for c in ranking.maximal],
            "explain": {
                "left": trace.left.members,
                "right": trace.right.members,
                "verdict": trace.verdict.value,
                "forward": direction(trace.forward),
                "backward": direction(trace.backward),
            },
        }

    def size_of(self, position: int, result) -> tuple:
        conditioned = result[0]
        return len(conditioned.triggered), len(conditioned.structure.arguments)

    def deck_properties(self) -> dict:
        triggered, total = map(sum, zip(*(self.sizes[p] for p in range(self.deck_size))))
        return {"conditioning.triggered_share": triggered / total}

    def oracle_problems(self, oracle, positions) -> dict[int, list[str]]:
        models = {}
        problems = {}
        for position in positions:
            key, given, _ = self.deck[position]
            if key not in models:
                models[key] = oracle.evaluate(oracle.Recipe(**self.documents[key].recipe))
            result, problem = self.attempt(position)
            found = [problem] if problem else query_disagreements(
                oracle, models[key], self.structures[key][0], result
            )
            if found:
                problems[position] = [f"{key} given {given}: {p}" for p in found]
        return problems


def query_disagreements(oracle, model, structure, result) -> list[str]:
    """Where one query-sweep result differs from the oracle's re-derivation."""
    conditioned, ranking, trace = result
    position = {a.id: i for i, a in enumerate(structure.arguments)}
    given_mask = conditioned.given.models
    active = oracle.triggered(model, given_mask)
    problems = []
    if [position[a.id] for a in conditioned.triggered] != active:
        problems.append("triggered arguments differ")

    def names(sentence):
        return frozenset(sentence.names())

    sets = [names(c) for c in ranking.candidates]
    for i, row in enumerate(ranking.matrix):
        for j, verdict in enumerate(row):
            expected = oracle.verdict(model, active, sets[i], sets[j])
            if verdict.value != expected:
                problems.append(
                    f"{ranking.candidates[i].describe()} vs "
                    f"{ranking.candidates[j].describe()}: {verdict.value}, "
                    f"oracle {expected}"
                )
    beaten = {
        i for i in range(len(sets)) for j in range(len(sets))
        if i != j and oracle.verdict(model, active, sets[i], sets[j]) == "StrictlyLess"
    }
    if [c.members for c in ranking.maximal] != [
        c.members for i, c in enumerate(ranking.candidates) if i not in beaten
    ]:
        problems.append("maximal candidates differ")
    left, right = names(trace.left), names(trace.right)
    if trace.verdict.value != oracle.verdict(model, active, left, right):
        problems.append("explanation verdict differs")
    for d, source, target in ((trace.forward, left, right), (trace.backward, right, left)):
        if d.holds != oracle.leq_conclusions(model, active, source, target):
            problems.append("explanation direction differs")
        rivals = oracle.supports(model, active, target)
        unmatched = [
            i for i in oracle.supports(model, active, source)
            if not any((i, j) in model.leq for j in rivals)
        ]
        if [position[s] for s in d.unmatched] != unmatched:
            problems.append("unmatched supports differ")
    return problems


# -- build-check ---------------------------------------------------------------


class BuildCheck(Workload):
    name = "build-check"
    deck_size = 1600
    oracle_sample = 24

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        # Blocks of four: three tiny documents and one large one; the large
        # documents take the templates in turn.
        self.deck = []
        while len(self.deck) < self.deck_size:
            block = ["tiny", "tiny", "tiny", "large"]
            self.rng.shuffle(block)
            for kind in block:
                name = f"doc{len(self.deck)}"
                if kind == "tiny":
                    self.deck.append(gen.tiny(self.rng, name))
                else:
                    template = gen.LARGE_TEMPLATES[
                        sum(d.kind != "tiny" for d in self.deck) % len(gen.LARGE_TEMPLATES)
                    ]
                    self.deck.append(gen.large(self.rng, name, template))
        self.inputs = {
            "arguments_declared_per_op": statistics.mean(
                len(d.recipe["supports"]) for d in self.deck
            ),
            "atoms_per_op": statistics.mean(len(d.recipe["atoms"]) for d in self.deck),
            "alternatives_per_op": statistics.mean(
                len(d.recipe["alternatives"]) for d in self.deck
            ),
            "large_share": sum(d.kind != "tiny" for d in self.deck) / len(self.deck),
        }

    def run(self, position: int):
        from res import build_closure, check_consistency, parse_document, render

        structure = parse_document(self.deck[position].text).to_structure()
        validation = structure.validate()
        closure = build_closure(structure)
        consistency = check_consistency(closure, structure)
        render.check_text(structure, validation, consistency)
        return structure, closure, validation, consistency

    def record(self, position: int, result):
        structure, _, validation, consistency = result
        index = {a.id: i for i, a in enumerate(structure.arguments)}
        return {
            "arguments": [
                [a.presumption.models, a.conclusion.members] for a in structure.arguments
            ],
            "capped": structure.disjunction_capped,
            "valid": validation.ok,
            "consistent": consistency.ok,
            "violations": [
                [v.declaration.ordinal, index[v.counter[0]], index[v.counter[1]]]
                for v in consistency.violations
            ],
        }

    def size_of(self, position: int, result) -> tuple:
        from res.structure import BASE_ORIGINS

        # An argument whose earliest origin is a generation pass was added
        # by ``run_generation_passes``; duplicates keep their first origin.
        structure = result[0]
        generated = sum(a.origins[0] not in BASE_ORIGINS for a in structure.arguments)
        return len(structure.arguments), generated, structure.disjunction_capped

    def deck_properties(self) -> dict:
        sizes = [self.sizes[p] for p in range(self.deck_size)]
        return {
            "arguments_per_op": statistics.mean(s[0] for s in sizes),
            "generated_arguments_per_op": statistics.mean(s[1] for s in sizes),
            "capped_documents": sum(s[2] for s in sizes),
        }

    def oracle_problems(self, oracle, positions) -> dict[int, list[str]]:
        problems = {}
        for position in positions:
            document = self.deck[position]
            result, problem = self.attempt(position)
            found = [problem] if problem else build_disagreements(
                oracle, oracle.evaluate(oracle.Recipe(**document.recipe)), result
            )
            if found:
                problems[position] = [f"{document.kind} document: {p}" for p in found]
        return problems

    def sample_positions(self, count: int) -> list[int]:
        """Mostly tiny documents, plus one large one in twelve (at least two)."""
        picker = random.Random(f"oracle:{self.name}:{self.seed}")
        positions = range(self.deck_size)
        tiny = [p for p in positions if self.deck[p].kind == "tiny"]
        large = [p for p in positions if self.deck[p].kind != "tiny"]
        count = min(count, self.deck_size)
        big = min(len(large), max(2, count // 12))
        return sorted(picker.sample(tiny, count - big) + picker.sample(large, big))


def build_disagreements(oracle, model, result) -> list[str]:
    """Where one build-check result differs from the oracle's re-derivation."""
    structure, closure, _, consistency = result
    problems = []
    alternatives = structure.conclusion_frame.alternatives
    engine_args = [(a.presumption.models, a.conclusion.members) for a in structure.arguments]
    oracle_args = [
        (
            sum(1 << v for v in a.presumption),
            sum(1 << alternatives.index(name) for name in a.conclusion),
        )
        for a in model.arguments
    ]
    if engine_args != oracle_args:
        return ["argument pools differ"]
    if structure.disjunction_capped != model.capped:
        problems.append("disjunction cap flag differs")
    ids = closure.ids
    for i, lower in enumerate(ids):
        for j, upper in enumerate(ids):
            if closure.leq(lower, upper) != ((i, j) in model.leq):
                problems.append(f"closure differs at {lower} <= {upper}")
                break
    index = {arg_id: i for i, arg_id in enumerate(ids)}
    violated = {
        (index[v.counter[1]], index[v.counter[0]])
        for v in consistency.violations
        if v.declaration.kind == "strict"
    }
    if violated != oracle.strict_violations(model):
        problems.append("strict violations differ")
    return problems


WORKLOADS = {w.name: w for w in (CliGoldens, QuerySweep, BuildCheck)}
