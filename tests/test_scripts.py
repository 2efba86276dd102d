"""The scripts the README documents: each runs, and the witness documents parse."""

from __future__ import annotations

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from res import parse_document

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(*argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, f"{' '.join(argv)} failed:\n{done.stderr}"
    return done.stdout


@pytest.mark.parametrize(
    "argv, key_line",
    [
        (
            ["run_example1.py", "--format", "text"],
            "structure example1: 5 arguments after refutation expansion",
        ),
        (["run_example1.py", "--format", "json"], '  "command": "rank",'),
        (["run_hominids.py", "--lifting", "--dot"], "digraph believability {"),
        (["find_witnesses.py", "--trials", "200"], "200 trials: "),
    ],
)
def test_documented_scripts_run(argv, key_line):
    lines = run_script(*argv).splitlines()
    assert any(line.startswith(key_line) for line in lines), lines[:10]


def load_find_witnesses():
    spec = importlib.util.spec_from_file_location(
        "find_witnesses", SCRIPTS / "find_witnesses.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def pool(structure) -> list[tuple[int, int]]:
    return [(a.presumption.models, a.conclusion.members) for a in structure.arguments]


def test_witness_documents_rebuild_the_sampled_pool():
    witnesses = load_find_witnesses()
    config = witnesses.SearchConfig(max_atoms=len(witnesses.ATOMS))
    rng = random.Random(7)
    tautologies = 0
    for _ in range(300):
        structure, _ = witnesses.random_structure(rng, config)
        text = witnesses.document_text(structure)
        assert pool(parse_document(text).to_structure()) == pool(structure), text
        tautologies += sum(a.presumption.is_tautology() for a in structure.arguments)
    assert tautologies  # the draws include presumptions true everywhere


def test_bench_pairs_summary_counts_wins_by_direction():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    def runs(*values, failed=0, correct=True):
        return [{"result": {"correct": correct, "failed": failed,
                            "metrics": {"ops": {"value": v}, "lat": {"value": v}}}}
                for v in values]

    parent, change = runs(10, 20, 30, 40, 50), runs(11, 19, 31, 41, 50)
    summary = bench_pairs.summary({"parent": parent, "change": change},
                                  {"ops": "higher", "lat": "lower"})
    metrics = summary["metrics"]
    assert metrics["ops"]["parent"] == {"median": 30, "quartiles": [15.0, 45.0]}
    assert metrics["ops"]["change"]["median"] == 31
    # A tie counts for neither side.
    assert (metrics["ops"]["change_won"], metrics["lat"]["change_won"]) == (3, 1)
    assert metrics["ops"]["pairs"] == 5
    assert summary["failed"] == summary["not_correct"] == {"parent": 0, "change": 0}
    single = bench_pairs.summary({"parent": runs(7), "change": runs(8)}, {"ops": "higher"})
    assert single["metrics"]["ops"]["parent"] == {"median": 7, "quartiles": [7, 7]}
    # Failed operations and incorrect runs are counted per side, not folded into the medians.
    mixed = runs(8, failed=3) + runs(9, correct=False)
    counted = bench_pairs.summary({"parent": runs(7, 7), "change": mixed}, {"ops": "higher"})
    assert counted["failed"] == {"parent": 0, "change": 3}
    assert counted["not_correct"] == {"parent": 0, "change": 1}
