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
