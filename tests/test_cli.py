"""The ``res`` command line tool: golden outputs, schemas, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from res import cli, fixture_path, render
from res.dsl import parse_document

from strategies import random_document_text


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _manifest():
    raw = json.loads(fixture_path("expected/manifest.json").read_text())
    entries = []
    for entry in raw:
        argv = [
            piece.replace("<fixture>", str(fixture_path(entry["fixture"])))
            for piece in entry["argv"]
        ]
        entries.append((entry["output"], argv))
    return entries

MANIFEST = _manifest()
SCHEMAS = json.loads((Path(__file__).parent / "schemas.json").read_text())


@pytest.mark.parametrize(
    "output,argv", MANIFEST, ids=[name for name, _ in MANIFEST]
)
def test_golden_outputs(output, argv):
    expected = fixture_path(f"expected/{output}").read_text()
    code, first = run_cli(argv)
    assert code == 0
    assert first == expected
    _, second = run_cli(argv)
    assert second == first  # rendering is deterministic
    if output.endswith(".dot"):
        assert_well_formed_dot(first)


def test_json_goldens_match_their_schemas():
    jsonschema = pytest.importorskip("jsonschema")
    checked = 0
    for output, argv in MANIFEST:
        if output.endswith(".json"):
            payload = json.loads(fixture_path(f"expected/{output}").read_text())
            jsonschema.validate(payload, SCHEMAS[argv[0]])
            checked += 1
    assert checked


def _offered_formats():
    """Each subcommand of the parser with its ``--format`` choices."""
    commands = next(
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: next(a.choices for a in sub._actions if a.dest == "format")
        for name, sub in commands.choices.items()
    }


def test_each_command_and_format_has_one_view():
    offered = _offered_formats()
    views = {
        name for name, value in vars(render).items()
        if not name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == render.__name__
    }
    assert views == {f"{c}_{f}" for c, formats in offered.items() for f in formats}
    for command, formats in offered.items():
        signatures = {
            tuple(inspect.signature(getattr(render, f"{command}_{f}")).parameters)
            for f in formats
        }
        assert len(signatures) == 1, (command, signatures)
    assert set(SCHEMAS) == {c for c, formats in offered.items() if "json" in formats}


def test_each_call_enters_exactly_one_view(monkeypatch):
    # Wrap every public view, as a tracer counting rendered bytes does, so
    # a view that calls another would count the same text twice.
    entered = []

    def counted(name, view):
        def wrapper(*args):
            entered.append(name)
            return view(*args)
        return wrapper

    for name, value in list(vars(render).items()):
        if (
            not name.startswith("_") and inspect.isfunction(value)
            and value.__module__ == render.__name__
        ):
            monkeypatch.setattr(render, name, counted(name, value))
    for output, argv in MANIFEST:
        entered.clear()
        code, _ = run_cli(argv)
        view_format = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        assert (code, entered) == (0, [f"{argv[0]}_{view_format}"]), output


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_script(name):
    """The ``module:function`` target of *name* in ``[project.scripts]``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: the backport, if present
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    module, _, function = scripts[name].partition(":")
    return module, function


def _assert_check_ok(command):
    argv = [*command, "check", str(fixture_path("example1.res"))]
    result = subprocess.run(argv, capture_output=True, text=True)
    context = f"{argv} exited {result.returncode}; stderr:\n{result.stderr}"
    assert result.returncode == 0, context
    assert "consistency: ok" in result.stdout, (
        f"{context}\nstdout:\n{result.stdout}"
    )


def test_console_script_is_installed():
    # Run the declared entry point the way a console-script wrapper does,
    # so the declaration is checked without an install step.
    module, function = _declared_script("res")
    _assert_check_ok([
        sys.executable,
        "-c",
        f"import sys; from {module} import {function}; sys.exit({function}())",
    ])
    # Where the package is installed, the generated script must agree.
    executable = shutil.which("res")
    if executable:
        _assert_check_ok([executable])


def test_importing_the_cli_loads_neither_dataclasses_nor_json():
    """One fresh CLI process: the imports it paid for, then a JSON golden."""
    probe = (
        "import sys; from res.cli import main; "
        "loaded = {'dataclasses', 'inspect', 'json'} & set(sys.modules); "
        "print(*sorted(loaded), file=sys.stderr); sys.exit(main(sys.argv[1:]))"
    )
    output, argv = next(entry for entry in MANIFEST if entry[0].endswith(".json"))
    package_root = str(Path(cli.__file__).resolve().parents[1])
    # -S: no site hook loads a module on the interpreter's behalf.
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip() == ""
    assert result.stdout == fixture_path(f"expected/{output}").read_text()


# ---------------------------------------------------------------------------
# Operand conveniences.
# ---------------------------------------------------------------------------


EXAMPLE1 = str(fixture_path("example1.res"))


def test_bare_names_mean_singletons():
    argv = ["compare", EXAMPLE1, "--given", "e1 & e2"]
    bare = run_cli(argv + ["Al1", "Al2"])
    braced = run_cli(argv + ["{Al1}", "{Al2}"])
    assert bare == braced
    assert bare[0] == 0
    assert "StrictlyLess" in bare[1]


def test_rank_with_explicit_candidates():
    code, out = run_cli(
        ["rank", EXAMPLE1, "--given", "e1 & e2", "{Al1}", "{Al2}"]
    )
    assert code == 0
    assert "Al1" in out and "Al2" in out
    assert "Al3" not in out


def test_candidate_modes_through_the_cli():
    code, out = run_cli(
        ["rank", EXAMPLE1, "--given", "e1 & e2", "--candidates", "all"]
    )
    assert code == 0
    assert "{Al1, Al2, Al3}" in out
    code, _ = run_cli(
        [
            "diagram",
            EXAMPLE1,
            "--given",
            "e1",
            "--candidates",
            "singletons+complements",
        ]
    )
    assert code == 0


def test_set_overrides_change_the_answer(tmp_path):
    hominids = str(fixture_path("hominids.res"))
    given = "e1 & e2 & e12 & e23 & e13"
    _, plain = run_cli(["rank", hominids, "--given", given])
    code, lifted = run_cli(
        ["rank", hominids, "--given", given, "--set", "conjunction_lifting=true"]
    )
    assert code == 0
    assert plain != lifted
    assert "maximal: B5" in plain
    assert "maximal: B2, B5" in lifted


# ---------------------------------------------------------------------------
# Exit codes.
# ---------------------------------------------------------------------------


def test_usage_errors_exit_one():
    assert run_cli([])[0] == 1
    assert run_cli(["bogus"])[0] == 1
    assert run_cli(["condition", EXAMPLE1])[0] == 1  # --given is required
    assert run_cli(["rank", EXAMPLE1, "--given", "e1", "--format", "yaml"])[0] == 1
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["rank", "--help"])[0] == 0


def test_missing_file_exits_one(tmp_path, capsys):
    code, _ = run_cli(["check", str(tmp_path / "absent.res")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("res: error: [Errno 2] ") and "absent.res" in err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


RANK_ALL = [
    "rank", str(fixture_path("hominids.res")),
    "--given", "e1 & e2 & e12 & e23 & e13", "--candidates", "all",
]


def test_a_closed_stdout_stops_quietly(capsys):
    with contextlib.redirect_stdout(_ClosedPipe()):
        code = cli.main(RANK_ALL)
    assert code == 1
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_stops_the_process_quietly():
    # The read end is closed before the child starts, so its first write fails.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "res.cli", *RANK_ALL],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": package_root},
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, "")


def test_parse_errors_are_located_on_stderr(tmp_path, capsys):
    path = tmp_path / "broken.res"
    path.write_text(
        "structure t\nevidence atoms: e1\nalternatives: A, B\n"
        "arg a1: e9 => {A}\n"
    )
    code, _ = run_cli(["condition", str(path), "--given", "e1"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{path}:4:" in err
    assert "e9" in err


def test_bad_given_and_operands_exit_one(capsys):
    assert run_cli(["condition", EXAMPLE1, "--given", "e1 &"])[0] == 1
    assert run_cli(["condition", EXAMPLE1, "--given", "e1 & !e1"])[0] == 1
    assert run_cli(["compare", EXAMPLE1, "--given", "e1", "Al1", "{Nope}"])[0] == 1
    assert (
        run_cli(["plausible", EXAMPLE1, "--given", "e1", "{Al1, Al2, Al3}"])[0]
        == 1
    )
    capsys.readouterr()


def test_bad_set_overrides_exit_one(capsys):
    code, _ = run_cli(["check", EXAMPLE1, "--set", "nonsense=1"])
    assert code == 1
    assert "--set" in capsys.readouterr().err
    assert run_cli(["check", EXAMPLE1, "--set", "disjunction_cap=soon"])[0] == 1
    capsys.readouterr()


def test_set_errors_name_the_flag_and_the_rule(capsys):
    code, out = run_cli(["check", EXAMPLE1, "--set", "conjunction_lifting=true"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "res: error: bad --set 'conjunction_lifting=true': "
        "conjunction_lifting requires conjunction_arguments\n"
    )
    assert run_cli(["check", EXAMPLE1, "--set", "disjunction_closure_cap=many"])[0] == 1
    assert capsys.readouterr().err == (
        "res: error: bad --set 'disjunction_closure_cap=many': "
        "option disjunction_closure_cap expects an integer, got 'many'\n"
    )
    assert run_cli(["check", EXAMPLE1, "--set", "disjunction_closure_cap=4097"]) == (1, "")
    assert capsys.readouterr().err == (
        "res: error: bad --set 'disjunction_closure_cap=4097': "
        "disjunction_closure_cap must be at most 4096\n"
    )
    assert run_cli(["check", EXAMPLE1, "--set", "disjunction_closure_cap=4096"])[0] == 0
    code, _ = run_cli(
        ["check", EXAMPLE1, "--set", "conjunction_lifting=true",
         "--set", "conjunction_arguments=true"]
    )
    assert code == 0
    capsys.readouterr()


def test_check_exits_two_on_violations_and_overrides_can_clear_them(tmp_path):
    path = tmp_path / "clash.res"
    path.write_text(
        "structure clash\n"
        "evidence atoms: x\n"
        "alternatives: A, B\n"
        "arg a1: x => {A}\n"
        "arg a2: x => {B}\n"
        "rel: a1 < a2\n"
    )
    code, out = run_cli(["check", str(path)])
    assert code == 2
    assert "violation" in out
    code, out = run_cli(
        ["check", str(path), "--set", "same_presumption_equal=false"]
    )
    assert code == 0
    assert "consistency: ok" in out


# ---------------------------------------------------------------------------
# Generated documents keep every output format well formed.
# ---------------------------------------------------------------------------


def assert_well_formed_dot(dot):
    lines = dot.splitlines()
    assert lines[0] == "digraph believability {"
    assert lines[-1] == "}"
    nodes = re.findall(r'^  (n\d+) \[label="([^"]+)"\];$', dot, re.M)
    edges = re.findall(r"^  (n\d+) -> (n\d+);$", dot, re.M)
    names = [name for name, _ in nodes]
    assert len(names) == len(set(names))
    defined = set(names)
    assert all(a in defined and b in defined for a, b in edges)
    # Covering edges must form a cycle-free graph: peel sources repeatedly.
    remaining = {name: {a for a, b in edges if b == name} for name in names}
    while remaining:
        free = [n for n, preds in remaining.items() if not preds]
        assert free, f"cycle among {sorted(remaining)}"
        for name in free:
            del remaining[name]
        for preds in remaining.values():
            preds.difference_update(free)
    return nodes, edges


def test_validation_runs_once_for_check_and_never_for_queries(monkeypatch):
    from res.structure import EvidenceStructure

    calls = []
    validate = EvidenceStructure.validate

    def counted(structure):
        calls.append(structure.name)
        return validate(structure)

    monkeypatch.setattr(EvidenceStructure, "validate", counted)
    path = str(fixture_path("hominids.res"))
    assert run_cli(["check", path])[0] == 0
    assert calls == ["hominids"]
    calls.clear()
    assert run_cli(["rank", path, "--given", "e1"])[0] == 0
    assert calls == []


def _random_queries(tmp_path):
    """Twenty seeded random documents: each one's alternatives and queries."""
    rng = random.Random(31415)
    for i in range(20):
        text = random_document_text(rng)
        document = parse_document(text)
        path = tmp_path / f"doc{i}.res"
        path.write_text(text)
        alternatives = document.conclusion_frame.alternatives
        query = [str(path), "--given", document.evidence_frame.atoms[0]]
        yield text, alternatives, {
            "check": ["check", str(path)],
            "condition": ["condition", *query],
            "rank": ["rank", *query],
            "diagram": ["diagram", *query],
            "compare": [
                "compare", *query, alternatives[0], f"!{{{alternatives[0]}}}",
            ],
            "plausible": ["plausible", *query, alternatives[0]],
            "explain": ["explain", *query, alternatives[0], alternatives[1]],
        }


def test_random_documents_keep_outputs_well_formed(tmp_path):
    for text, alternatives, queries in _random_queries(tmp_path):
        for command, argv in queries.items():
            code, out = run_cli(argv + ["--format", "json"])
            assert code in ((0, 2) if command == "check" else (0,)), (command, text)
            assert json.loads(out)["command"] == command
            assert run_cli(argv)[0] == code

        code, dot = run_cli(queries["diagram"] + ["--format", "dot"])
        assert code == 0
        nodes, _ = assert_well_formed_dot(dot)
        mentioned = " ".join(label for _, label in nodes)
        for name in alternatives:
            assert mentioned.count(f"{{{name}}}") == 1


def test_random_document_outputs_match_their_schemas(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    for _, _, queries in _random_queries(tmp_path):
        for command, argv in queries.items():
            _, out = run_cli(argv + ["--format", "json"])
            jsonschema.validate(json.loads(out), SCHEMAS[command])
