"""Shared fixtures: the two bundled structures, built once per session."""

from __future__ import annotations

import pytest

from res import build_closure, fixture_text, load_structure, replace
from res.dsl import parse_document


@pytest.fixture(scope="session")
def example1():
    structure = load_structure(fixture_text("example1.res"))
    return structure, build_closure(structure)


@pytest.fixture(scope="session")
def hominids():
    structure = load_structure(fixture_text("hominids.res"))
    return structure, build_closure(structure)


@pytest.fixture(scope="session")
def hominids_lifting():
    document = parse_document(fixture_text("hominids.res"))
    document.options = replace(
        document.options, conjunction_lifting=True
    )
    structure = document.to_structure()
    return structure, build_closure(structure)
