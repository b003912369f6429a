"""Bundled input fixtures.

Each fixture is one JSON file under ``data/`` holding the input slots
(polytope, partition parts, fibration, gram matrix, ...) that the CLI
subcommands consume through ``--fixture <name>``.  Only the names that
``fixture_names()`` lists are loaded; any other name, a path included, is an
``InputError``.  Each file is read once per process and its text parsed
afresh on every load.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from .errors import InputError

_PACKAGE = "mirrorcheck.data"


@functools.cache
def _bundled() -> tuple[str, ...]:
    """The bundled fixture names, listed once per process."""
    entries = resources.files(_PACKAGE).iterdir()
    return tuple(sorted(e.name[:-5] for e in entries if e.name.endswith(".json")))


def fixture_names() -> list[str]:
    return list(_bundled())


@functools.cache
def _text(name: str) -> str:
    """The text of the bundled fixture ``name``, read once per process."""
    return (resources.files(_PACKAGE) / f"{name}.json").read_text(encoding="utf-8")


def load_fixture(name: str) -> dict:
    """The fixture ``name``, which must be one that ``fixture_names()`` lists,
    parsed afresh on each call, so no caller shares another's objects."""
    if name not in _bundled():
        raise InputError(
            f"unknown fixture {name!r}; available: {', '.join(_bundled())}")
    return json.loads(_text(name))
