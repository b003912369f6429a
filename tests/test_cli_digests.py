"""Byte identity of every CLI subcommand on every bundled fixture.

``cli_digests.json`` holds one SHA-256 per subcommand over its exit codes
and stdout with no fixture and with each bundled fixture, in JSON and in
``--pretty`` mode.  A change that alters any report fails here, naming
the subcommand.  After checking that a change in output is intended,
regenerate the file with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from mirrorcheck.cli import main
from mirrorcheck.fixtures import fixture_names

DIGESTS = pathlib.Path(__file__).with_name("cli_digests.json")

# Subcommand -> the arguments it needs besides --fixture and --pretty.
COMMANDS = {
    "polytope dual": [],
    "polytope reflexive": [],
    "polytope points": [],
    "polytope faces": [],
    "nef verify": [],
    "nef dual": [],
    "nef counts": [],
    "nef hodge": [],
    "nef refine": [],
    "lattice sum": [],
    "lattice invariants": [],
    "lattice complement": ["--spec", "<2>"],
    "lattice mirror": ["--spec", "<4>", "--expect", "H+E8(-1)+E8(-1)+<-4>"],
    "lattice isotropic": [],
    "lattice match": ["--a", "H+E8(-1)+E8(-1)", "--b", "H+E8(-1)+E8(-1)"],
    "hodge euler": [],
    "hodge mirror": [],
    "hodge lee": [],
    "hodge glue": [],
    "hodge lg-ranks": [],
    "hodge picard": [],
    "hodge slice": [],
    "hodge lmhs": ["--u", "19", "--v", "69"],
    "hodge conj318": [],
    "family quartic": ["--i", "2", "--j", "4", "--mu", "3,2,1"],
    "family sweep": [],
}


def digest(command: str) -> str:
    """SHA-256 over every (fixture, mode) run of one subcommand."""
    h = hashlib.sha256()
    for fixture in [None] + fixture_names():
        for mode in ([], ["--pretty"]):
            argv = command.split() + COMMANDS[command] + mode
            if fixture is not None:
                argv += ["--fixture", fixture]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            h.update(f"{argv}\n{code}\n{out.getvalue()}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_output_is_pinned(command):
    expected = json.loads(DIGESTS.read_text())
    assert digest(command) == expected[command], (
        f"`{command}` output changed on some fixture; if intended, regenerate "
        f"{DIGESTS.name}")


def test_digests_cover_every_subcommand():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(COMMANDS)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({c: digest(c) for c in sorted(COMMANDS)},
                                  indent=1, sort_keys=True) + "\n")
