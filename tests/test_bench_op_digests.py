"""Byte identity of every benchmark op at two seeds.

``bench_op_digests.json`` holds one SHA-256 per benchmark workload over
the exit code and stdout of every op that ``perfbench/gen.py`` builds for
that workload at seeds 1 and 7.  The generator is imported read-only and
writes its inputs into a temporary directory; the ops run in process,
from that directory, as the benchmark worker runs them.  A change that
alters any report on the benchmark's inputs fails here, naming the
workload.  After checking that a change in output is intended, regenerate
the file with

    PYTHONPATH=src python tests/test_bench_op_digests.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import tempfile

import pytest

from mirrorcheck.cli import main

DIGESTS = pathlib.Path(__file__).with_name("bench_op_digests.json")
GEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
SEEDS = (1, 7)


def _generator():
    spec = importlib.util.spec_from_file_location("mirrorcheck_bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN_MODULE = _generator()


def digest(workload: str, workdir: pathlib.Path) -> str:
    """SHA-256 over (op id, exit code, stdout) of every op at every seed."""
    h = hashlib.sha256()
    cwd = os.getcwd()
    for seed in SEEDS:
        outdir = workdir / f"{workload}-{seed}"
        ops = GEN_MODULE.build(workload, seed, str(outdir))["ops"]
        os.chdir(outdir)
        try:
            for op in ops:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(list(op["argv"]))
                h.update(f"{seed}:{op['id']}\n{code}\n{out.getvalue()}\n".encode())
        finally:
            os.chdir(cwd)
    return h.hexdigest()


@pytest.mark.parametrize("workload", GEN_MODULE.WORKLOADS)
def test_bench_ops_are_pinned(workload, tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert digest(workload, tmp_path) == expected[workload], (
        f"some `{workload}` benchmark op changed its exit code or stdout at "
        f"seed {' or '.join(map(str, SEEDS))}; if intended, regenerate {DIGESTS.name}")


def test_digests_cover_every_workload():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(GEN_MODULE.WORKLOADS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(
            {w: digest(w, pathlib.Path(tmp)) for w in GEN_MODULE.WORKLOADS},
            indent=1, sort_keys=True) + "\n")
