"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

They run every workload once (one pass, no minimum op count), traced and
untraced, so they take about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = gen.build(workload, 7, str(tmp_path / "a"))
    b = gen.build(workload, 7, str(tmp_path / "b"))
    other = gen.build(workload, 8, str(tmp_path / "c"))
    assert a == b
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a["ops"] != other["ops"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(run.per_layer_metric_names())


@pytest.fixture(scope="module")
def untraced():
    return {w: run.measure(w, 3, 0, trace=False, min_ops=1) for w in gen.WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: run.measure(w, 3, 0, trace=True, min_ops=1) for w in gen.WORKLOADS}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_fast_seed_runs_every_workload(untraced, workload):
    r = untraced[workload]
    assert r["passes"] == 1
    assert r["problems"] == []
    # Failures are exactly the recorded known-defect ops.
    assert r["failed"] == len(r["defects"])
    assert set(r["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, (value, unit) in r["metrics"].items():
        assert value > 0, name


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_stdout_is_byte_identical(traced, workload):
    # Every traced pass is compared byte for byte with the first untraced one.
    r = traced[workload]
    assert r["problems"] == []
    assert set(r["metrics"]) == set(run.per_layer_metric_names())
    assert r["metrics"]["cli.main.calls"][0] == r["ops_per_pass"]


def test_density_is_lower_on_points_skewed(traced):
    key = "polytopes.lattice_points.density"
    assert traced["points-skewed"]["metrics"][key][0] < traced["nef-suite"]["metrics"][key][0] / 10


def test_calibration_rescales_by_the_reference_kernel():
    nominal = speed.REF_NOMINAL_S
    times = [0.010, 0.020, 0.030]
    assert speed.calibrate(times, [nominal] * 3) == times
    assert speed.calibrate(times, [2 * nominal] * 3) == [t / 2 for t in times]
    # A slow burst in one kernel sample is outvoted by its neighbours.
    assert speed.slowness([nominal, 5 * nominal, nominal], window=1) == pytest.approx([3, 1, 3])


def _run_op(op: dict, workdir: str) -> tuple[int, str]:
    sys.path.insert(0, run.SRC)
    from mirrorcheck import cli

    cwd = os.getcwd()
    buf = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op["argv"]))
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def _result(got: dict, passes: int) -> dict:
    """A worker result for one op, as run.assess reads it."""
    return {"latencies_s": [[0.01] * passes], "ops": [got]}


def _bump_last_digit(report: dict, path: list) -> None:
    node = report["payload"]
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    if isinstance(value, str):  # a rational such as "7/4"
        last = int(value[-1])
        node[path[-1]] = value[:-1] + str(last - 1 if last == 9 else last + 1)
    else:
        node[path[-1]] = value - 1 if abs(value) % 10 == 9 else value + (1 if value >= 0 else -1)


# (workload, op id suffix, payload path of the digit to change)
CORRUPTIONS = [
    ("nef-suite", "quintic.0/nef-counts", ["complement_count"]),
    ("nef-suite", "quintic.0/nef-counts", ["curve_invariant"]),
    ("nef-suite", "wp1113.0/nef-hodge", ["h_d_minus_2_1"]),
    ("nef-suite", "p1p1p1.0/polytope-dual", ["dual", "vertices", 3, 1]),
    ("nef-suite", "p1p1p1.0/polytope-faces", ["f_vector", 2, 1]),
    ("nef-suite", "p5-33.0/nef-dual", ["nabla_point_counts", 0]),
    ("nef-suite", "cube4.0/nef-verify", ["part_sizes", 0]),
    ("points-skewed", "cube3.0/points-all", ["points", 5, 2]),
    ("points-skewed", "triangle.1/points-boundary", ["count"]),
    ("points-skewed", "cube3x2/points-interior", ["points", 0, 0]),
    ("lattice-family", "mirror.rank1.0", ["det"]),
    ("lattice-family", "mirror.H.1", ["discriminant", "form_values", 3]),
    ("lattice-family", "invariants.2", ["signature", 0]),
    ("lattice-family", "isotropic.found", ["vector", 0]),
    ("lattice-family", "family.quartic.0", ["V", "h21"]),
    ("lattice-family", "hodge.lmhs.1", ["table", 1, 1]),
]


@pytest.mark.parametrize("workload,op_id,path", CORRUPTIONS)
def test_corrupted_report_counts_as_failed(tmp_path, workload, op_id, path):
    manifest = gen.build(workload, 5, str(tmp_path))
    op = next(o for o in manifest["ops"] if o["id"] == op_id)
    code, stdout = _run_op(op, str(tmp_path))
    assert oracle.check(op, code, stdout) == []
    report = json.loads(stdout)
    _bump_last_digit(report, path)
    bad = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert bad != stdout
    assert oracle.check(op, code, bad) != []
    result = _result({"code": code, "stdout": bad, "mismatches": 0, "exception": None}, 1)
    verdict = run.assess([op], result)
    assert verdict["failed"] == 1 and verdict["problems"]


def test_changed_bytes_in_a_later_pass_count_as_failed(tmp_path):
    manifest = gen.build("lattice-family", 5, str(tmp_path))
    op = next(o for o in manifest["ops"] if o["id"] == "hodge.euler")
    code, stdout = _run_op(op, str(tmp_path))
    result = _result({"code": code, "stdout": stdout, "mismatches": 2, "exception": None}, 4)
    verdict = run.assess([op], result)
    assert verdict["failed"] == 2 and verdict["problems"]


def test_known_defect_is_recorded_not_hidden():
    op = {"id": "x", "argv": ["lattice", "invariants", "--gram", "[[0,1],[1,-2]]"]}
    exc = {"name": "ZeroDivisionError", "site": "lattices.signature", "message": ""}
    got = {"code": None, "stdout": "", "mismatches": 0, "exception": exc}
    verdict = run.assess([op], _result(got, 3))
    assert verdict["failed"] == 3
    assert verdict["problems"] == []
    assert verdict["defects"] == [("x", "ZeroDivisionError", "lattices.signature", op["argv"])]
    verdict = run.assess([op], _result(dict(got, exception=dict(exc, name="KeyError")), 1))
    assert verdict["failed"] == 1 and verdict["problems"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nef-suite",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
