"""CLI behaviour: payloads, exit codes, determinism, error reporting."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorcheck import cli, fixtures, hodge as hg, intlinalg as la, lattices as lt, nef
from mirrorcheck import polytopes as pt
from mirrorcheck.cli import main
from mirrorcheck.fixtures import fixture_names, load_fixture
from mirrorcheck.intlinalg import mat_vec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_nef_counts_fixture(capsys):
    code, report = run_json(capsys, "nef", "counts", "--fixture", "p1p1p1")
    assert code == 0
    assert report["status"] == "PASS"
    assert report["payload"]["complement_count"] == 12


def test_nef_counts_from_files(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "rank": 3,
        "vertices": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    }))
    part = tmp_path / "part.json"
    part.write_text(json.dumps({
        "parts": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]],
    }))
    code, report = run_json(capsys, "nef", "counts",
                            "--polytope", str(poly), "--partition", str(part))
    assert code == 0
    assert report["payload"]["complement_count"] == 12


def test_nef_counts_skewed_quintic(tmp_path, capsys):
    # A GL(4, Z) image of the quintic: its polar's bounding box holds about
    # 10^11 lattice points, of which 126 lie in the polar.
    skew = [[7, 2, 0, 0], [3, 7, 2, 0], [0, 3, 7, 2], [0, 0, 3, 1]]
    quintic = load_fixture("quintic")
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [mat_vec(skew, v)
                                             for v in quintic["polytope"]["vertices"]]}))
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"parts": [[mat_vec(skew, v) for v in p]
                                          for p in quintic["parts"]]}))
    code, report = run_json(capsys, "nef", "counts",
                            "--polytope", str(poly), "--partition", str(part))
    assert code == 0
    assert report["payload"]["complement_count"] == 52


# Hulls per op: one for the input polytope, and for `nef dual`'s report one
# for nabla and one per full-dimensional nabla_i.  Validation and counts
# build none: nabla's lattice points are read off the nabla_i's, and its
# reflexivity is Borisov's theorem (see nef.dual_nef_partition).  The polar
# (a transposition) and the sweep's projections (read off ridges) build
# none either.  The hexagon's partition fails the nef check.
HULLS_PER_OP = [
    (["polytope", "dual"], {name: 1 for name in (
        "cube", "hexagon", "octahedron", "p1p1p1", "quartic", "quintic", "wp1113")}),
    (["nef", "dual"], {"hexagon": 1, "p1p1p1": 4, "quintic": 4, "wp1113": 4}),
    (["nef", "counts"], {"hexagon": 1, "p1p1p1": 1, "quintic": 1, "wp1113": 1}),
]


@pytest.mark.parametrize("command,fixture,expected", [
    (command, fixture, expected)
    for command, counts in HULLS_PER_OP for fixture, expected in counts.items()])
def test_hull_calls_per_op(command, fixture, expected, capsys, monkeypatch):
    calls = []
    real = pt.hull

    def counting(points):
        calls.append(1)
        return real(points)

    monkeypatch.setattr(pt, "hull", counting)
    monkeypatch.setattr(nef, "hull", counting)
    code, _ = run(capsys, *command, "--fixture", fixture)
    assert code == (2 if fixture == "hexagon" and command[0] == "nef" else 0)
    assert len(calls) == expected


# Lattice-point sweeps per nef op: Delta's, whose boundary points the
# partition must cover, and, for `nef dual` and `nef counts`, its polar's,
# whose points the tight-set rule sorts into the nabla_i; nabla is never
# swept.  Validation stops at the Cartier data, so `nef verify` and `nef
# refine` (two partitions of one Delta) sweep Delta alone.  The hexagon's
# partition fails the nef check before the polar is swept, and `nef hodge`
# sweeps nothing: Batyrev's formula is read off the vertices, normals and
# incidence tables of Delta and its polar.
SWEEPS_PER_OP = [
    (["nef", "verify"], {"hexagon": 1, "p1p1p1": 1, "quintic": 1, "wp1113": 1}),
    (["nef", "dual"], {"hexagon": 1, "p1p1p1": 2, "quintic": 2, "wp1113": 2}),
    (["nef", "counts"], {"hexagon": 1, "p1p1p1": 2, "quintic": 2, "wp1113": 2}),
    (["nef", "hodge"], {"p1p1p1": 0, "quintic": 0, "wp1113": 0}),
    (["nef", "refine"], {"p1p1p1": 1}),
]


@pytest.mark.parametrize("command,fixture,expected", [
    (command, fixture, expected)
    for command, counts in SWEEPS_PER_OP for fixture, expected in counts.items()])
def test_sweeps_per_op(command, fixture, expected, capsys, monkeypatch):
    swept = []
    real = pt._sweep

    def counting(poly):
        if "_sweep" not in poly._cache:
            swept.append(poly)
        return real(poly)

    monkeypatch.setattr(pt, "_sweep", counting)
    code, _ = run(capsys, *command, "--fixture", fixture)
    assert code == (0 if fixture != "hexagon" else 1 if command[1] == "verify" else 2)
    assert len(swept) == expected


# Dual partitions built per nef op: validation builds none, so `nef verify`
# and `nef refine` read no polar point; `nef dual` and `nef counts` build
# one.  The hexagon's partition fails validation first.  The ids name the
# op and the fixture, not the pinned count.
DUALS_PER_OP = [
    pytest.param(["nef", command], fixture, expected, id=f"{command}-{fixture}")
    for command, counts in [
        ("verify", {"hexagon": 0, "p1p1p1": 0, "quintic": 0, "wp1113": 0}),
        ("refine", {"p1p1p1": 0}),
        ("dual", {"hexagon": 0, "p1p1p1": 1, "quintic": 1, "wp1113": 1}),
        ("counts", {"hexagon": 0, "p1p1p1": 1, "quintic": 1, "wp1113": 1}),
    ] for fixture, expected in counts.items()]


@pytest.mark.parametrize("command,fixture,expected", DUALS_PER_OP)
def test_duals_per_op(command, fixture, expected, capsys, monkeypatch):
    built = []
    real = nef._nabla_point_sets

    def counting(np_):
        built.append(np_)
        return real(np_)

    monkeypatch.setattr(nef, "_nabla_point_sets", counting)
    code, _ = run(capsys, *command, "--fixture", fixture)
    assert code == (0 if fixture != "hexagon" else 1 if command[1] == "verify" else 2)
    assert len(built) == expected


# Cartier eliminations per nef op, as the right-hand width of each
# ``_echelon`` call in `nef`: one per facet of Delta, up to the first
# failing one, with a column for every part but the last, whose functional
# is read off the facet normal.  So the bundled two-part partitions carry
# one column, and the hexagon's fails the nef check on its first facet.
# `nef refine`'s coarse side, a one-part partition, runs none.  The dual
# reuses validation's functionals.  The ids name the op and the fixture.
CARTIER_SOLVES_PER_OP = [
    pytest.param(["nef", command], fixture, widths, id=f"{command}-{fixture}")
    for command in ("verify", "dual", "counts")
    for fixture, widths in [("hexagon", [1]), ("p1p1p1", [1] * 8), ("quintic", [1] * 5),
                            ("wp1113", [1] * 4)]
] + [pytest.param(["nef", "refine"], "p1p1p1", [1] * 8, id="refine-p1p1p1")]


@pytest.mark.parametrize("command,fixture,widths", CARTIER_SOLVES_PER_OP)
def test_cartier_solves_per_op(command, fixture, widths, capsys, monkeypatch):
    calls = []
    real = nef._echelon

    def counting(a, ncols):
        calls.append(len(a[0]) - ncols)
        return real(a, ncols)

    monkeypatch.setattr(nef, "_echelon", counting)
    code, _ = run(capsys, *command, "--fixture", fixture)
    assert code == (0 if fixture != "hexagon" else 1 if command[1] == "verify" else 2)
    assert calls == widths


# No nef op builds a face lattice: `nef hodge` reads Batyrev's sums off the
# facet-mask counts of the lattice-point sweep, with no `_faces` table, no
# `ell_star_face` and no `dual_face`, and the other ops read masks too.
@pytest.mark.parametrize("command,fixture", [
    (command, fixture) for command, counts in SWEEPS_PER_OP for fixture in counts])
def test_nef_ops_build_no_face_lattice(command, fixture, capsys, monkeypatch):
    calls = []

    def recording(name, real):
        def record(*args):
            calls.append(name)
            return real(*args)
        return record

    for module, name in [(pt, "_faces"), (pt, "ell_star_face"), (pt, "dual_face")]:
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    code, _ = run(capsys, *command, "--fixture", fixture)
    assert code == (0 if fixture != "hexagon" else 1 if command[1] == "verify" else 2)
    assert calls == []


# Eliminations and Smith forms per lattice op.  Each lattice splits its
# Gram matrix into orthogonal blocks once and runs one elimination per
# block, whose leading minors give its signature and determinant; no op
# takes a Bareiss determinant.  A direct sum carries its summands' blocks
# and runs none of its own, and the standard pieces H, E8(-1) and A1(-1)
# are split at import, so a spec'd sum eliminates only its fresh rank-one
# pieces.  A block of |det| > 1 takes one Smith form for the discriminant;
# the unimodular blocks, H and E8(-1), take none.  `lattice invariants` on
# H+E8(-1)+E8(-1)+<-4> eliminates <-4> alone.  A spec's canonical embedding
# is a direct summand by construction and takes no Smith-form check.
# `lattice complement` takes the kernel in one Smith form and does not
# check it again; the complements of <4> and H+E8(-1) have 5 and 3 blocks,
# and only <4>'s <-4> has |det| > 1.  `lattice mirror --expect` takes the
# invariants of the mirror, 3 blocks for H and 4 for <2> and <4>, and of
# the target, whose only fresh piece is <4>'s <-4>; only the rank-one
# blocks take a Smith form, and the construction's three transforms take
# the other three.  The ids name the op and its input, not the pinned counts.
LATTICE_KERNEL_CALLS = [
    pytest.param(["lattice", "invariants", "--fixture", "posdef2"], 1, 1,
                 id="invariants-fixture-posdef2"),
    pytest.param(["lattice", "invariants", "--spec", "H+E8(-1)+E8(-1)+<-4>"], 1, 1,
                 id="invariants-spec-H-E8-E8-m4"),
    pytest.param(["lattice", "mirror", "--spec", "H", "--expect", "H+E8(-1)+E8(-1)"], 3, 3,
                 id="mirror-spec-H"),
    pytest.param(["lattice", "mirror", "--spec", "<2>", "--expect", "H+E8(-1)+E8(-1)+A1(-1)"],
                 4, 5, id="mirror-spec-2"),
    pytest.param(["lattice", "mirror", "--spec", "<4>", "--expect", "H+E8(-1)+E8(-1)+<-4>"],
                 5, 5, id="mirror-spec-4"),
    pytest.param(["lattice", "complement", "--spec", "<4>"], 5, 2, id="complement-spec-4"),
    pytest.param(["lattice", "complement", "--spec", "H+E8(-1)"], 3, 1,
                 id="complement-spec-H-E8"),
]


def _count_kernel_calls(monkeypatch):
    """Count per-block eliminations, determinants and Smith forms, and
    keep the most rows any Smith form is given."""
    calls = {"_minors": 0, "determinant": 0, "smith_normal_form": 0}
    rows = [0]
    for name in calls:
        module = lt if name == "_minors" else la
        real = getattr(module, name)

        def counting(m, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            if _name == "smith_normal_form":
                rows[0] = max(rows[0], len(m))
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls, rows


@pytest.mark.parametrize("argv,eliminations,smith_forms", LATTICE_KERNEL_CALLS)
def test_lattice_kernel_calls_per_op(argv, eliminations, smith_forms, capsys, monkeypatch):
    calls, _ = _count_kernel_calls(monkeypatch)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert calls == {"_minors": eliminations, "determinant": 0,
                     "smith_normal_form": smith_forms}


# The most rows any Smith form of the op is given.  A discriminant takes its
# Smith forms on the orthogonal blocks of |det| > 1 only, so a spec'd
# lattice's largest is a rank-one block (1), not an E8(-1) block (8) or its
# whole Gram matrix (19 for the <2> and <4> mirrors, 18 for H).  The H
# mirror's largest is ``image_basis @ G`` on its embedding's two rows, and
# `lattice complement` takes its kernel on all of the image's rows (10 for
# H+E8(-1)).
LARGEST_SMITH_INPUT = [
    (["lattice", "invariants", "--fixture", "posdef2"], 2),
    (["lattice", "invariants", "--spec", "H+E8(-1)+E8(-1)+<-4>"], 1),
    (["lattice", "mirror", "--spec", "H", "--expect", "H+E8(-1)+E8(-1)"], 2),
    (["lattice", "mirror", "--spec", "<2>", "--expect", "H+E8(-1)+E8(-1)+A1(-1)"], 1),
    (["lattice", "mirror", "--spec", "<4>", "--expect", "H+E8(-1)+E8(-1)+<-4>"], 1),
    (["lattice", "complement", "--spec", "<4>"], 1),
    (["lattice", "complement", "--spec", "H+E8(-1)"], 10),
]


@pytest.mark.parametrize("argv,rows", LARGEST_SMITH_INPUT)
def test_lattice_smith_forms_see_one_block_at_a_time(argv, rows, capsys, monkeypatch):
    _, largest = _count_kernel_calls(monkeypatch)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert largest == [rows]


@pytest.mark.parametrize("argv", [param.values[0] for param in LATTICE_KERNEL_CALLS])
def test_no_smith_form_is_given_a_unimodular_block(argv, capsys, monkeypatch):
    square = []
    real = la.smith_normal_form

    def recording(m, *args, **kwargs):
        if m and len(m) == len(m[0]):
            square.append(abs(la.determinant(m)))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(la, "smith_normal_form", recording)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert 1 not in square


# Lattices validated by ``QuadLattice.__post_init__`` per op.  The standard
# pieces are built once, at import: the <4> mirror validates <4>, the
# complement's induced form, the mirror quotient, <-4> and the target sum;
# the H+E8(-1) complement only its induced form; the invariants' spec <-4>
# and the sum.  The ids name the op and its input, not the pinned count, so
# a re-pinned count keeps its test's name.
@pytest.mark.parametrize("argv,validations", [
    pytest.param(["lattice", "mirror", "--spec", "<4>", "--expect", "H+E8(-1)+E8(-1)+<-4>"],
                 5, id="mirror-spec-4"),
    pytest.param(["lattice", "complement", "--spec", "H+E8(-1)"], 1, id="complement-spec-H-E8"),
    pytest.param(["lattice", "invariants", "--spec", "H+E8(-1)+E8(-1)+<-4>"], 2,
                 id="invariants-spec-H-E8-E8-m4"),
])
def test_lattice_validations_per_op(argv, validations, capsys, monkeypatch):
    calls = []
    real = lt.QuadLattice.__post_init__

    def counting(lat):
        calls.append(1)
        real(lat)

    monkeypatch.setattr(lt.QuadLattice, "__post_init__", counting)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == validations


def test_isotropic_takes_no_determinant(capsys, monkeypatch):
    calls, _ = _count_kernel_calls(monkeypatch)
    code, report = run_json(capsys, "lattice", "isotropic", "--spec", "E8(-1)+<-4>+H")
    assert code == 0
    assert report["payload"]["exists"] is True
    # The signature reads the sum's blocks, carried from E8(-1), <-4> and H;
    # only <-4>, the one piece not split at import, takes an elimination.
    assert calls == {"_minors": 1, "determinant": 0, "smith_normal_form": 0}


def test_ragged_gram_is_a_named_error(capsys):
    code = main(["lattice", "invariants", "--gram", "[[0,1],[]]"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["payload"] == {
        "error": "RankMismatch", "message": "gram matrix is not square"}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,message", [
    (["lattice", "complement", "--spec", "E8(-1)+E8(-1)+E8(-1)"],
     "piece 3 (E8(-1)) finds no free E8(-1) block left in the K3 lattice"),
    (["lattice", "mirror", "--spec", "H+H+H+H"],
     "piece 4 (H) finds no free H block left in the K3 lattice"),
    (["lattice", "mirror", "--spec", "<2>+<2>+<2>+<2>"],
     "piece 4 (<2>) finds no free H block left in the K3 lattice"),
], ids=["complement-e8x3", "mirror-hx4", "mirror-2x4"])
def test_overfull_canonical_embedding_is_a_named_error(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["status"] == "ERROR"
    assert report["payload"] == {"error": "RankMismatch", "message": message}
    assert "Traceback" not in captured.err


def test_isotropic_zero_pivot_gram(capsys):
    code, report = run_json(capsys, "lattice", "isotropic", "--gram", "[[0,1],[1,-2]]")
    assert code == 0
    assert report["payload"]["exists"] is True


def test_isotropic_definite_gram(capsys):
    code, report = run_json(capsys, "lattice", "isotropic", "--gram", "[[2,1],[1,2]]")
    assert code == 0
    assert report["status"] == "PASS"
    assert report["payload"]["exists"] is False
    assert report["payload"]["conclusive"] is True


def test_isotropic_inconclusive_exit(capsys):
    code, report = run_json(capsys, "lattice", "isotropic",
                            "--spec", "<2>+<-4>", "--bound", "3")
    assert code == 1
    assert report["status"] == "INCONCLUSIVE"


def test_isotropic_budget_exit(capsys):
    # x^2 + y^2 + z^2 = 7w^2 has no rational solution, and the box of
    # 25^4 = 390625 candidates exceeds the scan cap of 2^18.
    code, report = run_json(capsys, "lattice", "isotropic", "--gram",
                            "[[2,0,0,0],[0,2,0,0],[0,0,2,0],[0,0,0,-14]]", "--bound", "12")
    assert (code, report["status"]) == (2, "ERROR")
    assert report["payload"]["error"] == "BudgetExceeded"
    assert "390625 candidates" in report["payload"]["message"]


def test_isotropic_budget_with_a_box_too_large_to_print(capsys):
    # (2b+1)^10 for a 1200-digit b has more digits than Python will print;
    # the report once ended in an InternalError.
    code, report = run_json(capsys, "lattice", "isotropic", "--spec", "H+E8(-1)",
                            "--bound", "9" * 1200)
    assert (code, report["status"], report["payload"]["error"]) == (
        2, "ERROR", "BudgetExceeded")
    assert report["payload"]["message"].startswith("isotropic scan of a box of more than 10^")


def _simplex_file(tmp_path, d, scale):
    """A JSON polytope file of the simplex conv(0, scale e_1, ..., scale e_d)."""
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"vertices": [[0] * d] + [
        [scale * int(i == j) for j in range(d)] for i in range(d)]}))
    return str(path)


def test_lattice_points_budget_exit(tmp_path, capsys):
    # About 1.7 * 10^14 lattice points: the sweep once ran out of memory
    # with no report, and now stops at its cap.
    code, report = run_json(capsys, "polytope", "points", "--polytope",
                            _simplex_file(tmp_path, 3, 10**5), "--region", "interior")
    assert (code, report["status"], report["payload"]["error"]) == (2, "ERROR", "BudgetExceeded")
    assert report["payload"]["message"] == (
        "the lattice-point sweep passed its cap of 262144 prefixes and points, "
        "in a box of 1000030000300001 points")


def test_lattice_points_budget_with_a_box_too_large_to_print(tmp_path, capsys):
    code, report = run_json(capsys, "polytope", "points", "--polytope",
                            _simplex_file(tmp_path, 5, 10**1000))
    assert (code, report["status"], report["payload"]["error"]) == (2, "ERROR", "BudgetExceeded")
    assert report["payload"]["message"].endswith("in a box of more than 10^4300 points")


@pytest.mark.parametrize("w_chi", ["176", "5"])
def test_glue_negative_dimension_is_an_input_error(capsys, w_chi):
    # (-1)^-1 chi(V) once printed as 176.0, and --w-chi 176 passed.
    code, report = run_json(capsys, "hodge", "glue", "--fixture", "tyurin-quartic",
                            "--w-chi", w_chi, "--dim", "-1")
    assert (code, report["status"]) == (2, "ERROR")
    assert report["payload"] == {"error": "InputError",
                                 "message": "dimension must be nonnegative, got -1"}


def test_error_report_echoes_its_fixture(capsys):
    # The error is raised after the fixture is loaded; its report names it.
    code, report = run_json(capsys, "hodge", "glue", "--fixture", "tyurin-quartic",
                            "--w-chi", "5", "--dim", "-1")
    assert (code, report["status"]) == (2, "ERROR")
    assert report["provenance"]["inputs"] == {"fixture": "tyurin-quartic"}


@pytest.mark.parametrize("command,code", [("verify", 1), ("dual", 2)])
def test_not_nef_report_echoes_its_files(tmp_path, capsys, command, code):
    # The hexagon's partition is not nef: `nef verify` reports it as FAIL,
    # `nef dual` raises NotNef and reports ERROR.  Both name the files read.
    hexagon = load_fixture("hexagon")
    poly, part = tmp_path / "poly.json", tmp_path / "part.json"
    poly.write_text(json.dumps(hexagon["polytope"]))
    part.write_text(json.dumps({"parts": hexagon["parts"]}))
    got, report = run_json(capsys, "nef", command,
                           "--polytope", str(poly), "--partition", str(part))
    assert (got, report["payload"]["error"]) == (code, "NotNef")
    assert report["provenance"]["inputs"] == {"polytope": {"file": str(poly)},
                                              "parts": {"file": str(part)}}


def test_isotropic_negative_bound_is_an_input_error(capsys):
    # A negative bound names no box; it was once scanned as an empty one
    # and reported INCONCLUSIVE.
    code, report = run_json(capsys, "lattice", "isotropic",
                            "--gram", "[[2,1],[1,-2]]", "--bound", "-3")
    assert (code, report["status"], report["payload"]["error"]) == (2, "ERROR", "InputError")


@pytest.mark.parametrize("argv,files,error", [
    (["hodge", "euler", "--diamond", "{d}"],
     {"d": {"dim": 2, "h": {"0,0": 1, "2,0": 1, "1,1": -5, "2,2": 1}}}, "InvalidDiamond"),
    (["hodge", "euler", "--diamond", "{d}"], {"d": {"dim": -1}}, "InvalidDiamond"),
    (["hodge", "lmhs", "--u", "-1", "--v", "2"], {}, "InputError"),
    (["hodge", "lmhs", "--u", "1", "--v", "-2"], {}, "InputError"),
], ids=["diamond-entry", "diamond-dim", "lmhs-u", "lmhs-v"])
def test_negative_hodge_data_is_refused(tmp_path, capsys, argv, files, error):
    # Hodge numbers, a diamond's dimension and LMHS ranks are never
    # negative; each of these once passed or failed as an internal error.
    paths = {}
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(data, fh)
    code, report = run_json(capsys, *(a.format(**paths) for a in argv))
    assert (code, report["status"], report["payload"]["error"]) == (2, "ERROR", error)


def test_diamond_dimension_is_bounded(tmp_path, capsys):
    # A 50-byte diamond once asked for a 3001 x 3001 grid: 4.5 s and 154 MB
    # for `hodge euler`, and `hodge lg-ranks` grew the same way.
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps({"dim": 3000, "h": {"0,0": 1, "3000,3000": 1}}))
    for command in ("euler", "lg-ranks"):
        start = time.perf_counter()
        code, report = run_json(capsys, "hodge", command, "--diamond", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, report["status"]) == (2, "ERROR")
        assert report["payload"] == {
            "error": "BudgetExceeded",
            "message": f"diamond dimension 3000 exceeds the limit of {hg.MAX_DIAMOND_DIM}"}


def test_lee_refuses_curve_components(tmp_path, capsys):
    # Lee's formulas read h^{2,1} of threefolds; curves once read past the
    # diamond and printed InternalError: IndexError.
    curve = {"dim": 1, "h": {"0,0": 1, "1,0": 1, "1,1": 1}}
    path = tmp_path / "tyurin.json"
    path.write_text(json.dumps({"X1": curve, "X2": curve, "Z": {"dim": 0, "h": {"0,0": 1}}}))
    code, report = run_json(capsys, "hodge", "lee", "--tyurin", str(path))
    assert (code, report["status"]) == (2, "ERROR")
    assert report["payload"] == {"error": "DimensionMismatch",
                                 "message": "components of dimension 1, not threefolds"}


def test_unknown_lattice_spec_is_an_input_error(capsys):
    # It was once reported as OddDiagonal.
    code, report = run_json(capsys, "lattice", "sum", "--spec", "foo")
    assert code == 2
    assert report["payload"] == {"error": "InputError", "message": "unknown lattice spec 'foo'"}


INTEGER_FLAGS = [
    ["lattice", "isotropic", "--gram", "[[2,1],[1,-2]]", "--bound", "{}"],
    ["hodge", "glue", "--fixture", "tyurin-quartic", "--w-chi", "{}"],
    ["hodge", "glue", "--fixture", "tyurin-quartic", "--dim", "{}"],
    ["hodge", "lmhs", "--u", "{}", "--v", "2"],
    ["hodge", "lmhs", "--u", "2", "--v", "{}"],
    ["family", "quartic", "--i", "{}", "--j", "2", "--mu", "2,2"],
    ["family", "quartic", "--i", "2", "--j", "{}", "--mu", "2,2"],
]
INTEGER_FLAG_IDS = ["bound", "w-chi", "dim", "u", "v", "i", "j"]


# int() reads "1_0" as 10 and the Arabic-Indic digit as 3.
@pytest.mark.parametrize("value", ["1_0", "\u0663", "x"])
@pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=INTEGER_FLAG_IDS)
def test_integer_flags_take_ascii_digits_only(capsys, argv, value):
    code = main([a.format(value) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "invalid strict_int value" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=INTEGER_FLAG_IDS)
def test_integer_flags_take_sign_and_spaces(capsys, argv):
    plain = run(capsys, *(a.format("2") for a in argv))
    assert run(capsys, *(a.format(" +2 ") for a in argv)) == plain
    assert plain[0] in (0, 1)


def test_family_rejects_bad_index(capsys):
    code, report = run_json(capsys, "family", "quartic",
                            "--i", "3", "--j", "1", "--mu", "2,2")
    assert code == 2
    assert report["status"] == "ERROR"
    assert report["payload"]["error"] == "InvalidPartition"


def test_internal_error_is_reported_not_raised(capsys, monkeypatch):
    # A Gram entry that is no number is an input error.
    code, report = run_json(capsys, "lattice", "invariants", "--gram", '[["a"]]')
    assert code == 2
    assert report["payload"] == {"error": "InputError", "message": "non-integer value 'a'"}
    # A ValueError inside a handler is no MirrorcheckError; it is still a
    # JSON report with exit 2, no traceback.

    def broken(lat):
        raise ValueError("boom")

    monkeypatch.setattr(cli.lt, "discriminant", broken)
    code = main(["lattice", "invariants", "--gram", "[[2]]"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["status"] == "ERROR"
    assert report["payload"] == {"error": "InternalError", "message": "ValueError: boom"}
    assert captured.err == ""


def test_unknown_flag_rejected(capsys):
    code = main(["polytope", "dual", "--fixture", "cube", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_malformed_json_names_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 3, "vertices": [[1,0,0],')
    code, report = run_json(capsys, "polytope", "dual", "--polytope", str(bad))
    assert code == 2
    assert report["payload"]["error"] == "InputError"
    assert "bad.json" in report["payload"]["message"]


@pytest.mark.parametrize("command,flag", [
    (("polytope", "dual"), "--polytope"),
    (("nef", "verify"), "--partition"),
])
def test_directory_input_is_an_input_error(tmp_path, capsys, command, flag):
    code = main([*command, flag, str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["payload"]["error"] == "InputError"
    assert str(tmp_path) in report["payload"]["message"]


P1P1P1_TRUNCATED_PARTS = {"parts": [[[1.9, 0, 0], [0, 1, 0], [0, 0, 1]],
                                    [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]]}
K3_BASIS_HALF = {"image_basis": [[0.5] + [0] * 21]}


@pytest.mark.parametrize("argv,files", [
    (["lattice", "invariants", "--gram", "[[2.7,0],[0,-2.9]]"], {}),
    (["lattice", "invariants", "--gram", "[[2, Infinity]]"], {}),
    (["lattice", "complement", "--image-basis", "[[1.5" + ",0" * 21 + "]]"], {}),
    (["lattice", "mirror", "--spec", "<4>", "--f", "[0.5" + ",0" * 21 + "]"], {}),
    (["lattice", "complement", "--embedding", "{emb}"], {"emb": K3_BASIS_HALF}),
    (["nef", "verify", "--fixture", "p1p1p1", "--partition", "{part}"],
     {"part": P1P1P1_TRUNCATED_PARTS}),
    (["polytope", "dual", "--polytope", "{poly}"],
     {"poly": {"rank": 2.5, "vertices": [[1, 0], [0, 1], [-1, -1]]}}),
    (["hodge", "euler", "--diamond", "{d}"], {"d": {"dim": 2, "h": {"0,0": 1.5}}}),
    (["hodge", "euler", "--diamond", "{d}"], {"d": {"dim": 2, "h": {"0": 1}}}),
    (["hodge", "picard", "--fibration", "{f}"], {"f": {"fibres": ["I1"], "ell": 0.5}}),
    (["hodge", "lee", "--tyurin", "{t}"], {"t": {"X1": {"dim": 1.5}, "X2": {"dim": 2},
                                                  "Z": {"dim": 1}}}),
    (["family", "quartic", "--i", "1", "--j", "1", "--mu", "1.5"], {}),
    (["lattice", "invariants", "--spec", "<x>"], {}),
    (["lattice", "invariants", "--spec", "H+<2.0>"], {}),
    (["lattice", "invariants", "--gram", "5"], {}),
    (["lattice", "invariants", "--gram", "[5]"], {}),
    (["lattice", "complement", "--image-basis", "5"], {}),
    (["lattice", "mirror", "--spec", "<4>", "--f", "5"], {}),
    (["hodge", "picard", "--fibration", "{f}"], {"f": {"fibres": [{"type": "I", "n": "3"}]}}),
    (["hodge", "picard", "--fibration", "{f}"], {"f": {"fibres": [{"type": "I*", "n": 1.5}]}}),
    (["hodge", "euler", "--diamond", "{d}"], {"d": {"dim": 11, "h": {"0,0": 1, "1_1,0": 1}}}),
    (["family", "quartic", "--i", "1", "--j", "1", "--mu", "3,2,1_0"], {}),
    (["lattice", "invariants", "--spec", "<1_0>"], {}),
    (["lattice", "invariants", "--spec", "<\u0664>"], {}),
    (["hodge", "euler", "--diamond", "{d}"],
     {"d": {"dim": 1, "h": {"0,0": 1, "1,1": 1}, "flags": ["kaehlr"]}}),
    (["hodge", "euler", "--diamond", "{d}"],
     {"d": {"dim": 1, "h": {"0,0": 1, "1,1": 1}, "flags": ["kaehler", "quasifano"]}}),
    (["lattice", "sum", "--spec", "foo"], {}),
    (["family", "quartic", "--i", "1", "--j", "1", "--mu", "1,,1"], {}),
    (["family", "quartic", "--i", "1", "--j", "1", "--mu", ",2,"], {}),
    (["family", "quartic", "--i", "1", "--j", "1", "--mu", "2,"], {}),
], ids=["gram", "gram-infinity", "image-basis", "f", "embedding-file", "partition",
        "polytope-rank", "diamond-entry", "diamond-key", "fibration-ell", "tyurin-dim",
        "mu", "spec", "spec-sum", "gram-number", "gram-row-number", "image-basis-number",
        "f-number", "fibre-n-string", "fibre-n-fraction", "diamond-key-underscore",
        "mu-underscore", "spec-underscore", "spec-arabic-indic", "diamond-flag-unknown",
        "diamond-flags-both", "spec-unknown", "mu-empty-inner", "mu-empty-ends",
        "mu-empty-last"])
def test_non_integral_value_is_an_input_error(tmp_path, capsys, argv, files):
    # Each value would once have been truncated, or dropped as an empty
    # piece (or failed as an internal error); it is now refused before any
    # work is done.
    paths = {}
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(data, fh)
    code, report = run_json(capsys, *(a.format(**paths) for a in argv))
    assert (code, report["status"], report["payload"]["error"]) == (2, "ERROR", "InputError")


TOO_LONG = "9" * 5000  # past Python's 4300-digit limit on reading an integer


@pytest.mark.parametrize("argv,content", [
    (["lattice", "sum", "--gram", f"[[{TOO_LONG}]]"], None),
    (["hodge", "picard", "--fibration", "{path}"], f'{{"fibres": ["I1"], "ell": {TOO_LONG}}}'),
    (["hodge", "picard", "--fibration", "{path}"], f'{{"fibres": ["I{TOO_LONG}"]}}'),
], ids=["inline-gram", "file-ell", "fibre-subscript"])
def test_too_long_integer_is_an_input_error(tmp_path, capsys, argv, content):
    # Each was once an InternalError: Python refuses to read the integer.
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    code, report = run_json(capsys, *(a.format(path=path) for a in argv))
    assert (code, report["status"], report["payload"]["error"]) == (2, "ERROR", "InputError")
    assert "too long" in report["payload"]["message"]


LONG_A = "2" * 3000  # its square, the det below, has 6000 digits: too long to print


@pytest.mark.parametrize("argv,content", [
    (["lattice", "sum", "--gram", f"[[{LONG_A},0],[0,{LONG_A}]]"], None),
    (["hodge", "picard", "--fibration", "{path}"], f'{{"fibres": ["I{"9" * 3000}^Delta"]}}'),
], ids=["lattice-sum-det", "fibre-subscript-delta"])
@pytest.mark.parametrize("pretty", [False, True])
def test_too_long_report_integer_is_an_error_report(tmp_path, capsys, argv, content, pretty):
    # Rendering such a report once ended in a traceback and exit code 1.
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    argv = [a.format(path=path) for a in argv] + (["--pretty"] if pretty else [])
    code, out = run(capsys, *argv)
    assert code == 2
    if pretty:
        assert out.splitlines()[:3] == [
            "status: ERROR", "  error: BudgetExceeded",
            "  message: report holds an integer of more than 4300 digits"]
    else:
        report = json.loads(out)
        assert report["status"] == "ERROR"
        assert report["payload"] == {
            "error": "BudgetExceeded",
            "message": "report holds an integer of more than 4300 digits"}


DEEP = "[" * 100_000


@pytest.mark.parametrize("inline", [True, False], ids=["inline-gram", "file"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, inline):
    # json.loads raises RecursionError here; it was once an InternalError.
    path = tmp_path / "embedding.json"
    path.write_text(DEEP)
    argv = (["lattice", "sum", "--gram", DEEP] if inline
            else ["lattice", "complement", "--embedding", str(path)])
    code, report = run_json(capsys, *argv)
    assert (code, report["status"], report["payload"]["error"]) == (2, "ERROR", "InputError")
    where = "--gram" if inline else str(path)
    assert report["payload"]["message"] == f"JSON nested too deeply in {where}"


def test_integral_fibre_subscript_reads_as_an_integer(tmp_path, capsys):
    # A fibre subscript goes through as_int: 3.0 is the integer 3, so
    # {"type": "I", "n": 3.0} is an I3 fibre, as {"type": "I", "n": 3} is.
    reports = []
    for n in (3, 3.0):
        path = tmp_path / "fibration.json"
        path.write_text(json.dumps({"fibres": [{"type": "I", "n": n}]}))
        reports.append(run_json(capsys, "hodge", "picard", "--fibration", str(path)))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


@pytest.mark.parametrize("argv,content", [
    (["hodge", "euler", "--diamond"], "[1, 2]"),
    (["hodge", "euler", "--diamond"], '{"diamond": 5}'),
    (["hodge", "lmhs", "--u", "19", "--v", "69", "--mirror"], '"table"'),
    (["polytope", "dual", "--polytope"], "5"),
    (["polytope", "dual", "--polytope"], '{"polytope": [[1, 0], [0, 1]]}'),
    (["lattice", "complement", "--embedding"], "5"),
    (["lattice", "complement", "--embedding"], '"image_basis"'),
    (["nef", "verify", "--fixture", "p1p1p1", "--partition"], "5"),
    (["nef", "verify", "--fixture", "p1p1p1", "--partition"], '{"parts": 5}'),
    (["nef", "verify", "--fixture", "p1p1p1", "--partition"], '{"parts": [5]}'),
    (["nef", "verify", "--fixture", "p1p1p1", "--partition"], '{"parts": [[5]]}'),
    (["polytope", "dual", "--polytope"], '{"vertices": [1, 2]}'),
    (["polytope", "dual", "--polytope"], '{"vertices": 5}'),
    (["hodge", "picard", "--fibration"], '{"fibres": 5}'),
    (["hodge", "picard", "--fibration"], '{"fibres": [5]}'),
    (["hodge", "slice", "--fixture", "slice-h1", "--fibration"],
     '{"fibres": ["I1"], "slices": 5}'),
    (["hodge", "slice", "--fixture", "slice-h1", "--degeneration"],
     '{"components": 5, "double_curves": 1, "L_rank": 2}'),
    (["hodge", "lee", "--tyurin"], '{"X1": {"h": {}}, "X2": {"dim": 2}, "Z": {"dim": 1}}'),
    (["hodge", "lee", "--tyurin"], '{"X1": 5, "X2": {"dim": 2}, "Z": {"dim": 1}}'),
    (["hodge", "euler", "--diamond"], '{"dim": 2, "h": 5}'),
    (["hodge", "euler", "--diamond"], '{"dim": 2, "flags": 5}'),
    (["hodge", "picard", "--fibration"], '{"fibres": [{"type": 5}]}'),
    (["hodge", "lmhs", "--u", "19", "--v", "69", "--mirror"], '{"table": 5}'),
    (["lattice", "complement", "--embedding"], '{"image_basis": 5}'),
    (["lattice", "complement", "--embedding"], '{"image_basis": [5]}'),
    (["lattice", "mirror", "--embedding"], '{"image_basis": [], "f": 5}'),
], ids=["diamond-list", "diamond-slot", "lmhs-mirror", "polytope", "polytope-slot",
        "embedding", "embedding-string", "partition-number", "parts-number",
        "part-number", "parts-point-number", "vertices-numbers", "vertices-number",
        "fibres-number", "fibre-number", "slices-number", "components-number",
        "tyurin-no-dim", "tyurin-diamond-number", "diamond-h-number", "diamond-flags-number",
        "fibre-type-number", "lmhs-table-number",
        "image-basis-number", "image-basis-row-number", "embedding-f-number"])
def test_non_object_json_is_an_input_error(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (code, report["payload"]["error"], captured.err) == (2, "InputError", "")


def test_non_utf8_input_is_an_input_error(tmp_path, capsys):
    binary = tmp_path / "poly.json"
    binary.write_bytes(b'\xff\xfe{"rank": 2}')
    code, report = run_json(capsys, "polytope", "dual", "--polytope", str(binary))
    assert code == 2
    assert report["payload"]["error"] == "InputError"
    assert "poly.json" in report["payload"]["message"]


def test_missing_field_named(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, report = run_json(capsys, "polytope", "dual", "--polytope", str(empty))
    assert code == 2
    assert "vertices" in report["payload"]["message"]


def test_engine_error_name_verbatim(tmp_path, capsys):
    degenerate = tmp_path / "flat.json"
    degenerate.write_text(json.dumps({"rank": 2, "vertices": [[0, 0], [1, 0], [2, 0]]}))
    code, report = run_json(capsys, "polytope", "dual", "--polytope", str(degenerate))
    assert code == 2
    assert report["payload"]["error"] == "NotFullDimensional"


def test_nef_verify_fail_is_exit_one(capsys):
    code, report = run_json(capsys, "nef", "verify", "--fixture", "hexagon")
    assert code == 1
    assert report["status"] == "FAIL"
    assert report["payload"]["error"] == "NotNef"


def test_lattice_mirror_expectation(capsys):
    code, report = run_json(capsys, "lattice", "mirror", "--spec", "<4>",
                            "--expect", "H+E8(-1)+E8(-1)+<-4>")
    assert code == 0
    assert report["payload"]["match"]["status"] == "MATCH"
    assert report["payload"]["rank"] == 19


@pytest.mark.parametrize("f", [[0, 0, 1], [0, 0, 1] + [0] * 19 + [5]],
                         ids=["short", "long"])
def test_lattice_mirror_f_of_wrong_length_is_an_error(f, capsys):
    # mat_vec and dot zip their arguments, so a short f read as padded with
    # zeros and a long one was cut to the ambient rank.
    code, report = run_json(capsys, "lattice", "mirror", "--spec", "<2>",
                            "--f", json.dumps(f))
    assert code == 2
    assert report["payload"] == {
        "error": "DimensionMismatch",
        "message": f"f has {len(f)} entries, the ambient lattice has rank 22"}


def test_lattice_mirror_of_a_degenerate_image_names_the_radical(capsys):
    # L = <e_1> is isotropic, so its complement's radical holds e_1 and the
    # quotient is degenerate although f is primitive.
    basis = [[1] + [0] * 21]
    code, report = run_json(capsys, "lattice", "mirror", "--image-basis", json.dumps(basis))
    assert code == 2
    assert report["payload"] == {
        "error": "Degenerate",
        "message": "degenerate quotient form: the orthogonal complement has a radical "
                   "outside Zf"}


def test_lattice_match_mismatch(capsys):
    code, report = run_json(capsys, "lattice", "match",
                            "--a", "H+E8(-1)+E8(-1)",
                            "--b", "H+E8(-1)+E8(-1)+A1(-1)")
    assert code == 1
    assert report["payload"]["status"] == "MISMATCH"


def test_lattice_match_prints_the_form_mismatch(capsys):
    # Equal rank, signature, |det| and group Z/2 + Z/6, unequal forms: the one
    # path that writes the forms' values, 12 a side, into the detail.
    code, out = run(capsys, "lattice", "match", "--a", "<-2>+<6>", "--b", "<2>+<-6>")
    assert code == 1
    assert out == (
        '{"payload":{"mismatches":["discriminant form: '
        "['0', '1/6', '1/6', '1/6', '1/6', '2/3', '2/3', '1', '3/2', '3/2', '5/3', '5/3'] != "
        "['0', '1/3', '1/3', '1/2', '1/2', '1', '4/3', '4/3', '11/6', '11/6', '11/6', '11/6']"
        '"],"status":"MISMATCH"},"provenance":{"command":["lattice","match"],"inputs":{},'
        '"tool":"mirrorcheck","version":"0.1.0"},"status":"FAIL"}\n')


def test_large_discriminant_report_is_pinned(capsys):
    # |A| = 40 000, so the report lists 40 000 form values.
    code, out = run(capsys, "lattice", "invariants", "--spec", "<200>+<200>")
    assert code == 0
    assert len(out.encode()) == 337359
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1c21b39990407fa109007fa688ac871b88b3f496f304a908ef2f9dac36e13e1e")


def test_hodge_slice_fixtures(capsys):
    for name in ("slice-h1", "slice-h2", "slice-deg2-1", "slice-deg2-2",
                 "slice-deg2-3", "slice-deg2-4"):
        code, report = run_json(capsys, "hodge", "slice", "--fixture", name)
        assert code == 0, name
        assert report["status"] == "PASS"


def test_hodge_lee_fixture(capsys):
    code, report = run_json(capsys, "hodge", "lee", "--fixture", "tyurin-quartic")
    assert code == 0
    assert report["payload"] == {"h11": 1, "h21": 89}


def test_hodge_glue_fixture(capsys):
    code, report = run_json(capsys, "hodge", "glue", "--fixture", "tyurin-quartic")
    assert code == 0
    assert report["status"] == "PASS"


def test_family_sweep(capsys):
    code, report = run_json(capsys, "family", "sweep")
    assert code == 0
    assert report["payload"]["count"] == 71
    assert report["payload"]["all_pass"] is True


def test_idempotent_output(capsys):
    first = run(capsys, "family", "quartic", "--i", "2", "--j", "4", "--mu", "3,2,1")
    second = run(capsys, "family", "quartic", "--i", "2", "--j", "4", "--mu", "3,2,1")
    assert first == second


def test_pretty_output_is_text(capsys):
    code, out = run(capsys, "hodge", "lmhs", "--u", "19", "--v", "69", "--pretty")
    assert code == 0
    assert out.startswith("status: PASS")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "polytope", "points", "--fixture", "cube",
                    "--region", "interior", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


@pytest.mark.parametrize("out", ["missing/report.json", "."])
def test_unwritable_out_is_one_error_report(tmp_path, capsys, out):
    code = main(["hodge", "lee", "--fixture", "tyurin-quartic",
                 "--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "ERROR"
    assert report["payload"]["error"] == "InputError"
    assert str(tmp_path / out) in report["payload"]["message"]


@pytest.mark.parametrize("command", ["sum", "invariants", "complement", "mirror"])
def test_blank_lattice_spec_is_an_input_error(capsys, command):
    code, report = run_json(capsys, "lattice", command, "--spec", " ")
    assert code == 2
    assert report["payload"] == {"error": "InputError", "message": "empty lattice spec"}
    # A blank piece next to others is not dropped: the spec is refused.
    for spec in ("H++H", "H+", "+<4>", "<+4>++H", "H+<+4>+"):
        code, report = run_json(capsys, "lattice", command, "--spec", spec)
        assert code == 2
        assert report["payload"] == {
            "error": "InputError", "message": f"lattice spec {spec!r} has an empty piece"}


@pytest.mark.parametrize("signed, plain", [("<+4>", "<4>"), ("H+<+4>", "H+<4>"),
                                           ("<+4>+H", "<4>+H")])
def test_signed_rank_one_pieces_read_as_unsigned(capsys, signed, plain):
    # A '+' inside <...> is the sign of n, not a direct sum.
    for command in ("sum", "invariants"):
        assert (run(capsys, "lattice", command, "--spec", signed)
                == run(capsys, "lattice", command, "--spec", plain))
    code, report = run_json(capsys, "lattice", "match", "--a", signed, "--b", plain)
    assert code == 0
    assert report["payload"]["status"] == "MATCH"


def test_empty_image_basis_complement_is_k3(capsys):
    code, report = run_json(capsys, "lattice", "complement", "--image-basis", "[]")
    assert code == 0
    assert report["payload"]["rank"] == 22
    assert report["payload"]["signature"] == [3, 19]
    code, report = run_json(capsys, "lattice", "mirror", "--image-basis", "[]",
                            "--expect", "H+H+E8(-1)+E8(-1)")
    assert code == 0
    assert report["payload"]["rank"] == 20
    assert report["payload"]["match"]["status"] == "MATCH"


def test_discriminant_cap_reports_budget(capsys):
    code, report = run_json(capsys, "lattice", "invariants",
                            "--gram", "[[600,0,0],[0,600,0],[0,0,-2]]")
    assert code == 2
    assert report["payload"] == {
        "error": "BudgetExceeded",
        "message": "discriminant group of order 720000 exceeds enumeration cap"}


def test_partition_file_carries_polytope(tmp_path, capsys):
    part = tmp_path / "partition.json"
    part.write_text(json.dumps({
        "polytope": {"rank": 3, "vertices": [[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                                             [0, -1, 0], [0, 0, 1], [0, 0, -1]]},
        "parts": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]],
    }))
    code, report = run_json(capsys, "nef", "counts", "--partition", str(part))
    assert code == 0
    assert report["payload"]["complement_count"] == 12


def test_point_listed_twice_in_one_part_is_reported_as_such(tmp_path, capsys):
    # The report once said that (1, 0, 0) appears in more than one part.
    part = tmp_path / "dup.json"
    part.write_text(json.dumps({"parts": [[[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                          [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]]}))
    code, report = run_json(capsys, "nef", "verify", "--fixture", "p1p1p1",
                            "--partition", str(part))
    assert (code, report["status"]) == (1, "FAIL")
    assert report["payload"] == {"error": "NotAPartition",
                                 "message": "(1, 0, 0) appears twice in part 0",
                                 "valid": False}


def test_refine_reads_the_polytope_its_partition_files_carry(tmp_path, capsys):
    # A partition file's polytope serves every nef subcommand; refine, which
    # reads its polytope first, once refused it as a missing input.
    p1p1p1 = load_fixture("p1p1p1")
    coarse, fine = tmp_path / "coarse.json", tmp_path / "fine.json"
    for path, slot in ((coarse, "trivial_parts"), (fine, "parts")):
        path.write_text(json.dumps({"polytope": p1p1p1["polytope"], "parts": p1p1p1[slot]}))
    code, report = run_json(capsys, "nef", "refine", "--coarse", str(coarse), "--fine", str(fine))
    assert (code, report["payload"]) == (0, {"refines": True})
    assert report["provenance"]["inputs"] == {"trivial_parts": {"file": str(coarse)},
                                              "parts": {"file": str(fine)}}
    assert run_json(capsys, "nef", "refine", "--fixture", "p1p1p1")[1]["payload"] == \
        report["payload"]


def test_rank_declaration_checked(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"rank": 4, "vertices": [[1, 0], [0, 1], [-1, -1]]}))
    code, report = run_json(capsys, "polytope", "reflexive", "--polytope", str(poly))
    assert code == 2
    assert "rank" in report["payload"]["message"]


def test_embedding_file_input(tmp_path, capsys):
    emb = tmp_path / "embedding.json"
    v = [0] * 22
    v[0] = 1
    v[1] = 2
    f = [0] * 22
    f[2] = 1
    emb.write_text(json.dumps({"ambient": "K3", "image_basis": [v], "f": f}))
    code, report = run_json(capsys, "lattice", "mirror", "--embedding", str(emb),
                            "--expect", "H+E8(-1)+E8(-1)+<-4>")
    assert code == 0
    assert report["payload"]["match"]["status"] == "MATCH"


def test_default_f_needs_the_k3_ambient(tmp_path, capsys):
    emb = tmp_path / "embedding.json"
    emb.write_text(json.dumps({"ambient": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                               "image_basis": [[1, 1, 0, 0]]}))
    code, report = run_json(capsys, "lattice", "mirror", "--embedding", str(emb))
    assert code == 2
    assert report["payload"] == {
        "error": "InputError",
        "message": "the default isotropic vector is defined for the K3 ambient only; give f"}
    code, report = run_json(capsys, "lattice", "mirror", "--embedding", str(emb),
                            "--f", "[0,0,1,0]")
    assert code == 0
    assert report["payload"]["rank"] == 1
    # An ambient named by a standard piece other than K3 needs f too.
    emb.write_text(json.dumps({"ambient": "H", "image_basis": [[1, 1]]}))
    code, report = run_json(capsys, "lattice", "mirror", "--embedding", str(emb))
    assert code == 2
    assert report["payload"]["error"] == "InputError"
    code, report = run_json(capsys, "lattice", "complement", "--embedding", str(emb))
    assert code == 0
    assert report["payload"]["lattice"] == {"gram": [[-2]]}


def test_lmhs_mirror_comparison(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(
        {"table": [[1, 19, 1, 0], [0, 69, 69, 0], [0, 1, 19, 1]]}))
    code, report = run_json(capsys, "hodge", "lmhs", "--u", "19", "--v", "69",
                            "--mirror", str(table))
    assert code == 0
    assert report["payload"]["match"]["status"] == "PASS"
    table.write_text(json.dumps(
        {"table": [[1, 19, 1, 0], [0, 68, 69, 0], [0, 1, 19, 1]]}))
    code, report = run_json(capsys, "hodge", "lmhs", "--u", "19", "--v", "69",
                            "--mirror", str(table))
    assert code == 1


def _tree_leaves():
    """((group, command), parser) for every command parser in build_parser's tree."""
    groups = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    for group, group_parser in groups.choices.items():
        commands = next(a for a in group_parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        for command, parser in commands.choices.items():
            yield (group, command), parser


def _flags(metavar):
    """(subcommand, flag) for every flag with this metavar that build_parser
    declares."""
    for command, parser in _tree_leaves():
        for action in parser._actions:
            if action.metavar == metavar:
                yield command, action.option_strings[0]


K3_VECTOR = [1, 2] + [0] * 20
# A FILE flag -> the fixture that supplies the other inputs, the content of
# a file the flag accepts (a string names that fixture's slot), and any
# further arguments the subcommand requires.
FILE_FLAG_RUNS = {
    "--polytope": ("p1p1p1", "polytope", []),
    "--partition": ("p1p1p1", {"parts": load_fixture("p1p1p1")["parts"]}, []),
    "--coarse": ("p1p1p1", {"parts": load_fixture("p1p1p1")["trivial_parts"]}, []),
    "--fine": ("p1p1p1", {"parts": load_fixture("p1p1p1")["parts"]}, []),
    "--embedding": (None, {"image_basis": [K3_VECTOR]}, []),
    "--diamond": ("k3-diamond", "diamond", []),
    "--v": ("mirror-pair-89", "v", []),
    "--w": ("mirror-pair-89", "w", []),
    "--tyurin": ("tyurin-quartic", "tyurin", []),
    "--fibration": ("slice-h1", "fibration", []),
    "--degeneration": ("slice-h1", "degeneration", []),
    "--mirror": (None, {"table": [[1, 19, 1, 0], [0, 69, 69, 0], [0, 1, 19, 1]]},
                 ["--u", "19", "--v", "69"]),
    "--data": ("p1p1p1", "conj318", []),
}


FILE_FLAGS = list(_flags("FILE"))


@pytest.mark.parametrize("command,flag", FILE_FLAGS,
                         ids=[" ".join([*command, flag]) for command, flag in FILE_FLAGS])
def test_every_file_flag_is_echoed_in_provenance(tmp_path, capsys, command, flag):
    fixture, content, extra = FILE_FLAG_RUNS[flag]
    if isinstance(content, str):
        content = load_fixture(fixture)[content]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    argv = [*command, flag, str(path), *extra] + (["--fixture", fixture] if fixture else [])
    code, report = run_json(capsys, *argv)
    assert code in (0, 1), report["payload"]
    assert {"file": str(path)} in report["provenance"]["inputs"].values()


JSON_FLAGS = list(_flags("JSON"))


@pytest.mark.parametrize("command,flag", JSON_FLAGS,
                         ids=[" ".join([*command, flag]) for command, flag in JSON_FLAGS])
def test_every_json_flag_is_parsed_inline(capsys, command, flag):
    # Malformed JSON is an input error that names the flag, never a path to
    # open; --f is read once the embedding is known.
    extra = ["--spec", "<4>"] if flag == "--f" else []
    code, report = run_json(capsys, *command, flag, "[1,", *extra)
    assert (code, report["payload"]["error"]) == (2, "InputError")
    assert report["payload"]["message"].startswith(f"malformed JSON in {flag}: ")
    assert report["provenance"]["inputs"] == {}


def test_parser_lists_fixtures_once(monkeypatch):
    calls = []
    real = cli.fixture_names

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "fixture_names", counting)
    cli.build_parser()
    assert len(calls) == 1
    cli._leaf.cache_clear()
    cli._leaf("nef", "counts")
    cli._leaf.cache_clear()
    assert len(calls) == 2


def _parser_sequence(tmp_path):
    """Calls whose outputs would differ if one call's parse leaked into the next."""
    v = [0] * 22
    v[0], v[1] = 1, 2
    f = [0] * 22
    f[4] = 1  # not the default isotropic vector, so a leaked --f would show
    emb = tmp_path / "embedding.json"
    emb.write_text(json.dumps({"ambient": "K3", "image_basis": [v], "f": f}))
    return [
        ["nef", "counts", "--fixture", "p1p1p1", "--no-such-flag"],
        ["--version"],
        ["--help"],
        ["nef", "--help"],
        ["lattice", "mirror", "--embedding", str(emb)],
        ["lattice", "mirror", "--spec", "<4>"],
        ["polytope", "points", "--fixture", "octahedron", "--region", "boundary"],
        ["polytope", "points", "--fixture", "octahedron"],
        ["lattice", "isotropic", "--gram", "[[2,1],[1,2]]", "--bound", "2"],
        ["lattice", "isotropic", "--gram", "[[2,1],[1,2]]"],
        ["hodge", "glue", "--fixture", "tyurin-quartic", "--w-chi", "0"],
        ["hodge", "glue", "--fixture", "tyurin-quartic"],
        ["polytope", "--help"],
        ["lattice", "--help"],
        ["hodge", "--help"],
        ["family", "--help"],
        ["family", "sweep", "--pretty"],
        ["nef", "--help"],
        ["--help"],
        ["nef", "nope"],
        ["lattice", "match", "--a", "H", "--b", "H"],
        ["lattice", "match", "--a", "H", "--b", "H+<4>"],
    ]


def _known(argv):
    return len(argv) > 1 and argv[1] in cli._COMMANDS.get(argv[0], ("", {}))[1]


def test_parser_built_once_per_process(monkeypatch, tmp_path, capsys):
    calls = []
    real = cli.build_parser

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    sequence = _parser_sequence(tmp_path)
    cli._parser.cache_clear()
    cli._leaf.cache_clear()
    valid = [main(argv) for argv in sequence if _known(argv) and "--no-such-flag" not in argv]
    assert len(calls) == 0
    codes = [main(argv) for argv in sequence]
    leaves = cli._leaf.cache_info()
    cli._parser.cache_clear()
    cli._leaf.cache_clear()
    assert len(calls) == 1
    assert set(valid) == {0, 1} and set(codes) == {0, 1, 2}
    # Each command's own parser is built once, and built for every call that
    # names a group and one of its commands.
    assert leaves.misses == len({tuple(argv[:2]) for argv in sequence if _known(argv)})
    assert leaves.hits + leaves.misses == len(valid) + sum(map(_known, sequence))


def test_shared_parser_matches_fresh_parser(tmp_path, capsys):
    sequence = _parser_sequence(tmp_path)
    cli._parser.cache_clear()
    cli._leaf.cache_clear()
    shared = [run(capsys, *argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        cli._leaf.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    by_argv = dict(zip(map(tuple, sequence), shared))
    assert by_argv[("--help",)][1] == cli.build_parser().format_help()
    assert by_argv[("lattice", "mirror", "--spec", "<4>")] != \
        by_argv[("lattice", "mirror", "--embedding", sequence[4][-1])]
    assert json.loads(by_argv[("polytope", "points", "--fixture", "octahedron")][1])[
        "payload"]["region"] == "all"
    assert json.loads(by_argv[("lattice", "isotropic", "--gram", "[[2,1],[1,2]]")][1])[
        "payload"]["bound"] == 10


def _fresh(code: str):
    """The JSON that ``code`` prints, run in a new interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


_TREE_BUILDS = """
    import contextlib, io, json
    import mirrorcheck.cli as cli
    builds = []
    real = cli.build_parser
    cli.build_parser = lambda: builds.append(1) or real()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main({argv!r})
    print(json.dumps([code, len(builds)]))
"""


@pytest.mark.parametrize("argv, code, builds", [
    (["nef", "verify", "--fixture", "p1p1p1"], 0, 0),
    (["lattice", "mirror", "--spec", "<4>"], 0, 0),
    (["hodge", "lmhs", "--u", "1", "--v", "2", "--pretty"], 0, 0),
    (["polytope", "points", "-h"], 0, 0),
    (["lattice", "match", "--a", "H"], 2, 0),
    (["--help"], 0, 1),
    (["nef", "--help"], 0, 1),
    (["--version"], 0, 1),
    (["nef", "nope"], 2, 1),
    (["nef", "counts", "--fixture", "p1p1p1", "--no-such-flag"], 2, 1),
])
def test_only_the_tree_paths_build_the_tree(argv, code, builds):
    # A call naming a group and one of its commands is parsed by that
    # command's own parser; the tree is built for help, the version, an
    # unknown word and whatever the command's parser leaves over.
    assert _fresh(_TREE_BUILDS.format(argv=argv)) == [code, builds]


# Command -> arguments with which a run of it parses and passes.
VALID_ARGS = {
    ("polytope", "dual"): ["--fixture", "octahedron"],
    ("polytope", "reflexive"): ["--fixture", "octahedron"],
    ("polytope", "points"): ["--fixture", "octahedron", "--region", "boundary"],
    ("polytope", "faces"): ["--fixture", "octahedron"],
    ("nef", "verify"): ["--fixture", "p1p1p1"],
    ("nef", "dual"): ["--fixture", "p1p1p1"],
    ("nef", "counts"): ["--fixture", "p1p1p1"],
    ("nef", "hodge"): ["--fixture", "quartic"],
    ("nef", "refine"): ["--fixture", "p1p1p1"],
    ("lattice", "sum"): ["--spec", "H+<4>"],
    ("lattice", "invariants"): ["--gram", "[[2,1],[1,2]]"],
    ("lattice", "complement"): ["--spec", "<2>"],
    ("lattice", "mirror"): ["--spec", "<4>", "--expect", "H+E8(-1)+E8(-1)+<-4>"],
    ("lattice", "isotropic"): ["--spec", "H", "--bound", "2"],
    ("lattice", "match"): ["--a", "H", "--b", "H"],
    ("hodge", "euler"): ["--fixture", "k3-diamond"],
    ("hodge", "mirror"): ["--fixture", "mirror-pair-89"],
    ("hodge", "lee"): ["--fixture", "tyurin-quartic"],
    ("hodge", "glue"): ["--fixture", "tyurin-quartic"],
    ("hodge", "lg-ranks"): ["--fixture", "k3-diamond"],
    ("hodge", "picard"): ["--fixture", "slice-h1"],
    ("hodge", "slice"): ["--fixture", "slice-h1"],
    ("hodge", "lmhs"): ["--u", "19", "--v", "69"],
    ("hodge", "conj318"): ["--fixture", "p1p1p1"],
    ("family", "quartic"): ["--i", "2", "--j", "4", "--mu", "3,2,1"],
    ("family", "sweep"): [],
}
TREE_LEAVES = list(_tree_leaves())


def test_every_command_has_valid_arguments():
    assert sorted(VALID_ARGS) == sorted(command for command, _ in TREE_LEAVES) == sorted(
        (group, name) for group, (_, commands) in cli._COMMANDS.items() for name in commands)


@pytest.mark.parametrize("command, tree_leaf", TREE_LEAVES,
                         ids=[" ".join(command) for command, _ in TREE_LEAVES])
def test_command_parser_prints_as_the_tree(command, tree_leaf):
    leaf = cli._leaf(*command)
    assert leaf.format_help() == tree_leaf.format_help()
    assert leaf.format_usage() == tree_leaf.format_usage()


def _tree_parse(argv):
    return cli._parser().parse_args(argv)


def _outputs(argv, tree=False):
    """(exit code, stdout, stderr) of ``main(argv)`` in a new empty working
    directory; with ``tree``, parsed by the full tree alone."""
    out, err = io.StringIO(), io.StringIO()
    parse = mock.patch.object(cli, "_parse", _tree_parse) if tree else contextlib.nullcontext()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as empty, parse, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(empty)
        try:
            code = main(argv)
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _parse_cases(command):
    """argvs for ``command`` that the command's parser accepts, refuses, or
    leaves arguments over from."""
    bare, args = list(command), VALID_ARGS[command]
    valid = bare + args
    return [valid, bare, valid + ["--no-such-flag"], valid + ["--region", "nowhere"],
            bare + ["--region", "nowhere"], bare + ["-h"], valid + ["--help"],
            valid + ["--version"], bare + ["--", *args], valid + ["--"], [*bare, "--", "-h"],
            bare + ["--poly", "nowhere.json"], bare + ["--fix", "p1p1p1"], bare + ["--p"],
            valid + ["--pretty", "--out", "report.json"], valid + ["--out"], valid + ["stray"]]


@pytest.mark.parametrize("command", sorted(VALID_ARGS), ids=" ".join)
def test_command_parser_runs_as_the_tree(command):
    cases = _parse_cases(command)
    found = [_outputs(argv) for argv in cases]
    assert found == [_outputs(argv, tree=True) for argv in cases]
    assert found[0][0] == 0 and found[0][2] == ""


_WORDS = sorted({*cli._COMMANDS, *(name for _, commands in cli._COMMANDS.values()
                                   for name in commands),
                 *(option for _, parser in TREE_LEAVES for action in parser._actions
                   for option in action.option_strings),
                 "--version", "--", *fixture_names()})
_VALUES = ["0", "1", "2", "4", "-1", "12", "[[2,1],[1,2]]", "[[0,1],[1,0]]", "[1,2]", "[1,",
           "{}", "H", "<4>", "H+<4>", "<2>+<-2>", "A1(-1)", "3,2,1", "1,x", "report.json"]
_TOKENS = st.sampled_from(_WORDS) | st.sampled_from(_VALUES) | st.text("-=<>+,[]hx1 ",
                                                                       max_size=6)
_ARGVS = (st.tuples(st.sampled_from(sorted(VALID_ARGS)), st.lists(_TOKENS, max_size=8))
          .map(lambda drawn: [*drawn[0], *drawn[1]])
          | st.lists(_TOKENS, max_size=8))


@settings(max_examples=400, deadline=None)
@given(argv=_ARGVS)
@example(argv=[])
@example(argv=["nef", "counts", "--fixture", "p1p1p1", "--", "--version"])
@example(argv=["hodge", "mirror", "--v", "--w"])
@example(argv=["family", "quartic", "--="])
def test_cli_fuzz_parses_as_the_tree(argv):
    found = _outputs(argv)
    code, out, err = found
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err and "InternalError" not in out
    assert found == _outputs(argv, tree=True)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["family", "sweep"],
                                  ["hodge", "lee", "--fixture", "tyurin-quartic"],
                                  ["--help"], ["--version"], ["lattice", "--help"]])
def test_closed_stdout_pipe_is_silent(argv, unbuffered):
    # Unbuffered, the write fails inside print; buffered, on the flush.  A
    # short report stays buffered after that failure, and the interpreter's
    # flush at exit fails again unless the descriptor was silenced.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "mirrorcheck", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


def test_fixture_is_read_once_and_parsed_afresh(monkeypatch):
    reads = []
    real = fixtures.resources.files

    def counting(package):
        reads.append(package)
        return real(package)

    fixtures._bundled()  # the listing is kept apart and not counted here
    fixtures._text.cache_clear()
    monkeypatch.setattr(fixtures.resources, "files", counting)
    first = load_fixture("p1p1p1")
    first["parts"].clear()
    second, third = load_fixture("p1p1p1"), load_fixture("p1p1p1")
    fixtures._text.cache_clear()
    assert len(reads) == 1
    assert second == third and second is not third
    assert second["parts"] and second["parts"] is not third["parts"]


@pytest.mark.parametrize("name", ["no-such-fixture", "../../../tests/cli_digests",
                                  "../data/p1p1p1", "p1p1p1.json"])
def test_only_bundled_fixtures_load(capsys, name):
    code, report = run_json(capsys, "hodge", "euler", "--fixture", name)
    assert code == 2
    assert report["payload"]["error"] == "InputError"
    assert report["payload"]["message"].startswith(f"unknown fixture {name!r}; available: ")
    assert report["provenance"]["inputs"] == {}


@pytest.mark.parametrize("argv", [
    ["family", "sweep", "--out", "a\x00b"],
    ["hodge", "euler", "--diamond", "a\x00b"],
], ids=["out", "file-flag"])
def test_nul_in_a_path_is_an_input_error(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["payload"] == {"error": "InputError", "message": mock.ANY}
    assert "embedded null byte" in report["payload"]["message"]


@pytest.mark.parametrize("argv,content", [
    (["lattice", "invariants", "--gram"], None),
    (["hodge", "euler", "--diamond"], '{"dim": 2, "h": {"0,0": true}}'),
    (["polytope", "dual", "--polytope"], '{"vertices": [[1, 0], [0, true], [-1, -1]]}'),
], ids=["gram-entry", "diamond-entry", "polytope-vertex"])
def test_json_boolean_is_not_an_integer(tmp_path, capsys, argv, content):
    if content is None:
        argv = [*argv, "[[0, true], [true, 0]]"]
    else:
        path = tmp_path / "input.json"
        path.write_text(content)
        argv = [*argv, str(path)]
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["payload"] == {"error": "InputError", "message": "non-integer value True"}
