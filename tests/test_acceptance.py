"""Acceptance suite.

One test per criterion; each prints a single PASS line when its assertions
hold (pytest aborts the print on failure, so a missing line means FAIL) and
enforces the stated runtime budget.  All comparisons are exact integer
equality.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import itertools
import json
import time
from contextlib import contextmanager

import pytest

from mirrorcheck import (
    errors,
    family as fam,
    hodge as hg,
    lattices as lt,
    nef,
    polytopes as pt,
)
from mirrorcheck.cli import main as cli_main


@contextmanager
def budget(label, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label} took {elapsed:.2f}s, budget {seconds}s"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


def _partition(poly, parts):
    return nef.dual_nef_partition(nef.validate_nef_partition(poly, parts))


P1P1P1_PARTS = [[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]]
WP_PARTS = [[(1, 0, 0), (0, 1, 0), (-1, -1, -3), (0, 0, -1)], [(0, 0, 1)]]
QUINTIC_PARTS = [[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, -1)],
                 [(0, 0, 0, 1)]]


def test_criterion_01_p1p1p1(octahedron):
    with budget("01 product-of-lines fixture", 1.0):
        dual = _partition(octahedron, P1P1P1_PARTS)
        negated = {tuple(-x for x in v) for v in dual.nabla_vertex_sets[0]}
        assert set(dual.nabla_vertex_sets[1]) == negated
        assert nef.complement_count(dual, pt.polar_dual(octahedron)) == 12
        clauses = hg.conjecture318_report(2, 2, 12, 4, 4, 3, 12)
        numeric = [c for c in clauses if c.status != "UNVERIFIABLE"]
        assert len(numeric) == 3 and all(c.status == "PASS" for c in numeric)


def test_criterion_02_wp1113(wp1113_simplex):
    with budget("02 degree-two fixture", 1.0):
        dual = _partition(wp1113_simplex, WP_PARTS)
        assert set(dual.nabla_vertex_sets[0]) == {
            (-1, -1, 0), (-1, -1, 1), (-1, 2, 0), (2, -1, 0)}
        assert set(dual.nabla_vertex_sets[1]) == {
            (0, 0, 0), (0, 0, -1), (3, 0, -1), (0, 3, -1)}
        assert nef.complement_count(dual, pt.polar_dual(wp1113_simplex)) == 18


def test_criterion_03_interior_sum_identity(octahedron, wp1113_simplex, quintic_simplex):
    with budget("03 interior-of-sum identities", 5.0):
        cases = [(octahedron, P1P1P1_PARTS), (wp1113_simplex, WP_PARTS),
                 (quintic_simplex, QUINTIC_PARTS)]
        for poly, parts in cases:
            polar = pt.polar_dual(poly)
            dual = _partition(poly, parts)
            for i in range(dual.k):
                piece = dual.nablas[i]
                assert piece is not None
                total = pt.minkowski_sum(piece, polar)
                assert len(pt.lattice_points(total, "interior")) == \
                    len(dual.nabla_point_sets[i])
            assert len(pt.lattice_points(pt.dilate(polar, 2), "interior")) == pt.ell(polar)


def test_criterion_04_genus_oracle(quintic_simplex):
    with budget("04 genus against adjunction", 5.0):
        # Adjunction oracle: the (4, 5) curve in P^3 has 2g - 2 = 20 * 5.
        genus = (4 * 5 * (4 + 5 - 4) + 2) // 2
        assert genus == 51
        dual = _partition(quintic_simplex, QUINTIC_PARTS)
        polar = pt.polar_dual(quintic_simplex)
        assert nef.complement_count(dual, polar) == 52
        assert nef.curve_invariant(dual, polar, 3) == genus


def test_criterion_05_hypersurface_hodge(quartic_simplex, quintic_simplex,
                                         octahedron, cube, wp1113_simplex):
    with budget("05 hypersurface Hodge numbers", 5.0):
        assert nef.batyrev_hodge(quartic_simplex) == (1, 19)
        assert nef.batyrev_hodge(quintic_simplex) == (1, 101)
        for poly in (quartic_simplex, quintic_simplex, octahedron, cube,
                     wp1113_simplex):
            h11, h21 = nef.batyrev_hodge(poly)
            assert nef.batyrev_hodge(pt.polar_dual(poly)) == (h21, h11)


def test_criterion_06_lattice_suite():
    with budget("06 mirror lattices", 2.0):
        targets = {
            "H": ["H", "E8(-1)", "E8(-1)"],
            "<2>": ["H", "E8(-1)", "E8(-1)", "A1(-1)"],
            "<4>": ["H", "E8(-1)", "E8(-1)", "<-4>"],
        }
        for spec, target_specs in targets.items():
            lat = lt.standard_lattice(spec)
            emb = lt.canonical_embedding([lat])
            mirror = lt.dn_mirror(emb, lt.default_isotropic_vector(emb))
            target = lt.direct_sum(*(lt.standard_lattice(s) for s in target_specs))
            assert lt.invariants_match(mirror, target).matched
            assert mirror.rank == 20 - lat.rank
        definite = lt.find_isotropic(lt.from_gram([[2, 1], [1, 2]]))
        assert definite.vector is None and definite.conclusive
        # Round trip in both directions between H and H + E8(-1)^2.
        h = lt.standard_lattice("H")
        emb_h = lt.canonical_embedding([h])
        there = lt.dn_mirror(emb_h, lt.default_isotropic_vector(emb_h))
        m_pieces = [lt.standard_lattice(s) for s in ("H", "E8(-1)", "E8(-1)")]
        assert lt.invariants_match(there, lt.direct_sum(*m_pieces)).matched
        emb_m = lt.canonical_embedding(m_pieces)
        back = lt.dn_mirror(emb_m, lt.default_isotropic_vector(emb_m))
        assert lt.invariants_match(back, h).matched


def test_criterion_07_slicing_catalog():
    with budget("07 slicing and moduli catalog", 1.0):
        cases = [
            (["I12*"] + ["I1"] * 6, [[0], [1, 2, 3, 4, 5, 6]], [17, 1], 1, 2),
            (["II*", "II*"] + ["I1"] * 4, [[0, 2, 3], [1, 4, 5]], [9, 9], 1, 2),
            (["I12*", "I2"] + ["I1"] * 4, [[0, 2, 3, 4, 5], [1]], [17, 2], 1, 1),
            (["I6*", "III*"] + ["I1"] * 3, [[0, 2, 3, 4], [1]], [11, 8], 1, 1),
            (["I18"] + ["I1"] * 6, [[0, 1, 2, 3, 4, 5, 6]], [18], 0, 1),
            (["II*", "I2", "II*"] + ["I1"] * 2, [[0, 3], [1], [2, 4]], [9, 2, 9], 2, 1),
        ]
        for tags, slices, components, dc, l_rank in cases:
            desc = hg.FibrationDescriptor.from_tags(tags, ell=1)
            sliced = hg.SlicedFibration(desc, tuple(tuple(s) for s in slices))
            deg = hg.TypeIIDegeneration(tuple(components), dc, l_rank)
            assert hg.slicing_check(sliced, deg).passed


def test_criterion_08_family_sweep():
    with budget("08 exhaustive family sweep", 5.0):
        reports = fam.sweep()
        assert len(reports) == 71
        for report in reports:
            assert report.all_pass, report.params
            assert report.v[1] == report.w[0] and report.v[0] == report.w[1]
            assert report.v[0] == report.params.k
            assert hg.picard_from_fibration(report.profile) == report.w[0]
            assert report.chi_v == -report.chi_w


def test_criterion_09_polytope_properties(octahedron, cube, quartic_simplex,
                                          wp1113_simplex, quintic_simplex, hexagon):
    with budget("09 polytope property suite", 5.0):
        fixtures = (octahedron, cube, quartic_simplex, wp1113_simplex,
                    quintic_simplex, hexagon)
        for poly in fixtures:
            dual = pt.polar_dual(poly)
            assert pt.polar_dual(dual) == poly
            assert pt.ell(poly) == sum(len(pt.lattice_points(poly, region))
                                       for region in ("boundary", "interior"))
            for face in pt.face_lattice(poly):
                assert face.dim + pt.dual_face(poly, face).dim == poly.rank - 1
            # Enumeration oracle: membership filter over the facet data.
            lo = [min(v[k] for v in poly.vertices) for k in range(poly.rank)]
            hi = [max(v[k] for v in poly.vertices) for k in range(poly.rank)]
            box = itertools.product(*(range(lo[k], hi[k] + 1) for k in range(poly.rank)))
            by_filter = tuple(p for p in box if poly.contains(p))
            assert by_filter == pt.lattice_points(poly, "all")


CLI_INVOCATIONS = [
    (["polytope", "dual", "--fixture", "quartic"], 0),
    (["polytope", "reflexive", "--fixture", "cube"], 0),
    (["polytope", "points", "--fixture", "cube", "--region", "interior"], 0),
    (["polytope", "faces", "--fixture", "octahedron"], 0),
    (["nef", "verify", "--fixture", "p1p1p1"], 0),
    (["nef", "verify", "--fixture", "hexagon"], 1),
    (["nef", "dual", "--fixture", "wp1113"], 0),
    (["nef", "counts", "--fixture", "p1p1p1"], 0),
    (["nef", "counts", "--fixture", "wp1113"], 0),
    (["nef", "counts", "--fixture", "quintic"], 0),
    (["nef", "hodge", "--fixture", "quartic"], 0),
    (["nef", "refine", "--fixture", "p1p1p1"], 0),
    (["lattice", "sum", "--spec", "H+E8(-1)+E8(-1)"], 0),
    (["lattice", "invariants", "--spec", "<-4>"], 0),
    (["lattice", "complement", "--spec", "<2>"], 0),
    (["lattice", "mirror", "--spec", "<4>", "--expect", "H+E8(-1)+E8(-1)+<-4>"], 0),
    (["lattice", "isotropic", "--fixture", "posdef2"], 0),
    (["lattice", "isotropic", "--spec", "<2>+<-4>", "--bound", "3"], 1),
    (["lattice", "match", "--a", "H+E8(-1)+E8(-1)", "--b", "H+E8(-1)+E8(-1)"], 0),
    (["hodge", "euler", "--fixture", "k3-diamond"], 0),
    (["hodge", "mirror", "--fixture", "mirror-pair-89"], 0),
    (["hodge", "lee", "--fixture", "tyurin-quartic"], 0),
    (["hodge", "glue", "--fixture", "tyurin-quartic"], 0),
    (["hodge", "lg-ranks", "--fixture", "quartic-threefold"], 0),
    (["hodge", "picard", "--fixture", "slice-deg2-3"], 0),
    (["hodge", "slice", "--fixture", "slice-h1"], 0),
    (["hodge", "slice", "--fixture", "slice-deg2-4"], 0),
    (["hodge", "lmhs", "--u", "19", "--v", "69"], 0),
    (["hodge", "conj318", "--fixture", "p1p1p1"], 0),
    (["hodge", "conj318", "--fixture", "wp1113"], 0),
    (["family", "quartic", "--i", "1", "--j", "1", "--mu", "2"], 0),
    (["family", "quartic", "--i", "3", "--j", "1", "--mu", "2,2"], 2),
    (["family", "sweep"], 0),
]


def test_criterion_10_cli_determinism(capsys):
    with budget("10 CLI determinism and exit codes", 10.0):
        for argv, expected_code in CLI_INVOCATIONS:
            code_a = cli_main(list(argv))
            out_a = capsys.readouterr().out
            code_b = cli_main(list(argv))
            out_b = capsys.readouterr().out
            assert code_a == code_b == expected_code, argv
            assert out_a == out_b, argv
            if "--pretty" not in argv:
                json.loads(out_a)
