"""Convex geometry tests, cross-checked against brute-force oracles.

The facet oracle below recomputes supporting hyperplanes by exhaustive
subset enumeration with an independent linear-algebra path (homogeneous
nullspace over Fractions), so it shares no code with the production hull.
"""

import itertools
import json
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorcheck import __version__, errors, fixtures, intlinalg as la, polytopes as pt
from mirrorcheck.cli import main as cli_main


# --- oracles ---------------------------------------------------------------


def _nullspace_plane(points):
    """(n, c) with <n, x> + c = 0 through the given points, or None.

    Solves the homogeneous system [x | 1] . (n, c) = 0 by elimination.
    """
    d = len(points[0])
    rows = [[Fraction(x) for x in p] + [Fraction(1)] for p in points]
    ncols = d + 1
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if r != d:
        return None  # points do not span a unique hyperplane
    free = next(c for c in range(ncols) if c not in pivots)
    sol = [Fraction(0)] * ncols
    sol[free] = Fraction(1)
    for i, c in enumerate(pivots):
        sol[c] = -rows[i][free]
    denom = 1
    for x in sol:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in sol]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    return tuple(ints[:d]), ints[d]


def naive_facets(points):
    """All facet inequalities of conv(points), by subset enumeration."""
    pts = sorted({tuple(p) for p in points})
    d = len(pts[0])
    out = set()
    for subset in itertools.combinations(pts, d):
        plane = _nullspace_plane(subset)
        if plane is None:
            continue
        n, c = plane
        values = [sum(a * b for a, b in zip(n, p)) + c for p in pts]
        if all(v >= 0 for v in values):
            out.add((n, c))
        elif all(v <= 0 for v in values):
            out.add((tuple(-x for x in n), -c))
    return out


def naive_points(points, region="all"):
    """Box scan filtered through the oracle facets."""
    pts = sorted({tuple(p) for p in points})
    d = len(pts[0])
    facets = naive_facets(pts)
    lo = [min(p[k] for p in pts) for k in range(d)]
    hi = [max(p[k] for p in pts) for k in range(d)]
    out = []
    for q in itertools.product(*(range(lo[k], hi[k] + 1) for k in range(d))):
        slacks = [sum(a * b for a, b in zip(n, q)) + c for n, c in facets]
        if any(s < 0 for s in slacks):
            continue
        on_boundary = any(s == 0 for s in slacks)
        if region == "all" or (region == "boundary") == on_boundary:
            out.append(q)
    return tuple(out)


def unimodular(d, seed):
    """A seeded GL(d, Z) matrix: d signed row additions, then a row shuffle."""
    rng = random.Random(seed)
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        f = rng.choice((-1, 1))
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return m


def image(m, points):
    return [tuple(la.mat_vec(m, list(p))) for p in points]


REGIONS = ("all", "boundary", "interior")

ALL_FIXTURE_POINTS = [
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -3)],
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)],
    [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)],
    [(-1, -1, -1), (-1, -1, 3), (-1, 3, -1), (3, -1, -1)],
]


# --- hull ------------------------------------------------------------------


def test_hull_octahedron_facets(octahedron):
    assert len(octahedron.facets) == 8
    expected = {((sx, sy, sz), 1) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
    assert set(octahedron.facets) == expected


def test_hull_wp1113_vertices(wp1113_simplex):
    assert wp1113_simplex.vertices == ((-1, -1, -3), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_hull_rejects_degenerate_input():
    with pytest.raises(errors.NotFullDimensional):
        pt.hull([(0, 0), (1, 0)])
    with pytest.raises(errors.EmptyInput):
        pt.hull([])


def test_hull_drops_redundant_points(cube):
    padded = list(cube.vertices) + [(0, 0, 0), (1, 1, 0), (0, 1, 1)]
    assert pt.hull(padded) == cube


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
def test_hull_matches_facet_oracle(points):
    assert set(pt.hull(points).facets) == naive_facets(points)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
                min_size=4, max_size=8, unique=True))
def test_hull_matches_facet_oracle_random(points):
    try:
        poly = pt.hull(points)
    except errors.NotFullDimensional:
        return
    assert set(poly.facets) == naive_facets(points)
    assert all(poly.contains(p) for p in points)


# --- polar dual ------------------------------------------------------------


def test_polar_octahedron_is_cube(octahedron, cube):
    assert pt.polar_dual(octahedron) == cube
    assert pt.polar_dual(cube) == octahedron


def test_polar_quartic_simplex(quartic_simplex):
    dual = pt.polar_dual(quartic_simplex)
    assert dual.vertices == ((-1, -1, -1), (-1, -1, 3), (-1, 3, -1), (3, -1, -1))
    assert pt.polar_dual(dual) == quartic_simplex


@pytest.mark.parametrize("fixture", ["octahedron", "cube", "quartic_simplex",
                                     "wp1113_simplex", "quintic_simplex", "hexagon"])
def test_polar_involution(fixture, request):
    poly = request.getfixturevalue(fixture)
    dual = pt.polar_dual(poly)
    assert pt.polar_dual(dual) == poly
    # Facet/vertex counts swap.
    assert len(dual.vertices) == len(poly.facets)
    assert len(dual.facets) == len(poly.vertices)


def test_polar_errors(cube):
    with pytest.raises(errors.NonIntegralDual):
        pt.polar_dual(pt.dilate(cube, 2))
    shifted = pt.hull([(x + 1, y + 1, z + 1) for x, y, z in cube.vertices])
    with pytest.raises(errors.OriginNotInterior):
        pt.polar_dual(shifted)


# --- reflexivity -----------------------------------------------------------


def test_is_reflexive(cube, wp1113_simplex):
    assert pt.is_reflexive(cube)
    assert not pt.is_reflexive(pt.dilate(cube, 2))
    assert pt.is_reflexive(wp1113_simplex)


# --- lattice points --------------------------------------------------------


def test_cube_point_counts(cube):
    assert pt.ell(cube) == 27
    assert pt.lattice_points(cube, "interior") == ((0, 0, 0),)
    assert pt.ell_boundary(cube) == 26


def test_dilated_simplex_count(quartic_simplex):
    dual = pt.polar_dual(quartic_simplex)
    # The 4-dilated standard 3-simplex has C(7, 3) lattice points.
    assert pt.ell(dual) == comb(7, 3) == 35


def test_points_lexicographic(cube):
    points = pt.lattice_points(cube, "all")
    assert list(points) == sorted(points)


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
@pytest.mark.parametrize("region", ["all", "boundary", "interior"])
def test_enumeration_oracle(points, region):
    assert pt.lattice_points(pt.hull(points), region) == naive_points(points, region)


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
def test_ell_additivity(points):
    poly = pt.hull(points)
    assert pt.ell(poly) == pt.ell_boundary(poly) + pt.ell_interior(poly)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[st.integers(-1 if d <= 3 else 0, 1)] * d),
             min_size=d + 1, max_size=d + 3, unique=True),
    st.integers(0, 2**16))))
def test_enumeration_oracle_skewed_random(case):
    # Seeded GL(d, Z) images make the bounding box sparse, so the sweep's
    # lifting bounds, not the box, decide which points it visits.
    points, seed = case
    pts = image(unimodular(len(points[0]), seed), points)
    try:
        poly = pt.hull(pts)
    except errors.NotFullDimensional:
        assume(False)
    for region in REGIONS:
        assert pt.lattice_points(poly, region) == naive_points(pts, region)


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
def test_one_sweep_fills_every_region(points):
    poly = pt.hull(points)
    assert poly._points == {}
    pt.lattice_points(poly, "interior")
    assert set(poly._points) == set(REGIONS)
    for region in REGIONS:
        assert poly._points[region] == pt.lattice_points(pt.hull(points), region)


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
def test_regions_partition_lexicographically(points):
    poly = pt.hull(image(unimodular(len(points[0]), 7), points))
    everything = pt.lattice_points(poly, "all")
    boundary = pt.lattice_points(poly, "boundary")
    interior = pt.lattice_points(poly, "interior")
    assert list(everything) == sorted(everything)
    assert not set(boundary) & set(interior)
    assert everything == tuple(sorted(boundary + interior))


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
@pytest.mark.parametrize("factor", [2, 3])
def test_enumeration_oracle_dilated(points, factor):
    poly = pt.dilate(pt.hull(points), factor)
    for region in REGIONS:
        assert pt.lattice_points(poly, region) == naive_points(poly.vertices, region)


def test_pick_thin_triangle():
    # 2 * area = 300*300 - 1 = 2*I + B - 2 (Pick); the two long edges are
    # primitive and the third has gcd(299, 299) = 299 steps.
    tri = pt.hull([(0, 0), (300, 1), (1, 300)])
    assert pt.ell_boundary(tri) == 1 + 1 + 299
    assert 2 * pt.ell_interior(tri) + pt.ell_boundary(tri) - 2 == 300 * 300 - 1
    assert pt.ell(tri) == 45151


def test_ehrhart_dilated_cube5():
    cube5 = pt.hull(list(itertools.product((-1, 1), repeat=5)))
    assert pt.ell(pt.dilate(cube5, 3)) == 7 ** 5
    assert pt.ell_interior(pt.dilate(cube5, 3)) == 5 ** 5


# --- faces and duality -----------------------------------------------------


def test_cube_face_lattice(cube):
    faces = pt.face_lattice(cube)
    by_dim = {}
    for f in faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {-1: 1, 0: 8, 1: 12, 2: 6, 3: 1}
    assert by_dim[0] - by_dim[1] + by_dim[2] == 2


def test_dual_face_of_cube_vertex(cube):
    vertex = next(f for f in pt.face_lattice(cube)
                  if f.dim == 0 and f.vertices == ((1, 1, 1),))
    dual = pt.dual_face(cube, vertex)
    assert dual.dim == 2
    assert set(dual.vertices) == {(-1, 0, 0), (0, -1, 0), (0, 0, -1)}


def test_dual_face_interior_counts(quartic_simplex):
    big = pt.polar_dual(quartic_simplex)
    edge = next(f for f in pt.face_lattice(big)
                if f.dim == 1 and set(f.vertices) == {(3, -1, -1), (-1, 3, -1)})
    assert pt.ell_star_face(big, edge) == 3
    dual_edge = pt.dual_face(big, edge)
    assert set(dual_edge.vertices) == {(0, 0, 1), (-1, -1, -1)}
    assert pt.ell_star_face(pt.polar_dual(big), dual_edge) == 0


@pytest.mark.parametrize("fixture", ["cube", "wp1113_simplex", "quartic_simplex", "hexagon"])
def test_face_duality_bijection(fixture, request):
    poly = request.getfixturevalue(fixture)
    d = poly.rank
    faces = pt.face_lattice(poly)
    images = set()
    for face in faces:
        dual = pt.dual_face(poly, face)
        assert face.dim + dual.dim == d - 1
        images.add(dual.vertex_indices)
    assert len(images) == len(faces)
    assert len(faces) == len(pt.face_lattice(pt.polar_dual(poly)))


def test_relative_interior_partition(cube):
    # Every lattice point lies in the relative interior of exactly one face.
    total = sum(pt.ell_star_face(cube, f) for f in pt.face_lattice(cube) if f.dim >= 0)
    assert total == pt.ell(cube)


# --- Minkowski sums and dilation -------------------------------------------


def test_minkowski_sum_boxes(cube):
    a = pt.hull(list(itertools.product((0, 1), repeat=3)))
    b = pt.hull(list(itertools.product((-1, 0), repeat=3)))
    assert pt.minkowski_sum(a, b) == cube


def test_dilate(cube):
    doubled = pt.dilate(cube, 2)
    assert doubled.vertices == tuple(sorted(tuple(2 * x for x in v) for v in cube.vertices))
    assert pt.ell(doubled) == 125


def test_minkowski_rank_mismatch(cube, hexagon):
    with pytest.raises(errors.RankMismatch):
        pt.minkowski_sum(cube, hexagon)


# --- generic hull membership helpers ---------------------------------------


def test_convex_hull_contains_degenerate():
    segment = [(0, 0, 0), (0, 0, 2)]
    assert pt.convex_hull_contains(segment, (0, 0, 1))
    assert not pt.convex_hull_contains(segment, (0, 1, 1))
    assert pt.extreme_points([(0, 0, 0), (0, 0, 1), (0, 0, 2)]) == ((0, 0, 0), (0, 0, 2))


# --- CLI byte identity -----------------------------------------------------


def _polytope_fixtures():
    names = []
    for name in fixtures.fixture_names():
        if "polytope" in fixtures.load_fixture(name):
            names.append(name)
    return names


SKEWED_IMAGES = {
    "octahedron": [[2, 1, 0], [-3, -1, 1], [1, 2, 2]],
    "quintic": [[7, 2, 0, 0], [3, 7, 2, 0], [0, 3, 7, 2], [0, 0, 3, 1]],
}


def _points_report(region, vertices, inputs):
    points = naive_points(vertices, region)
    report = {
        "status": "PASS",
        "payload": {"region": region, "count": len(points),
                    "points": [list(p) for p in points]},
        "provenance": {"tool": "mirrorcheck", "version": __version__,
                       "command": ["polytope", "points"], "inputs": inputs},
    }
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("name", _polytope_fixtures())
def test_cli_points_fixture_bytes(name, region, capsys):
    vertices = fixtures.load_fixture(name)["polytope"]["vertices"]
    assert cli_main(["polytope", "points", "--fixture", name, "--region", region]) == 0
    assert capsys.readouterr().out == _points_report(region, vertices, {"fixture": name})


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("name", sorted(SKEWED_IMAGES))
def test_cli_points_skewed_bytes(name, region, tmp_path, capsys):
    assert abs(la.determinant(SKEWED_IMAGES[name])) == 1
    vertices = image(SKEWED_IMAGES[name], fixtures.load_fixture(name)["polytope"]["vertices"])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"vertices": [list(v) for v in vertices]}))
    argv = ["polytope", "points", "--polytope", str(path), "--region", region]
    assert cli_main(argv) == 0
    expected = _points_report(region, vertices, {"polytope": {"file": str(path)}})
    assert capsys.readouterr().out == expected
