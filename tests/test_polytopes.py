"""Convex geometry tests, cross-checked against brute-force oracles.

The facet oracle below recomputes supporting hyperplanes by exhaustive
subset enumeration with an independent linear-algebra path (homogeneous
nullspace over Fractions), so it shares no code with the production hull.
"""

import copy
import gc
import importlib.util
import itertools
import json
import pathlib
import pickle
import random
import weakref
from fractions import Fraction
from math import comb, gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
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


def _fraction_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def affine_rank(points):
    """Dimension of the affine span of the points; -1 for no points."""
    if not points:
        return -1
    base = points[0]
    return _fraction_rank([[x - y for x, y in zip(p, base)] for p in points[1:]])


def zero_pattern(poly):
    """Per facet, the bitmask of the vertices where its slack
    <n, v> + c is 0, by inner products."""
    return tuple(sum(1 << i for i, v in enumerate(poly.vertices)
                     if sum(a * b for a, b in zip(n, v)) + c == 0)
                 for n, c in poly.facets)


def naive_vertices(points):
    """The extreme points of conv(points): those at which the oracle facets
    through them have normals of full rank, so that they cut out the point."""
    pts = sorted({tuple(p) for p in points})
    facets = naive_facets(pts)
    d = len(pts[0])
    return tuple(p for p in pts
                 if _fraction_rank([n for n, c in facets
                                    if sum(a * b for a, b in zip(n, p)) + c == 0]) == d)


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


def facet_incidence(poly, point):
    """Indices of the facets whose hyperplane passes through the point, by
    one inner product per facet."""
    return frozenset(j for j, (n, c) in enumerate(poly.facets) if la.dot(n, point) + c == 0)


def naive_ell_star_face(poly, face):
    """Relative-interior count by a scan of every boundary point per face."""
    if face.dim == poly.rank:
        return len(pt.lattice_points(poly, "interior"))
    if face.dim < 0:
        return 0
    inc = frozenset(j for j, (n, c) in enumerate(poly.facets)
                    if all(la.dot(n, v) + c == 0 for v in face.vertices))
    return sum(1 for p in pt.lattice_points(poly, "boundary")
               if facet_incidence(poly, p) == inc)


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


def skewed(points, seeds):
    """The image of the points under ``unimodular(d, s)`` for one seed s, or
    for each of a tuple of seeds in turn."""
    for seed in seeds if isinstance(seeds, tuple) else (seeds,):
        points = image(unimodular(len(points[0]), seed), points)
    return points


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


# Most points per rank, so that naive_facets' C(n, d) subsets stay few.
HULL_POINT_CAP = {2: 20, 3: 16, 4: 13, 5: 12}


@st.composite
def hull_inputs(draw):
    """Points in ranks 2 to 5: random base points, and often, with the base
    scaled by 6, the averages of 2 or 3 of them as well (edge midpoints,
    centres of triangles on facets or inside), so that boundary and
    redundant points are common and come anywhere in the sorted order."""
    d = draw(st.integers(pt.MIN_RANK, pt.MAX_RANK))
    base = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                         min_size=d + 1, max_size=min(d + 5, HULL_POINT_CAP[d]), unique=True))
    subsets = draw(st.lists(
        st.lists(st.integers(0, len(base) - 1), min_size=2, max_size=3, unique=True),
        max_size=HULL_POINT_CAP[d] - len(base)))
    scale = 6 if subsets else 1
    points = [tuple(scale * x for x in p) for p in base]
    for idx in subsets:
        w = scale // len(idx)
        points.append(tuple(w * sum(base[i][k] for i in idx) for k in range(d)))
    return points


CUBE_WITH_EDGE_MIDPOINTS = [p for p in itertools.product((0, 1, 2), repeat=3)
                            if p.count(1) <= 1]
# The facet point (0, 1, 1) sorts between vertices and joins the starting
# simplex; the vertex (0, 3, 0), inserted later, lies in the plane x = 0 of
# that simplex's facet.
SIMPLEX_FACET_POINT_FIRST = [(0, 0, 0), (0, 3, 0), (0, 0, 3), (0, 1, 1), (1, 0, 0)]


# About 60 examples per rank.
@settings(max_examples=240, deadline=None)
@given(hull_inputs())
@example(CUBE_WITH_EDGE_MIDPOINTS)
@example(SIMPLEX_FACET_POINT_FIRST)
def test_hull_matches_facet_oracle_random(points):
    d = len(points[0])
    try:
        poly = pt.hull(points)
    except errors.NotFullDimensional:
        base = points[0]
        assert _fraction_rank([[x - y for x, y in zip(p, base)] for p in points]) < d
        return
    assert set(poly.facets) == naive_facets(points)
    assert poly.vertices == naive_vertices(points)
    assert all(poly.contains(p) for p in points)
    assert poly.incidence == zero_pattern(poly)


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS + [
    CUBE_WITH_EDGE_MIDPOINTS,
    SIMPLEX_FACET_POINT_FIRST,
    [p for p in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, p)) <= 2],
    [p for p in itertools.product((0, 1), repeat=5)],
])
def test_hull_solves_only_the_starting_simplex(points, monkeypatch):
    # The starting simplex and its facets come from one elimination; each
    # later facet is a combination of the two planes at its horizon ridge,
    # so a hull takes no other elimination, inside intlinalg or out, and no
    # determinant.
    eliminations, determinants = [], []
    real_echelon, real_determinant = la._echelon, la.determinant

    def echelon(a, ncols):
        eliminations.append(ncols)
        return real_echelon(a, ncols)

    def determinant(m):
        determinants.append(m)
        return real_determinant(m)

    for module in (pt, la):
        monkeypatch.setattr(module, "_echelon", echelon)
    monkeypatch.setattr(la, "determinant", determinant)
    monkeypatch.setattr(pt, "determinant", determinant, raising=False)
    pt.hull(points)
    assert eliminations == [len(set(map(tuple, points)))]
    assert determinants == []


@st.composite
def simplex_points(draw):
    """d+1 affinely independent points of rank 2 to 5."""
    d = draw(st.integers(pt.MIN_RANK, pt.MAX_RANK))
    points = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * d), min_size=d + 1,
                           max_size=d + 1))
    base = points[0]
    assume(_fraction_rank([[x - y for x, y in zip(p, base)] for p in points[1:]]) == d)
    return points


@settings(max_examples=300, deadline=None)
@given(simplex_points())
@example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
@example([(0, 0, 0), (0, 1, 0), (0, 0, 1), (-2, 3, 5)])
@example([(2, 3), (2, -5), (-1, 0)])
def test_simplex_facets_match_nullspace_oracle(points):
    # The columns of one inverse are the planes the Fraction oracle gives
    # through each d of the points, facing the point left out.
    poly = pt.hull(points)
    expected = set()
    for omit in points:
        n, c = _nullspace_plane([p for p in points if p != omit])
        if sum(a * b for a, b in zip(n, omit)) + c < 0:
            n, c = tuple(-x for x in n), -c
        expected.add((n, c))
    assert len(poly.facets) == len(points)
    assert set(poly.facets) == expected


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS + [
    CUBE_WITH_EDGE_MIDPOINTS,
    SIMPLEX_FACET_POINT_FIRST,
    [p for p in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, p)) <= 2],
    [p for p in itertools.product((0, 1), repeat=5)],
])
def test_hull_takes_no_smith_form(points, monkeypatch):
    # The starting planes come from one elimination, not from a Smith form
    # through the integer kernel.
    calls = []
    for name in ("smith_normal_form", "kernel_basis"):
        real = getattr(la, name)

        def counting(*args, real=real):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(la, name, counting)
        monkeypatch.setattr(pt, name, counting, raising=False)
    poly = pt.hull(points)
    if pt.is_reflexive(poly):
        pt.lattice_points(pt.polar_dual(poly))
    assert calls == []


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS + [
    CUBE_WITH_EDGE_MIDPOINTS,
    [p for p in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, p)) <= 2],
    [p for p in itertools.product((0, 1), repeat=5)],
])
def test_hull_takes_no_rank(points, monkeypatch):
    # The starting simplex takes one echelon pass, not a rank per point, and
    # each facet's incidence row is its exact point mask: no rank re-proves
    # a facet's dimension.
    calls = []
    real = la.rank

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(la, "rank", counting)
    monkeypatch.setattr(pt, "rank", counting, raising=False)
    pt.hull(points)
    assert calls == []


@st.composite
def cross_polytope_points(draw):
    """Points of {-1, 0, 1}^d, d = 2 to 5: the 2d signed unit vectors,
    so that the origin is interior, and a few more, so that many hulls
    are reflexive."""
    d = draw(st.integers(pt.MIN_RANK, pt.MAX_RANK))
    units = [tuple(s * (i == k) for k in range(d)) for i in range(d) for s in (1, -1)]
    extra = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d), max_size=6))
    return units + extra


@settings(max_examples=240, deadline=None)
@given(st.one_of(hull_inputs(), cross_polytope_points()))
@example(CUBE_WITH_EDGE_MIDPOINTS)
@example(SIMPLEX_FACET_POINT_FIRST)
@example([p for p in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, p)) <= 2])
def test_hull_facets_are_exact_by_construction(points):
    # The rank oracle the hull no longer takes: each facet's tight vertices
    # span d-1 dimensions, its incidence row is its zero pattern, every
    # input point has slack >= 0 there, and a reflexive hull's polar is the
    # hull of its normals, incidence included.
    try:
        poly = pt.hull(points)
    except errors.NotFullDimensional:
        assert affine_rank(sorted(set(points))) < len(points[0])
        return
    d = poly.rank
    assert poly.incidence == zero_pattern(poly)
    for (n, c), on in zip(poly.facets, poly.incidence):
        assert affine_rank([v for i, v in enumerate(poly.vertices) if on >> i & 1]) == d - 1
        assert all(sum(a * b for a, b in zip(n, p)) + c >= 0 for p in points)
    if pt.is_reflexive(poly):
        check_polar_against_hull(poly)


def pairwise_vertices_and_incidence(poly, points):
    """The vertices of conv(points) and the incidence table over P's facets
    by a scan of every (point, facet) pair: a point is a vertex iff no
    other point lies on every facet through it."""
    pts = sorted(set(points))
    on = [[sum(a * b for a, b in zip(n, p)) + c == 0 for n, c in poly.facets] for p in pts]
    vertices = tuple(p for i, p in enumerate(pts)
                     if not any(all(on[k][j] for j in range(len(poly.facets)) if on[i][j])
                                for k in range(len(pts)) if k != i))
    incidence = tuple(sum(1 << r for r, v in enumerate(vertices) if on[pts.index(v)][j])
                      for j in range(len(poly.facets)))
    return vertices, incidence


@settings(max_examples=240, deadline=None)
@given(hull_inputs())
@example(CUBE_WITH_EDGE_MIDPOINTS)
@example(SIMPLEX_FACET_POINT_FIRST)
@example([p for p in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, p)) <= 2])
@example(list(itertools.product((0, 1), repeat=5)))
def test_hull_vertices_and_incidence_match_a_pairwise_scan(points):
    # The final pass reads each point's face off the set bits of the facet
    # masks; with every point a vertex the masks are the table itself.
    try:
        poly = pt.hull(points)
    except errors.NotFullDimensional:
        return
    assert (poly.vertices, poly.incidence) == pairwise_vertices_and_incidence(poly, points)


@pytest.mark.parametrize("points", [CUBE_WITH_EDGE_MIDPOINTS, SIMPLEX_FACET_POINT_FIRST,
                                    ALL_FIXTURE_POINTS[0] + [(0, 0, 0)]],
                         ids=["edge-midpoints", "facet-point", "interior-point"])
def test_hull_renumbers_the_masks_past_points_that_are_not_vertices(points):
    poly = pt.hull(points)
    assert len(poly.vertices) < len(set(points))
    assert (poly.vertices, poly.incidence) == pairwise_vertices_and_incidence(poly, points)


def greedy_simplex(points, d):
    """The starting simplex as it was first chosen: grow it point by point,
    keeping each point that raises the affine rank."""
    chosen = [0]
    for i in range(1, len(points)):
        base = points[chosen[0]]
        rows = [[points[j][k] - base[k] for k in range(d)] for j in chosen[1:] + [i]]
        if _fraction_rank(rows) == len(rows):
            chosen.append(i)
            if len(chosen) == d + 1:
                return chosen
    return None


@st.composite
def spanned_points(draw):
    """Sorted distinct points of rank 2 to 5 in the affine span of a base
    point and 1 to d random directions, so often of lower dimension."""
    d = draw(st.integers(pt.MIN_RANK, pt.MAX_RANK))
    vec = st.tuples(*[st.integers(-2, 2)] * d)
    base = draw(vec)
    directions = draw(st.lists(vec, min_size=1, max_size=d))
    coefficients = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(directions)),
                                 min_size=1, max_size=12))
    return sorted({tuple(b + sum(x * u[k] for x, u in zip(cs, directions))
                         for k, b in enumerate(base)) for cs in coefficients})


@settings(max_examples=300, deadline=None)
@given(spanned_points())
@example([(0, 0), (1, 1), (2, 2), (3, 0)])
@example([(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 0)])
def test_starting_simplex_matches_greedy(points):
    # The first d+1 pivot columns of the hull's one elimination are the
    # greedy simplex, and a lower-dimensional input has fewer.
    d = len(points[0])
    found = []
    real_echelon = pt._echelon

    def echelon(a, ncols):
        pivots, sign = real_echelon(a, ncols)
        found.append(pivots)
        return pivots, sign

    with mock.patch.object(pt, "_echelon", echelon):
        try:
            pt.hull(points)
        except errors.NotFullDimensional:
            pass
    [pivots] = found
    assert (pivots if len(pivots) == d + 1 else None) == greedy_simplex(points, d)


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


@pytest.mark.parametrize("fixture", ["octahedron", "cube", "quartic_simplex",
                                     "wp1113_simplex", "quintic_simplex", "hexagon"])
def test_polar_vertices_are_facet_normals_in_order(fixture, request):
    # Vertex j of the polar is the normal of facet j, so the polar's
    # incidence table is the transpose of P's.
    poly = request.getfixturevalue(fixture)
    dual = pt.polar_dual(poly)
    assert dual.vertices == tuple(n for n, _ in poly.facets)
    assert dual.incidence == tuple(
        sum(1 << j for j, on in enumerate(poly.incidence) if on >> i & 1)
        for i in range(len(poly.vertices)))


@pytest.mark.parametrize("fixture", ["octahedron", "cube", "quartic_simplex",
                                     "wp1113_simplex", "quintic_simplex", "hexagon"])
def test_polar_cached_both_ways(fixture, request):
    poly = request.getfixturevalue(fixture)
    dual = pt.polar_dual(poly)
    assert pt.polar_dual(poly) is dual
    assert pt.polar_dual(dual) is poly


def test_polytope_is_freed_without_the_cycle_collector(quintic_simplex):
    # The polar, the faces and the lattice points are cached on the
    # polytope with no reference back to it, and the sweep leaves no cycle,
    # so dropping the last reference frees everything at once; the cycle
    # collector once had to find them.
    gc.collect()
    gc.disable()
    try:
        poly = pt.hull(quintic_simplex.vertices)
        dual = pt.polar_dual(poly)
        assert pt.polar_dual(dual) is poly
        for p in (poly, dual):
            pt.lattice_points(p)
            for face in pt.face_lattice(p):
                pt.ell_star_face(p, face)
                pt.dual_face(p, face)
            pt.smallest_face_containing(p, (0,) * p.rank)
        refs = [weakref.ref(poly), weakref.ref(dual)]
        del poly, dual, p, face
        assert [r() for r in refs] == [None, None]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_polar_failure_not_cached(cube):
    dilated = pt.dilate(cube, 2)
    for _ in range(2):
        with pytest.raises(errors.NonIntegralDual):
            pt.polar_dual(dilated)


def test_polar_errors(cube):
    with pytest.raises(errors.NonIntegralDual):
        pt.polar_dual(pt.dilate(cube, 2))
    shifted = pt.hull([(x + 1, y + 1, z + 1) for x, y, z in cube.vertices])
    with pytest.raises(errors.OriginNotInterior):
        pt.polar_dual(shifted)


REFLEXIVE_FIXTURE_POINTS = [p for p in ALL_FIXTURE_POINTS if pt.is_reflexive(pt.hull(p))]


def check_polar_against_hull(poly):
    """The transposed polar is the hull of P's facet normals, table for
    table, its incidence is its zero pattern, and its polar is P again."""
    dual = pt.polar_dual(poly)
    oracle = pt.hull([n for n, _ in poly.facets])
    assert _tables(dual) == _tables(oracle)
    assert dual.incidence == zero_pattern(dual)
    assert pt.polar_dual(dual) is poly


@pytest.mark.parametrize("seed", [None, 1, 2, 7])
@pytest.mark.parametrize("points", REFLEXIVE_FIXTURE_POINTS)
def test_polar_matches_hull_of_normals(points, seed):
    if seed is not None:
        points = image(unimodular(len(points[0]), seed), points)
    check_polar_against_hull(pt.hull(points))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REFLEXIVE_FIXTURE_POINTS + [
    [p for p in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, p)) == 1],
    list(itertools.product((-1, 1), repeat=4)),
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -2)],
    [p for p in itertools.product((-1, 0, 1), repeat=5) if sum(map(abs, p)) == 1],
]), st.integers(0, 2**16))
def test_polar_matches_hull_of_normals_random(points, seed):
    poly = pt.hull(image(unimodular(len(points[0]), seed), points))
    check_polar_against_hull(poly)
    check_polar_against_hull(pt.hull([n for n, _ in poly.facets]))


@pytest.mark.parametrize("seed", [None, 3, 11])
@pytest.mark.parametrize("points", REFLEXIVE_FIXTURE_POINTS + [
    list(itertools.product((-1, 1), repeat=4)),
    [p for p in itertools.product((-1, 0, 1), repeat=5) if sum(map(abs, p)) == 1]])
def test_polar_incidence_is_the_transpose(points, seed):
    if seed is not None:
        points = image(unimodular(len(points[0]), seed), points)
    poly = pt.hull(points)
    dual = pt.polar_dual(poly)
    assert [[on >> j & 1 for j in range(len(poly.facets))] for on in dual.incidence] == [
        [on >> i & 1 for on in poly.incidence] for i in range(len(poly.vertices))]


@pytest.mark.parametrize("points", REFLEXIVE_FIXTURE_POINTS)
def test_polar_cross_checks_the_transposed_slacks(points):
    # The polar's incidence is P's transposed, the zero pattern of the
    # transposed slacks, and its one check runs on that: vertex 0 of P,
    # left on d-1 of its facets, would be a polar facet with d-1 vertices,
    # and raises its named error on every call, with nothing cached.
    poly = pt.hull(points)
    d = poly.rank
    through = [j for j, on in enumerate(poly.incidence) if on & 1]
    incidence = tuple(on & ~1 if j in through[d - 1:] else on
                      for j, on in enumerate(poly.incidence))
    corrupt = pt.LatticePolytope(d, poly.vertices, poly.facets, incidence)
    for _ in range(2):
        with pytest.raises(errors.NotFullDimensional, match="fewer than d facets"):
            pt.polar_dual(corrupt)
    assert "polar" not in corrupt._cache


@pytest.mark.parametrize("points", REFLEXIVE_FIXTURE_POINTS)
def test_polytope_cache_keeps_one_object_and_nothing_on_failure(points):
    # Every derived value is kept in the one cache and returned again as
    # the same object; a call that raises leaves the cache as it was.
    poly = pt.hull(points)
    dual = pt.polar_dual(poly)
    for p in (poly, dual):
        for face in pt.face_lattice(p):
            pt.ell_star_face(p, face)
    assert set(poly._cache) == {"_sweep", "_faces", "_incidence_counts", "polar"}
    assert set(dual._cache) == {"_sweep", "_faces", "_incidence_counts", "polar_of"}
    for p in (poly, dual):
        for region in REGIONS:
            assert pt.lattice_points(p, region) is pt.lattice_points(p, region)
        assert pt.facet_masks(p) is pt.facet_masks(p)
        assert pt._faces(p) is pt._faces(p)
        assert pt._incidence_counts(p) is pt._incidence_counts(p)
    assert pt.polar_dual(poly) is dual and pt.polar_dual(dual) is poly
    doubled = pt.dilate(poly, 2)
    pt.lattice_points(doubled)
    for p, call in [(poly, lambda: pt.lattice_points(poly, "edges")),
                    (doubled, lambda: pt.polar_dual(doubled))]:
        before = dict(p._cache)
        with pytest.raises(errors.MirrorcheckError):
            call()
        assert p._cache.keys() == before.keys()
        assert all(p._cache[key] is value for key, value in before.items())


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
def test_non_reflexive_polar_raises_every_time(points, seed):
    # A facet at lattice distance 2, or the origin on or outside P, raises
    # on every call and caches nothing, on either polytope.
    if seed is not None:
        points = image(unimodular(len(points[0]), seed), points)
    poly = pt.hull(points)
    corner = poly.vertices[0]
    cases = [(pt.dilate(poly, 2), errors.NonIntegralDual),
             (pt.hull([tuple(x - y for x, y in zip(v, corner)) for v in poly.vertices]),
              errors.OriginNotInterior)]
    if not pt.is_reflexive(poly):
        cases.append((poly, errors.MirrorcheckError))
    for bad, error in cases:
        for _ in range(2):
            with pytest.raises(error):
                pt.polar_dual(bad)
        assert "polar" not in bad._cache


# --- reflexivity -----------------------------------------------------------


def test_is_reflexive(cube, wp1113_simplex):
    assert pt.is_reflexive(cube)
    assert not pt.is_reflexive(pt.dilate(cube, 2))
    assert pt.is_reflexive(wp1113_simplex)


# The 16 reflexive polygons up to GL(2, Z), one vertex list each, by their
# number of boundary points: 3, 4 (three), 5 (two), 6 (four), 7 (two), 8
# (three) and 9.
REFLEXIVE_POLYGONS = [
    [(1, 0), (0, 1), (-1, -1)],
    [(1, 0), (0, 1), (-1, -2)],
    [(1, 0), (1, 1), (-1, 0), (0, -1)],
    [(1, 0), (0, 1), (-1, 0), (0, -1)],
    [(1, 0), (1, 1), (-1, 1), (0, -1)],
    [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
    [(1, -1), (1, 2), (-1, 0)],
    [(-2, -1), (1, 0), (2, 1), (0, 1)],
    [(0, -1), (1, -2), (1, 0), (0, 1), (-1, 1)],
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [(0, -1), (1, 0), (1, 1), (-2, 1)],
    [(1, -2), (1, -1), (0, 1), (-1, 2), (-1, 0)],
    [(1, -2), (1, 2), (-1, 0)],
    [(0, -1), (2, -1), (0, 1), (-2, 1)],
    [(1, -2), (1, 0), (0, 1), (-2, 1)],
    [(-1, -1), (2, -1), (-1, 2)],
]


def polygon_shape(p):
    """The boundary point count, the vertex count and the sorted lattice
    lengths of the edges (by gcd, off the incidence table): invariant
    under GL(2, Z)."""
    lengths = []
    for mask in p.incidence:
        u, w = (v for i, v in enumerate(p.vertices) if mask >> i & 1)
        lengths.append(gcd(w[0] - u[0], w[1] - u[1]))
    return len(pt.lattice_points(p, "boundary")), len(p.vertices), tuple(sorted(lengths))


def assert_twelve_points(p):
    """The twelve-point theorem (Poonen-Rodriguez-Villegas 2000): the
    boundary points of a reflexive polygon and of its polar add up to 12.
    Each polygon's boundary count is also its edges' lattice lengths."""
    polar = pt.polar_dual(p)
    boundary = [len(pt.lattice_points(q, "boundary")) for q in (p, polar)]
    assert sum(boundary) == 12
    for q, count in zip((p, polar), boundary):
        assert len(pt.lattice_points(q, "interior")) == 1
        assert count == sum(polygon_shape(q)[2])


@pytest.mark.parametrize("vertices", REFLEXIVE_POLYGONS)
def test_twelve_point_theorem(vertices):
    assert_twelve_points(pt.hull(vertices))


def test_reflexive_polygons_are_sixteen_classes():
    # The shapes of a polygon and of its polar tell the 16 apart, so no two
    # are GL(2, Z)-equivalent; and the polar of each is again one of them.
    shapes = []
    for vertices in REFLEXIVE_POLYGONS:
        p = pt.hull(vertices)
        shapes.append((polygon_shape(p), polygon_shape(pt.polar_dual(p))))
    assert len(set(shapes)) == 16
    assert {(polar, shape) for shape, polar in shapes} == set(shapes)
    assert sorted(shape[0] for shape, _ in shapes) == [3, 4, 4, 4, 5, 5, 6, 6, 6, 6,
                                                       7, 7, 8, 8, 8, 9]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(REFLEXIVE_POLYGONS) - 1), st.integers(0, 2**16))
def test_twelve_point_theorem_on_images(index, seed):
    vertices = REFLEXIVE_POLYGONS[index]
    p = pt.hull(image(unimodular(2, seed), vertices))
    assert polygon_shape(p) == polygon_shape(pt.hull(vertices))
    assert_twelve_points(p)


# --- lattice points --------------------------------------------------------


def test_cube_point_counts(cube):
    assert pt.ell(cube) == 27
    assert pt.lattice_points(cube, "interior") == ((0, 0, 0),)
    assert len(pt.lattice_points(cube, "boundary")) == 26


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
    assert pt.ell(poly) == sum(len(pt.lattice_points(poly, region))
                               for region in ("boundary", "interior"))


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


# --- projection by ridges --------------------------------------------------


def levels(poly):
    """The sweep's levels of P in its own coordinates."""
    facets = [(n, c, on) for (n, c), on in zip(poly.facets, poly.incidence)]
    return pt._levels(facets, [v[0] for v in poly.vertices])


def hull_levels(poly):
    """The sweep's levels from hulls: level k < d from the hull of the
    vertices projected onto the first k coordinates."""
    d = poly.rank
    first = [v[0] for v in poly.vertices]
    levels = [[((), 1, -min(first)), ((), -1, max(first))]]
    for k in range(2, d + 1):
        facets = poly.facets if k == d else pt.hull([v[:k] for v in poly.vertices]).facets
        levels.append([(n[:-1], n[-1], c) for n, c in facets if n[-1] != 0])
    return levels


def check_projections(poly):
    """Each projection by ridges, level by level, against the hull and the
    subset oracle of the projected vertices; each mask holds the projected
    vertices on its facet."""
    vertices = poly.vertices
    facets = [(n, c, on) for (n, c), on in zip(poly.facets, poly.incidence)]
    for k in range(poly.rank, 2, -1):
        facets = pt._project(facets, k)
        points = [v[:k - 1] for v in vertices]
        assert [(n, c) for n, c, _ in facets] == list(pt.hull(points).facets)
        assert {(n, c) for n, c, _ in facets} == naive_facets(points)
        assert [mask for _, _, mask in facets] == [
            sum(1 << i for i, p in enumerate(points) if la.dot(n, p) + c == 0)
            for n, c, _ in facets]
    assert levels(poly) == hull_levels(poly)


@pytest.mark.parametrize("seed", [None, 1, 7])
@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS + [
    CUBE_WITH_EDGE_MIDPOINTS,
    [p for p in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, p)) <= 2],
    [p for p in itertools.product((0, 1), repeat=5)],
])
def test_projection_matches_hull_of_projected_vertices(points, seed):
    if seed is not None:
        points = image(unimodular(len(points[0]), seed), points)
    poly = pt.hull(points)
    check_projections(poly)
    if pt.is_reflexive(poly):
        check_projections(pt.polar_dual(poly))


# About 50 examples per rank.
@settings(max_examples=200, deadline=None)
@given(hull_inputs(), st.integers(0, 2**16))
@example(CUBE_WITH_EDGE_MIDPOINTS, 0)
def test_projection_matches_hull_of_projected_vertices_random(points, seed):
    try:
        poly = pt.hull(image(unimodular(len(points[0]), seed), points))
    except errors.NotFullDimensional:
        assume(False)
    check_projections(poly)


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
def test_levels_build_no_hull(points, monkeypatch):
    # The levels are read off P's incidence table: no hull, no rank, no
    # inner product.
    poly = pt.hull(points)
    expected = hull_levels(poly)
    calls = _count_dots(monkeypatch)

    def refuse(*args):
        raise AssertionError("the levels recomputed a hull or a rank")

    monkeypatch.setattr(pt, "hull", refuse)
    monkeypatch.setattr(la, "rank", refuse)
    assert levels(poly) == expected
    assert calls == []


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
def test_one_sweep_fills_every_region(points):
    poly = pt.hull(points)
    assert poly._cache == {}
    pt.lattice_points(poly, "interior")
    assert set(poly._cache) == {"_sweep"}
    for region, found in zip(REGIONS, poly._cache["_sweep"]):
        assert found == pt.lattice_points(pt.hull(points), region)


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
    boundary = len(pt.lattice_points(tri, "boundary"))
    assert boundary == 1 + 1 + 299
    assert 2 * len(pt.lattice_points(tri, "interior")) + boundary - 2 == 300 * 300 - 1
    assert pt.ell(tri) == 45151


def test_ehrhart_dilated_cube5():
    cube5 = pt.hull(list(itertools.product((-1, 1), repeat=5)))
    assert pt.ell(pt.dilate(cube5, 3)) == 7 ** 5
    assert len(pt.lattice_points(pt.dilate(cube5, 3), "interior")) == 5 ** 5


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


TRIANGLE = [(1, 0), (0, 1), (-1, -1)]


def test_faces_of_another_polytope_are_refused(octahedron, cube):
    # A face's vertex indices name vertices of its own parent only: an edge
    # of a triangle was once read as a face of the octahedron, whose dual
    # is a 2-face of the cube.
    edge = next(f for f in pt.face_lattice(pt.hull(TRIANGLE)) if f.dim == 1)
    facet = next(f for f in pt.face_lattice(cube) if f.dim == 2)
    for face in (edge, facet):
        with pytest.raises(errors.PolytopeMismatch, match="another polytope"):
            pt.dual_face(octahedron, face)
        with pytest.raises(errors.PolytopeMismatch, match="another polytope"):
            pt.ell_star_face(octahedron, face)
    # A face of an equal polytope built apart is a face of this one.
    twin_facet = next(f for f in pt.face_lattice(pt.hull(cube.vertices)) if f.dim == 2)
    assert pt.dual_face(cube, twin_facet) == pt.dual_face(cube, facet)
    assert pt.ell_star_face(cube, twin_facet) == pt.ell_star_face(cube, facet) == 1


def test_faces_of_their_own_parent_take_no_equality_test(cube, monkeypatch):
    # Identity is tested first, so Batyrev's per-face loop compares no
    # vertex tuples.
    faces = pt.face_lattice(cube)
    pt.dual_face(cube, faces[0])  # the polar, built once

    def refuse(self, other):
        raise AssertionError("polytopes compared")

    monkeypatch.setattr(pt.LatticePolytope, "__eq__", refuse)
    for face in faces:
        pt.ell_star_face(pt.polar_dual(cube), pt.dual_face(cube, face))
        pt.ell_star_face(cube, face)


@pytest.mark.parametrize("point", [(), (1,), (0, 0), (1, 0, 0, 0)])
def test_contains_refuses_points_of_another_rank(octahedron, point):
    # zip once cut the point to fit each normal: (1,) read as inside.
    with pytest.raises(errors.RankMismatch, match=f"has {len(point)} coordinates, not 3"):
        octahedron.contains(point)


@pytest.mark.parametrize("point", [(1,), (1, 0), (1, 0, 0, 0)])
def test_on_boundary_refuses_points_of_another_rank(octahedron, point):
    with pytest.raises(errors.RankMismatch):
        octahedron.on_boundary(point)


@pytest.mark.parametrize("point", [(1,), (0, 0), (0, 0, 0, 0)])
def test_smallest_face_refuses_points_of_another_rank(octahedron, point):
    with pytest.raises(errors.RankMismatch):
        pt.smallest_face_containing(octahedron, point)


# (1.5, 0, 0) once read as outside the octahedron, and a string raised a
# bare TypeError.
@pytest.mark.parametrize("point", [(1.5, 0, 0), "abc", (True, 0, 0), 1])
def test_contains_reads_the_point_through_as_int(octahedron, point):
    with pytest.raises(errors.InputError):
        octahedron.contains(point)


@pytest.mark.parametrize("point", [(1.5, 0, 0), "abc", (0, 0, True), None])
def test_on_boundary_reads_the_point_through_as_int(octahedron, point):
    with pytest.raises(errors.InputError):
        octahedron.on_boundary(point)


def test_contains_takes_integral_numbers(octahedron):
    assert octahedron.contains([1.0, 0, 0]) and octahedron.on_boundary([1.0, 0, 0])
    assert not octahedron.contains((2, 0, 0)) and not octahedron.on_boundary((0, 0, 0))


def test_polytope_is_read_only(octahedron):
    # A slot written after the sweep was cached once left ell reading 7
    # for doubled vertices, and contains reading the old facets.
    assert pt.ell(octahedron) == 7
    doubled = tuple(tuple(2 * x for x in v) for v in octahedron.vertices)
    for name, value in [("vertices", doubled), ("facets", ()), ("incidence", ()),
                        ("rank", 4), ("_cache", {}), ("other", 1)]:
        with pytest.raises(AttributeError, match="read-only"):
            setattr(octahedron, name, value)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(octahedron, name)
    assert octahedron == pt.hull(ALL_FIXTURE_POINTS[0]) and pt.ell(octahedron) == 7
    assert not octahedron.contains((2, 0, 0))


@pytest.mark.parametrize("points", REFLEXIVE_FIXTURE_POINTS)
def test_polytope_copies_pickle_and_weak_references(points):
    poly = pt.hull(points)
    pt.ell(pt.polar_dual(poly))
    for twin in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert twin is not poly and twin == poly and hash(twin) == hash(poly)
        assert (twin.rank, twin.vertices, twin.facets, twin.incidence) == (
            poly.rank, poly.vertices, poly.facets, poly.incidence)
        assert twin._cache == {}
        assert pt.lattice_points(twin) == pt.lattice_points(poly)
        assert pt.polar_dual(twin) == pt.polar_dual(poly)
        with pytest.raises(AttributeError):
            twin.vertices = poly.vertices
    assert weakref.ref(poly)() is poly


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


def _count_dots(monkeypatch):
    """Wrap ``polytopes.dot`` in a counter; return the list of its calls."""
    calls = []
    real = pt.dot

    def counting(u, v):
        calls.append(1)
        return real(u, v)

    monkeypatch.setattr(pt, "dot", counting)
    return calls


@pytest.mark.parametrize("points", [p for p in ALL_FIXTURE_POINTS
                                    if pt.is_reflexive(pt.hull(p))])
def test_faces_read_the_incidence_table(points, monkeypatch):
    # face_lattice and dual_face take no inner product: both read the
    # incidence table that hull recorded.  The dual faces still match
    # <u, v> = -1 over the vertices of the face.
    poly = pt.hull(points)
    dual = pt.polar_dual(poly)
    calls = _count_dots(monkeypatch)
    pairs = [(face, pt.dual_face(poly, face)) for face in pt.face_lattice(poly)]
    assert calls == []
    for face, image in pairs:
        assert set(image.vertices) == {
            u for u in dual.vertices
            if all(sum(a * b for a, b in zip(u, v)) == -1 for v in face.vertices)}


def check_face_dimensions(poly):
    """face_lattice takes no rank; each face's dimension, read off the
    lattice, is the affine rank of its vertices, the faces come graded, and
    their alternating count is 0 (Euler-Poincare, with the empty face)."""
    def refuse(*args):
        raise AssertionError("face_lattice took a rank")

    with mock.patch.object(la, "rank", refuse):
        faces = pt.face_lattice(poly)
    for face in faces:
        assert face.dim == affine_rank(face.vertices)
    keys = [(face.dim, face.vertex_indices) for face in faces]
    assert keys == sorted(set(keys))
    assert (faces[0].dim, faces[-1].dim) == (-1, poly.rank)
    assert sum((-1) ** face.dim for face in faces) == 0


@settings(max_examples=240, deadline=None)
@given(hull_inputs())
@example(ALL_FIXTURE_POINTS[0])
@example([p for p in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, p)) == 1])
@example([p for p in itertools.product((-1, 0, 1), repeat=5) if sum(map(abs, p)) == 1])
def test_face_dimensions_match_affine_rank(points):
    try:
        poly = pt.hull(points)
    except errors.NotFullDimensional:
        return
    check_face_dimensions(poly)
    if pt.is_reflexive(poly):
        check_face_dimensions(pt.polar_dual(poly))


def _prefix_count(vertices, k):
    """Prefixes x[:k] of the lattice points of the projection onto the
    first k+1 coordinates."""
    if k == 0:
        return 1
    return len({q[:k] for q in naive_points([v[:k + 1] for v in vertices])})


@pytest.mark.parametrize("seed", [None, 7, (1, 2, 3)])
@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
def test_sweep_lifts_each_facet_once_per_prefix(points, seed, monkeypatch):
    # The fibre lift takes one inner product per facet of the next level at
    # each prefix y[:k], k <= d-2, with lattice points over it, and one per
    # vertical facet at each such prefix of length d-2; every fibre below
    # gets its slacks by a multiply-add.  The prefixes are those of the
    # coordinates y = U x the sweep runs in, so the vertices are U v.
    if seed is not None:
        points = skewed(points, seed)
    poly = pt.hull(points)
    d = poly.rank
    basis = pt._sweep_basis(poly)
    vertices = poly.vertices if basis is None else image(basis[0], poly.vertices)
    # Facets of the projection onto the first j coordinates that bound
    # coordinate j-1, and the facets of P that do not bound y[d-1].
    lifted = {j: sum(1 for n, _ in naive_facets([v[:j] for v in vertices]) if n[-1])
              for j in range(2, d + 1)}
    vertical = sum(1 for n, _ in naive_facets(vertices) if n[-1] == 0)
    expected = sum(_prefix_count(vertices, k) * lifted[k + 2] for k in range(d - 1))
    expected += _prefix_count(vertices, d - 2) * vertical
    calls = _count_dots(monkeypatch)
    everything = pt._sweep(poly)[0]
    assert len(calls) == expected
    assert everything == naive_points(poly.vertices)


def test_relative_interior_partition(cube):
    # Every lattice point lies in the relative interior of exactly one face.
    total = sum(pt.ell_star_face(cube, f) for f in pt.face_lattice(cube) if f.dim >= 0)
    assert total == pt.ell(cube)


# --- the sweep's basis and budget ------------------------------------------


SIMPLEX5 = [tuple(int(i == j) for j in range(5)) for i in range(5)] + [(-1,) * 5]


def sweep_prefixes(vertices):
    """The prefixes a sweep of conv(vertices) in their own coordinates
    visits: the empty one and, for k < d, every lattice point of the
    projection onto the first k coordinates."""
    first = [v[0] for v in vertices]
    return 2 + max(first) - min(first) + sum(
        len(naive_points([v[:k] for v in vertices])) for k in range(2, len(vertices[0])))


@st.composite
def skewed_fixtures(draw):
    """A fixture polytope, or the rank-5 simplex, under up to three seeded
    skews; up to two in ranks 4 and 5, where the box-scan oracle grows
    fastest."""
    points = draw(st.sampled_from(ALL_FIXTURE_POINTS + [SIMPLEX5]))
    seeds = draw(st.lists(st.integers(0, 2**16), max_size=3 if len(points[0]) <= 3 else 2))
    return skewed(points, tuple(seeds))


@settings(max_examples=60, deadline=None)
@given(skewed_fixtures())
@example(ALL_FIXTURE_POINTS[2])  # gate 1: a small coordinate box
@example(SIMPLEX5)  # past gate 1, but G is reduced already
@example(skewed(ALL_FIXTURE_POINTS[6], 37966))  # gate 2: the box is not halved
@example(skewed(ALL_FIXTURE_POINTS[5], (27095, 52410, 44181)))  # reduced, rank 2
@example(skewed(ALL_FIXTURE_POINTS[1], (36159, 48732)))  # reduced, rank 3
@example(skewed(ALL_FIXTURE_POINTS[4], 55601))  # reduced, rank 4
@example(skewed(SIMPLEX5, 15585))  # reduced, rank 5
def test_reduced_sweep_matches_box_scan(points):
    # Whichever basis the gates pick, the three regions are the box scan's,
    # and each point's mask is the zero pattern of its slacks.
    poly = pt.hull(points)
    prefixes, box = pt._bounds(poly.vertices)
    basis = pt._sweep_basis(poly)
    if prefixes - 1 + box < pt._REDUCE_ABOVE:
        assert basis is None
    if basis is not None:
        u, back, vertex_image = basis
        assert la.mat_mul(u, back) == la.identity(poly.rank)
        assert list(zip(*vertex_image)) == image(u, poly.vertices)
        assert 2 * pt._bounds(image(u, poly.vertices))[0] <= prefixes
    for region in REGIONS:
        assert pt.lattice_points(poly, region) == naive_points(points, region)
    for p, mask in zip(pt.lattice_points(poly), pt.facet_masks(poly)):
        assert mask == sum(1 << j for j, (n, c) in enumerate(poly.facets) if la.dot(n, p) + c == 0)


# Skews whose reduced basis halves the prefix bound only with its rows
# ordered narrowest first, as the sweep takes them; in the order the
# reduction leaves them the halving gate would refuse the basis.
ORDER_DECIDES_THE_GATE = [skewed(ALL_FIXTURE_POINTS[3], 8984),
                          skewed(ALL_FIXTURE_POINTS[4], (12014, 60291))]


@pytest.mark.parametrize("points", ORDER_DECIDES_THE_GATE, ids=["rank3", "rank4"])
def test_sweep_basis_orders_its_rows_before_the_halving_gate(points):
    poly = pt.hull(points)
    prefixes = pt._bounds(poly.vertices)[0]
    basis = pt._sweep_basis(poly)
    assert basis is not None
    u, _, vertex_image = basis
    assert list(zip(*vertex_image)) == image(u, poly.vertices)
    widths = [max(row) - min(row) for row in vertex_image]
    assert widths == sorted(widths)
    assert 2 * pt._bounds(zip(*vertex_image))[0] <= prefixes
    assert any(2 * pt._bounds(zip(*rows))[0] > prefixes
               for rows in itertools.permutations(vertex_image))


def _skewed_bench_inputs():
    """The inputs of the points-skewed benchmark under their fixed skews
    ``gen.SKEWS``, without the seeded signed permutation a run puts on top:
    each reflexive base and its polar, each dilated cube and each thin
    triangle, by name."""
    spec = importlib.util.spec_from_file_location("mirrorcheck_bench_skews", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    inputs = {}
    for name, (vertices, *_) in gen.SKEW_REFLEXIVE.items():
        for c in range(2):
            tag = f"{name}.{c}"
            poly = pt.hull(image(gen.SKEWS[tag], vertices))
            inputs[tag] = poly.vertices
            inputs[f"{tag}.polar"] = pt.polar_dual(poly).vertices
    for k in gen.SKEW_DILATES:
        inputs[f"cube3x{k}"] = image(gen.SKEWS[f"cube3x{k}"], gen._cube(3, k))
    for c, (vertices, skew) in enumerate(gen.TRIANGLES):
        inputs[f"triangle.{c}"] = image(skew, vertices)
    return inputs


BENCH_GEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
SKEWED_BENCH_INPUTS = _skewed_bench_inputs()
# Prefixes one sweep of each input visits in its own coordinates, and in
# the basis the sweep picks.
SKEWED_PREFIXES = {
    "cube3.0": (97, 13),
    "cube3.0.polar": (29, 9),
    "cube3.1": (61, 13),
    "cube3.1.polar": (35, 9),
    "cube3x2": (191, 31),
    "cube3x3": (57, 57),
    "octahedron.0": (17, 9),
    "octahedron.0.polar": (85, 13),
    "octahedron.1": (23, 9),
    "octahedron.1.polar": (67, 13),
    "quartic.0": (14, 9),
    "quartic.0.polar": (277, 21),
    "quartic.1": (43, 8),
    "quartic.1.polar": (101, 21),
    "triangle.0": (141, 7),
    "triangle.1": (153, 8),
    "triangle.2": (181, 7),
    "triangle.3": (48, 6),
    "wp1113.0": (35, 8),
    "wp1113.0.polar": (117, 16),
    "wp1113.1": (20, 8),
    "wp1113.1.polar": (180, 16),
}


@pytest.mark.parametrize("tag", sorted(SKEWED_BENCH_INPUTS))
def test_skewed_sweep_prefixes_are_pinned(tag, monkeypatch):
    vertices = SKEWED_BENCH_INPUTS[tag]
    poly = pt.hull(vertices)
    basis = pt._sweep_basis(poly)
    swept = vertices if basis is None else image(basis[0], vertices)
    assert (sweep_prefixes(vertices), sweep_prefixes(swept)) == SKEWED_PREFIXES[tag]
    # The sweep's budget counts every prefix but the empty one, and every
    # point: it passes at exactly that cap and raises one below.
    work = SKEWED_PREFIXES[tag][1] - 1 + pt.ell(poly)
    monkeypatch.setattr(pt, "_SWEEP_CAP", work - 1)
    with pytest.raises(errors.BudgetExceeded):
        pt.lattice_points(pt.hull(vertices))
    monkeypatch.setattr(pt, "_SWEEP_CAP", work)
    assert len(pt.lattice_points(pt.hull(vertices))) == pt.ell(poly)


# --- Minkowski sums and dilation -------------------------------------------


def test_minkowski_sum_boxes(cube):
    a = pt.hull(list(itertools.product((0, 1), repeat=3)))
    b = pt.hull(list(itertools.product((-1, 0), repeat=3)))
    assert pt.minkowski_sum(a, b) == cube


def test_dilate(cube):
    doubled = pt.dilate(cube, 2)
    assert doubled.vertices == tuple(sorted(tuple(2 * x for x in v) for v in cube.vertices))
    assert pt.ell(doubled) == 125


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
@pytest.mark.parametrize("factor", [2, 3])
def test_dilate_keeps_incidence(points, factor):
    poly = pt.hull(points)
    dilated = pt.dilate(poly, factor)
    rebuilt = pt.hull(dilated.vertices)
    assert dilated.incidence == poly.incidence == zero_pattern(dilated)
    assert _tables(dilated) == _tables(rebuilt)


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


# --- hulls of lattice-point sets ---------------------------------------------


def _tables(poly):
    return poly.vertices, poly.facets, poly.incidence


@pytest.mark.parametrize("seed", [None, 1, 7])
@pytest.mark.parametrize("name", _polytope_fixtures())
def test_hull_of_lattice_points_is_the_polytope(name, seed):
    # Many points on each facet and inside, which the random oracle's few
    # points never give: each facet must come out once with its exact
    # point mask, and every point but the vertices must be dropped.
    vertices = fixtures.load_fixture(name)["polytope"]["vertices"]
    if seed is not None:
        vertices = image(unimodular(len(vertices[0]), seed), vertices)
    base = pt.hull(vertices)
    polys = [base, pt.dilate(base, 2)]
    if pt.is_reflexive(base):
        polys += [pt.polar_dual(base), pt.dilate(pt.polar_dual(base), 2)]
    for poly in polys:
        assert poly.incidence == zero_pattern(poly)
        assert _tables(pt.hull(pt.lattice_points(poly))) == _tables(poly)


def test_hull_of_grid_is_the_cube():
    grid = list(itertools.product((0, 1, 2), repeat=5))
    cube = pt.hull(list(itertools.product((0, 2), repeat=5)))
    assert _tables(pt.hull(grid)) == _tables(cube)
    assert pt.lattice_points(cube) == tuple(grid)


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


# --- relative-interior counts ----------------------------------------------


@pytest.mark.parametrize("name", _polytope_fixtures())
def test_ell_star_face_matches_scan(name):
    vertices = fixtures.load_fixture(name)["polytope"]["vertices"]
    base = pt.hull(vertices)
    polys = [base] + [pt.hull(image(unimodular(base.rank, seed), vertices))
                      for seed in (1, 2)]
    if pt.is_reflexive(base):
        polys.append(pt.polar_dual(base))
    for poly in polys:
        for face in pt.face_lattice(poly):
            assert pt.ell_star_face(poly, face) == naive_ell_star_face(poly, face), (poly, face)


def test_ell_star_face_scans_boundary_once(monkeypatch, quintic_simplex):
    # The sweep records the facets through each boundary point, so once the
    # points are enumerated the counts take no inner product at all.
    poly = pt.hull(pt.polar_dual(quintic_simplex).vertices)
    faces = pt.face_lattice(poly)
    pt.lattice_points(poly)
    calls = _count_dots(monkeypatch)
    for _ in range(2):
        total = sum(pt.ell_star_face(poly, f) for f in faces)
    assert total == pt.ell(poly)
    assert calls == []


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
def test_boundary_facet_masks_match_slacks(points, seed):
    # The facets the sweep records at each lattice point are those with
    # slack 0 there, and the mask is 0 exactly at the interior points.
    if seed is not None:
        points = image(unimodular(len(points[0]), seed), points)
    for poly in (pt.hull(points), pt.dilate(pt.hull(points), 2)):
        points, masks = pt.lattice_points(poly), pt.facet_masks(poly)
        assert masks == tuple(sum(1 << j for j in facet_incidence(poly, p)) for p in points)
        interior = tuple(p for p, mask in zip(points, masks) if not mask)
        assert interior == pt.lattice_points(poly, "interior")


@pytest.mark.parametrize("points", ALL_FIXTURE_POINTS)
def test_smallest_face_reads_the_sweep(points):
    # The face of every lattice point is cut out by the facets through it.
    poly = pt.hull(points)
    for p in pt.lattice_points(poly):
        on = (1 << len(poly.vertices)) - 1
        for j in facet_incidence(poly, p):
            on &= poly.incidence[j]
        assert pt.smallest_face_containing(poly, p).vertex_indices == tuple(
            i for i in range(len(poly.vertices)) if on >> i & 1)
    outside = tuple(max(v[k] for v in poly.vertices) + 1 for k in range(poly.rank))
    with pytest.raises(errors.EmptyInput):
        pt.smallest_face_containing(poly, outside)
    with pytest.raises(errors.InputError):
        pt.smallest_face_containing(poly, (Fraction(1, 2),) * poly.rank)
