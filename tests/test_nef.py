"""Nef partition construction, duality and count tests.

The genus assertion for the rank-4 fixture is pinned by an adjunction
oracle computed inline: the curve cut out by the two partition divisors is
a (4, 5) complete intersection in projective 3-space, so
2g - 2 = deg * (4 + 5 - 4) with deg = 20.

The vertices of each nabla_i are checked against an oracle that solves
every d-subset of nabla_i's defining inequalities and keeps the feasible
solutions (the basic-solution enumeration), and the lattice points of
each nabla_i against one constraint scan per part, on the fixture
partitions and on seeded GL(d, Z) images of them.  The Cartier data and
the points are also checked against those scans on random, unvalidated
partitions drawn by Hypothesis.
"""

import functools
import gc
import itertools
import random
import re
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_polytopes import image, unimodular

from mirrorcheck import errors, fixtures, intlinalg as la, nef, polytopes as pt

P1P1P1_PARTS = [[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]]
WP_PARTS = [[(1, 0, 0), (0, 1, 0), (-1, -1, -3), (0, 0, -1)], [(0, 0, 1)]]
QUINTIC_PARTS = [[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, -1)],
                 [(0, 0, 0, 1)]]


def quintic_genus_oracle():
    # Adjunction for the (4, 5) complete-intersection curve in P^3.
    degree = 4 * 5
    two_g_minus_2 = degree * (4 + 5 - 4)
    assert two_g_minus_2 == 100
    return two_g_minus_2 // 2 + 1


def basic_solution_vertices(np_):
    """Vertices of each nabla_i: the feasible basic solutions of its
    defining inequalities, found by solving every d-subset of them."""
    d = np_.polytope.rank
    boundary = pt.lattice_points(np_.polytope, "boundary")
    out = []
    for part in np_.parts:
        constraints = [(list(v), -1 if v in part else 0) for v in boundary]
        vertices = set()
        for combo in itertools.combinations(constraints, d):
            rows = [row for row, _ in combo]
            if la.rank(rows) < d:
                continue
            _, u = la.solve_exact(rows, [bound for _, bound in combo])
            if all(la.dot(row, u) >= bound for row, bound in constraints):
                vertices.add(tuple(u))
        out.append(tuple(sorted(vertices)))
    return tuple(out)


def constraint_filter_points(np_):
    """Lattice points of each nabla_i: the polar points u with <u, v> >= -1
    for v in E_i and >= 0 for the other boundary points v, one scan per part."""
    boundary = pt.lattice_points(np_.polytope, "boundary")
    polar_points = pt.lattice_points(pt.polar_dual(np_.polytope), "all")
    out = []
    for part in np_.parts:
        constraints = [(v, -1 if v in part else 0) for v in boundary]
        out.append(tuple(p for p in polar_points
                         if all(la.dot(v, p) >= bound for v, bound in constraints)))
    return tuple(out)


def scan_cartier_data(np_):
    """The Cartier and nef checks by plain scans: one inner product per
    boundary point for each facet's point filter and each nef check."""
    delta = np_.polytope
    boundary = pt.lattice_points(delta, "boundary")
    part_sets = [set(part) for part in np_.parts]
    vertex_sets = [set() for _ in np_.parts]
    for fi, (n, c) in enumerate(delta.facets):
        on_facet = [v for v in boundary if la.dot(n, v) + c == 0]
        for i, part_set in enumerate(part_sets):
            status, u = la.solve_exact(on_facet, [-1 if v in part_set else 0 for v in on_facet])
            if status != "unique" or any(x.denominator != 1 for x in u):
                raise errors.NotCartier(
                    f"part {i} has no integral Cartier data on facet {fi} (normal {n})")
            u_int = tuple(int(x) for x in u)
            for v in boundary:
                if la.dot(u_int, v) < (-1 if v in part_set else 0):
                    raise errors.NotNef(
                        f"part {i} fails upper convexity at {v} "
                        f"against facet {fi} (normal {n})")
            vertex_sets[i].add(u_int)
    return tuple(tuple(sorted(vs)) for vs in vertex_sets)


def cover_then_scan(np_):
    """The cover check, then the scans: what ``_nabla_vertex_sets`` must
    give on any partition, as ``_cartier_data`` reads the last part's
    functionals off the facet normals, which holds on a cover only."""
    nef._check_cover(np_)
    return scan_cartier_data(np_)


# --- validation ------------------------------------------------------------


def test_validate_p1p1p1(octahedron):
    np_ = nef.validate_nef_partition(octahedron, P1P1P1_PARTS)
    assert np_.k == 2


def test_validate_wp1113(wp1113_simplex):
    np_ = nef.validate_nef_partition(wp1113_simplex, WP_PARTS)
    assert [len(p) for p in np_.parts] == [4, 1]


def test_octahedron_singleton_part_is_valid(octahedron):
    # On a smooth ambient the toric divisor of a single ray is nef and
    # Cartier, so this partition must validate; the per-facet systems are
    # all solvable.
    boundary = pt.lattice_points(octahedron, "boundary")
    rest = [v for v in boundary if v != (1, 0, 0)]
    np_ = nef.validate_nef_partition(octahedron, [[(1, 0, 0)], rest])
    dual = nef.dual_nef_partition(np_)
    assert pt.is_reflexive(dual.nabla)


def test_not_a_partition(wp1113_simplex):
    # The spec's vertex-only description misses the boundary point
    # (0, 0, -1) and so is not a partition of the boundary lattice points.
    with pytest.raises(errors.NotAPartition):
        nef.validate_nef_partition(
            wp1113_simplex, [[(1, 0, 0), (0, 1, 0), (-1, -1, -3)], [(0, 0, 1)]])


def test_misassigned_facet_point_not_cartier(wp1113_simplex):
    with pytest.raises(errors.NotCartier):
        nef.validate_nef_partition(
            wp1113_simplex,
            [[(1, 0, 0), (0, 1, 0), (-1, -1, -3)], [(0, 0, 1), (0, 0, -1)]])


def test_cube_singleton_vertex_not_cartier(cube):
    boundary = pt.lattice_points(cube, "boundary")
    rest = [v for v in boundary if v != (1, 1, 1)]
    with pytest.raises(errors.NotCartier):
        nef.validate_nef_partition(cube, [[(1, 1, 1)], rest])


def test_hexagon_antipodal_pair_not_nef(hexagon):
    # The two rays span disjoint (-1)-curves on the del Pezzo surface of
    # degree 6; their sum is Cartier but fails upper convexity.
    with pytest.raises(errors.NotNef):
        nef.validate_nef_partition(
            hexagon, [[(1, 0), (-1, -1)], [(0, 1), (1, 1), (-1, 0), (0, -1)]])


# --- dual partitions -------------------------------------------------------


def test_dual_p1p1p1(octahedron):
    dual = nef.dual_nef_partition(nef.validate_nef_partition(octahedron, P1P1P1_PARTS))
    cube_neg = {(x, y, z) for x in (-1, 0) for y in (-1, 0) for z in (-1, 0)}
    assert set(dual.nabla_vertex_sets[0]) == cube_neg
    assert set(dual.nabla_vertex_sets[1]) == {tuple(-c for c in v) for v in cube_neg}
    assert pt.ell(dual.nabla) == 15


def test_dual_partition_cached_by_validation(octahedron, monkeypatch):
    # Validation keeps the vertices of the nabla_i, its Cartier data, and
    # builds no dual; the dual reuses those vertices and is built once.
    np_ = nef.validate_nef_partition(octahedron, P1P1P1_PARTS)
    assert set(np_._cache) == {"_nabla_vertex_sets"}

    def solve(*args):
        raise AssertionError("a Cartier system was solved twice")

    def rebuild(poly):
        raise AssertionError("the dual partition was built twice")

    monkeypatch.setattr(nef, "_echelon", solve)
    dual = nef.dual_nef_partition(np_)
    assert dual.nabla_vertex_sets is np_._cache["_nabla_vertex_sets"]
    monkeypatch.setattr(nef, "polar_dual", rebuild)
    assert nef.dual_nef_partition(np_) is dual
    # The cache is not part of the partition's identity.
    fresh = nef.NefPartition(octahedron, np_.parts)
    assert fresh == np_ and hash(fresh) == hash(np_)
    assert repr(fresh) == repr(np_)


def test_dual_wp1113_exact_vertex_lists(wp1113_simplex):
    dual = nef.dual_nef_partition(nef.validate_nef_partition(wp1113_simplex, WP_PARTS))
    assert set(dual.nabla_vertex_sets[0]) == {
        (-1, -1, 0), (-1, -1, 1), (-1, 2, 0), (2, -1, 0)}
    assert set(dual.nabla_vertex_sets[1]) == {
        (0, 0, 0), (0, 0, -1), (3, 0, -1), (0, 3, -1)}


def test_dual_quintic_nabla2_is_simplex(quintic_simplex):
    dual = nef.dual_nef_partition(nef.validate_nef_partition(quintic_simplex, QUINTIC_PARTS))
    assert set(dual.nabla_vertex_sets[1]) == {
        (0, 0, 0, 0), (0, 0, 0, -1), (1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)}
    assert dual.nablas[1] is not None and len(dual.nablas[1].vertices) == 5


@pytest.mark.parametrize("fixture,parts", [
    ("octahedron", P1P1P1_PARTS),
    ("wp1113_simplex", WP_PARTS),
    ("quintic_simplex", QUINTIC_PARTS),
])
def test_nabla_point_identities(fixture, parts, request):
    poly = request.getfixturevalue(fixture)
    dual = nef.dual_nef_partition(nef.validate_nef_partition(poly, parts))
    counts = [len(ps) for ps in dual.nabla_point_sets]
    # Nonzero lattice points of nabla lie in exactly one piece.
    assert pt.ell(dual.nabla) == sum(counts) - (len(counts) - 1)
    zero = (0,) * poly.rank
    union = set()
    for ps in dual.nabla_point_sets:
        assert zero in ps
        union |= set(ps)
    assert union == set(pt.lattice_points(dual.nabla, "all"))


@pytest.mark.parametrize("fixture,parts", [
    ("octahedron", P1P1P1_PARTS),
    ("wp1113_simplex", WP_PARTS),
    ("quintic_simplex", QUINTIC_PARTS),
])
def test_duality_round_trip(fixture, parts, request):
    """The dual of the dual partition recovers Conv(E_i + {0})."""
    poly = request.getfixturevalue(fixture)
    np_ = nef.validate_nef_partition(poly, parts)
    dual = nef.dual_nef_partition(np_)
    zero = (0,) * poly.rank
    mirror_parts = [[p for p in ps if p != zero] for ps in dual.nabla_point_sets]
    back = nef.dual_nef_partition(nef.validate_nef_partition(dual.nabla, mirror_parts))
    for i in range(np_.k):
        delta_i = pt.extreme_points([*np_.parts[i], zero])
        assert set(back.nabla_vertex_sets[i]) == set(delta_i)


def test_trivial_partition_dual_is_polar(octahedron):
    boundary = list(pt.lattice_points(octahedron, "boundary"))
    np_ = nef.validate_nef_partition(octahedron, [boundary])
    dual = nef.dual_nef_partition(np_)
    assert dual.nabla == pt.polar_dual(octahedron)


OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
CUBE = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
WP1113 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -3)]
QUINTIC = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]
HEXAGON = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]

# (label, vertices of Delta, all parts but the last; the last part is the
# rest of the boundary, and "mirror" cases validate the dual partition).
ORACLE_CASES = [
    ("p1p1p1", OCTAHEDRON, P1P1P1_PARTS[:1], False),
    ("p1p1p1-mirror", OCTAHEDRON, P1P1P1_PARTS[:1], True),
    ("octahedron-singleton", OCTAHEDRON, [[(1, 0, 0)]], False),
    ("octahedron-trivial", OCTAHEDRON, [], False),
    ("cube-trivial", CUBE, [], False),
    ("wp1113", WP1113, WP_PARTS[:1], False),
    ("wp1113-mirror", WP1113, WP_PARTS[:1], True),
    ("quintic", QUINTIC, QUINTIC_PARTS[:1], False),
    ("hexagon-pair", HEXAGON, [[(1, 0), (1, 1)]], False),
    ("hexagon-triple", HEXAGON, [[(0, 1), (1, 0), (1, 1)]], False),
]


def oracle_case_partition(vertices, parts, mirror, seed):
    """The validated partition of one ORACLE_CASES entry: its dual
    partition when ``mirror``, moved by a seeded GL(d, Z) matrix unless
    ``seed`` is None."""
    delta = pt.hull(vertices)
    boundary = pt.lattice_points(delta, "boundary")
    given_points = {v for part in parts for v in part}
    np_ = nef.validate_nef_partition(
        delta, parts + [[v for v in boundary if v not in given_points]])
    if mirror:
        zero = (0,) * delta.rank
        dual = nef.dual_nef_partition(np_)
        delta = dual.nabla
        parts = [[p for p in ps if p != zero] for ps in dual.nabla_point_sets]
    else:
        parts = [list(part) for part in np_.parts]
    if seed is not None:
        m = unimodular(delta.rank, seed)
        delta = pt.hull(image(m, delta.vertices))
        parts = [image(m, part) for part in parts]
    return nef.validate_nef_partition(delta, parts)


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("label,vertices,parts,mirror", ORACLE_CASES,
                         ids=[case[0] for case in ORACLE_CASES])
def test_nabla_vertices_match_basic_solutions(label, vertices, parts, mirror, seed):
    """The Cartier functionals are the vertices the d-subset oracle finds."""
    np_ = oracle_case_partition(vertices, parts, mirror, seed)
    assert nef.dual_nef_partition(np_).nabla_vertex_sets == basic_solution_vertices(np_)


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("label,vertices,parts,mirror", ORACLE_CASES,
                         ids=[case[0] for case in ORACLE_CASES])
def test_nabla_points_match_constraint_filter(label, vertices, parts, mirror, seed):
    """The tight-set rule keeps the polar points the constraint filter keeps.

    The polar's facets are Delta's vertices, in order, and the rule reads
    the faces of both off those orders.  A GL(d, Z) image lists its
    vertices in another order than the images of the original's, so the
    seeded cases move both orders.
    """
    np_ = oracle_case_partition(vertices, parts, mirror, seed)
    delta = np_.polytope
    assert [n for n, _ in pt.polar_dual(delta).facets] == list(delta.vertices)
    if seed is not None:
        plain = oracle_case_partition(vertices, parts, mirror, None).polytope
        assert image(unimodular(plain.rank, seed), plain.vertices) != list(delta.vertices)
    expected = constraint_filter_points(np_)
    assert nef._nabla_point_sets(np_) == expected
    assert nef.dual_nef_partition(np_).nabla_point_sets == expected


def _outcome(check, np_):
    try:
        return check(np_)
    except errors.MirrorcheckError as exc:
        return type(exc).__name__, str(exc)


CARTIER_CASES = {"octahedron": OCTAHEDRON, "cube": CUBE, "wp1113": WP1113,
                 "quintic": QUINTIC, "hexagon": HEXAGON,
                 "prism": [v + (s,) for v in HEXAGON for s in (-1, 1)]}


# Prism seeds 21 and 47 fail the nef check at 2 and 3 boundary points.
@pytest.mark.parametrize("label,seed", [
    (label, seed) for label in ("octahedron", "cube", "wp1113", "quintic", "hexagon")
    for seed in range(8)] + [("prism", 21), ("prism", 47)])
def test_cartier_data_matches_scan(label, seed):
    # A random partition of the boundary points into 2 or 3 parts, on the
    # polytope and on two GL(d, Z) images of it, which reorder the boundary:
    # the facet filter read off the sweep and the one-mat_vec nef check give
    # the scan's vertices, or its error with the same message, which names
    # the first failing point in boundary order.
    delta = pt.hull(CARTIER_CASES[label])
    boundary = pt.lattice_points(delta, "boundary")
    rng = random.Random(seed)
    k = rng.choice((2, 3))
    owner = [rng.randrange(k) for _ in boundary]
    parts = [[v for v, i in zip(boundary, owner) if i == j] for j in range(k)]
    for m in (None, unimodular(delta.rank, 1), unimodular(delta.rank, 2)):
        moved = delta if m is None else pt.hull(image(m, delta.vertices))
        moved_parts = parts if m is None else [image(m, part) for part in parts]
        np_ = nef.NefPartition(moved, tuple(tuple(sorted(part)) for part in moved_parts))
        assert _outcome(nef._cartier_data, np_) == _outcome(scan_cartier_data, np_)


@pytest.mark.parametrize("vertices", [HEXAGON, OCTAHEDRON, QUINTIC],
                         ids=["hexagon", "octahedron", "quintic"])
def test_fractional_cartier_data_is_not_cartier(vertices):
    # Twice a reflexive polytope has its facets at lattice distance 2, so the
    # functional that is -1 on a whole facet is its normal over 2: the
    # elimination is consistent and of full rank, and only the divisibility
    # of the right-hand column by the pivot tells that it is not integral.
    delta = pt.dilate(pt.hull(vertices), 2)
    boundary = pt.lattice_points(delta, "boundary")
    rng = random.Random(len(boundary))
    for k in (1, 2, 3):
        owner = [rng.randrange(k) for _ in boundary]
        np_ = nef.NefPartition(delta, tuple(
            tuple(v for v, i in zip(boundary, owner) if i == j) for j in range(k)))
        outcome = _outcome(nef._cartier_data, np_)
        assert outcome == _outcome(scan_cartier_data, np_)
        assert outcome[0] == "NotCartier"
    n = delta.facets[0][0]
    assert _outcome(nef._cartier_data, nef.NefPartition(delta, (boundary,))) == (
        "NotCartier", f"part 0 has no integral Cartier data on facet 0 (normal {n})")


def test_unowned_point_is_in_no_part():
    # An unvalidated partition of the octahedron that leaves (0, 0, -1) in
    # no part: every facet is a unimodular triangle, so the scans' Cartier
    # and nef checks pass, with bound 0 at the unowned point for both parts;
    # but the Cartier data are read on a cover only, and the kept vertex
    # sets refuse the partition as the cover check would.  The polar point
    # p = (0, 0, 1) is -1 on the unowned point alone, so its tight set is
    # {None}, and it lies in no nabla_i.  The dual partition, whose nabla's
    # points are the nabla_i's only on a cover of the boundary, refuses the
    # partition before either runs.
    octahedron = pt.hull(OCTAHEDRON)
    unowned = (0, 0, -1)
    parts = (tuple(P1P1P1_PARTS[0]), tuple(v for v in P1P1P1_PARTS[1] if v != unowned))
    for m in (None, unimodular(3, 1), unimodular(3, 2)):
        delta = octahedron if m is None else pt.hull(image(m, OCTAHEDRON))
        moved = parts if m is None else [image(m, part) for part in parts]
        np_ = nef.NefPartition(delta, tuple(tuple(sorted(part)) for part in moved))
        assert _outcome(nef._nabla_vertex_sets, np_) == _outcome(cover_then_scan, np_)
        point_sets = nef._nabla_point_sets(np_)
        assert point_sets == constraint_filter_points(np_)
        p = (0, 0, 1) if m is None else tuple(la.mat_vec(la.transpose(
            la.inverse_unimodular(m)), [0, 0, 1]))
        tight = [v for v in pt.lattice_points(delta, "boundary") if la.dot(v, p) == -1]
        assert tight == ([unowned] if m is None else image(m, [unowned]))
        assert p in pt.lattice_points(pt.polar_dual(delta), "all")
        assert not any(p in ps for ps in point_sets)
        missing = re.escape(str(tight))
        with pytest.raises(errors.NotAPartition,
                           match=f"^boundary points not covered: {missing}$"):
            nef.dual_nef_partition(np_)


def test_overlapping_parts_are_refused_before_any_elimination(monkeypatch):
    # (1, 0, 0) in both parts: _cartier_data would test it in each part,
    # but _nabla_point_sets would give it one owner, and the dual once
    # failed with an error that did not name the overlap.
    delta = pt.hull(OCTAHEDRON)
    shared = (1, 0, 0)
    parts = (tuple(P1P1P1_PARTS[0]), tuple(sorted(P1P1P1_PARTS[1] + [shared])))
    np_ = nef.NefPartition(delta, parts)

    def refuse(*args, **kwargs):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(nef, "_echelon", refuse)
    for _ in range(2):
        with pytest.raises(errors.NotAPartition,
                           match=r"^\(1, 0, 0\) appears in more than one part$"):
            nef.dual_nef_partition(np_)
    assert np_._cache == {}


def test_point_listed_twice_in_one_part_is_named_as_such():
    # (1, 0, 0) twice in one part was once reported as being in two parts;
    # a point in two parts keeps that report, even when one lists it twice.
    delta = pt.hull(OCTAHEDRON)
    shared, (first, second) = [(1, 0, 0)], P1P1P1_PARTS
    for parts, message in [([first + shared, second], "appears twice in part 0"),
                           ([second, first + shared], "appears twice in part 1"),
                           ([first, second + shared * 2], "appears in more than one part")]:
        with pytest.raises(errors.NotAPartition, match=rf"^\(1, 0, 0\) {message}$"):
            nef.validate_nef_partition(delta, parts)


@pytest.mark.parametrize("extra", [(0, 0, 0), (5, 5, 5)])
def test_points_off_the_boundary_are_refused(extra):
    # The dual of an unvalidated partition once took the origin or a point
    # outside Delta in a part without a word.
    parts = (tuple(sorted(P1P1P1_PARTS[0] + [extra])), tuple(sorted(P1P1P1_PARTS[1])))
    np_ = nef.NefPartition(pt.hull(OCTAHEDRON), parts)
    with pytest.raises(errors.NotAPartition,
                       match=re.escape(f"{extra} is not a boundary lattice point")):
        nef.dual_nef_partition(np_)


def test_partition_caches_keep_one_object_and_nothing_on_failure(monkeypatch):
    # A second call returns the kept dual, and a second read the kept
    # hulls; a call that raises leaves the owner's cache as it was.  A
    # partition that leaves a boundary point in no part is refused, and
    # so, by the dual and by validation alike, is one that is not Cartier.
    delta = pt.hull(OCTAHEDRON)
    np_ = nef.NefPartition(delta, tuple(tuple(sorted(p)) for p in P1P1P1_PARTS))
    dual = nef.dual_nef_partition(np_)
    assert nef.dual_nef_partition(np_) is dual
    assert set(np_._cache) == {"_nabla_vertex_sets", "dual_nef_partition"}
    unowned = nef.NefPartition(delta, (np_.parts[0], np_.parts[1][1:]))
    with pytest.raises(errors.NotAPartition,
                       match=re.escape(f"boundary points not covered: [{np_.parts[1][0]}]")):
        nef.dual_nef_partition(unowned)
    assert unowned._cache == {}
    cube = pt.hull(CUBE)
    rest = tuple(v for v in pt.lattice_points(cube, "boundary") if v != (1, 1, 1))
    corner = nef.NefPartition(cube, (((1, 1, 1),), rest))
    for _ in range(2):
        with pytest.raises(errors.NotCartier):
            nef.dual_nef_partition(corner)
    assert corner._cache == {}

    # ``nablas`` reads NotFullDimensional as a lower-dimensional piece, so
    # the failure here is another named error.
    def fail(points):
        raise errors.RankMismatch("no hull")

    with monkeypatch.context() as patch:
        patch.setattr(nef, "hull", fail)
        with pytest.raises(errors.RankMismatch):
            dual.nablas
    assert dual._cache == {}
    nablas = dual.nablas
    assert dual.nablas is nablas and set(dual._cache) == {"nablas"}
    nabla = dual.nabla
    assert dual.nabla is nabla and set(dual._cache) == {"nablas", "nabla"}


@functools.cache
def _cartier_polytope(label, seed):
    """The hull of a CARTIER_CASES polytope, or of its seeded GL(d, Z)
    image, built once per test session."""
    vertices = CARTIER_CASES[label]
    if seed is not None:
        vertices = image(unimodular(len(vertices[0]), seed), vertices)
    return pt.hull(vertices)


@st.composite
def random_partitions(draw):
    """(label, image seed, k, an owner in range(k) per boundary point, the
    index of one point left in no part or None)."""
    label = draw(st.sampled_from(sorted(CARTIER_CASES)))
    seed = draw(st.sampled_from((None, 1, 2, 3)))
    n = len(pt.lattice_points(_cartier_polytope(label, seed), "boundary"))
    k = draw(st.sampled_from((2, 3)))
    owners = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    unowned = draw(st.none() | st.integers(0, n - 1))
    return label, seed, k, owners, unowned


def assert_nabla_oracle(dual):
    """Nabla, hulled from the vertices of the nabla_i, is reflexive, and its
    lattice points are the union of the nabla_i's, which meet only at the
    origin: what ``dual_nef_partition`` trusts by construction."""
    nabla = pt.hull([v for vs in dual.nabla_vertex_sets for v in vs])
    assert pt.is_reflexive(nabla)
    points = pt.lattice_points(nabla, "all")
    assert set(points) == set().union(*dual.nabla_point_sets)
    zero = {(0,) * nabla.rank}
    for a, b in itertools.combinations(dual.nabla_point_sets, 2):
        assert set(a) & set(b) == zero
    assert dual.ell_nabla == len(points)
    assert dual.nabla == nabla


# The octahedron's boundary, in order, is -e1, -e2, -e3, e3, e2, e1: its
# P1 x P1 x P1 partition, that partition less -e3, and a quintic partition
# whose third part is empty, so that its nabla_3 is the origin alone.
@settings(max_examples=150, deadline=None)
@example(("octahedron", None, 2, [1, 1, 1, 0, 0, 0], None))
@example(("octahedron", None, 2, [1, 1, 1, 0, 0, 0], 2))
@example(("quintic", None, 3, [0, 1, 0, 1, 0], None))
@given(random_partitions())
def test_random_partitions_match_the_scans(case):
    """Random 2- and 3-part partitions, unvalidated, on the CARTIER_CASES
    polytopes and their images: on a cover, the Cartier data give the
    scan's vertex sets or its first error, and off one, the kept vertex
    sets give the cover check's error, as the cover check, then the scan,
    does.  The mask-grouped tight sets give the constraint filter's points,
    whatever the Cartier outcome.  A partition that leaves a point in no
    part has no dual; one that covers the boundary and passes the Cartier
    and nef checks meets the nabla oracle."""
    label, seed, k, owners, unowned = case
    delta = _cartier_polytope(label, seed)
    boundary = pt.lattice_points(delta, "boundary")
    parts = tuple(tuple(v for j, (v, owner) in enumerate(zip(boundary, owners))
                        if owner == i and j != unowned) for i in range(k))
    np_ = nef.NefPartition(delta, parts)
    if unowned is None:
        outcome = _outcome(nef._cartier_data, np_)
        assert outcome == _outcome(scan_cartier_data, np_)
    else:
        assert _outcome(nef._nabla_vertex_sets, np_) == _outcome(cover_then_scan, np_)
    assert nef._nabla_point_sets(np_) == constraint_filter_points(np_)
    if unowned is not None:
        with pytest.raises(errors.NotAPartition,
                           match=re.escape(f"not covered: [{boundary[unowned]}]")):
            nef.dual_nef_partition(np_)
    elif outcome[0] not in ("NotCartier", "NotNef"):
        assert_nabla_oracle(nef.dual_nef_partition(np_))


def _moved_cartier_polytope(label, move):
    """A CARTIER_CASES polytope moved by ``move``: a GL(d, Z) seed or None,
    as ``_cartier_polytope`` takes, "dilate" for twice the polytope, whose
    facets have c = 2, or "translate" for its translate by -2 e_1, whose
    facets <n, x> + c >= 0 have c = 1 + 2 n_1: -1 where n_1 = -1."""
    if move == "dilate":
        return pt.dilate(_cartier_polytope(label, None), 2)
    if move == "translate":
        return pt.hull([(v[0] - 2,) + v[1:] for v in CARTIER_CASES[label]])
    return _cartier_polytope(label, move)


@st.composite
def covered_partitions(draw):
    """(label, image seed, k, an owner in range(k) per boundary point): a
    cover of the boundary by k = 1, 2 or 3 parts, some of them maybe empty."""
    label = draw(st.sampled_from(sorted(CARTIER_CASES)))
    seed = draw(st.sampled_from((None, 1, 2, 3)))
    n = len(pt.lattice_points(_cartier_polytope(label, seed), "boundary"))
    k = draw(st.sampled_from((1, 2, 3)))
    owners = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return label, seed, k, owners


# The cube's trivial partition runs no elimination.  Twice the octahedron
# has c = 2 on every facet, so its last part has no integral functional,
# even where the first part is empty and its functional is 0.
# The quintic simplex moved by -2 e_1 has c = -1 on its first four facets,
# where the last part's functional is c n, not n, minus the others, and
# c = 9 on the fifth.
@settings(max_examples=100, deadline=None)
@example(("cube", None, 1, [0] * 26))
@example(("octahedron", "dilate", 1, [0] * 18))
@example(("octahedron", "dilate", 2, [1] * 18))
@example(("quintic", "translate", 1, [0] * 5))
@example(("quintic", "translate", 2, [0, 1, 1, 0, 1]))
@given(covered_partitions())
def test_covered_partitions_read_the_last_part_off_the_normal(case):
    """On a cover of the boundary by k parts, the Cartier data, with k - 1
    parts eliminated and the last part's functional read off the facet
    normal, give the scan's vertex sets or its first error, message and
    all."""
    label, move, k, owners = case
    delta = _moved_cartier_polytope(label, move)
    boundary = pt.lattice_points(delta, "boundary")
    assert len(owners) == len(boundary)
    np_ = nef.NefPartition(delta, tuple(
        tuple(v for v, owner in zip(boundary, owners) if owner == i) for i in range(k)))
    nef._check_cover(np_)
    outcome = _outcome(nef._cartier_data, np_)
    assert outcome == _outcome(scan_cartier_data, np_)
    if move == "dilate":
        n = delta.facets[0][0]
        assert outcome == ("NotCartier", f"part {k - 1} has no integral Cartier data "
                           f"on facet 0 (normal {n})")


BUNDLED_PARTITIONS = [(name, slot) for name in fixtures.fixture_names()
                      for slot in ("parts", "trivial_parts")
                      if slot in fixtures.load_fixture(name)]


@pytest.mark.parametrize("name,slot", BUNDLED_PARTITIONS)
def test_bundled_partitions_meet_the_nabla_oracle(name, slot):
    data = fixtures.load_fixture(name)
    delta = pt.hull(data["polytope"]["vertices"])
    if name == "hexagon":  # the bundled partition that is not nef
        with pytest.raises(errors.NotNef):
            nef.validate_nef_partition(delta, data[slot])
        return
    assert_nabla_oracle(nef.dual_nef_partition(nef.validate_nef_partition(delta, data[slot])))


def test_free_sum_with_degenerate_pieces(monkeypatch):
    """(hexagon x hexagon) + [-1, 1] split as its two summands.

    Both nabla_i are lower-dimensional: nabla_1 is the free sum of two
    dual hexagons and nabla_2 a segment.  Delta has 50 boundary points, so
    the d-subset enumeration would solve C(50, 5) ~ 2.1M systems; the
    Caratheodory vertex filter must not be reached either.
    """
    e5 = [(0, 0, 0, 0, 1), (0, 0, 0, 0, -1)]
    delta = pt.hull([a + b + (0,) for a in HEXAGON for b in HEXAGON] + e5)
    boundary = pt.lattice_points(delta, "boundary")
    assert len(boundary) == 50

    def caratheodory(generators):
        raise AssertionError("Caratheodory extreme_points reached")

    monkeypatch.setattr(pt, "extreme_points", caratheodory)
    np_ = nef.validate_nef_partition(delta, [[v for v in boundary if v not in e5], e5])
    dual = nef.dual_nef_partition(np_)
    hexagon_dual = pt.polar_dual(pt.hull(HEXAGON)).vertices
    assert set(dual.nabla_vertex_sets[0]) == (
        {h + (0, 0, 0) for h in hexagon_dual} | {(0, 0) + h + (0,) for h in hexagon_dual})
    assert dual.nabla_vertex_sets[1] == ((0, 0, 0, 0, -1), (0, 0, 0, 0, 1))
    assert [len(vs) for vs in dual.nabla_vertex_sets] == [12, 2]
    assert [len(ps) for ps in dual.nabla_point_sets] == [13, 3]
    assert dual.nablas == (None, None)
    assert pt.ell(dual.nabla) == 15


def test_validation_solves_each_cartier_system_once(octahedron, monkeypatch):
    real_echelon = nef._echelon
    calls = []

    def counting_echelon(a, ncols):
        calls.append(len(a[0]) - ncols)
        return real_echelon(a, ncols)

    monkeypatch.setattr(nef, "_echelon", counting_echelon)
    nef.validate_nef_partition(octahedron, P1P1P1_PARTS)
    # One elimination per facet, with the first part's right-hand side
    # attached, as the last part's functional is read off the facet
    # normal; the dual reuses its solutions, and no solve is left.
    assert calls == [1] * len(octahedron.facets) == [1] * 8
    assert not hasattr(nef, "solve_exact")
    # A one-part partition's functionals are the facet normals, with no
    # elimination.
    calls.clear()
    nef.validate_nef_partition(octahedron, [pt.lattice_points(octahedron, "boundary")])
    assert calls == []


def _record_hulls(monkeypatch):
    """Replace nef's hull by one that records the point set of each call."""
    real_hull = nef.hull
    calls = []

    def recording_hull(points):
        points = tuple(points)
        calls.append(points)
        return real_hull(points)

    monkeypatch.setattr(nef, "hull", recording_hull)
    return calls


def test_one_part_partition_takes_the_facet_normals(monkeypatch):
    # Every facet of a reflexive Delta has c = 1, so a one-part partition's
    # functionals are the facet normals, nef by each facet's own inequality:
    # validation eliminates nothing and pairs nothing.  Its nabla_1 is
    # nabla, the polar, so the dual hulls that one polytope once.
    cube4 = pt.hull(CUBE4)
    polar = pt.polar_dual(cube4)

    def refuse(*args):
        raise AssertionError("a one-part partition of a reflexive polytope "
                             "needs no elimination and no pairing")

    monkeypatch.setattr(nef, "_echelon", refuse)
    monkeypatch.setattr(nef, "mat_vec", refuse)
    hulled = _record_hulls(monkeypatch)
    np_ = nef.validate_nef_partition(cube4, [pt.lattice_points(cube4, "boundary")])
    dual = nef.dual_nef_partition(np_)
    assert dual.nabla_vertex_sets == (polar.vertices,)
    assert dual.nablas == (dual.nabla,) and dual.nabla == polar
    assert hulled == [polar.vertices]


@pytest.mark.parametrize("fixture,parts,full", [
    ("octahedron", P1P1P1_PARTS, 2),
    ("wp1113_simplex", WP_PARTS, 2),
    ("quintic_simplex", QUINTIC_PARTS, 2),
])
def test_nabla_pieces_hulled_on_first_read(fixture, parts, full, monkeypatch, request):
    delta = request.getfixturevalue(fixture)
    hulled = _record_hulls(monkeypatch)
    dual = nef.dual_nef_partition(nef.validate_nef_partition(delta, parts))
    # Validation and the lattice-point count of nabla hull nothing.
    assert dual.ell_nabla == sum(map(len, dual.nabla_point_sets)) - (dual.k - 1)
    assert hulled == []
    pieces = dual.nablas
    assert hulled == [vs for vs, piece in zip(dual.nabla_vertex_sets, pieces)
                      if piece is not None]
    assert len(hulled) == full
    assert pieces == tuple(pt.hull(vs) for vs in dual.nabla_vertex_sets)
    hulled.clear()
    nabla = dual.nabla
    assert hulled == [tuple(v for vs in dual.nabla_vertex_sets for v in vs)]
    assert nabla == pt.hull(hulled[0]) and pt.ell(nabla) == dual.ell_nabla
    hulled.clear()
    assert dual.nablas is pieces and dual.nabla is nabla
    assert hulled == []


def test_dual_of_unvalidated_partition_is_checked(cube, hexagon):
    boundary = pt.lattice_points(cube, "boundary")
    rest = tuple(v for v in boundary if v != (1, 1, 1))
    with pytest.raises(errors.NotCartier):
        nef.dual_nef_partition(nef.NefPartition(cube, (((1, 1, 1),), rest)))
    pair = ((-1, -1), (1, 0))
    rest = tuple(v for v in pt.lattice_points(hexagon, "boundary") if v not in pair)
    with pytest.raises(errors.NotNef):
        nef.dual_nef_partition(nef.NefPartition(hexagon, (pair, rest)))


# --- refinement ------------------------------------------------------------


def test_refinement(octahedron):
    boundary = list(pt.lattice_points(octahedron, "boundary"))
    trivial = nef.validate_nef_partition(octahedron, [boundary])
    bipartite = nef.validate_nef_partition(octahedron, P1P1P1_PARTS)
    assert nef.check_refinement(trivial, bipartite)
    assert not nef.check_refinement(bipartite, bipartite)


def test_refinement_polytope_mismatch(octahedron, cube):
    boundary_o = list(pt.lattice_points(octahedron, "boundary"))
    trivial_o = nef.validate_nef_partition(octahedron, [boundary_o])
    boundary_c = list(pt.lattice_points(cube, "boundary"))
    trivial_c = nef.validate_nef_partition(cube, [boundary_c])
    with pytest.raises(errors.PolytopeMismatch):
        nef.check_refinement(trivial_o, trivial_c)


# --- counts ----------------------------------------------------------------


def test_complement_count_p1p1p1(octahedron):
    dual = nef.dual_nef_partition(nef.validate_nef_partition(octahedron, P1P1P1_PARTS))
    assert nef.complement_count(dual, pt.polar_dual(octahedron)) == 12


def test_complement_count_wp1113(wp1113_simplex):
    dual = nef.dual_nef_partition(nef.validate_nef_partition(wp1113_simplex, WP_PARTS))
    polar = pt.polar_dual(wp1113_simplex)
    assert nef.complement_count(dual, polar) == 18
    assert nef.curve_invariant(dual, polar, 2) == 18


def test_quintic_counts_match_adjunction(quintic_simplex):
    genus = quintic_genus_oracle()
    dual = nef.dual_nef_partition(nef.validate_nef_partition(quintic_simplex, QUINTIC_PARTS))
    polar = pt.polar_dual(quintic_simplex)
    assert nef.complement_count(dual, polar) == genus + 1 == 52
    assert nef.curve_invariant(dual, polar, 3) == genus == 51


def test_complement_requires_bipartite(octahedron):
    boundary = list(pt.lattice_points(octahedron, "boundary"))
    dual = nef.dual_nef_partition(nef.validate_nef_partition(octahedron, [boundary]))
    with pytest.raises(errors.NotBipartite):
        nef.complement_count(dual, pt.polar_dual(octahedron))


def test_degenerate_configuration_policy(octahedron):
    # A synthetic bipartite dual whose nabla fills the whole polar polytope,
    # with nabla_1 the polar and nabla_2 the origin: complement 0 is
    # reported, and the curve invariant refuses it.
    polar = pt.polar_dual(octahedron)
    zero = ((0, 0, 0),)
    fake = nef.DualNefPartition((polar.vertices, zero),
                                (pt.lattice_points(polar, "all"), zero))
    assert fake.ell_nabla == pt.ell(polar) and fake.nabla == polar
    assert nef.complement_count(fake, polar) == 0
    with pytest.raises(errors.DegenerateConfiguration):
        nef.curve_invariant(fake, polar, 3)


def test_partition_frees_its_polytope_without_the_collector():
    # The dual partition holds no reference back to its partition, so
    # reference counting alone frees Delta, its polar and nabla once the
    # partition is dropped.
    enabled = gc.isenabled()
    gc.disable()
    try:
        delta = pt.hull(OCTAHEDRON)
        alive = weakref.ref(delta)
        np_ = nef.validate_nef_partition(delta, P1P1P1_PARTS)
        nef.dual_nef_partition(np_).to_json()
        nef.complement_count(nef.dual_nef_partition(np_), pt.polar_dual(delta))
        del delta, np_
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_nabla_not_contained(octahedron, cube):
    np_ = nef.validate_nef_partition(octahedron, P1P1P1_PARTS)
    dual = nef.dual_nef_partition(np_)
    with pytest.raises(errors.NablaNotContained):
        nef.complement_count(dual, pt.hull([(v[0], v[1], v[2]) for v in
                                            [(1,0,0),(-1,0,0),(0,1,0),(0,-1,0),(0,0,1),(0,0,-1)]]))


# --- Minkowski-sum interior identity ---------------------------------------


@pytest.mark.parametrize("fixture,parts", [
    ("octahedron", P1P1P1_PARTS),
    ("wp1113_simplex", WP_PARTS),
    ("quintic_simplex", QUINTIC_PARTS),
])
def test_interior_of_sum_identity(fixture, parts, request):
    """l*(nabla_i + polar) = l(nabla_i) and l*(2 polar) = l(polar)."""
    poly = request.getfixturevalue(fixture)
    polar = pt.polar_dual(poly)
    dual = nef.dual_nef_partition(nef.validate_nef_partition(poly, parts))
    for i in range(dual.k):
        piece = dual.nablas[i]
        assert piece is not None
        total = pt.minkowski_sum(piece, polar)
        assert len(pt.lattice_points(total, "interior")) == len(dual.nabla_point_sets[i])
    assert len(pt.lattice_points(pt.dilate(polar, 2), "interior")) == pt.ell(polar)


# --- divisor component counts ----------------------------------------------


@pytest.mark.parametrize("sigma", [(1,), (1, 0), (1, 0, 0, 0)])
def test_divisor_components_refuse_points_of_another_rank(cube, sigma):
    # (1, 0) was once cut to fit the cube's normals and counted 1.
    with pytest.raises(errors.RankMismatch):
        nef.divisor_component_count(sigma, cube)


def test_divisor_components_on_cube_polar(cube):
    # The cube is the polar polytope of the octahedron.
    assert nef.divisor_component_count((1, 1, 0), cube) == 1
    assert nef.divisor_component_count((1, 1, 1), cube) == 1
    assert nef.divisor_component_count((1, 0, 0), cube) is None


def test_non_integral_points_are_refused(octahedron, cube):
    # int() would truncate 1.5 to the boundary point (1, 0, 0).
    with pytest.raises(errors.InputError):
        nef.divisor_component_count((1.5, 0, 0), cube)
    parts = [[(1.9, 0, 0)] + P1P1P1_PARTS[0][1:], P1P1P1_PARTS[1]]
    with pytest.raises(errors.InputError):
        nef.validate_nef_partition(octahedron, parts)


def test_divisor_components_facet_interior(quartic_simplex):
    polar = pt.polar_dual(quartic_simplex)
    assert nef.divisor_component_count((1, 0, -1), polar) is None
    with pytest.raises(errors.NotBoundaryPoint):
        nef.divisor_component_count((0, 0, 0), polar)


def test_divisor_components_formula_on_edge(cube):
    # Edge-interior point of the cube: 1 + l*(edge) * l*(dual edge).
    count = nef.divisor_component_count((1, 1, 0), cube)
    edge = pt.smallest_face_containing(cube, (1, 1, 0))
    dual_edge = pt.dual_face(cube, edge)
    assert count == 1 + pt.ell_star_face(cube, edge) * pt.ell_star_face(
        pt.polar_dual(cube), dual_edge)


REFLEXIVE_FIXTURES = [name for name in fixtures.fixture_names()
                      if "polytope" in fixtures.load_fixture(name)
                      and pt.is_reflexive(pt.hull(
                          fixtures.load_fixture(name)["polytope"]["vertices"]))]


def face_ell_star(poly, face):
    """l*(F), counted by inner products: the lattice points of P that lie
    on exactly the facets through the face."""
    through = {j for j, (n, c) in enumerate(poly.facets)
               if all(la.dot(n, v) + c == 0 for v in face.vertices)}
    return sum({j for j, (n, c) in enumerate(poly.facets) if la.dot(n, x) + c == 0}
               == through for x in pt.lattice_points(poly, "all"))


def face_lattice_divisor_component_count(sigma, polar):
    """The component count summed over the face lattice, as the library once
    did: the codimension of sigma's smallest face G, and for codimension 2
    the l* of G and of ``dual_face`` G, from ``face_ell_star``."""
    face = pt.smallest_face_containing(polar, sigma)
    codim = polar.rank - face.dim
    if codim == 1:
        return None
    if codim >= 3:
        return 1
    dual = pt.dual_face(polar, face)
    return 1 + face_ell_star(polar, face) * face_ell_star(pt.polar_dual(polar), dual)


def assert_divisor_oracle(poly):
    # Each of P and its polar is the polar of the other.
    for polar in (poly, pt.polar_dual(poly)):
        for sigma in pt.lattice_points(polar, "boundary"):
            assert (nef.divisor_component_count(sigma, polar)
                    == face_lattice_divisor_component_count(sigma, polar))


@pytest.mark.parametrize("name", REFLEXIVE_FIXTURES)
def test_divisor_components_match_the_face_lattice_on_fixtures(name):
    assert_divisor_oracle(pt.hull(fixtures.load_fixture(name)["polytope"]["vertices"]))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(REFLEXIVE_FIXTURES), st.integers(0, 10**6))
def test_divisor_components_match_the_face_lattice_on_images(name, seed):
    vertices = fixtures.load_fixture(name)["polytope"]["vertices"]
    assert_divisor_oracle(pt.hull(image(unimodular(len(vertices[0]), seed), vertices)))


def test_divisor_components_read_no_face_lattice(cube, monkeypatch):
    def refuse(*args):
        raise AssertionError("face lattice built")

    monkeypatch.setattr(pt, "_faces", refuse)
    assert nef.divisor_component_count((1, 1, 0), cube) == 1
    assert nef.divisor_component_count((1, 0, 0), cube) is None


# --- hypersurface Hodge numbers ---------------------------------------------


def test_batyrev_quartic(quartic_simplex):
    assert nef.batyrev_hodge(quartic_simplex) == (1, 19)
    assert nef.batyrev_hodge(pt.polar_dual(quartic_simplex)) == (19, 1)


def test_batyrev_quintic(quintic_simplex):
    assert nef.batyrev_hodge(quintic_simplex) == (1, 101)


def test_batyrev_k3_fixtures(octahedron, cube, wp1113_simplex):
    assert nef.batyrev_hodge(octahedron) == (3, 17)
    assert nef.batyrev_hodge(cube) == (17, 3)
    assert nef.batyrev_hodge(wp1113_simplex) == (1, 19)


@pytest.mark.parametrize("fixture", ["octahedron", "cube", "quartic_simplex",
                                     "wp1113_simplex", "quintic_simplex"])
def test_batyrev_mirror_swap(fixture, request):
    poly = request.getfixturevalue(fixture)
    h11, h21 = nef.batyrev_hodge(poly)
    assert nef.batyrev_hodge(pt.polar_dual(poly)) == (h21, h11)


def test_batyrev_builds_one_polar(monkeypatch):
    cube4 = pt.hull(list(itertools.product((-1, 1), repeat=4)))
    real_hull = pt.hull
    calls = []

    def counting_hull(points):
        calls.append(1)
        return real_hull(points)

    monkeypatch.setattr(pt, "hull", counting_hull)
    assert nef.batyrev_hodge(cube4) == (68, 4)
    # The polar is cube4's tables transposed, and the closed form reads
    # both tables: no hull and no lattice-point sweep at all.
    assert calls == []
    assert "_sweep" not in cube4._cache and "_sweep" not in pt.polar_dual(cube4)._cache


def face_lattice_batyrev_value(p):
    """Batyrev's B(P), summed over the face lattice as the library once did:
    l*(F) for each facet, l*(G) l*(G*) for each codimension-2 face G with
    G* = ``dual_face``, each l* from ``face_ell_star``."""
    d = p.rank
    total = pt.ell(p) - d - 1
    dual = pt.polar_dual(p)
    for face in pt.face_lattice(p):
        if face.dim == d - 1:
            total -= face_ell_star(p, face)
        elif face.dim == d - 2:
            total += face_ell_star(p, face) * face_ell_star(dual, pt.dual_face(p, face))
    return total


def mask_count_batyrev_value(p):
    """Batyrev's B(P) read off the facet masks of the lattice-point sweep,
    as the library did before its closed form: a boundary point with facet
    mask m lies in the relative interior of the face on exactly the facets
    in m, so the facet sum counts the one-bit masks, and each two-bit mask
    {a, b} is a ridge G whose dual edge's l* is the polar's count at G's
    vertex mask."""
    total = pt.ell(p) - p.rank - 1
    dual_counts = pt._incidence_counts(pt.polar_dual(p))
    for mask, count in pt._incidence_counts(p).items():
        bits = mask.bit_count()
        if bits == 1:
            total -= count
        elif bits == 2:
            total += count * dual_counts[pt._smallest_face_mask(p, mask)]
    return total


def assert_batyrev_oracle(poly):
    """``batyrev_hodge``'s closed form at P and at its polar against the
    mask counts and the face-lattice sums, and every one- and two-bit facet
    mask of a boundary point against the facets and codimension-2 faces of
    ``_faces``."""
    polar = pt.polar_dual(poly)
    expected = (face_lattice_batyrev_value(poly), face_lattice_batyrev_value(polar))
    assert (mask_count_batyrev_value(poly), mask_count_batyrev_value(polar)) == expected
    if poly.rank in (3, 4):
        assert nef.batyrev_hodge(poly) == expected
        assert nef.batyrev_hodge(polar) == expected[::-1]
    for p in (poly, polar):
        d = p.rank
        faces = pt._faces(p)
        for mask in pt._incidence_counts(p):
            if mask.bit_count() > 2:
                continue
            vertex_mask = pt._smallest_face_mask(p, mask)
            dim, idx = faces[vertex_mask]
            assert dim == d - mask.bit_count()
            assert pt._face_incidence(p, pt.Face(p, dim, idx)) == mask


@pytest.mark.parametrize("name", REFLEXIVE_FIXTURES)
def test_batyrev_masks_match_the_face_lattice_on_fixtures(name):
    assert_batyrev_oracle(pt.hull(fixtures.load_fixture(name)["polytope"]["vertices"]))


def product(*factors):
    return [sum(points, ()) for points in itertools.product(*factors)]


CUBE4 = list(itertools.product((-1, 1), repeat=4))
# The polar of the P^2 triangle: 9 boundary points, edges of length 3.
TRIANGLE9 = [(-1, -1), (2, -1), (-1, 2)]
# The rank-3 and rank-4 bases of the nef-suite benchmark workload, on which
# every codimension-2 term l*(G) l*(G*) is 0; four reflexive polytopes,
# found by a random search, whose ridge sums are 4, 1 and 6 (rank 3, at P
# and at its polar) and 3 (rank 4, at the polar); and products of
# reflexive polygons.  Those hold edges with interior points in rank 3, and in rank 4
# polygonal 2-faces with an interior point (a hexagon or TRIANGLE9 times a
# vertex), on which the grouping l*(G) (1 + l*(G*)) of the closed form weighs.
BATYREV_BASES = {
    "p1p1p1": OCTAHEDRON, "wp1113": WP1113, "quintic": QUINTIC, "cube4": CUBE4,
    "ridges3": [(-1, 0, 1), (0, 1, -1), (1, 0, -2), (3, -2, 1)],
    "ridges4": [(-1, -1, -1, 0), (0, -1, -2, 1), (0, 0, 1, 1), (0, 1, 2, -2), (2, 1, -2, 1)],
    "ridges3b": [(-1, 0, 2), (0, -2, 1), (0, 0, -1), (0, 1, 1), (1, -1, -1)],
    "ridges3c": [(-2, -1, -1), (0, 1, -1), (0, 1, 1), (2, -1, 1)],
    "triangle9xP1": product(TRIANGLE9, [(-1,), (1,)]),
    "hexagon2": product(HEXAGON, HEXAGON),
    "triangle9xhexagon": product(TRIANGLE9, HEXAGON),
}


@pytest.mark.parametrize("polar", [False, True], ids=["base", "polar"])
@pytest.mark.parametrize("name", sorted(BATYREV_BASES))
def test_batyrev_masks_match_the_face_lattice_on_bases(name, polar):
    poly = pt.hull(BATYREV_BASES[name])
    assert_batyrev_oracle(pt.polar_dual(poly) if polar else poly)


def test_batyrev_bases_pin_the_closed_form():
    # Pinned, so that a fault shared by the three evaluations still shows.
    # A product of polygons is the Newton polytope of a product of toric
    # surfaces, whose general anticanonical member has h11 = the Picard rank
    # of the ambient space (Lefschetz): 2 for P^2 x P^1, 8 for dP6 x dP6
    # and 5 for P^2 x dP6.  That is the second value, read at the polar.
    values = {name: nef.batyrev_hodge(pt.hull(vertices))
              for name, vertices in BATYREV_BASES.items()}
    assert values == {"p1p1p1": (3, 17), "wp1113": (1, 19), "quintic": (1, 101),
                      "cube4": (68, 4), "ridges3": (6, 18), "ridges4": (2, 86),
                      "ridges3b": (6, 15), "ridges3c": (13, 13),
                      "triangle9xP1": (18, 2), "hexagon2": (44, 8),
                      "triangle9xhexagon": (59, 5)}


@settings(max_examples=40, deadline=None)
@example("hexagon2", 0)
@example("hexagon2", 1)
@example("triangle9xhexagon", 1)
@given(st.sampled_from(sorted(BATYREV_BASES)), st.integers(0, 10**6))
def test_batyrev_masks_match_the_face_lattice_on_images(name, seed):
    vertices = BATYREV_BASES[name]
    assert_batyrev_oracle(pt.hull(image(unimodular(len(vertices[0]), seed), vertices)))


def edge_correction(p):
    """Sum over the edges e of P of l*(e) l*(e*), each l* from
    ``face_ell_star`` on the lattice points of P and of its polar."""
    dual = pt.polar_dual(p)
    return sum(face_ell_star(p, e) * face_ell_star(dual, pt.dual_face(p, e))
               for e in pt.face_lattice(p) if e.dim == 1)


def assert_k3_picard_ranks(poly):
    """rho(P) + rho(P*) = 20 + sum over the edges e of P of l*(e) l*(e*):
    Batyrev's two values of a reflexive 3-polytope, which ``batyrev_hodge``
    reads off vertices and normals alone, against lattice points.  With
    Euler's V - E + F = 2 it is the identity sum over the edges of
    (1 + l*(e)) (1 + l*(e*)) = 24."""
    rho, rho_polar = nef.batyrev_hodge(poly)
    assert rho + rho_polar == 20 + edge_correction(poly)


RANK3_BASES = sorted(name for name, vertices in BATYREV_BASES.items() if len(vertices[0]) == 3)


@pytest.mark.parametrize("polar", [False, True], ids=["base", "polar"])
@pytest.mark.parametrize("name", RANK3_BASES)
def test_k3_picard_ranks_add_up_to_twenty_and_the_edge_correction(name, polar):
    poly = pt.hull(BATYREV_BASES[name])
    assert_k3_picard_ranks(pt.polar_dual(poly) if polar else poly)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(RANK3_BASES), st.integers(0, 10**6))
def test_k3_picard_ranks_on_images(name, seed):
    assert_k3_picard_ranks(pt.hull(image(unimodular(3, seed), BATYREV_BASES[name])))


def test_batyrev_rejects_rank2(hexagon):
    with pytest.raises(errors.UnsupportedRank):
        nef.batyrev_hodge(hexagon)


@pytest.mark.parametrize("fixture,parts,expected_points", [
    ("octahedron", P1P1P1_PARTS, 12),
    ("wp1113_simplex", WP_PARTS, 18),
])
def test_complement_points_each_give_one_component(fixture, parts, expected_points, request):
    """Every lattice point of the polar outside nabla meets the mirror
    hypersurface in exactly one component; summing reproduces the
    complement count through the independent face machinery."""
    poly = request.getfixturevalue(fixture)
    polar = pt.polar_dual(poly)
    dual = nef.dual_nef_partition(nef.validate_nef_partition(poly, parts))
    nabla_points = set(pt.lattice_points(dual.nabla, "all"))
    outside = [p for p in pt.lattice_points(polar, "all") if p not in nabla_points]
    assert len(outside) == expected_points
    for sigma in outside:
        assert nef.divisor_component_count(sigma, polar) == 1
