"""Exact convex geometry for lattice polytopes of rank 2 to 5.

Polytopes are stored in canonical form: sorted vertex tuples together with
the complete facet description ``<normal, x> >= -offset``, where every
normal is a primitive integer vector.  All arithmetic is exact; facet
computations pass through rationals only transiently.

The hull algorithm is an incremental beneath-beyond construction that keeps
a triangulated boundary while points are inserted and merges coplanar
simplices into true facets at the end; inputs in this domain have at most a
few hundred vertices.  Lattice points are enumerated by project-and-lift
(as in PALP, Kreuzer-Skarke 2004): the work is proportional to the points
found, not to the bounding box, so thin or skewed polytopes cost no more
than upright ones with as many points.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    EmptyInput,
    InputError,
    NotFullDimensional,
    NotReflexive,
    OriginNotInterior,
    NonIntegralDual,
    RankMismatch,
    UnsupportedRank,
)
from .intlinalg import determinant, dot, rank as mat_rank, vec_gcd

Vec = tuple[int, ...]
Facet = tuple[Vec, int]  # (primitive normal n, offset c): <n, x> >= -c

MIN_RANK = 2
MAX_RANK = 5


def _as_vec(p: Sequence[int]) -> Vec:
    v = tuple(int(x) for x in p)
    for x, raw in zip(v, p):
        if x != raw:
            raise InputError(f"non-integer coordinate {raw!r}")
    return v


def _plane_through(points: Sequence[Vec]) -> tuple[Vec, int]:
    """Primitive normal and offset of the hyperplane through d points.

    The points must be affinely independent.  Returns (n, c) with
    <n, x> + c = 0 on the plane.
    """
    d = len(points[0])
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(d)] for p in points[1:]]
    normal = []
    for j in range(d):
        minor = [[row[i] for i in range(d) if i != j] for row in diffs]
        normal.append((-1) ** j * determinant(minor))
    g = vec_gcd(normal)
    if g == 0:
        raise NotFullDimensional("degenerate hyperplane")
    n = tuple(x // g for x in normal)
    return n, -dot(n, base)


def _affinely_independent_subset(points: Sequence[Vec], d: int) -> Optional[list[int]]:
    """Indices of d+1 affinely independent points, or None."""
    chosen = [0]
    for i in range(1, len(points)):
        base = points[chosen[0]]
        rows = [[points[j][k] - base[k] for k in range(d)] for j in chosen[1:] + [i]]
        if mat_rank(rows) == len(rows):
            chosen.append(i)
            if len(chosen) == d + 1:
                return chosen
    return None


class LatticePolytope:
    """A full-dimensional lattice polytope in canonical form."""

    __slots__ = ("rank", "vertices", "facets", "_points", "_faces")

    def __init__(self, rank: int, vertices: tuple[Vec, ...], facets: tuple[Facet, ...]):
        self.rank = rank
        self.vertices = vertices
        self.facets = facets
        self._points: dict[str, tuple[Vec, ...]] = {}
        self._faces: Optional[tuple["Face", ...]] = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, LatticePolytope)
                and self.rank == other.rank and self.vertices == other.vertices)

    def __hash__(self) -> int:
        return hash((self.rank, self.vertices))

    def __repr__(self) -> str:
        return f"LatticePolytope(rank={self.rank}, vertices={list(self.vertices)})"

    def contains(self, point: Sequence[int]) -> bool:
        p = tuple(point)
        return all(dot(n, p) + c >= 0 for n, c in self.facets)

    def on_boundary(self, point: Sequence[int]) -> bool:
        p = tuple(point)
        return self.contains(p) and any(dot(n, p) + c == 0 for n, c in self.facets)

    def facet_incidence(self, point: Sequence[int]) -> frozenset[int]:
        """Indices of the facets whose hyperplane passes through the point."""
        p = tuple(point)
        return frozenset(i for i, (n, c) in enumerate(self.facets) if dot(n, p) + c == 0)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vertices": [list(v) for v in self.vertices],
            "facets": [list(n) + [c] for n, c in self.facets],
        }

    @staticmethod
    def from_json(data: dict) -> "LatticePolytope":
        return hull(data["vertices"])


class Face:
    """A face of a lattice polytope, stored by its vertex index set.

    The empty face has dim -1 and the whole polytope has dim d, so that
    face duality for reflexive polytopes is total.
    """

    __slots__ = ("parent", "dim", "vertex_indices")

    def __init__(self, parent: LatticePolytope, dim: int, vertex_indices: tuple[int, ...]):
        self.parent = parent
        self.dim = dim
        self.vertex_indices = vertex_indices

    @property
    def vertices(self) -> tuple[Vec, ...]:
        return tuple(self.parent.vertices[i] for i in self.vertex_indices)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Face) and self.parent == other.parent
                and self.vertex_indices == other.vertex_indices)

    def __hash__(self) -> int:
        return hash((self.parent, self.vertex_indices))

    def __repr__(self) -> str:
        return f"Face(dim={self.dim}, vertices={list(self.vertices)})"


def hull(points: Iterable[Sequence[int]]) -> LatticePolytope:
    """Convex hull of integer points; vertices minimal, facets primitive.

    The input must be full-dimensional in its ambient space.
    """
    pts = sorted({_as_vec(p) for p in points})
    if not pts:
        raise EmptyInput("no points given")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise RankMismatch("points of mixed ambient rank")
    if not MIN_RANK <= d <= MAX_RANK:
        raise UnsupportedRank(f"ambient rank {d} outside supported range 2..{MAX_RANK}")
    simplex = _affinely_independent_subset(pts, d)
    if simplex is None:
        raise NotFullDimensional(f"affine span has dimension below {d}")

    # Rational interior reference point: centroid of the starting simplex.
    ref = [Fraction(sum(pts[i][k] for i in simplex), d + 1) for k in range(d)]

    def oriented(plane_pts: Sequence[Vec]) -> tuple[Vec, int]:
        n, c = _plane_through(plane_pts)
        side = sum(Fraction(nk) * rk for nk, rk in zip(n, ref)) + c
        if side < 0:
            n = tuple(-x for x in n)
            c = -c
        return n, c

    # Triangulated boundary: each facet simplex is (frozenset of d indices, n, c).
    facets: list[tuple[frozenset[int], Vec, int]] = []
    for omit in simplex:
        plane_idx = [i for i in simplex if i != omit]
        n, c = oriented([pts[i] for i in plane_idx])
        facets.append((frozenset(plane_idx), n, c))

    for i in range(len(pts)):
        if i in simplex:
            continue
        p = pts[i]
        visible = [f for f in facets if dot(f[1], p) + f[2] < 0]
        if not visible:
            continue
        visible_set = {id(f) for f in visible}
        ridge_count: dict[frozenset[int], int] = {}
        for verts, _, _ in visible:
            for omit in verts:
                ridge = verts - {omit}
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        horizon = [r for r, cnt in ridge_count.items() if cnt == 1]
        facets = [f for f in facets if id(f) not in visible_set]
        for ridge in horizon:
            n, c = oriented([pts[j] for j in ridge] + [p])
            facets.append((ridge | {i}, n, c))

    facet_planes = sorted({(n, c) for _, n, c in facets})

    # Vertices: points satisfying all inequalities whose tight normals span R^d.
    vertices = []
    for p in pts:
        tight = [n for n, c in facet_planes if dot(n, p) + c == 0]
        if len(tight) >= d and all(dot(n, p) + c >= 0 for n, c in facet_planes):
            if mat_rank([list(n) for n in tight]) == d:
                vertices.append(p)
    poly = LatticePolytope(d, tuple(sorted(vertices)), tuple(facet_planes))
    _cross_check(poly)
    return poly


def _cross_check(poly: LatticePolytope) -> None:
    # The vertex and facet descriptions must cut out the same set.
    d = poly.rank
    for v in poly.vertices:
        for n, c in poly.facets:
            if dot(n, v) + c < 0:
                raise NotFullDimensional("internal hull inconsistency: vertex outside facet")
    for n, c in poly.facets:
        tight = [v for v in poly.vertices if dot(n, v) + c == 0]
        if len(tight) < d:
            raise NotFullDimensional("internal hull inconsistency: facet with too few vertices")
        base = tight[0]
        rows = [[p[k] - base[k] for k in range(d)] for p in tight[1:]]
        if mat_rank(rows) != d - 1:
            raise NotFullDimensional("internal hull inconsistency: facet not of dimension d-1")


def polar_dual(poly: LatticePolytope) -> LatticePolytope:
    """Polar polytope {u : <u, v> >= -1 for all v in P}.

    Defined here only for reflexive input, where the polar is again a
    lattice polytope whose vertices are the facet normals of P.
    """
    offsets = [c for _, c in poly.facets]
    if any(c <= 0 for c in offsets):
        raise OriginNotInterior("origin is not an interior point")
    if any(c != 1 for c in offsets):
        raise NonIntegralDual("a facet has lattice distance > 1; the polar is not integral")
    dual = hull([n for n, _ in poly.facets])
    # Facet/vertex duality: the polar's facets are <., v> >= -1 over vertices of P.
    expected = set(poly.vertices)
    actual = {n for n, _ in dual.facets}
    if expected != actual or any(c != 1 for _, c in dual.facets):
        raise NonIntegralDual("polar dual failed the facet/vertex duality cross-check")
    return dual


def is_reflexive(poly: LatticePolytope) -> bool:
    """True iff every facet is at lattice distance 1 from the origin."""
    return all(c == 1 for _, c in poly.facets)


def lattice_points(poly: LatticePolytope, region: str = "all") -> tuple[Vec, ...]:
    """Exact enumeration in lexicographic order.

    ``region`` is one of ``all``, ``boundary``, ``interior``.

    Project-and-lift: level ``k`` is the facet system of P projected onto
    its first ``k`` coordinates -- the interval ``[min v_0, max v_0]`` for
    ``k = 1``, the facets of the hull of the projected vertices for
    ``1 < k < d`` (exact and non-redundant), and P's own facets for
    ``k = d``.  Over each lattice point of level ``k - 1`` the facets of
    level ``k`` whose last normal entry is nonzero bound the ``k``-th
    coordinate by exact integer ceil/floor, so sweeping prefixes in
    increasing order yields the points lexicographically.  A point of the last level is on
    the boundary iff one of P's facets has slack 0 there, which can only
    happen at the ends of its fibre or on a whole fibre over a vertical
    facet.  One sweep fills the cache of all three regions.
    """
    if region not in ("all", "boundary", "interior"):
        raise InputError(f"unknown region {region!r}")
    cached = poly._points.get(region)
    if cached is None:
        everything, boundary, interior = _sweep(poly)
        poly._points.update(all=everything, boundary=boundary, interior=interior)
        cached = poly._points[region]
    return cached


def _levels(poly: LatticePolytope) -> list[list[tuple[Vec, int, int]]]:
    """Per coordinate k, the facets ``<head, x[:k]> + a*x[k] + c >= 0`` with
    ``a != 0`` of P projected onto its first k+1 coordinates."""
    d = poly.rank
    first = [v[0] for v in poly.vertices]
    levels = [[((), 1, -min(first)), ((), -1, max(first))]]
    for k in range(2, d + 1):
        facets = poly.facets if k == d else hull([v[:k] for v in poly.vertices]).facets
        levels.append([(n[:-1], n[-1], c) for n, c in facets if n[-1] != 0])
    return levels


def _sweep(poly: LatticePolytope) -> tuple[tuple[Vec, ...], tuple[Vec, ...], tuple[Vec, ...]]:
    """All, boundary and interior lattice points of P, each lexicographic."""
    d = poly.rank
    levels = _levels(poly)
    vertical = [(n[:-1], c) for n, c in poly.facets if n[-1] == 0]
    everything: list[Vec] = []
    boundary: list[Vec] = []
    interior: list[Vec] = []

    def lift(k: int, prefix: Vec) -> None:
        # (a, r): the facet's slack at x[k] = t is a*t + r.  P is bounded, so
        # every level has facets with a > 0 and with a < 0.
        slopes = [(a, c + dot(head, prefix)) for head, a, c in levels[k]]
        lo = max(-(r // a) for a, r in slopes if a > 0)
        hi = min(r // -a for a, r in slopes if a < 0)
        if k + 1 < d:
            for x in range(lo, hi + 1):
                lift(k + 1, prefix + (x,))
            return
        if lo > hi:
            return
        flat = any(c + dot(head, prefix) == 0 for head, c in vertical)
        for x in range(lo, hi + 1):
            p = prefix + (x,)
            everything.append(p)
            if flat or ((x == lo or x == hi) and any(a * x + r == 0 for a, r in slopes)):
                boundary.append(p)
            else:
                interior.append(p)

    lift(0, ())
    return tuple(everything), tuple(boundary), tuple(interior)


def ell(poly: LatticePolytope) -> int:
    return len(lattice_points(poly, "all"))


def ell_boundary(poly: LatticePolytope) -> int:
    return len(lattice_points(poly, "boundary"))


def ell_interior(poly: LatticePolytope) -> int:
    return len(lattice_points(poly, "interior"))


def face_lattice(poly: LatticePolytope) -> tuple[Face, ...]:
    """All faces from dim -1 (empty) to dim d (the polytope), graded.

    Proper faces are intersections of facet vertex sets; dimensions are
    affine ranks of the vertex coordinates.
    """
    if poly._faces is not None:
        return poly._faces
    verts = poly.vertices
    facet_sets = []
    for n, c in poly.facets:
        facet_sets.append(frozenset(i for i, v in enumerate(verts) if dot(n, v) + c == 0))
    seen: set[frozenset[int]] = set(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        new = []
        for s in frontier:
            for f in facet_sets:
                t = s & f
                if t not in seen:
                    seen.add(t)
                    new.append(t)
        frontier = new
    seen.add(frozenset(range(len(verts))))
    seen.add(frozenset())
    faces = []
    for s in seen:
        idx = tuple(sorted(s))
        faces.append(Face(poly, _affine_dim(poly, idx), idx))
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    result = tuple(faces)
    poly._faces = result
    return result


def _affine_dim(poly: LatticePolytope, idx: tuple[int, ...]) -> int:
    if not idx:
        return -1
    base = poly.vertices[idx[0]]
    rows = [[poly.vertices[i][k] - base[k] for k in range(poly.rank)] for i in idx[1:]]
    return mat_rank(rows) if rows else 0


def smallest_face_containing(poly: LatticePolytope, point: Sequence[int]) -> Face:
    """The unique face whose relative interior contains the point.

    The smallest face containing a point is the intersection of all facets
    through it; an interior point yields the full polytope as a face.
    """
    p = tuple(point)
    if not poly.contains(p):
        raise EmptyInput(f"point {p} is not in the polytope")
    tight = poly.facet_incidence(p)
    if not tight:
        target = tuple(range(len(poly.vertices)))
    else:
        target = _tight_vertex_indices(poly, tight)
    for face in face_lattice(poly):
        if face.vertex_indices == target:
            return face
    raise NotFullDimensional("no face found; polytope data inconsistent")


def _tight_vertex_indices(poly: LatticePolytope, tight: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(
        i for i, v in enumerate(poly.vertices)
        if all(dot(poly.facets[j][0], v) + poly.facets[j][1] == 0 for j in tight)))


def _face_incidence(poly: LatticePolytope, face: Face) -> frozenset[int]:
    """Facets of the parent containing the whole face."""
    out = []
    for j, (n, c) in enumerate(poly.facets):
        if all(dot(n, v) + c == 0 for v in face.vertices):
            out.append(j)
    return frozenset(out)


def ell_star_face(poly: LatticePolytope, face: Face) -> int:
    """Lattice points in the relative interior of a face."""
    if face.dim == poly.rank:
        return ell_interior(poly)
    if face.dim < 0:
        return 0
    inc = _face_incidence(poly, face)
    count = 0
    for p in lattice_points(poly, "boundary"):
        if poly.facet_incidence(p) == inc:
            count += 1
    return count


def dual_face(poly: LatticePolytope, face: Face) -> Face:
    """Order-reversing duality between faces of P and of its polar.

    For a face F of a reflexive P, returns the face of polar_dual(P) whose
    points u satisfy <u, v> = -1 for every v in F.  Dimensions satisfy
    dim(F) + dim(F*) = d - 1.
    """
    if not is_reflexive(poly):
        raise NotReflexive("dual_face needs a reflexive polytope")
    dual = polar_dual(poly)
    if face.dim == poly.rank:
        target: tuple[int, ...] = ()
    else:
        target = tuple(sorted(
            i for i, u in enumerate(dual.vertices)
            if all(dot(u, v) == -1 for v in face.vertices)))
    for g in face_lattice(dual):
        if g.vertex_indices == target:
            if face.dim + g.dim != poly.rank - 1:
                raise NotReflexive("face duality dimension check failed")
            return g
    raise NotReflexive("dual face not found; polytope data inconsistent")


def minkowski_sum(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    if p.rank != q.rank:
        raise RankMismatch(f"rank {p.rank} vs {q.rank}")
    return hull([tuple(a + b for a, b in zip(u, v))
                 for u in p.vertices for v in q.vertices])


def dilate(p: LatticePolytope, n: int) -> LatticePolytope:
    if n <= 0:
        raise InputError("dilation factor must be positive")
    vertices = tuple(sorted(tuple(n * x for x in v) for v in p.vertices))
    facets = tuple(sorted((normal, n * c) for normal, c in p.facets))
    return LatticePolytope(p.rank, vertices, facets)


def convex_hull_contains(generators: Sequence[Sequence[int]], point: Sequence[int]) -> bool:
    """Exact membership of a point in the convex hull of a finite set.

    Works in any dimension (the hull may be degenerate) via Caratheodory:
    membership holds iff the point is a convex combination of some affinely
    independent subset of size at most d+1.
    """
    gens = [tuple(g) for g in generators]
    p = tuple(point)
    if p in gens:
        return True
    d = len(p)
    for size in range(2, d + 2):
        for subset in itertools.combinations(gens, size):
            # Solve sum(l_i * g_i) = p, sum(l_i) = 1 exactly.
            rows = [[g[k] for g in subset] for k in range(d)]
            rows.append([1] * size)
            rhs = list(p) + [1]
            status, sol = _solve_fraction(rows, rhs)
            if status == "unique" and all(x >= 0 for x in sol):
                return True
    return False


def _solve_fraction(a, b):
    from .intlinalg import solve_exact

    return solve_exact(a, b)


def extreme_points(generators: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """Minimal generating set of the convex hull (any dimension)."""
    gens = sorted({tuple(g) for g in generators})
    out = []
    for i, g in enumerate(gens):
        others = [h for j, h in enumerate(gens) if j != i]
        if not others or not convex_hull_contains(others, g):
            out.append(g)
    return tuple(out)
