"""Nef partitions, their duals, and the fibre/genus counts they control.

A nef partition splits the boundary lattice points of a reflexive polytope
Delta into parts E_i whose associated toric divisors are nef and Cartier.
The dual partition consists of the polytopes

    nabla_i = { u : <u, v> >= -1 for v in E_i,  <u, v> >= 0 for v in E_j, j != i },

whose convex hull nabla = Conv(union nabla_i) is again reflexive (Borisov
1993; Batyrev-Borisov 1996).  The difference between the lattice points of
the polar polytope and of nabla counts irreducible components of a
distinguished pencil member on the mirror, and (one less) the genus of the
curve that must be blown up to smooth the corresponding degeneration.

Validation computes what duality starts from, and no more.  For each facet
F of Delta and each part E_i, the Cartier condition asks for the integral
functional u_{F,i} that is -1 on the boundary points of F in E_i and 0 on
the other boundary points of F.  One elimination of F's points, with the
right-hand sides of the first k - 1 parts attached, finds theirs.  The
last part's is read off F's inequality <n, x> + c >= 0: on a cover of the
boundary the k functionals add up to n / c, the functional that is -1 on
all of F, so u_{F,k} is c n minus the others, and integral iff |c| = 1
(see ``_cartier_data``).  A one-part partition of Delta with every c = 1
takes u_F = n at once: it is nef by F's own inequality, so nothing is
eliminated or checked.  The nef condition checks each other functional
against every boundary point.  These functionals are exactly the vertices
of nabla_i: on the cone over F the support function of nabla_i is
<u_{F,i}, .>, and u_{F,i} is its unique minimiser there
(Cox-Little-Schenck, Toric Varieties, Thm 6.1.7).  So the vertices of
every nabla_i, full-dimensional or not, are integral and read off the
Cartier data, which validation keeps on the partition; the polar is not
read until the dual partition is asked for (by ``nef dual`` and ``nef
counts``).  The lattice points of the nabla_i are polar points sorted by
face combinatorics alone: the polar's facets are Delta's vertices, so the
facets through a polar point p name the face of Delta on which p is -1,
and the boundary points of Delta on that face are those whose smallest
face it contains (Ziegler, Lectures on Polytopes, 2.2-2.3).  Both steps
read one table per polytope, its lattice points with the bitmask of the
facets through each (``facet_masks``), as PALP's incidence idiom does
(Kreuzer-Skarke 2004).  Nabla's lattice points are the origin and the
others of each nabla_i (see ``dual_nef_partition``), so counts need only
the vertices and the points: nabla and each nabla_i are hulled on first
read (by ``nef dual``'s report), a lower-dimensional nabla_i being the one
``hull`` refuses as ``NotFullDimensional``, with no rank taken.  The dual
carries the polar it is read from.  For k = 1 every boundary point is in
E_1, so nabla = nabla_1 = the polar: nothing is hulled, and no point is
sorted.  For k >= 2 nabla's hull is given the nonzero vertices of the
nabla_i only, as the origin is interior to the reflexive nabla, and the
points of Delta are sorted by the facets through them, one smallest face
per distinct set.  ``complement_count`` checks that nabla lies in the
polar once per polar and keeps the count on the dual, where
``curve_invariant`` reads it.  Batyrev's
Hodge numbers are read in closed form off the vertices, facet normals and
incidence tables of Delta and its polar, with no lattice point and no face
lattice (see ``batyrev_hodge``); divisor component counts are read off the
polar's facet masks.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from math import gcd
from operator import lt, sub
from typing import Optional, Sequence

from ._cache import cached
from .errors import (
    DegenerateConfiguration,
    InputError,
    NablaNotContained,
    NotAPartition,
    NotBipartite,
    NotBoundaryPoint,
    NotCartier,
    NotFullDimensional,
    NotNef,
    NotReflexive,
    PolytopeMismatch,
    UnsupportedRank,
)
from .intlinalg import _echelon, as_int, as_int_rows, mat_vec
from .polytopes import (
    LatticePolytope,
    Vec,
    _incidence_counts,
    _smallest_face_mask,
    ell,
    facet_masks,
    hull,
    is_reflexive,
    lattice_points,
    polar_dual,
)


@dataclass(frozen=True)
class NefPartition:
    """A partition of the boundary lattice points of a reflexive polytope;
    ``_cache`` keeps the vertices of its nabla_i once the cover, Cartier
    and nef checks have passed, and its dual partition once
    ``dual_nef_partition`` has built it."""

    polytope: LatticePolytope
    parts: tuple[tuple[Vec, ...], ...]
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def k(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class DualNefPartition:
    """The Batyrev-Borisov dual of a nef partition, with the polar of Delta
    it is read from.

    ``nablas`` holds the hull of each full-dimensional nabla_i and None for
    a lower-dimensional one, which ``hull`` refuses, and ``nabla`` the hull
    of their union.  For k = 1, nabla_1 is nabla and both are the polar,
    so no hull is run.  For k >= 2 nabla's hull is given the nonzero
    vertices of the nabla_i only: nabla is reflexive, so the origin is
    interior to it and no vertex.  Only ``to_json`` needs those hulls, so
    they are built on first read and kept in ``_cache``; the lattice-point
    count of nabla, ``ell_nabla``, is read off the point sets.
    ``complement_count`` keeps its counts in ``_cache`` too.
    """

    nabla_vertex_sets: tuple[tuple[Vec, ...], ...]
    nabla_point_sets: tuple[tuple[Vec, ...], ...]
    polar: LatticePolytope
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def k(self) -> int:
        return len(self.nabla_vertex_sets)

    @property
    def ell_nabla(self) -> int:  # the origin and the others of each nabla_i
        return 1 + sum(len(ps) - 1 for ps in self.nabla_point_sets)

    @property
    @cached
    def nabla(self) -> LatticePolytope:
        if self.k == 1:
            return self.polar
        return hull([v for vs in self.nabla_vertex_sets for v in vs if any(v)])

    @property
    @cached
    def nablas(self) -> tuple[Optional[LatticePolytope], ...]:
        if self.k == 1:
            return (self.nabla,)
        pieces = []
        for vs in self.nabla_vertex_sets:
            try:
                pieces.append(hull(vs))
            except NotFullDimensional:  # a lower-dimensional nabla_i
                pieces.append(None)
        return tuple(pieces)

    def to_json(self) -> dict:
        nabla = self.nabla.to_json()
        # A lower-dimensional piece has vertex data only, no facets.
        pieces = [nabla] if self.k == 1 else [
            piece.to_json() if piece is not None else
            {"rank": self.nabla.rank, "vertices": [list(v) for v in vs]}
            for vs, piece in zip(self.nabla_vertex_sets, self.nablas)]
        return {
            "nablas": pieces,
            "nabla": nabla,
            "nabla_point_counts": [len(ps) for ps in self.nabla_point_sets],
        }


def _check_cover(np_: NefPartition) -> None:
    """Every boundary lattice point of Delta in exactly one part, once, and
    nothing else in any part; the first point met twice (in its own part or
    in an earlier one) or off the boundary, in part order, or else the
    uncovered points, raise NotAPartition."""
    boundary = set(lattice_points(np_.polytope, "boundary"))
    owner: dict[Vec, int] = {}
    for i, part in enumerate(np_.parts):
        for v in part:
            if v in owner:
                raise NotAPartition(f"{v} appears twice in part {i}" if owner[v] == i
                                    else f"{v} appears in more than one part")
            if v not in boundary:
                raise NotAPartition(f"{v} is not a boundary lattice point")
            owner[v] = i
    missing = boundary.difference(owner)
    if missing:
        raise NotAPartition(f"boundary points not covered: {sorted(missing)}")


def _cartier_data(np_: NefPartition) -> tuple[tuple[Vec, ...], ...]:
    """Check the Cartier and nef conditions; return the vertices of each nabla_i.

    The partition must have passed ``_check_cover``: its parts hold every
    boundary point of Delta once, and nothing else.  For every facet F (in
    order) and every part E_i (in order) there must be an integral linear
    functional u_{F,i} taking value -1 on the boundary points of F in E_i
    and 0 on the other boundary points of F (Cartier on the cone over F);
    it must satisfy <u, v> >= -1 on E_i and >= 0 elsewhere globally (upper
    convexity, i.e. nefness).  Returns, per part, the sorted distinct
    u_{F,i}: the vertices of nabla_i.  The boundary points of F are read
    off the facets the lattice-point sweep recorded at each lattice point;
    the origin, the one interior point, is on no facet, and every u pairs
    to 0 with it, which no part's bound refuses, so the nef check pairs u
    with every point.

    One elimination per facet solves for the first k - 1 parts at once:
    the points of F are the rows, and each such part's right-hand side is
    one more column.  Part i has integral Cartier data iff the points have
    rank d, its column is zero below the pivots, and the last pivot ``den``
    divides the rest of it; then u_{F,i} is that column over ``den``.

    The last part's functional is read off F's inequality <n, x> + c >= 0,
    with n primitive.  The points of F span the hyperplane <n, x> = -c, so
    they have rank d iff c != 0, and then n / c is the one functional that
    is -1 on all of them.  The parts cover F's points once, so their
    right-hand sides add up to -1 at every point of F, and the k
    functionals, where they exist, add up to n / c.  So once u_{F,1}, ...,
    u_{F,k-1} are integral, u_{F,k} = n / c - (u_{F,1} + ... + u_{F,k-1})
    exists and is integral iff n / c is, that is iff |c| = 1, as the
    entries of n have gcd 1; and then n / c = c n.  When c = 0 the
    elimination has rank < d, and part 0 fails first.

    A one-part partition of a Delta whose facets all have c = 1, as every
    reflexive Delta's do, needs none of this: u_F = n, which is -1 on F's
    points, and <n, v> >= -1 on Delta is F's own inequality, while the
    origin, the one interior point, pairs to 0.  So its functionals are
    the facet normals, sorted and distinct as the facets are, with no
    elimination and no nef check.

    Each new u_{F,i} is paired with every boundary point in one
    ``mat_vec``; a functional already checked for its part passed before.
    A facet's functionals are found in part order, up to the first part
    that has none; the parts are then checked in order, Cartier then nef,
    so the error names the first failing (facet, part) pair.
    """
    delta = np_.polytope
    if np_.k == 1 and all(c == 1 for _, c in delta.facets):
        return (tuple(n for n, _ in delta.facets),)
    d = delta.rank
    last = np_.k - 1
    points, masks = lattice_points(delta), facet_masks(delta)
    part_sets = [set(part) for part in np_.parts]
    bounds = [[-1 if v in part_set else 0 for v in points] for part_set in part_sets]
    # Each lattice point, then its right-hand side for every part but the last.
    rows = [list(v) + [-1 if v in part_set else 0 for part_set in part_sets[:last]]
            for v in points]
    vertex_sets: list[set[Vec]] = [set() for _ in np_.parts]
    for fi, (n, c) in enumerate(delta.facets):
        # The functionals of the parts in order, up to the first with none.
        functionals: list[Vec] = []
        a = [row[:] for row, mask in zip(rows, masks) if mask >> fi & 1]
        pivots, _ = _echelon(a, d)
        den = a[d - 1][d - 1] if len(pivots) == d else 0
        for col in range(d, d + last):
            if (not den or any(row[col] for row in a[d:])
                    or any(row[col] % den for row in a[:d])):
                break
            functionals.append(tuple(row[col] // den for row in a[:d]))
        if len(functionals) == last and abs(c) == 1:
            functionals.append(tuple(c * x - sum(xs) for x, *xs in zip(n, *functionals)))
        for i, (bound, found) in enumerate(zip(bounds, vertex_sets)):
            if i == len(functionals):
                raise NotCartier(
                    f"part {i} has no integral Cartier data on facet {fi} "
                    f"(normal {n})")
            u = functionals[i]
            if u in found:
                continue
            values = mat_vec(points, u)
            if any(map(lt, values, bound)):
                v = next(v for v, value, b in zip(points, values, bound) if value < b)
                raise NotNef(
                    f"part {i} fails upper convexity at {v} "
                    f"against facet {fi} (normal {n})")
            found.add(u)
    return tuple(tuple(sorted(vs)) for vs in vertex_sets)


def _nabla_point_sets(np_: NefPartition,
                      polar: LatticePolytope) -> tuple[tuple[Vec, ...], ...]:
    """The lattice points of each nabla_i, in the point order of ``polar``,
    the polar of Delta.

    Every lattice point p of nabla_i lies in the polar polytope, and a
    polar point p, which pairs to >= -1 with every boundary point of Delta,
    lies in nabla_i iff each boundary point v with <v, p> = -1 lies in E_i
    (the tight-set rule).  For k = 1 every boundary point lies in E_1, so
    nabla_1 holds every polar point, and no point is sorted.  Otherwise,
    those v form the face of Delta on which p is -1.
    Polar facet j is <., v_j> >= -1 for vertex v_j of Delta, so the facets
    through p, which the polar's sweep recorded, are that face's vertex
    mask (0 for an interior p), and v lies on the face iff the vertex mask
    of v's smallest face is a subset of it.  So the points' parts are
    grouped by the facets through them, the one smallest face of each
    group is looked up once (distinct facet sets cut out distinct faces),
    and the tight set of each distinct polar mask is the union of the
    groups under it, with no inner product.  The origin's smallest face is
    Delta, whose mask of all vertices no polar point's mask holds.  A
    boundary point that no part owns, which ``dual_nef_partition`` refuses
    before this runs, counts as part None.
    """
    if np_.k == 1:
        return (lattice_points(polar),)
    delta = np_.polytope
    owner = {v: i for i, part in enumerate(np_.parts) for v in part}
    by_facets: dict[int, set[Optional[int]]] = {}
    for v, through in zip(lattice_points(delta), facet_masks(delta)):
        by_facets.setdefault(through, set()).add(owner.get(v))
    groups = {_smallest_face_mask(delta, through): parts
              for through, parts in by_facets.items()}
    # The point lists of the nabla_i that hold a polar point, by its face.
    point_sets: list[list[Vec]] = [[] for _ in np_.parts]
    fits: dict[int, list[list[Vec]]] = {}
    for p, face in zip(lattice_points(polar), facet_masks(polar)):
        fit = fits.get(face)
        if fit is None:
            tight = set().union(*(parts for mask, parts in groups.items()
                                  if mask & face == mask))
            fit = fits[face] = [ps for i, ps in enumerate(point_sets) if tight <= {i}]
        for ps in fit:
            ps.append(p)
    return tuple(map(tuple, point_sets))


def validate_nef_partition(delta: LatticePolytope,
                           parts: Sequence[Sequence[Sequence[int]]]) -> NefPartition:
    """Check that ``parts`` is a nef partition of the reflexive polytope Delta.

    The parts are checked to cover the boundary points once, then the
    Cartier and nef conditions on the face fan of Delta
    (``_nabla_vertex_sets``), whose solutions, the vertices of the nabla_i,
    are kept on the result.  No polar point is read: the dual partition is
    built only when ``dual_nef_partition`` asks for it, from those vertices.
    """
    if not is_reflexive(delta):
        raise NotReflexive("nef partitions live on reflexive polytopes")
    if not isinstance(parts, (list, tuple)):
        raise InputError(f"a partition is a list of parts, not {type(parts).__name__}")
    np_ = NefPartition(delta, tuple(tuple(sorted(as_int_rows(part))) for part in parts))
    if not np_.parts or not all(np_.parts):
        raise NotAPartition("every part must be non-empty")
    _nabla_vertex_sets(np_)
    return np_


@cached
def _nabla_vertex_sets(np_: NefPartition) -> tuple[tuple[Vec, ...], ...]:
    """The cover check, then the Cartier and nef checks: the vertices of
    each nabla_i, kept in the partition's ``_cache``, and nothing kept when
    a check fails.  Parts that do not cover the boundary points of Delta
    exactly once raise NotAPartition before any elimination
    (``_check_cover``); then ``_cartier_data``, which reads the last part's
    functionals off the facet normals and so needs that cover, raises
    NotCartier or NotNef."""
    _check_cover(np_)
    return _cartier_data(np_)


@cached
def dual_nef_partition(np_: NefPartition) -> DualNefPartition:
    """The vertices and lattice points of the polytopes nabla_i, with the
    polar of Delta they are read from.

    The vertices of each nabla_i are the distinct Cartier functionals
    u_{F,i} over the facets F of Delta (``_nabla_vertex_sets``: the cover
    check, then at most one elimination per facet), which validation has
    kept on the partition; on a partition that is not validated this raises
    NotAPartition, NotCartier or NotNef as validation would.  The lattice
    points of each nabla_i are the polar points the tight-set rule keeps
    (``_nabla_point_sets``), read only here.  The polar is kept on the
    dual: for k = 1 it is nabla and nabla_1, and ``complement_count`` takes
    it (as the CLI does).

    Nabla = Conv(union nabla_i) is reflexive (Borisov), and no hull of it or
    of the nabla_i is built here, as its lattice points are the nabla_i's.
    For a lattice point u of nabla let m_j(u) = min(0, min of <u, v> over v
    in E_j), the minimum of <u, .> on Delta_j = Conv(E_j and 0): a
    non-positive integer.  Each nabla_i, and so nabla, lies in the convex
    polar of Delta_1 + ... + Delta_k, where sum_j m_j(u) >= -1.  Either
    every m_j(u) is 0, so <u, .> >= 0 on Delta, and u = 0 as the origin is
    interior to Delta; or exactly one m_i(u) is -1, and u lies in nabla_i.
    The same argument shows that two nabla_i meet only at the origin, so
    ell(nabla) = 1 + sum of (ell(nabla_i) - 1).  The result is kept in the
    partition's ``_cache``, so later calls return the one first built; it
    holds no reference back to the partition, and its polar holds only a
    weak one back to Delta, so dropping the partition frees them all by
    reference counting.
    """
    vertex_sets = _nabla_vertex_sets(np_)
    polar = polar_dual(np_.polytope)
    return DualNefPartition(vertex_sets, _nabla_point_sets(np_, polar), polar)


def check_refinement(coarse: NefPartition, fine: NefPartition) -> bool:
    """True iff ``fine`` refines ``coarse`` by splitting its last part in two."""
    if coarse.polytope != fine.polytope:
        raise PolytopeMismatch("partitions of different polytopes")
    if fine.k != coarse.k + 1:
        return False
    for i in range(coarse.k - 1):
        if set(coarse.parts[i]) != set(fine.parts[i]):
            return False
    split = set(fine.parts[-2]) | set(fine.parts[-1])
    if set(fine.parts[-2]) & set(fine.parts[-1]):
        return False
    return split == set(coarse.parts[-1])


def complement_count(dual: DualNefPartition, polar: LatticePolytope) -> int:
    """Number of lattice points of the polar polytope outside nabla.

    This is the component count of the distinguished pencil member on the
    mirror; nabla must be contained in the polar polytope, which is convex,
    so it is enough that the vertices of every nabla_i are.  That check
    runs once per polar given: the count is kept in the dual's ``_cache``
    by the polar, so ``curve_invariant`` and later calls read it back.  A
    polar that does not contain nabla keeps nothing and raises each time.
    """
    if dual.k != 2:
        raise NotBipartite(f"fibre counts need a bipartite partition, got k={dual.k}")
    counts = dual._cache.setdefault("complement_count", {})
    if polar not in counts:
        for i, vs in enumerate(dual.nabla_vertex_sets):
            for v in vs:
                if not polar.contains(v):
                    raise NablaNotContained(
                        f"vertex {v} of nabla_{i} is outside the polar polytope")
        counts[polar] = ell(polar) - dual.ell_nabla
    return counts[polar]


def curve_invariant(dual: DualNefPartition, polar: LatticePolytope, dim_v: int) -> int:
    """Genus-type invariant of the blown-up locus, from lattice counts.

    For dim_v >= 3 this is complement_count - 1 (the genus of the curve cut
    out by the two partition divisors when dim_v = 3); for dim_v = 2 it is
    the complement count itself, the number of points in the intersection.
    The count is the one ``complement_count`` kept on the dual for this
    polar, so a report that has it runs no containment check again.
    """
    dim_v = as_int(dim_v)
    if dim_v < 2:
        raise UnsupportedRank("the invariant needs dim >= 2")
    count = complement_count(dual, polar)
    if count == 0:
        raise DegenerateConfiguration(
            "nabla equals the polar polytope; no refinement is visible on the mirror")
    return count if dim_v == 2 else count - 1


def divisor_component_count(sigma: Sequence[int], polar: LatticePolytope) -> Optional[int]:
    """Component count of a toric divisor's trace on the mirror hypersurface.

    ``polar`` is the polar polytope of Delta, which it determines.  Returns
    None when the trace is empty (sigma interior to a facet of the polar
    polytope); 1 + l*(G) * l*(G-dual) when sigma is interior to a
    codimension-2 face G; and 1 on faces of codimension >= 3.

    All three are read off the facet masks the polar's lattice-point sweep
    records, as ``_nabla_point_sets`` reads them, with no face lattice.
    The facets through sigma are exactly those containing the face G whose
    relative interior holds it.  One facet means G is that facet.  A face
    on exactly two facets a and b is their ridge, since a face of
    codimension 3 or more lies on at least three facets.  Then l*(G) is the
    polar's count of boundary points with that mask, and G-dual is the
    face of Delta on the facets of the polar's vertices on G, the vertex
    mask ``_smallest_face_mask`` of G, where Delta's count is l*(G-dual).
    """
    s = tuple(map(as_int, sigma))
    if not polar.on_boundary(s):
        raise NotBoundaryPoint(f"{s} is not a boundary lattice point of the polar polytope")
    through = facet_masks(polar)[bisect_left(lattice_points(polar), s)]
    bits = through.bit_count()
    if bits == 1:
        return None
    if bits >= 3:
        return 1
    if not is_reflexive(polar):
        raise NotReflexive("the dual face needs a reflexive polytope")
    dual_counts = _incidence_counts(polar_dual(polar))
    return 1 + _incidence_counts(polar)[through] * dual_counts[_smallest_face_mask(polar, through)]


def batyrev_hodge(delta: LatticePolytope) -> tuple[int, int]:
    """Hodge numbers of the anticanonical hypersurface family of Delta.

    Returns (h11, h_{d-2,1}) where d = dim of the hypersurface + 1.  Both
    values come from the same lattice-point formula (Batyrev 1994),

        B(P) = l(P) - d - 1 - sum over facets F of l*(F)
                             + sum over codim-2 faces G of l*(G) l*(G*),

    evaluated at Delta and at its polar; mirror symmetry swaps the pair.
    For rank 3 the first value is the Picard rank of the generic K3 member.

    Both values are read in closed form off the vertices, facet normals and
    incidence table of P (``_batyrev_value``), with no lattice point, face
    lattice or hull.  A reflexive P has one interior lattice point, the
    origin, and every other lattice point lies in the relative interior of
    exactly one proper face, so l(P) = 1 + sum over proper faces F of
    l*(F).  The facet sum cancels:

        B(P) = -d + sum over faces F of dim <= d-3 of l*(F)
                  + sum over codim-2 faces G of l*(G) (1 + l*(G*)).

    Write g(x) for the gcd of the entries of x.  A vertex has l* = 1 and an
    edge [u, w] has l* = g(w - u) - 1.  A codim-2 face G is the ridge of the
    two facets a and b through it, and G* is the polar's edge from n_a to
    n_b, so 1 + l*(G*) = g(n_a - n_b).  Two facets meet in a ridge iff
    their incidence rows share d - 1 vertices: their intersection is a face
    of dimension at most d - 2, and d - 1 <= 3 vertices of it, no three of
    them collinear, span at least that much.

    Rank 3: B(P) = V - 3 + sum over edges [u, w] = F_a & F_b of
    (g(w - u) - 1) g(n_a - n_b).

    Rank 4: B(P) = V - 4 + sum over edges e of (g(e) - 1) + sum over
    2-faces G = F_a & F_b of l*(G) g(n_a - n_b).  Each edge of G lies on
    exactly one other 2-face G' of the 3-polytope F_a, so G's edges are the
    two-vertex masks G & G' over the 2-faces G' of F_a, and every edge of P
    is an edge of some 2-face.  l*(G) follows from Pick's theorem
    in G's own lattice L, 2A = 2 l*(G) + b - 2, where b = sum over the
    edges e of G of g(e) counts its boundary points and 2A is its area in
    L's units.  For a vertex x0 of G, the triangles from x0 to the edges of
    G not through it tile G, and an edge through x0 gives a flat one, so
    2A is the sum over all of G's edges (x, y) of |det_L(x - x0, y - x0)|,
    with no vertex order needed.  For two more vertices x1 and x2 (three
    vertices are never collinear), u = x1 - x0 and v = x2 - x0 span the
    plane of G, and w = (u ^ v) / g(u ^ v) is the primitive bivector of L,
    so det_L(p, q) = (p_i q_j - p_j q_i) / w_ij at any coordinate pair
    (i, j) with w_ij != 0.  A triangle's edges are its vertex pairs, and its
    2A is det_L(u, v) = g(u ^ v).
    """
    if delta.rank not in (3, 4):
        raise UnsupportedRank("hypersurface Hodge numbers are computed for rank 3 and 4")
    if not is_reflexive(delta):
        raise NotReflexive("the formula needs a reflexive polytope")
    return _batyrev_value(delta), _batyrev_value(polar_dual(delta))


# The coordinate pairs (i, j), i < j, of a bivector in rank 4.
_PLANES = tuple(itertools.combinations(range(4), 2))


def _batyrev_value(p: LatticePolytope) -> int:
    """Batyrev's B(P) for a reflexive P of rank 3 or 4, in the closed form
    of ``batyrev_hodge``: one pass over the pairs of facets, and in rank 4
    one Pick evaluation per 2-face."""
    vertices, incidence = p.vertices, p.incidence
    normals = [n for n, _ in p.facets]
    total = len(vertices) - p.rank
    if p.rank == 3:
        for a, b in itertools.combinations(range(len(incidence)), 2):
            edge = incidence[a] & incidence[b]
            if edge.bit_count() == 2:
                u, w = vertices[(edge & -edge).bit_length() - 1], vertices[edge.bit_length() - 1]
                total += (gcd(*map(sub, w, u)) - 1) * gcd(*map(sub, normals[a], normals[b]))
        return total
    # The 2-faces of each facet a, as (b, vertex mask of F_a & F_b); each
    # facet pair is met once.
    faces: list[list[tuple[int, int]]] = [[] for _ in incidence]
    for a, b in itertools.combinations(range(len(incidence)), 2):
        face = incidence[a] & incidence[b]
        if face.bit_count() >= 3:
            faces[a].append((b, face))
            faces[b].append((a, face))
    edges: dict[int, int] = {}  # g(e) by the vertex mask of the edge e
    for a, on_a in enumerate(faces):
        masks = [face for _, face in on_a]
        for b, face in on_a:
            if b > a:
                ell_star = _ell_star_2face(vertices, face, masks, edges)
                if ell_star:
                    total += ell_star * gcd(*map(sub, normals[a], normals[b]))
    return total + sum(edges.values()) - len(edges)


def _ell_star_2face(vertices: Sequence[Vec], face: int, masks: Sequence[int],
                    edges: dict[int, int]) -> int:
    """l*(G) for the 2-face G of a rank-4 polytope with vertex mask ``face``,
    by Pick's theorem in G's own lattice (see ``batyrev_hodge``).  ``masks``
    are the vertex masks of the 2-faces of a facet through G; each edge of
    G lies on exactly one other of them, so G's edges are the two-vertex
    masks ``face & mask``.  A triangle's edges are its three vertex pairs,
    and its 2A is g(u ^ v).  Each edge's g(e) is kept in ``edges``."""
    low = face & -face
    rest = face ^ low
    mid = rest & -rest
    rest ^= mid
    high = rest & -rest
    x0 = vertices[low.bit_length() - 1]
    u0, u1, u2, u3 = map(sub, vertices[mid.bit_length() - 1], x0)
    v0, v1, v2, v3 = map(sub, vertices[high.bit_length() - 1], x0)
    minors = (u0 * v1 - u1 * v0, u0 * v2 - u2 * v0, u0 * v3 - u3 * v0,
              u1 * v2 - u2 * v1, u1 * v3 - u3 * v1, u2 * v3 - u3 * v2)
    if rest == high:
        twice_area = gcd(*minors)
        sides = [low | mid, low | high, mid | high]
    else:
        k = next(k for k, minor in enumerate(minors) if minor)
        i, j = _PLANES[k]
        a0, b0 = x0[i], x0[j]
        sides = [side for side in map(face.__and__, masks) if side.bit_count() == 2]
        area = 0
        for side in sides:
            x, y = vertices[(side & -side).bit_length() - 1], vertices[side.bit_length() - 1]
            area += abs((x[i] - a0) * (y[j] - b0) - (x[j] - b0) * (y[i] - a0))
        twice_area = area * gcd(*minors) // abs(minors[k])
    boundary = 0
    for side in sides:
        g = edges.get(side)
        if g is None:
            x, y = vertices[(side & -side).bit_length() - 1], vertices[side.bit_length() - 1]
            g = edges[side] = gcd(*map(sub, y, x))
        boundary += g
    return (twice_area - boundary + 2) // 2
