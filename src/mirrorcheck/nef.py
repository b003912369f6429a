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

Validation computes what duality starts from, and no more.  For each
facet F of Delta and each part E_i, the Cartier condition asks for the
integral functional u_{F,i} that is -1 on the boundary points of F in E_i
and 0 on the other boundary points of F; one elimination of F's points,
with the right-hand sides of all parts attached, finds them all, and the
nef condition checks each against every boundary point.  These
functionals are exactly the vertices of nabla_i: on the cone over F the
support function of nabla_i is <u_{F,i}, .>, and u_{F,i} is its unique
minimiser there (Cox-Little-Schenck, Toric Varieties, Thm 6.1.7).  So the
vertices of every nabla_i, full-dimensional or not, are integral and read
off the Cartier data, which validation keeps on the partition; the polar
is not read until the dual partition is asked for (by ``nef dual`` and
``nef counts``).  The lattice points of the nabla_i are polar points
sorted by face combinatorics alone: the polar's facets are Delta's
vertices, so the facets through a polar point p name the face of Delta
on which p is -1, and the boundary points of Delta on that face are
those whose smallest face it contains (Ziegler, Lectures on Polytopes,
2.2-2.3).  Nabla's lattice points are the origin and the others of each
nabla_i (see ``dual_nef_partition``), so counts need only the vertices
and the points: nabla and each nabla_i are hulled on first read (by
``nef dual``'s report), a lower-dimensional nabla_i being the one
``hull`` refuses as ``NotFullDimensional``, with no rank taken.  Batyrev's
Hodge numbers are read off the same facet masks the lattice-point sweep
records, with no face lattice (see ``batyrev_hodge``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import lt
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
    boundary_facet_masks,
    dual_face,
    ell,
    ell_star_face,
    hull,
    is_reflexive,
    lattice_points,
    polar_dual,
    smallest_face_containing,
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

    def delta_generators(self, i: int) -> tuple[Vec, ...]:
        """Generating points of Delta_i = Conv(E_i and the origin)."""
        zero = (0,) * self.polytope.rank
        return tuple(sorted(set(self.parts[i]) | {zero}))


@dataclass(frozen=True)
class DualNefPartition:
    """The Batyrev-Borisov dual of a nef partition.

    ``nablas`` holds the hull of each full-dimensional nabla_i and None for
    a lower-dimensional one, which ``hull`` refuses, and ``nabla`` the hull
    of their union.  Only ``to_json`` needs those hulls, so they are built
    on first read and kept in ``_cache``; the lattice-point count of nabla,
    ``ell_nabla``, is read off the point sets.
    """

    nabla_vertex_sets: tuple[tuple[Vec, ...], ...]
    nabla_point_sets: tuple[tuple[Vec, ...], ...]
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
        return hull([v for vs in self.nabla_vertex_sets for v in vs])

    @property
    @cached
    def nablas(self) -> tuple[Optional[LatticePolytope], ...]:
        pieces = []
        for vs in self.nabla_vertex_sets:
            try:
                pieces.append(hull(vs))
            except NotFullDimensional:  # a lower-dimensional nabla_i
                pieces.append(None)
        return tuple(pieces)

    def to_json(self) -> dict:
        # A lower-dimensional piece has vertex data only, no facets.
        pieces = [piece.to_json() if piece is not None else
                  {"rank": self.nabla.rank, "vertices": [list(v) for v in vs]}
                  for vs, piece in zip(self.nabla_vertex_sets, self.nablas)]
        return {
            "nablas": pieces,
            "nabla": self.nabla.to_json(),
            "nabla_point_counts": [len(ps) for ps in self.nabla_point_sets],
        }


def _check_cover(np_: NefPartition) -> None:
    """Every boundary lattice point of Delta in exactly one part, and
    nothing else in any part; the first point met twice or off the
    boundary, in part order, or else the uncovered points, raise
    NotAPartition."""
    boundary = set(lattice_points(np_.polytope, "boundary"))
    seen: set[Vec] = set()
    for part in np_.parts:
        for v in part:
            if v in seen:
                raise NotAPartition(f"{v} appears in more than one part")
            if v not in boundary:
                raise NotAPartition(f"{v} is not a boundary lattice point")
            seen.add(v)
    missing = boundary - seen
    if missing:
        raise NotAPartition(f"boundary points not covered: {sorted(missing)}")


def _cartier_data(np_: NefPartition) -> tuple[tuple[Vec, ...], ...]:
    """Check the Cartier and nef conditions; return the vertices of each nabla_i.

    For every facet F (in order) and every part E_i (in order) there must be
    an integral linear functional u_{F,i} taking value -1 on the boundary
    points of F in E_i and 0 on the other boundary points of F (Cartier on
    the cone over F); it must satisfy <u, v> >= -1 on E_i and >= 0
    elsewhere globally (upper convexity, i.e. nefness).  Returns, per part,
    the sorted distinct u_{F,i}: the vertices of nabla_i.  The boundary
    points of F are read off the facets the lattice-point sweep recorded
    at each boundary point.  One reduced elimination per facet solves for
    every part at once: the points of F are the rows, and each part's
    right-hand side is one more column.  Part i has integral Cartier data
    iff the points have rank d, its column is zero below the pivots, and
    the last pivot ``den`` divides the rest of it; then u_{F,i} is that
    column over ``den``.  Each new u_{F,i} is paired with every boundary
    point in one ``mat_vec``; a functional already checked for its part
    passed before.  The parts are checked in order, Cartier then nef, so
    the error names the first failing (facet, part) pair.
    """
    delta = np_.polytope
    d = delta.rank
    boundary = lattice_points(delta, "boundary")
    masks = boundary_facet_masks(delta)
    part_sets = [set(part) for part in np_.parts]
    bounds = [[-1 if v in part_set else 0 for v in boundary] for part_set in part_sets]
    # Each boundary point, then its right-hand side for every part.
    rows = [list(v) + [-1 if v in part_set else 0 for part_set in part_sets]
            for v in boundary]
    vertex_sets: list[set[Vec]] = [set() for _ in np_.parts]
    for fi, (n, _) in enumerate(delta.facets):
        a = [row[:] for row, mask in zip(rows, masks) if mask >> fi & 1]
        pivots, _ = _echelon(a, d, reduced=True)
        den = a[d - 1][d - 1] if len(pivots) == d else 0
        for i, (bound, found) in enumerate(zip(bounds, vertex_sets)):
            col = d + i
            if (not den or any(row[col] for row in a[d:])
                    or any(row[col] % den for row in a[:d])):
                raise NotCartier(
                    f"part {i} has no integral Cartier data on facet {fi} "
                    f"(normal {n})")
            u = tuple(row[col] // den for row in a[:d])
            if u in found:
                continue
            values = mat_vec(boundary, u)
            if any(map(lt, values, bound)):
                v = next(v for v, value, b in zip(boundary, values, bound) if value < b)
                raise NotNef(
                    f"part {i} fails upper convexity at {v} "
                    f"against facet {fi} (normal {n})")
            found.add(u)
    return tuple(tuple(sorted(vs)) for vs in vertex_sets)


def _nabla_point_sets(np_: NefPartition) -> tuple[tuple[Vec, ...], ...]:
    """The lattice points of each nabla_i, in the polar's point order.

    Every lattice point p of nabla_i lies in the polar polytope, and a
    polar point p, which pairs to >= -1 with every boundary point of Delta,
    lies in nabla_i iff each boundary point v with <v, p> = -1 lies in E_i
    (the tight-set rule).  Those v form the face of Delta on which p is -1.
    Polar facet j is <., v_j> >= -1 for vertex v_j of Delta, so the facets
    through p, which the polar's sweep recorded, are that face's vertex
    mask (0 for an interior p), and v lies on the face iff the vertex mask
    of v's smallest face is a subset of it.  So the boundary points'
    parts are grouped by that mask once, and the tight set of each
    distinct polar mask is the union of the groups under it, with no inner
    product.  A point that no part owns, which ``dual_nef_partition``
    refuses before this runs, counts as part None.
    """
    delta = np_.polytope
    polar = polar_dual(delta)
    owner = {v: i for i, part in enumerate(np_.parts) for v in part}
    groups: dict[int, set[Optional[int]]] = {}
    for v, through in zip(lattice_points(delta, "boundary"), boundary_facet_masks(delta)):
        groups.setdefault(_smallest_face_mask(delta, through), set()).add(owner.get(v))
    faces = dict(zip(lattice_points(polar, "boundary"), boundary_facet_masks(polar)))
    # The point lists of the nabla_i that hold a polar point, by its face.
    point_sets: list[list[Vec]] = [[] for _ in np_.parts]
    fits: dict[int, list[list[Vec]]] = {}
    for p in lattice_points(polar, "all"):
        face = faces.get(p, 0)
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
    (``_check_cover``); then ``_cartier_data`` raises NotCartier or NotNef."""
    _check_cover(np_)
    return _cartier_data(np_)


@cached
def dual_nef_partition(np_: NefPartition) -> DualNefPartition:
    """The vertices and lattice points of the polytopes nabla_i.

    The vertices of each nabla_i are the distinct Cartier functionals
    u_{F,i} over the facets F of Delta (``_nabla_vertex_sets``: the cover
    check, then one elimination per facet), which validation has kept on
    the partition; on a partition that is not validated this raises
    NotAPartition, NotCartier or NotNef as validation would.  The lattice
    points of each nabla_i are the polar points the tight-set rule keeps
    (``_nabla_point_sets``), read only here.

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
    holds no reference back to the partition.
    """
    return DualNefPartition(_nabla_vertex_sets(np_), _nabla_point_sets(np_))


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
    so it is enough that the vertices of every nabla_i are.
    """
    if dual.k != 2:
        raise NotBipartite(f"fibre counts need a bipartite partition, got k={dual.k}")
    for i, vs in enumerate(dual.nabla_vertex_sets):
        for v in vs:
            if not polar.contains(v):
                raise NablaNotContained(
                    f"vertex {v} of nabla_{i} is outside the polar polytope")
    return ell(polar) - dual.ell_nabla


def curve_invariant(dual: DualNefPartition, polar: LatticePolytope, dim_v: int) -> int:
    """Genus-type invariant of the blown-up locus, from lattice counts.

    For dim_v >= 3 this is complement_count - 1 (the genus of the curve cut
    out by the two partition divisors when dim_v = 3); for dim_v = 2 it is
    the complement count itself, the number of points in the intersection.
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
    """
    s = tuple(map(as_int, sigma))
    if not polar.on_boundary(s):
        raise NotBoundaryPoint(f"{s} is not a boundary lattice point of the polar polytope")
    face = smallest_face_containing(polar, s)
    codim = polar.rank - face.dim
    if codim == 1:
        return None
    if codim >= 3:
        return 1
    dual = dual_face(polar, face)
    return 1 + ell_star_face(polar, face) * ell_star_face(polar_dual(polar), dual)


def batyrev_hodge(delta: LatticePolytope) -> tuple[int, int]:
    """Hodge numbers of the anticanonical hypersurface family of Delta.

    Returns (h11, h_{d-2,1}) where d = dim of the hypersurface + 1.  Both
    values come from the same lattice-point formula (Batyrev 1994),

        B(P) = l(P) - d - 1 - sum over facets F of l*(F)
                             + sum over codim-2 faces G of l*(G) l*(G*),

    evaluated at Delta and at its polar; mirror symmetry swaps the pair.
    For rank 3 the first value is the Picard rank of the generic K3 member.

    Both sums are read off the facet masks the lattice-point sweep records
    at each boundary point (``_incidence_counts``), with no face lattice.
    A boundary point lies in the relative interior of exactly one face,
    and the facets through it are exactly the facets containing that face;
    so the points with facet mask m are the relative interior of the face
    whose facets are m.  A face on exactly one facet is that facet.  A face
    on exactly two facets a and b is their ridge, since a face of
    codimension 3 or more lies on at least three facets (as in
    ``_combine``).  So the facet sum is the count over one-bit masks, and
    the ridge sum runs over two-bit masks {a, b}.  G* is the polar's edge
    from n_a to n_b; polar facet i is <., v_i> >= -1 for vertex v_i of P,
    so the polar facets through that edge are the vertices of P on both
    facets, the vertex mask ``incidence[a] & incidence[b]`` of G
    (``_smallest_face_mask``), and l*(G*) is the polar's count at that
    mask (0 if no point has it).
    """
    if delta.rank not in (3, 4):
        raise UnsupportedRank("hypersurface Hodge numbers are computed for rank 3 and 4")
    if not is_reflexive(delta):
        raise NotReflexive("the formula needs a reflexive polytope")
    return _batyrev_value(delta), _batyrev_value(polar_dual(delta))


def _batyrev_value(p: LatticePolytope) -> int:
    total = ell(p) - p.rank - 1
    dual_counts = _incidence_counts(polar_dual(p))
    for mask, count in _incidence_counts(p).items():
        bits = mask.bit_count()
        if bits == 1:
            total -= count
        elif bits == 2:
            total += count * dual_counts[_smallest_face_mask(p, mask)]
    return total
