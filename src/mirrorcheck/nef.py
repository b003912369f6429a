"""Nef partitions, their duals, and the fibre/genus counts they control.

A nef partition splits the boundary lattice points of a reflexive polytope
Delta into parts E_i whose associated toric divisors are nef and Cartier.
The dual partition consists of the polytopes

    nabla_i = { u : <u, v> >= -1 for v in E_i,  <u, v> >= 0 for v in E_j, j != i },

whose convex hull nabla = Conv(union nabla_i) is again reflexive.  The
difference between the lattice points of the polar polytope and of nabla
counts irreducible components of a distinguished pencil member on the
mirror, and (one less) the genus of the curve that must be blown up to
smooth the corresponding degeneration.

Validation and duality share one computation.  For each facet F of Delta
and each part E_i, the Cartier condition asks for the integral functional
u_{F,i} that is -1 on the boundary points of F in E_i and 0 on the other
boundary points of F; one elimination of F's points, with the right-hand
sides of all parts attached, finds them all, and the nef condition checks
each against every boundary point.  These functionals are exactly the
vertices of nabla_i: on the cone over F the support function of nabla_i
is <u_{F,i}, .>, and u_{F,i} is its unique minimiser there
(Cox-Little-Schenck, Toric Varieties, Thm 6.1.7).  So the vertices of
every nabla_i, full-dimensional or not, are integral and read off the
Cartier data.  The lattice points of the nabla_i are polar points sorted
by face combinatorics alone: the polar's facets are Delta's vertices, so
the facets through a polar point p name the face of Delta on which p is
-1, and the boundary points of Delta on that face are those whose
smallest face it contains (Ziegler, Lectures on Polytopes, 2.2-2.3).
Validation, counts and Hodge numbers need only the vertices, the points
and nabla's hull; the hull of each nabla_i is built on the first read of
``DualNefPartition.nablas`` (by ``nef dual``'s report) and cached there,
a lower-dimensional nabla_i being the one ``hull`` refuses as
``NotFullDimensional``, with no rank taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import lt
from typing import Iterator, Optional, Sequence

from ._cache import cached
from .errors import (
    DegenerateConfiguration,
    DualityInconsistency,
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
    _smallest_face_mask,
    boundary_facet_masks,
    dual_face,
    ell,
    ell_star_face,
    face_lattice,
    hull,
    is_reflexive,
    lattice_points,
    polar_dual,
    smallest_face_containing,
)


@dataclass(frozen=True)
class NefPartition:
    """A partition of the boundary lattice points of a reflexive polytope;
    ``_cache`` keeps its dual partition once ``dual_nef_partition`` has
    built it."""

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
    a lower-dimensional one, which ``hull`` refuses.  Only ``to_json`` needs those hulls, so they
    are built on first read and kept in ``_cache``.
    """

    nabla_vertex_sets: tuple[tuple[Vec, ...], ...]
    nabla_point_sets: tuple[tuple[Vec, ...], ...]
    nabla: LatticePolytope
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def k(self) -> int:
        return len(self.nabla_vertex_sets)

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
        pieces = []
        for vs, hull_obj in zip(self.nabla_vertex_sets, self.nablas):
            if hull_obj is not None:
                pieces.append(hull_obj.to_json())
            else:
                # Lower-dimensional piece: vertex data only, no facets.
                pieces.append({"rank": self.nabla.rank,
                               "vertices": [list(v) for v in vs]})
        return {
            "nablas": pieces,
            "nabla": self.nabla.to_json(),
            "nabla_point_counts": [len(ps) for ps in self.nabla_point_sets],
        }


def _check_partition(delta: LatticePolytope, parts: Sequence[Sequence[Sequence[int]]]):
    if not isinstance(parts, (list, tuple)):
        raise InputError(f"a partition is a list of parts, not {type(parts).__name__}")
    normalized = tuple(tuple(sorted(as_int_rows(part))) for part in parts)
    if not normalized or any(not part for part in normalized):
        raise NotAPartition("every part must be non-empty")
    boundary = set(lattice_points(delta, "boundary"))
    seen: set[Vec] = set()
    for v in _points_in_one_part(normalized):
        if v not in boundary:
            raise NotAPartition(f"{v} is not a boundary lattice point")
        seen.add(v)
    missing = boundary - seen
    if missing:
        raise NotAPartition(f"boundary points not covered: {sorted(missing)}")
    return normalized


def _points_in_one_part(parts: Sequence[Sequence[Vec]]) -> Iterator[Vec]:
    """The points of the parts, in order, each once: a point met again
    raises NotAPartition before it is yielded a second time."""
    seen: set[Vec] = set()
    for part in parts:
        for v in part:
            if v in seen:
                raise NotAPartition(f"{v} appears in more than one part")
            seen.add(v)
            yield v


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
    product.  A point that no part owns, which only an unvalidated
    partition leaves, counts as part None.
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

    The Cartier and nef conditions are checked on the face fan of Delta by
    ``_cartier_data``, on the way to building the dual partition, which is
    cached on the result; ``dual_nef_partition`` also checks that its nabla
    is reflexive.
    """
    if not is_reflexive(delta):
        raise NotReflexive("nef partitions live on reflexive polytopes")
    np_ = NefPartition(delta, _check_partition(delta, parts))
    dual_nef_partition(np_)
    return np_


@cached
def dual_nef_partition(np_: NefPartition) -> DualNefPartition:
    """The polytopes nabla_i, their lattice points, and nabla.

    Parts that overlap raise NotAPartition, validated or not, before any
    elimination: ``_cartier_data`` and ``_nabla_point_sets`` would read a
    point in two parts differently.  The vertices of each nabla_i are the
    distinct Cartier functionals u_{F,i} over the facets F of Delta
    (``_cartier_data``, one elimination per facet), so this raises
    NotCartier or NotNef when a part's divisor is not Cartier or not nef,
    validated or not.  The lattice points of
    each nabla_i are the polar points the tight-set rule keeps, read off
    the facet masks of Delta and of its polar (``_nabla_point_sets``).
    Nabla is hulled here, for the reflexivity check; the nabla_i are not
    (see ``DualNefPartition.nablas``).  The result is kept in the
    partition's ``_cache``, so validate_nef_partition builds the one that
    later calls return.
    """
    for _ in _points_in_one_part(np_.parts):  # raises on the first overlap
        pass
    vertex_sets = _cartier_data(np_)
    point_sets = _nabla_point_sets(np_)
    d = np_.polytope.rank
    nabla = hull([v for vs in vertex_sets for v in vs])
    if not is_reflexive(nabla):
        raise DualityInconsistency("nabla is not reflexive")
    zero = (0,) * d
    for vs in point_sets:
        if zero not in vs:
            raise DualityInconsistency("some nabla_i misses the origin")
    membership = {}
    for i, ps in enumerate(point_sets):
        for p in ps:
            if p != zero:
                membership.setdefault(p, []).append(i)
    for p in lattice_points(nabla, "all"):
        if p == zero:
            continue
        owners = membership.get(p, [])
        if len(owners) != 1:
            raise DualityInconsistency(
                f"lattice point {p} of nabla lies in {len(owners)} pieces")
    return DualNefPartition(vertex_sets, point_sets, nabla)


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


def _require_bipartite(dual: DualNefPartition) -> None:
    if dual.k != 2:
        raise NotBipartite(f"fibre counts need a bipartite partition, got k={dual.k}")


def complement_count(dual: DualNefPartition, polar: LatticePolytope) -> int:
    """Number of lattice points of the polar polytope outside nabla.

    This is the component count of the distinguished pencil member on the
    mirror; nabla must be contained in the polar polytope.
    """
    _require_bipartite(dual)
    for v in dual.nabla.vertices:
        if not polar.contains(v):
            raise NablaNotContained(f"nabla vertex {v} is outside the polar polytope")
    return ell(polar) - ell(dual.nabla)


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


def divisor_component_count(sigma: Sequence[int], delta: LatticePolytope,
                            polar: LatticePolytope) -> Optional[int]:
    """Component count of a toric divisor's trace on the mirror hypersurface.

    Returns None when the trace is empty (sigma interior to a facet of the
    polar polytope); 1 + l*(G) * l*(G-dual) when sigma is interior to a
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
    values come from the same lattice-point formula,

        B(P) = l(P) - d - 1 - sum over facets l*(F)
                             + sum over codim-2 faces l*(F) l*(F-dual),

    evaluated at Delta and at its polar; mirror symmetry swaps the pair.
    For rank 3 the first value is the Picard rank of the generic K3 member.
    """
    if delta.rank not in (3, 4):
        raise UnsupportedRank("hypersurface Hodge numbers are computed for rank 3 and 4")
    if not is_reflexive(delta):
        raise NotReflexive("the formula needs a reflexive polytope")
    return _batyrev_value(delta), _batyrev_value(polar_dual(delta))


def _batyrev_value(p: LatticePolytope) -> int:
    d = p.rank
    total = ell(p) - d - 1
    dual = polar_dual(p)
    for face in face_lattice(p):
        if face.dim == d - 1:
            total -= ell_star_face(p, face)
        elif face.dim == d - 2:
            ls = ell_star_face(p, face)
            if ls:
                total += ls * ell_star_face(dual, dual_face(p, face))
    return total
