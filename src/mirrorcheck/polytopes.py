"""Exact convex geometry for lattice polytopes of rank 2 to 5.

Polytopes are stored in canonical form: sorted vertex tuples, the sorted
facets ``<normal, x> >= -offset`` with primitive integer normals, and the
incidence table, one bitmask of the vertices on each facet (PALP's
``INCI``, Kreuzer-Skarke 2004).  ``hull`` reads the vertices and the
incidence table off its facets' point masks, which are exact by
construction; the polar of a reflexive polytope is the transposed table.
A pass over a mask table walks the set bits of each mask (``_bits``), not
every (point, facet) pair.
Everything else reads the masks, with no inner product and no rank: the
face lattice is their closure under AND, with each face's dimension read
off the lattice; dual and smallest faces are one lookup by vertex mask;
the projections that lattice-point enumeration needs AND the masks of
the two facets at a ridge.  ``hull`` runs only on point sets nobody has
described yet.  All arithmetic is exact and, apart from the Caratheodory
membership test, integral.  A polytope keeps what is derived from it in
one ``_cache``: the lattice-point ``_sweep``, the ``_faces`` table, the
``_incidence_counts`` and, from ``polar_dual``, the polar or a weak link.
The sweep keeps one table, every lattice point with the bitmask of the
facets through it (``facet_masks``, 0 at an interior point), and the
boundary and interior points are read off it.

The hull and the projections take one step: a facet list with point
masks meets a sign per facet, the facets of sign >= 0 stay, and each pair
of facets across the sign change that meets in a ridge, found from the
masks alone, is rotated into one new facet (``_combine``).  ``hull`` signs
the facets by their slack at a new point (the double-description method,
Motzkin et al. 1953, Fukuda-Prodon 1996), from the d+1 facets of a starting
simplex; one elimination of the points' matrix, with the identity attached,
picks the simplex and leaves its facets as the rows of a matrix inverse.
Lattice points are enumerated by project-and-lift (as in PALP); each
projection signs the facets of the level above by their last normal entry
(Fourier-Motzkin elimination with Chernikov's adjacency rule).  The sweep
visits a prefix per lattice point of each projection, and a skewed P has
many prefixes over empty fibres; so where P's coordinate box allows a lot
of work, ``_sweep_basis`` reduces the Gram matrix of its vertices to a
unimodular basis of narrow directions, kept only if it halves the bound on
the prefixes, and the sweep runs there and maps its points back and sorts
them.  A sweep that passes ``_SWEEP_CAP`` prefixes and points raises
``BudgetExceeded``.
"""

from __future__ import annotations

import itertools
import sys
import weakref
from bisect import bisect_left
from collections import Counter
from operator import mul, not_
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    BudgetExceeded,
    EmptyInput,
    InputError,
    NotFullDimensional,
    NotReflexive,
    OriginNotInterior,
    NonIntegralDual,
    PolytopeMismatch,
    RankMismatch,
    UnsupportedRank,
)
from ._cache import cached
from .intlinalg import (
    _echelon, _product_rows, _sparse_mul, as_int, as_int_vector, dot, identity, solve_exact,
    transpose, vec_gcd)

Vec = tuple[int, ...]
Facet = tuple[Vec, int]  # (primitive normal n, offset c): <n, x> >= -c

MIN_RANK = 2
MAX_RANK = 5


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first: one step per
    set bit, not per bit (PALP walks its incidence masks so too)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rotate(n1: Vec, c1: int, s1: int, n2: Vec, c2: int, s2: int) -> Facet:
    """The plane s2*H1 - s1*H2 through the ridge of H1 = (n1, c1) and
    H2 = (n2, c2), over the gcd of its normal.  With s1 < 0 <= s2 it is
    nonnegative wherever both planes are, and vanishes on their common
    ridge and wherever H1 and H2 take the values s1 and s2."""
    normal = [s2 * x - s1 * y for x, y in zip(n1, n2)]
    g = vec_gcd(normal)
    return tuple(x // g for x in normal), (s2 * c1 - s1 * c2) // g


def _combine(signed: Sequence[tuple[int, Vec, int, int]],
             k: int) -> Iterator[tuple[Vec, int, int]]:
    """The masked step that both ``hull`` and ``_project`` take.

    ``signed`` lists the facets (s, n, c, mask) of a k-polytope, each with a
    sign value s and the bitmask of the points on it, from a point set that
    holds every vertex.  Yields ``_rotate``'s plane (n, c) and the AND of
    the two masks for each pair of facets with s1 < 0 < s2 that meet in a
    ridge.  Two facets meet in a ridge iff the AND of their masks holds at
    least k-1 points and no third facet's mask holds it, since the empty
    face and every face of dimension k-3 or less lie on at least three
    facets (Chernikov's adjacency rule).  Every facet through a ridge of a
    facet F with s < 0 shares at least k-1 points with F, and so with the
    union of those facets' masks: the facets that share that many with the
    union are kept, and of those, the ones that share that many with F
    are paired with F and scanned for a third facet.
    """
    below = 0
    for s, _, _, mask in signed:
        if s < 0:
            below |= mask
    near = [f for f in signed if (f[3] & below).bit_count() >= k - 1]
    for s1, n1, c1, m1 in near:
        if s1 >= 0:
            continue
        around = [f for f in near if (f[3] & m1).bit_count() >= k - 1]
        masks = [f[3] for f in around]
        for s2, n2, c2, m2 in around:
            if s2 <= 0:
                continue
            ridge = m1 & m2
            if sum(ridge & m == ridge for m in masks) > 2:
                continue
            yield *_rotate(n1, c1, s1, n2, c2, s2), ridge


class LatticePolytope:
    """A full-dimensional lattice polytope in canonical form; ``incidence[j]``
    is the bitmask of the vertices on facet j (bit i for vertex i).

    A built polytope is read-only, since ``_cache`` keeps what is derived
    from its data; copy and pickle rebuild it with an empty ``_cache``.
    ``_cache`` holds no reference back to the polytope, so that it is
    freed by reference counting, not left to the cycle collector."""

    __slots__ = ("rank", "vertices", "facets", "incidence", "_cache", "__weakref__")

    def __init__(self, rank: int, vertices: tuple[Vec, ...], facets: tuple[Facet, ...],
                 incidence: tuple[int, ...]):
        _put_rank(self, rank)
        _put_vertices(self, vertices)
        _put_facets(self, facets)
        _put_incidence(self, incidence)
        _put_cache(self, {})

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a LatticePolytope is read-only: {name!r} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        return LatticePolytope, (self.rank, self.vertices, self.facets, self.incidence)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LatticePolytope)
                and self.rank == other.rank and self.vertices == other.vertices)

    def __hash__(self) -> int:
        return hash((self.rank, self.vertices))

    def __repr__(self) -> str:
        return f"LatticePolytope(rank={self.rank}, vertices={list(self.vertices)})"

    def contains(self, point: Sequence[int]) -> bool:
        """Whether the point, read through ``as_int``, lies in P."""
        p = as_int_vector(point)
        if len(p) != self.rank:
            raise RankMismatch(f"point {p} has {len(p)} coordinates, not {self.rank}")
        return all(dot(n, p) + c >= 0 for n, c in self.facets)

    def on_boundary(self, point: Sequence[int]) -> bool:
        p = as_int_vector(point)
        return self.contains(p) and any(dot(n, p) + c == 0 for n, c in self.facets)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vertices": [list(v) for v in self.vertices],
            "facets": [list(n) + [c] for n, c in self.facets],
        }


# The slot writers of ``LatticePolytope.__init__``, past its read-only
# ``__setattr__``.
_put_rank, _put_vertices, _put_facets, _put_incidence, _put_cache = (
    LatticePolytope.__dict__[name].__set__ for name in LatticePolytope.__slots__[:5])


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

    The input must be full-dimensional in its ambient space.  Double
    description over the points in sorted order: the state is the facet
    list of the hull of the points taken so far, each facet (n, c, mask)
    with the bitmask of those points on it, starting from the d+1 facets of
    a simplex.  Let A have one column (p, 1) per point.  One elimination
    of [A | I] finds A's pivot columns, each outside the span of the
    columns before it: the first point and every later one off the affine
    span of the points before it, d+1 in all for a full-dimensional input.  For B the pivot columns p_0..p_d, it leaves den * B^-1 right of
    A, whatever its row swaps, and row i of B^-1 is a plane that is 0 at
    every p_j but p_i and 1 at p_i, so it faces inward; times the sign of
    den and over the gcd of its normal each row is a starting facet.  A
    point p with positive slack at every facet is inside and skipped.
    Otherwise the facets with slack >= 0 stay, those with slack 0 gaining
    p's bit; the facets with slack < 0 go; and each pair H1, H2 with slack
    s1 < 0 < s2 at p that meets in a ridge gives the plane s2*H1 - s1*H2
    through the ridge and p (``_combine``).  Its mask is the AND of the two
    masks and p's bit, and is exact: an earlier point q has H1(q) >= 0 and
    H2(q) >= 0, so the new plane vanishes at q iff both do.  So no later
    plane is solved for, and each facet comes out once.  Each mask also
    holds d affinely independent points, the d of a starting facet or the
    d-1 of a ridge and p, which is off H1; so every facet is
    (d-1)-dimensional by construction (Fukuda-Prodon 1996), and no rank
    re-proves it.  A point is a vertex iff no other input point lies on
    every facet through it, read off the final masks: otherwise the face
    those facets cut out holds both.  One pass over the set bits of each
    final mask ANDs the mask into the face of each point on it, so the pass
    costs one step per incidence, not per (point, facet) pair; a point on
    no facet keeps every point in its face and is no vertex.  Each row of
    the incidence table is its facet's final mask restricted to the
    vertices: the mask itself when every point is a vertex, else its set
    bits renumbered.
    """
    try:
        pts = sorted({tuple(map(as_int, p)) for p in points})
    except TypeError:  # a point, or the point list, is no list at all
        raise InputError("points must be given as a list of integer lists") from None
    if not pts:
        raise EmptyInput("no points given")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise RankMismatch("points of mixed ambient rank")
    if not MIN_RANK <= d <= MAX_RANK:
        raise UnsupportedRank(f"ambient rank {d} outside supported range 2..{MAX_RANK}")
    # [A | I] for A with one column (p, 1) per point: its first d+1 pivot
    # columns are the starting simplex, and den * B^-1 ends right of A.
    a = [[*col, *unit] for col, unit in zip([*zip(*pts), (1,) * len(pts)], identity(d + 1))]
    simplex, _ = _echelon(a, len(pts))
    if len(simplex) <= d:
        raise NotFullDimensional(f"affine span has dimension below {d}")
    sign = 1 if a[d][simplex[d]] > 0 else -1
    start = sum(1 << i for i in simplex)
    # facets: (n, c, bitmask of the points processed so far that lie on it).
    facets = []
    for omit, row in zip(simplex, a):
        plane = [sign * x for x in row[len(pts):]]
        g = vec_gcd(plane[:d])
        facets.append((tuple(x // g for x in plane[:d]), plane[d] // g, start ^ 1 << omit))

    for i, p in enumerate(pts):
        if start >> i & 1:
            continue
        signed = [(sum(map(mul, n, p)) + c, n, c, mask) for n, c, mask in facets]
        if all(s > 0 for s, _, _, _ in signed):
            continue  # inside: on no facet, now or later
        bit = 1 << i
        facets = [(n, c, mask | bit if s == 0 else mask) for s, n, c, mask in signed if s >= 0]
        facets += [(n, c, ridge | bit) for n, c, ridge in _combine(signed, d)]
    facets.sort()

    # face[k]: the AND of the masks of the facets through point k.
    face = [(1 << len(pts)) - 1] * len(pts)
    for _, _, mask in facets:
        for k in _bits(mask):
            face[k] &= mask
    keep = [k for k, on in enumerate(face) if on == 1 << k]
    vertices = tuple(pts[k] for k in keep)
    if len(keep) == len(pts):
        incidence = tuple(mask for _, _, mask in facets)
    else:
        index = {k: r for r, k in enumerate(keep)}
        incidence = tuple(sum(1 << index[k] for k in _bits(mask) if k in index)
                          for _, _, mask in facets)
    return LatticePolytope(d, vertices, tuple((n, c) for n, c, _ in facets), incidence)


def polar_dual(poly: LatticePolytope) -> LatticePolytope:
    """Polar polytope {u : <u, v> >= -1 for all v in P}.

    Defined here only for reflexive input, where the polar is again a
    lattice polytope, read off P's own tables with no hull and no inner
    product.  Vertex j of the polar is the normal of facet j of P, and
    facet i of the polar is <., v_i> >= -1 for vertex i of P; both lists
    stay sorted, and every v_i is primitive because the polar's facet
    through it holds lattice points.  Polar facet i passes through polar
    vertex j iff <n_j, v_i> + 1 = 0, iff facet j of P passes through
    vertex i, so the polar's incidence table is P's transposed, built by
    one pass over the set bits of P's rows.  After ``hull`` that table is
    exact; on a hand-built P the one check is that every vertex lies on
    at least d facets, so that each polar facet has d vertices, and bits
    past P's vertices are ignored.  The polar is cached on P, and P on the
    polar by a weak reference, so while P lives
    ``polar_dual(polar_dual(P)) is P`` and repeated calls share its cached
    points and faces, and the pair is no reference cycle; a failed check
    caches nothing, so a bad input raises on every call.
    """
    cache = poly._cache
    if "polar" in cache:
        return cache["polar"]
    primal = cache["polar_of"]() if "polar_of" in cache else None
    if primal is not None:
        return primal
    offsets = [c for _, c in poly.facets]
    if any(c <= 0 for c in offsets):
        raise OriginNotInterior("origin is not an interior point")
    if any(c != 1 for c in offsets):
        raise NonIntegralDual("a facet has lattice distance > 1; the polar is not integral")
    rows = [0] * len(poly.vertices)
    everything = (1 << len(rows)) - 1
    for j, on in enumerate(poly.incidence):
        for i in _bits(on & everything):
            rows[i] |= 1 << j
    incidence = tuple(rows)
    if any(mask.bit_count() < poly.rank for mask in incidence):
        raise NotFullDimensional("inconsistent polytope: a vertex on fewer than d facets")
    dual = LatticePolytope(poly.rank, tuple(n for n, _ in poly.facets),
                           tuple((v, 1) for v in poly.vertices), incidence)
    cache["polar"] = dual
    dual._cache["polar_of"] = weakref.ref(poly)
    return dual


def is_reflexive(poly: LatticePolytope) -> bool:
    """True iff every facet is at lattice distance 1 from the origin."""
    return all(c == 1 for _, c in poly.facets)


def lattice_points(poly: LatticePolytope, region: str = "all") -> tuple[Vec, ...]:
    """Exact enumeration in lexicographic order.

    ``region`` is one of ``all``, ``boundary``, ``interior``.

    Project-and-lift: level ``k`` is the facet system of P projected onto
    its first ``k`` coordinates -- the interval ``[min v_0, max v_0]`` for
    ``k = 1``, P's own facets for ``k = d``, and for ``1 < k < d`` the
    facets of level ``k + 1`` projected along its last coordinate, read off
    its ridges (exact and non-redundant; see ``_levels``).  Over each
    lattice point of level ``k - 1`` the facets of level ``k`` whose last
    normal entry is nonzero bound the ``k``-th coordinate by exact integer
    ceil/floor; each facet's slack is lifted affinely and the facets
    through each boundary point recorded (see ``_sweep``).  The sweep runs
    in the coordinates of a reduced lattice basis when P is skewed (see
    ``_sweep_basis``), maps its points back and sorts them; otherwise it
    sweeps P's own coordinates, whose prefixes in increasing order yield the
    points lexicographically.  One sweep, kept in the polytope's cache,
    serves all three regions and ``facet_masks``.
    """
    if region not in _REGIONS:
        raise InputError(f"unknown region {region!r}")
    return _sweep(poly)[_REGIONS.index(region)]


def facet_masks(poly: LatticePolytope) -> tuple[int, ...]:
    """For each lattice point of P, in the order of ``lattice_points(P)``,
    the bitmask of the facets through it (bit j for facet j), 0 exactly at
    the interior points, as the lattice-point sweep found them; computed
    once per polytope."""
    return _sweep(poly)[3]


def _levels(facets: Sequence[tuple[Vec, int, int]],
            first: Sequence[int]) -> list[list[tuple[Vec, int, int]]]:
    """Per coordinate k, the facets ``<head, x[:k]> + a*x[k] + c >= 0`` with
    ``a != 0`` of a polytope Q projected onto its first k+1 coordinates.

    ``facets`` lists Q's facets (n, c, mask), each with the bitmask of the
    vertices on it, and ``first`` the first coordinates of Q's vertices.
    Level d is that facet list.  Level k-1 is level k projected along its
    last coordinate by ``_project``, down to level 2; level 1 is the range
    of the first coordinate.  No hull is built and no inner product is
    taken.
    """
    levels = []
    for k in range(len(facets[0][0]), 1, -1):
        levels.append([(n[:-1], n[-1], c) for n, c, _ in facets if n[-1]])
        if k > 2:
            facets = _project(facets, k)
    levels.append([((), 1, -min(first)), ((), -1, max(first))])
    levels.reverse()
    return levels


def _project(facets: list[tuple[Vec, int, int]], k: int) -> list[tuple[Vec, int, int]]:
    """The facets of a k-polytope Q projected along its last coordinate.

    ``facets`` lists Q's facets (n, c, mask), where mask is the bitmask of
    the points on the facet, from a point set that holds every vertex of Q;
    the points of the projection are those points projected.  The facets of
    the projection are Q's vertical facets (last normal entry 0) with that
    entry dropped, and ``_combine``'s rotation at each ridge of Q whose two
    facets have last entries a- < 0 < a+, taken with the last entries as
    the signs, which eliminates the last coordinate (Fourier-Motzkin).  The
    points on a rotated facet are those on both of its facets, so its mask
    is the AND, and the result comes out in the same form, sorted.
    """
    out = [(n[:-1], c, mask) for n, c, mask in facets if not n[-1]]
    out += [(n[:-1], c, ridge) for n, c, ridge in
            _combine([(n[-1], n, c, mask) for n, c, mask in facets], k)]
    out.sort()
    return out


# The regions of ``lattice_points``, in the order ``_sweep`` returns them.
_REGIONS = ("all", "boundary", "interior")

# The bound on a sweep's work, prefixes and points, from P's coordinate box,
# below which no reduced basis is tried (see ``_sweep_basis``).
_REDUCE_ABOVE = 256
# Prefixes and lattice points one sweep may pass before it gives up.
_SWEEP_CAP = 2 ** 18


def _bounds(vertices: Sequence[Vec]) -> tuple[int, int]:
    """The most prefixes and the most points of a sweep along the
    coordinates of these vertices, of widths w_i: 1 + (w_0+1) + ... +
    (w_0+1)...(w_{d-2}+1) prefixes, one box per level but the last, and
    the box (w_0+1)...(w_{d-1}+1)."""
    prefixes, box = 0, 1
    for c in zip(*vertices):
        prefixes += box
        box *= max(c) - min(c) + 1
    return prefixes, box


def _sweep_basis(poly: LatticePolytope) -> Optional[tuple[list[list[int]], list[list[int]],
                                                         list[list[int]]]]:
    """A unimodular U, with U^-1 and the image of P's vertices, whose
    coordinates y = U x sweep P with at most half the prefixes its own
    coordinates allow; None when P's own coordinates serve.  Row i of the
    image is coordinate i of every vertex, in the order of the vertices.

    ``_bounds`` bounds the work of a sweep in P's own coordinates, the
    prefixes past the empty one and the points, as the budget counts them;
    below ``_REDUCE_ABOVE`` nothing more is tried.  Otherwise U reduces the
    Gram matrix G = V sum v v^T - (sum v)(sum v)^T of P's V vertices, V^2
    times their covariance: each Lagrange-Gauss step u_i += t u_j with
    t = round(-g_ij / g_jj) is taken iff it lowers g_ii, and G follows by
    congruence.  The steps are then applied to U, and to U^-1 as column
    j -= t column i, so nothing is inverted and all of it is integral.  A
    narrow direction has a small variance, so the rows that come out are
    narrow ones (Lenstra 1983 on why the width bounds the enumeration;
    pairwise reduction, not LLL, at d <= 5).  They are ordered by their
    true width over the vertices, narrowest first, and only then is U kept
    if it at least halves the bound on the prefixes, which the order sets:
    the points are the same in any basis, and a reduced basis costs a
    transform and a final sort.
    """
    prefixes, box = _bounds(poly.vertices)
    if prefixes - 1 + box < _REDUCE_ABOVE:
        return None
    d, n = poly.rank, len(poly.vertices)
    columns = list(zip(*poly.vertices))
    sums = [sum(c) for c in columns]
    g = [[n * sum(map(mul, a, b)) - sa * sb for b, sb in zip(columns, sums)]
         for a, sa in zip(columns, sums)]
    steps: list[tuple[int, int, int]] = []
    while True:  # rounds over every pair, until one takes no step
        taken = len(steps)
        for i, j in itertools.permutations(range(d), 2):
            gij, gjj = g[i][j], g[j][j]
            t = (gjj - 2 * gij) // (2 * gjj)
            if t and t * (2 * gij + t * gjj) < 0:
                g[i] = [a + t * b for a, b in zip(g[i], g[j])]
                for row in g:
                    row[i] += t * row[j]
                steps.append((i, j, t))
        if len(steps) == taken:
            break
    if not steps:
        return None
    u, back = identity(d), identity(d)
    for i, j, t in steps:
        u[i] = [a + t * b for a, b in zip(u[i], u[j])]
        for row in back:
            row[j] -= t * row[i]
    # Row i: coordinate i of every vertex, in the reduced basis.
    image = _sparse_mul(u, columns)
    order = sorted(range(d), key=lambda i: (max(image[i]) - min(image[i]), g[i][i]))
    image = [image[i] for i in order]
    if 2 * _bounds(zip(*image))[0] > prefixes:
        return None
    return [u[i] for i in order], [[row[i] for i in order] for row in back], image


def _over_budget(vertices: Sequence[Vec]) -> BudgetExceeded:
    """The error of a sweep past ``_SWEEP_CAP``, naming the box of the
    vertices it swept."""
    box = _bounds(vertices)[1]
    try:
        size = f"a box of {box} points"
    except ValueError:  # an integer longer than Python's conversion limit
        size = f"a box of more than 10^{sys.get_int_max_str_digits()} points"
    return BudgetExceeded(f"the lattice-point sweep passed its cap of {_SWEEP_CAP} "
                          f"prefixes and points, in {size}")


@cached
def _sweep(poly: LatticePolytope) -> tuple[tuple[Vec, ...], tuple[Vec, ...],
                                           tuple[Vec, ...], tuple[int, ...]]:
    """All, boundary and interior lattice points of P, each lexicographic,
    and for each point the bitmask of P's facets through it.

    The sweep runs in coordinates y = U x from ``_sweep_basis``, or in x
    itself.  Facet n maps to n U^-1 and keeps its index, so its bit keeps
    its meaning, and vertex v maps to U v; the incidence and the offsets
    are unchanged.  A facet's slack is affine in each coordinate.  So a
    prefix y[:k] with lattice points over it takes one inner product per
    facet of level k+1, its constant ``b = c + <head[:-1], y[:k]>``, and
    each child fibre y[k] = t gets ``b + head[-1]*t``: one multiply-add,
    not an inner product.  The vertical facets, read on the fibres of the
    last level, are lifted the same way from the prefixes one level up.
    The facets through a point of the last level are the slopes with slack
    0 there, at an end of its fibre, and the vertical facets with slack 0
    on the whole fibre.  The sweep keeps one list of points and one mask
    per point, 0 for an interior point; in a reduced basis the points are
    mapped back by U^-1 at the end and sorted, each with its mask.  A
    matrix maps points by zipping the lazy rows of its product with their
    coordinate rows (``_product_rows``), so no Python loop runs per point,
    and the vertices' image comes from ``_sweep_basis``.  The boundary and
    interior points are the points whose mask is nonzero and zero; the
    per-point loop is the same in either basis.  Walls are lifted only at
    the level above the last, and only when P has a vertical facet; every
    other fibre takes no wall sum.

    Before each fibre's loop the sweep counts the points of that fibre,
    which are the prefixes or the points it is about to visit, and past
    ``_SWEEP_CAP`` it raises ``BudgetExceeded``, so no input makes it run or
    grow without bound.
    """
    d = poly.rank
    basis = _sweep_basis(poly)
    facets = [(n, c, on) for (n, c), on in zip(poly.facets, poly.incidence)]
    if basis is None:
        column0 = [v[0] for v in poly.vertices]
    else:
        _, back, image = basis
        normals = zip(*_product_rows(transpose(back), transpose([n for n, _, _ in facets])))
        facets = [(n, c, on) for n, (_, c, on) in zip(normals, facets)]
        column0 = image[0]
    first, *upper = _levels(facets, column0)
    # upper[k]: the facets of level k+1 as (head[:-1], head[-1], a, c).
    upper = [[(head[:-1], head[-1], a, c) for head, a, c in level] for level in upper]
    # The bits of P's facets, in the order of the last level's slopes, and
    # the vertical facets with theirs.
    bits = [1 << j for j, (n, _, _) in enumerate(facets) if n[-1]]
    vertical = [(1 << j, n[:-2], n[-2], c) for j, (n, c, _) in enumerate(facets) if not n[-1]]
    points: list[Vec] = []
    masks: list[int] = []
    spent = 0

    def lift(k: int, prefix: Vec, slopes: list[tuple[int, int]], walls: int) -> None:
        # (a, r): the facet's slack at y[k] = t is a*t + r.  P is bounded, so
        # every level has facets with a > 0 and with a < 0.  ``walls``: the
        # bits of the vertical facets with slack 0 on the whole fibre.
        nonlocal spent
        lo = max(-(r // a) for a, r in slopes if a > 0)
        hi = min(r // -a for a, r in slopes if a < 0)
        if lo > hi:
            return
        spent += hi - lo + 1
        if spent > _SWEEP_CAP:
            raise _over_budget(poly.vertices if basis is None else list(zip(*image)))
        if k + 1 < d:
            nxt = [(a, h, c + dot(head, prefix)) for head, h, a, c in upper[k]]
            lifted = ([(bit, h, c + dot(head, prefix)) for bit, head, h, c in vertical]
                      if k + 2 == d else ())
            for y in range(lo, hi + 1):
                lift(k + 1, prefix + (y,), [(a, b + h * y) for a, h, b in nxt],
                     sum(bit for bit, h, b in lifted if b + h * y == 0) if lifted else 0)
            return
        for y in range(lo, hi + 1):
            points.append(prefix + (y,))
            on = walls
            if y == lo or y == hi:
                on |= sum(bit for bit, (a, r) in zip(bits, slopes) if a * y + r == 0)
            masks.append(on)

    try:
        lift(0, (), [(a, c) for _, a, c in first], 0)
    finally:
        lift = None  # the closure refers to itself: break that cycle
    if basis is not None:
        points, masks = zip(*sorted(zip(zip(*_product_rows(back, transpose(points))), masks)))
    return (tuple(points), tuple(itertools.compress(points, masks)),
            tuple(itertools.compress(points, map(not_, masks))), tuple(masks))


def ell(poly: LatticePolytope) -> int:
    return len(lattice_points(poly, "all"))


def face_lattice(poly: LatticePolytope) -> tuple[Face, ...]:
    """All faces from dim -1 (empty) to dim d (the polytope), graded.

    Faces are vertex bitmasks: the polytope and the closure of the
    incidence rows under AND, which holds every F & f for a face F and a
    facet f.  Each facet of F is such an F & f with f not containing F, a
    proper subset and so a smaller int, so taking masks in increasing order,
    dim(F) = 1 + max dim(F & f) over those f; the empty face, with none,
    has dim -1.  No rank is taken.  The ``Face`` objects, which point back
    to P, are built per call from the cached ``_faces`` table.
    """
    return tuple(Face(poly, dim, idx) for dim, idx in _faces(poly).values())


@cached
def _faces(poly: LatticePolytope) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Each face's dim and vertex indices by its vertex bitmask, in the
    graded order of ``face_lattice``; the indices are the set bits of the
    mask."""
    incidence = poly.incidence
    n = len(poly.vertices)
    # The polytope itself; the empty face is the AND of all facets.
    everything = (1 << n) - 1
    seen = {everything}
    frontier = set(incidence)
    while frontier:
        seen |= frontier
        frontier = {s & f for s in frontier for f in incidence} - seen
    dims: dict[int, int] = {}
    for face in sorted(seen):
        below = [dims[face & f] for f in incidence if face & f != face]
        dims[face] = 1 + max(below) if below else -1
    graded = sorted((dim, tuple(_bits(face & everything)), face)
                    for face, dim in dims.items())
    return {face: (dim, idx) for dim, idx, face in graded}


def _face_with_vertices(poly: LatticePolytope, mask: int) -> Optional[Face]:
    """The face of P with vertex bitmask ``mask``, by one lookup, or None."""
    found = _faces(poly).get(mask)
    return None if found is None else Face(poly, *found)


def _smallest_face_mask(poly: LatticePolytope, through: int) -> int:
    """Vertex bitmask of the smallest face of P through a point that lies
    on the facets in the bitmask ``through``: the AND of their incidence
    rows, and all of P's vertices for a point on no facet."""
    on = (1 << len(poly.vertices)) - 1
    for j, verts in enumerate(poly.incidence):
        if through >> j & 1:
            on &= verts
    return on


def smallest_face_containing(poly: LatticePolytope, point: Sequence[int]) -> Face:
    """The unique face whose relative interior contains the lattice point.

    The smallest face containing a point is the intersection of all facets
    through it, which the lattice-point sweep recorded for each lattice
    point (found by bisection, the points being sorted); an interior point,
    on no facet, yields the full polytope as a face.
    """
    p = as_int_vector(point)
    if not poly.contains(p):
        raise EmptyInput(f"point {p} is not in the polytope")
    through = facet_masks(poly)[bisect_left(lattice_points(poly), p)]
    face = _face_with_vertices(poly, _smallest_face_mask(poly, through))
    if face is None:
        raise NotFullDimensional("no face found; polytope data inconsistent")
    return face


def _face_incidence(poly: LatticePolytope, face: Face) -> int:
    """Bitmask of the facets of the parent containing the whole face."""
    on = sum(1 << i for i in face.vertex_indices)
    return sum(1 << j for j, verts in enumerate(poly.incidence) if verts & on == on)


def ell_star_face(poly: LatticePolytope, face: Face) -> int:
    """Lattice points in the relative interior of a face.

    A lattice point lies in the relative interior of a face exactly when
    the facets through it are the facets containing the face; the points
    are counted by facet mask once per polytope.  P itself lies on no
    facet, and mask 0 counts the interior points; the empty face lies on
    every facet, and no point does.
    """
    if face.parent is not poly and face.parent != poly:  # identity first: the usual case
        raise PolytopeMismatch("the face belongs to another polytope")
    return _incidence_counts(poly)[_face_incidence(poly, face)]


@cached
def _incidence_counts(poly: LatticePolytope) -> Counter[int]:
    """The number of lattice points of P through each facet mask, 0 for
    the interior points."""
    return Counter(facet_masks(poly))


def dual_face(poly: LatticePolytope, face: Face) -> Face:
    """Order-reversing duality between faces of P and of its polar.

    For a face F of a reflexive P, returns the face of polar_dual(P) whose
    points u satisfy <u, v> = -1 for every v in F.  Vertex j of the polar
    is the normal of facet j of P, so F* is spanned by the polar vertices
    indexed by the facets containing F.  Dimensions satisfy
    dim(F) + dim(F*) = d - 1.
    """
    if face.parent is not poly and face.parent != poly:  # identity first: the usual case
        raise PolytopeMismatch("the face belongs to another polytope")
    if not is_reflexive(poly):
        raise NotReflexive("dual_face needs a reflexive polytope")
    image = _face_with_vertices(polar_dual(poly), _face_incidence(poly, face))
    if image is None:
        raise NotReflexive("dual face not found; polytope data inconsistent")
    if face.dim + image.dim != poly.rank - 1:
        raise NotReflexive("face duality dimension check failed")
    return image


def minkowski_sum(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    if p.rank != q.rank:
        raise RankMismatch(f"rank {p.rank} vs {q.rank}")
    return hull([tuple(a + b for a, b in zip(u, v))
                 for u in p.vertices for v in q.vertices])


def dilate(p: LatticePolytope, n: int) -> LatticePolytope:
    n = as_int(n)
    if n <= 0:
        raise InputError("dilation factor must be positive")
    # Scaling by n > 0 keeps the order of the vertices and of the facets
    # (sorted by their distinct normals), so the incidence table carries over.
    vertices = tuple(tuple(n * x for x in v) for v in p.vertices)
    facets = tuple((normal, n * c) for normal, c in p.facets)
    return LatticePolytope(p.rank, vertices, facets, p.incidence)


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
            status, sol = solve_exact(rows, rhs)
            if status == "unique" and all(x >= 0 for x in sol):
                return True
    return False


def extreme_points(generators: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """Minimal generating set of the convex hull (any dimension)."""
    gens = sorted({tuple(g) for g in generators})
    out = []
    for i, g in enumerate(gens):
        others = [h for j, h in enumerate(gens) if j != i]
        if not others or not convex_hull_contains(others, g):
            out.append(g)
    return tuple(out)
