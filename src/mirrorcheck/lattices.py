"""Even integral quadratic forms and the Dolgachev-Nikulin mirror lattice.

Lattices are given by symmetric even Gram matrices over Z.  The module
provides the standard building blocks (hyperbolic plane, negative E8, rank
one even forms), primitive embeddings into the K3 lattice H^3 + E8(-1)^2,
orthogonal complements, discriminant forms, bounded isotropic-vector
search, and the mirror construction

    L-check = (Zf)^perp in L^perp, modulo Zf,

for a primitive isotropic f in the orthogonal complement of L.

Isomorphism testing is deliberately limited to invariant comparison
(rank, signature, determinant, discriminant group and form); this is a
necessary condition in general, and suffices to recognize the indefinite
even lattices appearing in this problem domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    Degenerate,
    NotInComplement,
    NotIsotropic,
    NotPrimitive,
    NotPrimitiveVector,
    OddDiagonal,
    RankMismatch,
)
from . import intlinalg as la

Gram = tuple[tuple[int, ...], ...]

# Bourbaki numbering: chain 1-3-4-5-6-7-8 with node 2 hanging off node 4.
_E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))

_DISC_ENUMERATION_CAP = 65536


@dataclass(frozen=True)
class QuadLattice:
    """An even symmetric bilinear form over Z."""

    gram: Gram
    name: Optional[str] = None

    def __post_init__(self):
        n = len(self.gram)
        for i, row in enumerate(self.gram):
            if len(row) != n:
                raise RankMismatch("gram matrix is not square")
            if row[i] % 2 != 0:
                raise OddDiagonal(f"diagonal entry {row[i]} at {i} is odd")
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise RankMismatch("gram matrix is not symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def bilinear(self, u: Sequence[int], v: Sequence[int]) -> int:
        return sum(u[i] * self.gram[i][j] * v[j]
                   for i in range(self.rank) for j in range(self.rank))

    def q(self, v: Sequence[int]) -> int:
        return self.bilinear(v, v)

    def to_json(self) -> dict:
        data = {"gram": [list(r) for r in self.gram]}
        if self.name:
            data["name"] = self.name
        return data


def from_gram(gram: Sequence[Sequence[int]], name: Optional[str] = None) -> QuadLattice:
    return QuadLattice(tuple(tuple(int(x) for x in row) for row in gram), name)


def hyperbolic_plane() -> QuadLattice:
    return from_gram([[0, 1], [1, 0]], "H")


def e8_minus() -> QuadLattice:
    gram = [[0] * 8 for _ in range(8)]
    for i in range(8):
        gram[i][i] = -2
    for a, b in _E8_EDGES:
        gram[a - 1][b - 1] = 1
        gram[b - 1][a - 1] = 1
    return from_gram(gram, "E8(-1)")


def a1_minus() -> QuadLattice:
    return from_gram([[-2]], "A1(-1)")


def rank_one(n: int) -> QuadLattice:
    if n % 2 != 0:
        raise OddDiagonal(f"<{n}> is not an even lattice")
    return from_gram([[n]], f"<{n}>")


def standard_lattice(spec) -> QuadLattice:
    """Build a lattice from a short spec string or an explicit Gram matrix.

    Accepted strings: ``H``, ``E8(-1)``, ``A1(-1)``, ``<n>`` with n even,
    and ``K3``.  Lists of lists are taken as explicit Gram matrices.
    """
    if isinstance(spec, str):
        s = spec.strip()
        if s == "H":
            return hyperbolic_plane()
        if s == "E8(-1)":
            return e8_minus()
        if s == "A1(-1)":
            return a1_minus()
        if s == "K3":
            return k3_lattice()
        if s.startswith("<") and s.endswith(">"):
            return rank_one(int(s[1:-1]))
        raise OddDiagonal(f"unknown lattice spec {spec!r}")
    return from_gram(spec)


def direct_sum(*lattices: QuadLattice, name: Optional[str] = None) -> QuadLattice:
    n = sum(lat.rank for lat in lattices)
    gram = [[0] * n for _ in range(n)]
    offset = 0
    for lat in lattices:
        for i in range(lat.rank):
            for j in range(lat.rank):
                gram[offset + i][offset + j] = lat.gram[i][j]
        offset += lat.rank
    if name is None and lattices and all(lat.name for lat in lattices):
        name = "+".join(lat.name for lat in lattices)
    return from_gram(gram, name)


def k3_lattice() -> QuadLattice:
    return direct_sum(hyperbolic_plane(), hyperbolic_plane(), hyperbolic_plane(),
                      e8_minus(), e8_minus(), name="K3")


def signature(lat: QuadLattice) -> tuple[int, int]:
    """Inertia (p, q) by exact symmetric diagonalization over Q."""
    n = lat.rank
    m = [[Fraction(x) for x in row] for row in lat.gram]
    pos = neg = 0
    idx = 0
    while idx < n:
        if m[idx][idx] == 0:
            j = next((j for j in range(idx + 1, n) if m[idx][j] != 0), None)
            if j is None:
                if any(m[idx][j] != 0 for j in range(n)):
                    raise Degenerate("unexpected structure in diagonalization")
                raise Degenerate("the form is degenerate")
            # Adding s times row/col j makes the diagonal 2*s*m[idx][j] + m[j][j];
            # the two signs differ by 4*m[idx][j] != 0, so one of them is nonzero.
            s = 1 if 2 * m[idx][j] + m[j][j] != 0 else -1
            for k in range(n):
                m[idx][k] += s * m[j][k]
            for k in range(n):
                m[k][idx] += s * m[k][j]
        pivot = m[idx][idx]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(idx + 1, n):
            f = m[i][idx] / pivot
            if f:
                for k in range(n):
                    m[i][k] -= f * m[idx][k]
                for k in range(n):
                    m[k][i] -= f * m[k][idx]
        idx += 1
    return pos, neg


def determinant(lat: QuadLattice) -> int:
    return la.determinant([list(r) for r in lat.gram])


@dataclass(frozen=True)
class DiscriminantData:
    """Invariant factors and discriminant form values of an even lattice.

    ``form_values`` is the sorted multiset of q(x) over all elements of the
    discriminant group, as exact rationals in [0, 2) representing Q/2Z.
    """

    group: tuple[int, ...]
    form_values: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "group": list(self.group),
            "form_values": [str(v) for v in self.form_values],
        }


def discriminant(lat: QuadLattice) -> DiscriminantData:
    det = determinant(lat)
    if det == 0:
        raise Degenerate("discriminant needs a nondegenerate lattice")
    gram = [list(r) for r in lat.gram]
    factors = la.invariant_factors(gram)
    order = 1
    for f in factors:
        order *= f
    if order != abs(det):
        raise Degenerate("invariant factors inconsistent with determinant")
    if order > _DISC_ENUMERATION_CAP:
        raise Degenerate(f"discriminant group of order {order} exceeds enumeration cap")
    n = lat.rank
    u, d, _ = la.smith_normal_form(gram)
    diag = [d[i][i] for i in range(n)]
    u_inv = la.inverse_unimodular(u)
    g_inv = _fraction_inverse(gram)
    values = []
    for combo in itertools.product(*(range(di) for di in diag)):
        z = la.mat_vec(u_inv, list(combo))
        q = Fraction(0)
        for i in range(n):
            if z[i] == 0:
                continue
            for j in range(n):
                q += z[i] * g_inv[i][j] * z[j]
        values.append(q % 2)
    return DiscriminantData(tuple(factors), tuple(sorted(values)))


def _fraction_inverse(m: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            raise Degenerate("matrix is singular")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class LatticeEmbedding:
    """A primitive embedding of a lattice into an ambient lattice."""

    ambient: QuadLattice
    image_basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = [list(v) for v in self.image_basis]
        if rows:
            if any(len(v) != self.ambient.rank for v in rows):
                raise RankMismatch("embedding vectors of wrong length")
            if la.rank(rows) < len(rows):
                raise NotPrimitive("image basis is not linearly independent")
            if not la.is_primitive_rows(rows):
                raise NotPrimitive("image is not a direct summand of the ambient lattice")

    @property
    def rank(self) -> int:
        return len(self.image_basis)

    def induced(self, name: Optional[str] = None) -> QuadLattice:
        gram = [[self.ambient.bilinear(u, v) for v in self.image_basis]
                for u in self.image_basis]
        return from_gram(gram, name)


def orthogonal_complement(emb: LatticeEmbedding,
                          name: Optional[str] = None) -> LatticeEmbedding:
    """Primitive embedding of everything orthogonal to the image."""
    amb = emb.ambient
    rows = [la.mat_vec([list(r) for r in amb.gram], list(v)) for v in emb.image_basis]
    basis = la.kernel_basis(rows)
    return LatticeEmbedding(amb, tuple(tuple(v) for v in basis))


def dn_mirror(emb: LatticeEmbedding, f: Sequence[int],
              name: Optional[str] = None) -> QuadLattice:
    """Mirror lattice (Zf)^perp / Zf inside the orthogonal complement.

    ``f`` must be a primitive isotropic vector of the orthogonal complement
    of the embedded lattice, given in ambient coordinates.  The form
    descends to the quotient because f lies in the radical of the
    restriction; the result has rank = ambient rank - rank(L) - 2.
    """
    amb = emb.ambient
    fv = [int(x) for x in f]
    if amb.q(fv) != 0:
        raise NotIsotropic(f"<f, f> = {amb.q(fv)} != 0")
    comp = orthogonal_complement(emb)
    comp_rows = [list(v) for v in comp.image_basis]
    phi = la.integral_solve(la.transpose(comp_rows), fv)
    if phi is None:
        raise NotInComplement("f is not orthogonal to the embedded lattice")
    if la.vec_gcd(phi) != 1:
        raise NotPrimitiveVector("f is not primitive in the complement")
    comp_gram = comp.induced().gram
    pairing = [la.mat_vec([list(r) for r in comp_gram], phi)]
    sub = la.kernel_basis(pairing)
    a = la.integral_solve(la.transpose(sub), phi)
    if a is None or la.vec_gcd(a) != 1:
        raise NotPrimitiveVector("f is not primitive in its own orthogonal")
    m = la.complete_to_unimodular(a)
    new_basis = la.mat_mul(m, sub)
    quot = new_basis[1:]
    gram = [[sum(u[i] * comp_gram[i][j] * v[j]
                 for i in range(len(phi)) for j in range(len(phi)))
             for v in quot] for u in quot]
    lat = from_gram(gram, name)
    if determinant(lat) == 0:
        raise NotPrimitiveVector("degenerate quotient form; f was not primitive")
    return lat


# ---------------------------------------------------------------------------
# Canonical embeddings into the K3 lattice.
#
# Coordinates 0..21 run through the blocks H, H, H, E8(-1), E8(-1).  Rank one
# pieces <2n> (n != 0) embed as e + n*f in the next free H block; H pieces
# take a whole H block; E8(-1) pieces take an E8 block.  The default
# isotropic vector is the e-generator of the first H block untouched by the
# image, preferring the second block, then the third, then the first.
# ---------------------------------------------------------------------------

_H_BLOCKS = ((0, 1), (2, 3), (4, 5))
_E8_BLOCKS = (tuple(range(6, 14)), tuple(range(14, 22)))


def _unit(i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(22))


def canonical_embedding(pieces: Sequence[QuadLattice]) -> LatticeEmbedding:
    """Block-wise primitive embedding of a sum of standard pieces into K3."""
    amb = k3_lattice()
    free_h = list(_H_BLOCKS)
    free_e8 = list(_E8_BLOCKS)
    basis: list[tuple[int, ...]] = []
    for piece in pieces:
        if piece.gram == hyperbolic_plane().gram:
            block = free_h.pop(0)
            basis.append(_unit(block[0]))
            basis.append(_unit(block[1]))
        elif piece.gram == e8_minus().gram:
            block8 = free_e8.pop(0)
            for i in block8:
                basis.append(_unit(i))
        elif piece.rank == 1:
            n = piece.gram[0][0] // 2
            if n == 0:
                raise Degenerate("cannot embed a rank-one radical")
            block = free_h.pop(0)
            vec = [0] * 22
            vec[block[0]] = 1
            vec[block[1]] = n
            basis.append(tuple(vec))
        else:
            raise RankMismatch(
                f"no canonical embedding for piece with gram {piece.gram}")
    return LatticeEmbedding(amb, tuple(basis))


def default_isotropic_vector(emb: LatticeEmbedding) -> tuple[int, ...]:
    """The e-generator of the first untouched H block (order: 2nd, 3rd, 1st)."""
    for block in (_H_BLOCKS[1], _H_BLOCKS[2], _H_BLOCKS[0]):
        touched = any(v[block[0]] != 0 or v[block[1]] != 0 for v in emb.image_basis)
        if not touched:
            return _unit(block[0])
    raise NotInComplement("no free hyperbolic block for the default isotropic vector")


@dataclass(frozen=True)
class IsotropicSearch:
    vector: Optional[tuple[int, ...]]
    conclusive: bool

    @property
    def exists(self) -> Optional[bool]:
        if self.vector is not None:
            return True
        return False if self.conclusive else None

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "vector": list(self.vector) if self.vector is not None else None,
            "conclusive": self.conclusive,
        }


def find_isotropic(lat: QuadLattice, bound: int = 10) -> IsotropicSearch:
    """Bounded search for a primitive isotropic vector.

    Definite forms have none, so the answer is conclusive immediately.
    Otherwise (including degenerate forms, whose radical always contains
    isotropic vectors) the coefficient box [-bound, bound]^n is scanned in
    a deterministic near-to-far order; exhaustion is reported as
    inconclusive rather than as absence.
    """
    try:
        pos, neg = signature(lat)
    except Degenerate:
        pos = neg = -1
    if pos == 0 or neg == 0:
        return IsotropicSearch(None, True)
    values = [0]
    for k in range(1, bound + 1):
        values.extend((k, -k))
    for combo in itertools.product(values, repeat=lat.rank):
        if all(x == 0 for x in combo):
            continue
        if la.vec_gcd(combo) != 1:
            continue
        if lat.q(combo) == 0:
            return IsotropicSearch(tuple(combo), True)
    return IsotropicSearch(None, False)


@dataclass(frozen=True)
class MatchVerdict:
    matched: bool
    mismatches: tuple[str, ...]

    @property
    def status(self) -> str:
        return "MATCH" if self.matched else "MISMATCH"

    def to_json(self) -> dict:
        return {"status": self.status, "mismatches": list(self.mismatches)}


def invariants_match(a: QuadLattice, b: QuadLattice) -> MatchVerdict:
    """Compare (rank, signature, |det|, discriminant group and form).

    A necessary condition for isometry; for the indefinite even lattices in
    this catalog it is also sufficient by lattice uniqueness theory, which
    is documented rather than checked.
    """
    issues = []
    if a.rank != b.rank:
        issues.append(f"rank: {a.rank} != {b.rank}")
    sa, sb = signature(a), signature(b)
    if sa != sb:
        issues.append(f"signature: {sa} != {sb}")
    da, db = abs(determinant(a)), abs(determinant(b))
    if da != db:
        issues.append(f"|det|: {da} != {db}")
    if not issues:
        disc_a, disc_b = discriminant(a), discriminant(b)
        if disc_a.group != disc_b.group:
            issues.append(f"discriminant group: {disc_a.group} != {disc_b.group}")
        elif disc_a.form_values != disc_b.form_values:
            issues.append(
                f"discriminant form: {[str(v) for v in disc_a.form_values]} != "
                f"{[str(v) for v in disc_b.form_values]}")
    return MatchVerdict(not issues, tuple(issues))
