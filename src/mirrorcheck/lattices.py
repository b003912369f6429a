"""Even integral quadratic forms and the Dolgachev-Nikulin mirror lattice.

Lattices are given by symmetric even Gram matrices over Z.  The module
provides the standard building blocks (hyperbolic plane, negative E8, rank
one even forms), primitive embeddings into the K3 lattice H^3 + E8(-1)^2,
orthogonal complements, discriminant forms, bounded isotropic-vector
search, and the mirror construction

    L-check = (Zf)^perp in L^perp, modulo Zf,

for a primitive isotropic f in the orthogonal complement of L.

Every invariant is computed over the integers, one orthogonal block at a
time.  The blocks are the connected components of the Gram matrix's nonzero
pattern; their indices need not be contiguous, and a dense Gram matrix is
one block.  Each lattice is split once, and each block is eliminated once:
one fraction-free symmetric elimination, a chain of unimodular congruences,
gives its leading minors D_1, ..., D_n, kept in the lattice's ``_cache``
with the split.  A direct sum takes no split of its own: it carries its
summands' blocks, the same matrices and minors, so the standard pieces H,
E8(-1) and A1(-1), built and split once at import with K3, serve every
spec'd sum.  The signs of D_k D_{k+1} give a block's signature and D_n its
determinant.  The discriminant group takes one Smith form per block, which
a unimodular block (|det| = 1, such as H or E8(-1)) skips: its group is
trivial.  The blocks' inertias add, their determinants multiply, and the
cyclic orders of their discriminant generators become invariant factors by
pairwise gcd/lcm.  The discriminant form adds over the blocks: each block's
values, over its own generators, are counted as integers mod 2N^2, and the
counts combine as a sumset, kept as sorted (residue, count) pairs over N^2;
the module holds no rationals.  Kernels and the primitivity of a given
embedding come from Smith forms of the whole matrix;
``canonical_embedding``'s basis is a direct summand by construction and
takes none.  Congruences ``B G B^T``, taken as ``B (B G)^T``, and the mirror
construction's products add rows of the right factor at the nonzero
entries of the left one (``intlinalg._sparse_mul``).  The lattices the
module builds itself (those pieces, sums, induced forms, the mirror
quotient) skip the input conversion of ``from_gram`` but keep the
square/even/symmetric check, which a square, symmetric, even matrix of int
tuples passes in C-level passes.

Isomorphism testing is limited to invariant comparison (rank, signature,
determinant, discriminant group and form), a necessary condition for
isometry.  Whether a lattice is unique in its genus (Nikulin 1979, Cor.
1.13.3), which would make it sufficient, is not checked; ROADMAP.md item 5
queues that check.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from operator import getitem
from typing import Optional, Sequence

from .errors import (
    BudgetExceeded,
    Degenerate,
    DimensionMismatch,
    InputError,
    NotInComplement,
    NotIsotropic,
    NotPrimitive,
    NotPrimitiveVector,
    OddDiagonal,
    RankMismatch,
)
from . import intlinalg as la
from ._cache import cached

Gram = tuple[tuple[int, ...], ...]

# Bourbaki numbering: chain 1-3-4-5-6-7-8 with node 2 hanging off node 4.
_E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))

_DISC_ENUMERATION_CAP = 65536
# Box positions, in scan order, that find_isotropic may pass before it gives up.
_ISOTROPIC_SCAN_CAP = 2 ** 18


@dataclass(frozen=True)
class QuadLattice:
    """An even symmetric bilinear form over Z.

    ``signature``, ``determinant`` and ``discriminant`` compute their value
    once per lattice and keep it in ``_cache`` (see ``_cache.cached``),
    next to the orthogonal blocks and their leading minors that they read.
    A call that raises keeps no value of its own, so it raises again next
    time.  The kept values are plain data with no reference back to the
    lattice.
    """

    gram: Gram
    name: Optional[str] = None
    _cache: dict = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        gram = self.gram
        n = len(gram)
        # A Gram matrix of int tuples that is square, symmetric and even
        # passes in C-level passes; any other runs the row scan below, which
        # names the first fault.
        try:
            if (all(map(n.__eq__, map(len, gram))) and gram == tuple(zip(*gram))
                    and not any(x % 2 for x in map(getitem, gram, range(n)))):
                return
        except TypeError:
            pass
        for i, row in enumerate(gram):
            if len(row) != n:
                raise RankMismatch("gram matrix is not square")
            if row[i] % 2 != 0:
                raise OddDiagonal(f"diagonal entry {row[i]} at {i} is odd")
            try:
                for j in range(n):
                    if row[j] != gram[j][i]:
                        raise RankMismatch("gram matrix is not symmetric")
            except IndexError:  # a later row j shorter than i + 1
                raise RankMismatch("gram matrix is not square") from None

    @property
    def rank(self) -> int:
        return len(self.gram)

    def bilinear(self, u: Sequence[int], v: Sequence[int]) -> int:
        return la.dot(u, la.mat_vec(self.gram, v))

    def q(self, v: Sequence[int]) -> int:
        return self.bilinear(v, v)

    def to_json(self) -> dict:
        data = {"gram": [list(r) for r in self.gram]}
        if self.name:
            data["name"] = self.name
        return data


def from_gram(gram: Sequence[Sequence[int]], name: Optional[str] = None) -> QuadLattice:
    return QuadLattice(la.as_int_rows(gram), name)


def _lattice(rows: Sequence[Sequence[int]], name: Optional[str] = None) -> QuadLattice:
    """A lattice on a Gram matrix of ints this module built itself: no
    ``as_int`` per entry, but the square/even/symmetric check still runs."""
    return QuadLattice(tuple(map(tuple, rows)), name)


def direct_sum(*lattices: QuadLattice, name: Optional[str] = None) -> QuadLattice:
    """The orthogonal sum, carrying its summands' orthogonal blocks: the
    sum's ``_blocks`` are theirs, in summand order, the same matrices and
    minors, so a sum takes no split and no elimination of its own."""
    n = sum(lat.rank for lat in lattices)
    gram = []
    offset = 0
    for lat in lattices:
        left, right = (0,) * offset, (0,) * (n - offset - lat.rank)
        gram.extend(left + tuple(row) + right for row in lat.gram)
        offset += lat.rank
    if name is None and lattices and all(lat.name for lat in lattices):
        name = "+".join(lat.name for lat in lattices)
    total = _lattice(gram, name)
    total._cache["_blocks"] = tuple(itertools.chain.from_iterable(map(_blocks, lattices)))
    return total


def hyperbolic_plane() -> QuadLattice:
    return _STANDARD["H"]


def e8_minus() -> QuadLattice:
    return _STANDARD["E8(-1)"]


def a1_minus() -> QuadLattice:
    return _STANDARD["A1(-1)"]


def k3_lattice() -> QuadLattice:
    return _STANDARD["K3"]


def rank_one(n: int) -> QuadLattice:
    n = la.as_int(n)
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
        if s in _STANDARD:
            return _STANDARD[s]
        if s.startswith("<") and s.endswith(">"):
            try:
                n = la.strict_int(s[1:-1])
            except ValueError:
                raise InputError(f"lattice spec {spec!r} needs an integer in <n>") from None
            return rank_one(n)
        raise InputError(f"unknown lattice spec {spec!r}")
    return from_gram(spec)


@cached
def _blocks(lat: QuadLattice) -> tuple[tuple[list[list[int]], tuple[int, ...]], ...]:
    """The orthogonal blocks of the Gram matrix: for each connected
    component of its nonzero pattern, by smallest index, the block's Gram
    matrix on its sorted indices and its ``_minors``.  A dense Gram matrix
    is one block.  Split and eliminated once per lattice, or carried over
    from the summands of a ``direct_sum``; ``signature``, ``determinant``
    and ``discriminant`` all read it."""
    gram = lat.gram
    ks = range(len(gram))
    support = [list(itertools.compress(ks, row)) for row in gram]
    seen = [False] * len(gram)
    blocks = []
    for start in ks:
        if seen[start]:
            continue
        seen[start] = True
        index, stack = [], [start]
        while stack:
            i = stack.pop()
            index.append(i)
            for j in support[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        index.sort()
        block = [[gram[i][j] for j in index] for i in index]
        blocks.append((block, _minors(block)))
    return tuple(blocks)


def _minors(gram: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The leading minors D_1, D_2, ... of a Gram matrix unimodularly
    congruent to ``gram``, by fraction-free symmetric elimination.

    On the Bareiss pattern, step k pivots on D_{k+1}, and each ``//`` by
    D_k is exact.  A zero pivot is fixed by adding s times row and column
    j > k to row and column k, a congruence of determinant 1, so the last
    minor D_n is the determinant.  A trailing row of zeros means the form
    is degenerate: the chain ends there, at its first 0.
    """
    n = len(gram)
    m = [list(row) for row in gram]
    minors = []
    prev = 1
    for k in range(n):
        pr = m[k]
        if not pr[k]:
            j = next((j for j in range(k + 1, n) if pr[j]), None)
            if j is None:
                minors.append(0)
                break
            # Adding s times row/col j makes the diagonal 2*s*m[k][j] + m[j][j];
            # the two signs differ by 4*m[k][j] != 0, so one of them is nonzero.
            s = 1 if 2 * pr[j] + m[j][j] else -1
            for c in range(k, n):
                pr[c] += s * m[j][c]
            for row in m[k:]:
                row[k] += s * row[j]
        pv = pr[k]
        minors.append(pv)
        for row in m[k + 1:]:
            f = row[k]
            for c in range(k + 1, n):
                row[c] = (pv * row[c] - f * pr[c]) // prev
        prev = pv
    return tuple(minors)


def _standard_pieces() -> dict[str, QuadLattice]:
    h = _lattice([[0, 1], [1, 0]], "H")
    gram = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in _E8_EDGES:
        gram[a - 1][b - 1] = gram[b - 1][a - 1] = 1
    e8 = _lattice(gram, "E8(-1)")
    a1 = _lattice([[-2]], "A1(-1)")
    _blocks(a1)  # split here, as the K3 sum splits H and E8(-1)
    return {"H": h, "E8(-1)": e8, "A1(-1)": a1, "K3": direct_sum(h, h, h, e8, e8, name="K3")}


# The standard pieces by spec name, built once, at import, and shared with
# their _cache; built after ``_blocks``, which the K3 sum reads from them.
_STANDARD = _standard_pieces()


@cached
def signature(lat: QuadLattice) -> tuple[int, int]:
    """Inertia (p, q), the sum of the inertias of the orthogonal blocks.

    By Sylvester and Jacobi, each step of a block's ``_minors`` chain adds
    a positive square if D_k D_{k+1} > 0 and a negative one if not, with
    D_0 = 1.  A chain that ends in 0 means the block, and so the form, is
    degenerate.
    """
    pos = neg = 0
    for _, minors in _blocks(lat):
        if not minors[-1]:
            raise Degenerate("the form is degenerate")
        p = sum(a * b > 0 for a, b in zip((1,) + minors, minors))
        pos, neg = pos + p, neg + len(minors) - p
    return pos, neg


@cached
def determinant(lat: QuadLattice) -> int:
    """The product of the orthogonal blocks' last leading minors."""
    return math.prod(minors[-1] for _, minors in _blocks(lat))


def _congruent(gram: Sequence[Sequence[int]],
               basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """The Gram matrix ``B G B^T`` of the form ``G`` on the rows of ``B``,
    taken as ``B (B G)^T`` (G is symmetric), so that both products run over
    the nonzeros of ``B``, which are few for the bases built here."""
    return la._sparse_mul(basis, la.transpose(la._sparse_mul(basis, gram)))


def _invariant_factors(orders: Sequence[int]) -> list[int]:
    """The invariant factors d_1 | d_2 | ... > 1 of a sum of cyclic groups
    of the given orders: each pair (a, b), in turn, becomes (gcd, lcm)."""
    fs = list(orders)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            g = math.gcd(fs[i], fs[j])
            fs[i], fs[j] = g, fs[i] * fs[j] // g
    return [f for f in fs if f > 1]


@dataclass(frozen=True)
class DiscriminantData:
    """Invariant factors and discriminant form of an even lattice, in integers.

    With N the group's exponent (1 if trivial), ``form_counts`` counts the
    elements x by q(x) = residue / N^2 in Q/2Z: sorted (residue, count) pairs,
    0 <= residue < 2 N^2.  Equal groups share ``denominator`` = N^2, so their
    forms compare by pairs; ``to_json`` prints each value as ``Fraction`` would.
    """

    group: tuple[int, ...]
    denominator: int
    form_counts: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        den, values = self.denominator, []
        for x, cx in self.form_counts:
            g = math.gcd(x, den)
            values += [f"{x // g}/{den // g}" if den != g else str(x // g)] * cx
        return {"group": list(self.group), "form_values": values}


def _block_values(w: Sequence[Sequence[int]], ranges: Sequence[range], mod: int) -> Counter:
    """The multiset of a^T W a mod ``mod`` over a in the product of
    ``ranges``, read one fibre at a time by ``_fibres``, as
    ``find_isotropic`` reads its box: each value a few integer products."""
    a, last = w[-1][-1], ranges[-1]
    values = Counter()
    for _, half_b, c, _ in _fibres(w, ranges):
        values.update((c + t * (2 * half_b + a * t)) % mod for t in last)
    return values


@cached
def discriminant(lat: QuadLattice) -> DiscriminantData:
    """The group L*/L and the counted values of its form q mod 2Z.

    L*/L is the orthogonal sum of its blocks' groups, and q adds over it.
    |L*/L| = |det|, so a group above the enumeration cap raises
    ``BudgetExceeded`` before any Smith form, and a unimodular block
    (|det| = 1, such as H or E8(-1)) adds nothing and takes no Smith form.
    Every other block takes one Smith form ``u G v = D`` of its own Gram
    matrix G, whose invariant factors must multiply to the block's own
    |det|; the columns ``g_i`` of ``v`` at the invariant factors d_i > 1
    make ``g_i / d_i`` generate cyclic summands of orders d_i, and W, the
    integer Gram matrix of the ``g_i`` under G, is the block's form on
    them.  All the blocks' orders, brought to invariant factors by pairwise
    gcd/lcm, are the group.  Over the common denominator N, the lcm of the
    orders, a block's element is ``sum a_i g_i / N`` with ``a_i`` a
    multiple of N/d_i below N, and q = a^T W a / N^2.  Each block's values
    a^T W a mod 2 N^2 are counted as integers, and the blocks' counts combine
    as a sumset mod 2 N^2 into the form's (residue, count) pairs.
    """
    det = determinant(lat)
    if det == 0:
        raise Degenerate("discriminant needs a nondegenerate lattice")
    if abs(det) > _DISC_ENUMERATION_CAP:
        raise BudgetExceeded(
            f"discriminant group of order {abs(det)} exceeds enumeration cap")
    parts = []
    for block, minors in _blocks(lat):
        if abs(minors[-1]) == 1:
            continue
        _, d, v, _ = la.smith_normal_form(block)
        kept = [k for k in range(len(block)) if d[k][k] > 1]
        orders = [d[k][k] for k in kept]
        if math.prod(orders) != abs(minors[-1]):
            raise Degenerate("invariant factors inconsistent with determinant")
        gens = [[row[k] for row in v] for k in kept]
        parts.append((_congruent(block, gens), orders))
    orders = [f for _, own in parts for f in own]
    den = math.lcm(*orders)
    mod = 2 * den * den
    counts = Counter({0: 1})
    for w, own in parts:
        values = _block_values(w, [range(0, den, den // f) for f in own], mod)
        sums = Counter()
        for x, cx in counts.items():
            for y, cy in values.items():
                sums[(x + y) % mod] += cx * cy
        counts = sums
    return DiscriminantData(
        tuple(_invariant_factors(orders)), den * den, tuple(sorted(counts.items())))


@dataclass(frozen=True)
class LatticeEmbedding:
    """A primitive embedding of a lattice into an ambient lattice."""

    ambient: QuadLattice
    image_basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.image_basis
        if rows:
            if any(len(v) != self.ambient.rank for v in rows):
                raise RankMismatch("embedding vectors of wrong length")
            # Invariant factors: one 0 or missing, dependent; one > 1, no summand.
            _, d, _, _ = la.smith_normal_form(rows)
            factors = [d[i][i] for i in range(min(len(rows), self.ambient.rank))]
            if len(factors) < len(rows) or 0 in factors:
                raise NotPrimitive("image basis is not linearly independent")
            if any(x != 1 for x in factors):
                raise NotPrimitive("image is not a direct summand of the ambient lattice")

    @classmethod
    def _saturated(cls, ambient: QuadLattice,
                   image_basis: tuple[tuple[int, ...], ...]) -> "LatticeEmbedding":
        """An embedding of a basis known to span a direct summand, built
        without the Smith-form check: a saturated kernel basis (complements)
        or ``canonical_embedding``'s block-wise basis.  Embeddings a user
        gives go through the checked constructor."""
        emb = object.__new__(cls)
        object.__setattr__(emb, "ambient", ambient)
        object.__setattr__(emb, "image_basis", image_basis)
        return emb

    @property
    def rank(self) -> int:
        return len(self.image_basis)

    def induced(self) -> QuadLattice:
        return _lattice(_congruent(self.ambient.gram, self.image_basis))


def _complement_transform(emb: LatticeEmbedding):
    """The orthogonal complement of ``emb`` with the ``w`` and r of its
    ``intlinalg._kernel_transform``.  A saturated kernel basis spans a
    direct summand, so the embedding skips its primitivity check."""
    amb = emb.ambient
    basis, w, r = la._kernel_transform(la._sparse_mul(emb.image_basis, amb.gram), amb.rank)
    return LatticeEmbedding._saturated(amb, tuple(map(tuple, basis))), w, r


def orthogonal_complement(emb: LatticeEmbedding) -> LatticeEmbedding:
    """Primitive embedding of everything orthogonal to the image (the whole
    ambient lattice when the image is empty)."""
    return _complement_transform(emb)[0]


def dn_mirror(emb: LatticeEmbedding, f: Sequence[int]) -> QuadLattice:
    """Mirror lattice (Zf)^perp / Zf inside the orthogonal complement.

    ``f`` must be a primitive isotropic vector of the orthogonal complement
    of the embedded lattice, given in ambient coordinates, one per ambient
    basis vector.  The form descends to the quotient because f lies in the
    radical of the restriction; the result has rank = ambient rank -
    rank(L) - 2.

    Three Smith forms and their ``w = v^-1`` (see
    ``intlinalg._kernel_transform``) do all the solving:

    1. on ``image_basis @ G``: its kernel is the complement; f is
       orthogonal to the image iff the first r entries of ``w f`` are 0,
       and the rest are the coordinates phi of f in the complement;
    2. on ``[phi] @ G_comp``: its kernel ``sub`` is (Z phi)^perp in the
       complement, and the trailing entries of ``w phi`` are the
       coordinates a of phi in ``sub``;
    3. on ``[a]``, in ``complete_to_unimodular``: the first row of its ``w``
       is +-a, so ``w`` with that row signed to a turns ``sub`` into a
       basis whose first vector is phi; the other vectors span the quotient.
    """
    amb = emb.ambient
    fv = [la.as_int(x) for x in f]
    if len(fv) != amb.rank:
        raise DimensionMismatch(
            f"f has {len(fv)} entries, the ambient lattice has rank {amb.rank}")
    if amb.q(fv) != 0:
        raise NotIsotropic(f"<f, f> = {amb.q(fv)} != 0")
    comp, w, r = _complement_transform(emb)
    wf = la.mat_vec(w, fv)
    if any(wf[:r]):
        raise NotInComplement("f is not orthogonal to the embedded lattice")
    phi = wf[r:]
    if la.vec_gcd(phi) != 1:
        raise NotPrimitiveVector("f is not primitive in the complement")
    comp_gram = comp.induced().gram
    sub, w, r = la._kernel_transform(la._sparse_mul([phi], comp_gram), len(phi))
    wphi = la.mat_vec(w, phi)
    a = wphi[r:]
    if any(wphi[:r]) or la.vec_gcd(a) != 1:
        raise NotPrimitiveVector("f is not primitive in its own orthogonal")
    quot = la._sparse_mul(la.complete_to_unimodular(a), sub)[1:]
    lat = _lattice(_congruent(comp_gram, quot))
    if determinant(lat) == 0:
        # f is primitive and isotropic here, so (Zf)^perp / Zf is degenerate
        # only when the complement's radical is not inside Qf.
        raise Degenerate("degenerate quotient form: the orthogonal complement "
                         "has a radical outside Zf")
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


def _take_free(free: list, kind: str, k: int, piece: QuadLattice) -> tuple[int, ...]:
    """The next free block of ``kind`` for the k-th piece, or a
    ``RankMismatch`` naming the piece when the K3 lattice has none left."""
    if not free:
        label = piece.name or f"gram {piece.gram}"
        raise RankMismatch(
            f"piece {k} ({label}) finds no free {kind} block left in the K3 lattice")
    return free.pop(0)


def canonical_embedding(pieces: Sequence[QuadLattice]) -> LatticeEmbedding:
    """Block-wise primitive embedding of a sum of standard pieces into K3.

    Pieces take free blocks of the shared K3 lattice in order; a piece that
    finds none of its kind left raises ``RankMismatch``.  The basis, unit
    vectors and e + n*f vectors in pairwise disjoint blocks, each primitive,
    spans a direct summand by construction and takes no Smith-form check."""
    free_h = list(_H_BLOCKS)
    free_e8 = list(_E8_BLOCKS)
    basis: list[tuple[int, ...]] = []
    for k, piece in enumerate(pieces, 1):
        if piece.gram == _STANDARD["H"].gram:
            basis.extend(map(_unit, _take_free(free_h, "H", k, piece)))
        elif piece.gram == _STANDARD["E8(-1)"].gram:
            basis.extend(map(_unit, _take_free(free_e8, "E8(-1)", k, piece)))
        elif piece.rank == 1:
            n = piece.gram[0][0] // 2
            if n == 0:
                raise Degenerate("cannot embed a rank-one radical")
            e, f = _take_free(free_h, "H", k, piece)
            basis.append(tuple(1 if i == e else n if i == f else 0 for i in range(22)))
        else:
            raise RankMismatch(
                f"no canonical embedding for piece with gram {piece.gram}")
    return LatticeEmbedding._saturated(_STANDARD["K3"], tuple(basis))


def default_isotropic_vector(emb: LatticeEmbedding) -> tuple[int, ...]:
    """The e-generator of the first untouched H block (order: 2nd, 3rd, 1st).

    Defined for the K3 ambient only; any other ambient raises
    ``InputError``, since f must then be given."""
    if emb.ambient.gram != _STANDARD["K3"].gram:
        raise InputError(
            "the default isotropic vector is defined for the K3 ambient only; give f")
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


def _scan_position(t: int) -> int:
    """Where t falls in the scan order 0, 1, -1, 2, -2, ... of a coordinate."""
    return 2 * abs(t) - (t > 0)


def _fibre_root(a: int, b: int, c: int, g: int, top: int) -> Optional[int]:
    """The integer root t of a*t^2 + b*t + c that comes first in scan order
    among those with |t| <= top and gcd(g, t) = 1, or None."""
    if a == 0 and b == 0:
        if c:
            return None
        # Every t is a root: 0 if the prefix is primitive, else 1 if in the box.
        return 0 if g == 1 else (1 if top else None)
    if a == 0:
        t, r = divmod(-c, b)
        roots = () if r else (t,)
    else:
        disc = b * b - 4 * a * c
        if disc < 0:
            return None
        s = math.isqrt(disc)
        if s * s != disc:
            return None
        roots = [num // (2 * a) for num in (-b + s, -b - s) if num % (2 * a) == 0]
    return min((t for t in roots if abs(t) <= top and math.gcd(g, t) == 1),
               key=_scan_position, default=None)


def _fibres(gram: Sequence[Sequence[int]], ranges: Sequence[Sequence[int]]):
    """``(x', B / 2, C, gcd(x'))`` for each prefix x' of the first n - 1
    coordinates, coordinate i running over ``ranges[i]``, in
    ``itertools.product`` order, where q(x', t) = G[n-1][n-1] t^2 + B t + C.

    With m = n - 2, x' = (y, s): C = q0(y) + s (c1(y) + s G[m][m]) and
    B / 2 = b0(y) + s G[n-1][m], where q0(y) = q(y), c1(y) = 2 <y, G e_m>
    and b0(y) = <y, G e_{n-1}>, and gcd(x') = gcd(gcd(y), s).  So each
    outer prefix y takes three dots and each fibre none.  In rank one x'
    is empty, and so are B and C.
    """
    n = len(gram)
    if n == 1:
        yield (), 0, 0, 0
        return
    m = n - 2
    head = [row[:m] for row in gram[:m]]
    col_s = [row[m] for row in gram[:m]]
    col_t = [row[-1] for row in gram[:m]]
    g_ss, g_ts = gram[m][m], gram[-1][m]
    for y in itertools.product(*ranges[:m]):
        q0 = la.dot(y, la.mat_vec(head, y))
        c1 = 2 * la.dot(y, col_s)
        b0 = la.dot(y, col_t)
        g0 = math.gcd(*y)
        for s in ranges[m]:
            yield y + (s,), b0 + s * g_ts, q0 + s * (c1 + s * g_ss), math.gcd(g0, s)


def find_isotropic(lat: QuadLattice, bound: int = 10) -> IsotropicSearch:
    """Bounded search for a primitive isotropic vector.

    Definite forms have none, so the answer is conclusive immediately.
    Otherwise (including degenerate forms, whose radical always contains
    isotropic vectors) the coefficient box [-bound, bound]^n is searched in
    a fixed scan order: ``itertools.product`` over the coordinate values
    0, 1, -1, 2, -2, ..., and the first primitive isotropic vector in that
    order is returned.  Exhaustion is reported as inconclusive rather than
    as absence.  The box is read one fibre at a time: with the first n - 1
    coordinates x' fixed, q(x', t) = A t^2 + B t + C with A = G[n-1][n-1],
    B = 2 <x', G e_n> and C = q(x', 0), so each fibre takes one exact root
    check (``math.isqrt``) rather than 2 bound + 1 evaluations of q.  B and
    C come from ``_fibres``, which splits x' = (y, s) and pays three dots
    per outer prefix y and a few integer products per fibre, not a
    matrix-vector product per fibre.

    ``_ISOTROPIC_SCAN_CAP`` counts box positions in scan order, not
    evaluations of q: a witness at a position below the cap is returned,
    and a witness at or past it, or no witness in a box of more positions
    than the cap, raises ``BudgetExceeded``.  A negative bound names no box
    and raises ``InputError``.
    """
    bound = la.as_int(bound)
    if bound < 0:
        raise InputError(f"isotropic search bound must be nonnegative, got {bound}")
    try:
        pos, neg = signature(lat)
    except Degenerate:
        pos = neg = -1
    if pos == 0 or neg == 0:
        return IsotropicSearch(None, True)
    cap, n = _ISOTROPIC_SCAN_CAP, lat.rank
    # Values past the first 2*cap + 1 of a coordinate lie beyond the first
    # cap positions, so a huge bound builds no huge list.
    top = min(bound, cap)
    values = [0]
    for k in range(1, top + 1):
        values.extend((k, -k))
    width = len(values)
    a = lat.gram[-1][-1]
    for index, (prefix, half_b, c, g) in enumerate(_fibres(lat.gram, [values] * n)):
        start = index * width  # the box position of (prefix, 0)
        if start >= cap:
            break
        t = _fibre_root(a, 2 * half_b, c, g, top)
        if t is not None:
            if start + _scan_position(t) < cap:
                return IsotropicSearch(prefix + (t,), True)
            break
    else:
        if width ** n <= cap:
            return IsotropicSearch(None, False)
    try:
        box = f"the box [-{bound}, {bound}]^{n} ({(2 * bound + 1) ** n} candidates)"
    except ValueError:  # an integer longer than Python's conversion limit
        box = f"a box of more than 10^{sys.get_int_max_str_digits()} candidates"
    raise BudgetExceeded(f"isotropic scan of {box} exceeds the cap of {cap} candidates")


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

    A necessary condition for isometry only: uniqueness in the genus
    (Nikulin 1979, Cor. 1.13.3) is not checked (ROADMAP.md item 5).
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
        elif disc_a.form_counts != disc_b.form_counts:
            issues.append(f"discriminant form: {disc_a.to_json()['form_values']} != "
                          f"{disc_b.to_json()['form_values']}")
    return MatchVerdict(not issues, tuple(issues))
