"""Quadratic lattice tests.

The Smith-form routine is property-tested against its defining equations;
discriminant form values for the rank-one fixtures are derived inline from
the dual basis (the oracle is the one-variable computation q(k e/n) =
k^2/n mod 2Z).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorcheck import errors, intlinalg as la, lattices as lt


# --- integer linear algebra ------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_smith_normal_form_properties(rows):
    u, d, v = la.smith_normal_form(rows)
    assert la.mat_mul(la.mat_mul(u, rows), v) == d
    assert abs(la.determinant(u)) == 1
    assert abs(la.determinant(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(diag) - 1):
        if diag[i] != 0:
            assert diag[i + 1] % diag[i] == 0 or diag[i + 1] == 0
        else:
            assert diag[i + 1] == 0
    for i, row in enumerate(d):
        for j, entry in enumerate(row):
            if i != j:
                assert entry == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                min_size=2, max_size=3))
def test_kernel_basis(rows):
    basis = la.kernel_basis(rows)
    for vec in basis:
        assert la.mat_vec(rows, vec) == [0] * len(rows)
    assert len(basis) == 4 - la.rank(rows)
    if basis:
        assert la.is_primitive_rows(basis)


def test_complete_to_unimodular():
    m = la.complete_to_unimodular([6, 10, 15])
    assert m[0] == [6, 10, 15]
    assert abs(la.determinant(m)) == 1


# --- constructors and invariants -------------------------------------------


def test_standard_lattices():
    assert lt.hyperbolic_plane().gram == ((0, 1), (1, 0))
    assert lt.signature(lt.hyperbolic_plane()) == (1, 1)
    assert lt.determinant(lt.hyperbolic_plane()) == -1
    e8 = lt.e8_minus()
    assert lt.signature(e8) == (0, 8)
    assert lt.determinant(e8) == 1
    assert lt.rank_one(4).gram == ((4,),)
    assert lt.standard_lattice("<4>").gram == ((4,),)
    with pytest.raises(errors.OddDiagonal):
        lt.rank_one(3)
    with pytest.raises(errors.OddDiagonal):
        lt.from_gram([[2, 0], [0, 1]])


def test_example_gram_definite():
    lat = lt.from_gram([[2, 1], [1, 2]])
    assert lt.signature(lat) == (2, 0)
    assert lt.determinant(lat) == 3


def test_direct_sums():
    m = lt.direct_sum(lt.hyperbolic_plane(), lt.e8_minus(), lt.e8_minus())
    assert m.rank == 18
    assert lt.signature(m) == (1, 17)
    k3 = lt.k3_lattice()
    assert k3.rank == 22
    assert lt.signature(k3) == (3, 19)
    assert abs(lt.determinant(k3)) == 1
    empty = lt.direct_sum()
    assert empty.rank == 0


def _sympy_inertia(gram):
    """(p, q) from the sign changes of the characteristic polynomial.

    Descartes' rule of signs counts the positive roots exactly when every
    root is real, as it is for a symmetric matrix; the negative roots are
    the positive roots of charpoly(-x).
    """
    sympy = pytest.importorskip("sympy")
    coeffs = sympy.Matrix(gram).charpoly().all_coeffs()
    n = len(coeffs) - 1

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(coeffs), changes([c * (-1) ** (n - i) for i, c in enumerate(coeffs)])


def test_signature_zero_pivot():
    # A hyperbolic plane in another basis: the first pivot is 0 and adding
    # row/col 1 with sign +1 would give 2*1 + (-2) = 0 again.
    assert lt.signature(lt.from_gram([[0, 1], [1, -2]])) == (1, 1)
    assert lt.signature(lt.from_gram([[0, 1], [1, 2]])) == (1, 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2,
                       max_size=n * (n + 1) // 2)))
@example(entries=[0, 1, -1])
@example(entries=[0, -1, 0, 1, 0, 0])
def test_signature_matches_sympy(entries):
    n = {3: 2, 6: 3, 10: 4}[len(entries)]
    gram = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        gram[i][i] = 2 * next(it)
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = next(it)
    lat = lt.from_gram(gram)
    if la.determinant(gram) == 0:
        with pytest.raises(errors.Degenerate):
            lt.signature(lat)
    else:
        assert lt.signature(lat) == _sympy_inertia(gram)


def test_degenerate_rejected():
    zero = lt.from_gram([[0]])
    with pytest.raises(errors.Degenerate):
        lt.signature(zero)
    with pytest.raises(errors.Degenerate):
        lt.discriminant(zero)


# --- discriminant forms ----------------------------------------------------


def test_discriminant_rank_one_oracle():
    # Dual basis e/4 in <-4>: q(k e/4) = -k^2/4 mod 2Z for k = 0..3.
    oracle = sorted(Fraction(-k * k, 4) % 2 for k in range(4))
    data = lt.discriminant(lt.rank_one(-4))
    assert data.group == (4,)
    assert list(data.form_values) == oracle == [0, 1, Fraction(7, 4), Fraction(7, 4)]


def test_discriminant_a1_minus():
    data = lt.discriminant(lt.a1_minus())
    assert data.group == (2,)
    assert list(data.form_values) == [0, Fraction(3, 2)]


def test_discriminant_unimodular_trivial():
    assert lt.discriminant(lt.hyperbolic_plane()).group == ()
    assert lt.discriminant(lt.k3_lattice()).group == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(-8, 8), st.integers(-4, 4), st.integers(-8, 8))
def test_discriminant_order_equals_det(a, b, c):
    gram = [[2 * a, b], [b, 2 * c]]
    det = la.determinant(gram)
    if det == 0:
        return
    data = lt.discriminant(lt.from_gram(gram))
    order = 1
    for f in data.group:
        order *= f
    assert order == abs(det)
    assert len(data.form_values) == order


# --- embeddings and complements --------------------------------------------


def test_embedding_requires_primitive():
    amb = lt.k3_lattice()
    doubled = [0] * 22
    doubled[0] = 2
    with pytest.raises(errors.NotPrimitive):
        lt.LatticeEmbedding(amb, (tuple(doubled),))


def test_complement_of_rank_one_two():
    emb = lt.canonical_embedding([lt.rank_one(2)])
    comp = lt.orthogonal_complement(emb).induced()
    target = lt.direct_sum(lt.hyperbolic_plane(), lt.hyperbolic_plane(),
                           lt.e8_minus(), lt.e8_minus(), lt.a1_minus())
    assert lt.invariants_match(comp, target).matched
    assert comp.rank == 21


def test_complement_blockwise():
    emb = lt.canonical_embedding([lt.hyperbolic_plane()])
    comp = lt.orthogonal_complement(emb).induced()
    target = lt.direct_sum(lt.hyperbolic_plane(), lt.hyperbolic_plane(),
                           lt.e8_minus(), lt.e8_minus())
    assert lt.invariants_match(comp, target).matched
    m = lt.canonical_embedding([lt.hyperbolic_plane(), lt.e8_minus(), lt.e8_minus()])
    comp_m = lt.orthogonal_complement(m).induced()
    assert lt.invariants_match(
        comp_m, lt.direct_sum(lt.hyperbolic_plane(), lt.hyperbolic_plane())).matched


def test_double_complement_matches_original():
    emb = lt.canonical_embedding([lt.rank_one(2)])
    comp = lt.orthogonal_complement(emb)
    back = lt.orthogonal_complement(comp).induced()
    assert lt.invariants_match(back, lt.rank_one(2)).matched


# --- the mirror construction -----------------------------------------------


MIRROR_CASES = [
    ("H", ["H", "E8(-1)", "E8(-1)"]),
    ("<2>", ["H", "E8(-1)", "E8(-1)", "A1(-1)"]),
    ("<4>", ["H", "E8(-1)", "E8(-1)", "<-4>"]),
]


@pytest.mark.parametrize("spec,target_specs", MIRROR_CASES)
def test_dn_mirror_catalog(spec, target_specs):
    lat = lt.standard_lattice(spec)
    emb = lt.canonical_embedding([lat])
    f = lt.default_isotropic_vector(emb)
    mirror = lt.dn_mirror(emb, f)
    target = lt.direct_sum(*(lt.standard_lattice(s) for s in target_specs))
    verdict = lt.invariants_match(mirror, target)
    assert verdict.matched, verdict.mismatches
    assert mirror.rank == 20 - lat.rank


@pytest.mark.parametrize("pieces,expected", [
    (["H", "E8(-1)", "E8(-1)"], "H"),
    (["H", "E8(-1)", "E8(-1)", "A1(-1)"], "<2>"),
    (["H", "E8(-1)", "E8(-1)", "<-4>"], "<4>"),
])
def test_dn_mirror_round_trip(pieces, expected):
    emb = lt.canonical_embedding([lt.standard_lattice(s) for s in pieces])
    f = lt.default_isotropic_vector(emb)
    back = lt.dn_mirror(emb, f)
    assert lt.invariants_match(back, lt.standard_lattice(expected)).matched


def test_dn_mirror_input_errors():
    emb = lt.canonical_embedding([lt.rank_one(2)])
    not_isotropic = [0] * 22
    not_isotropic[2] = 1
    not_isotropic[3] = 1
    with pytest.raises(errors.NotIsotropic):
        lt.dn_mirror(emb, not_isotropic)
    in_image_direction = [0] * 22
    in_image_direction[0] = 1
    with pytest.raises(errors.NotInComplement):
        lt.dn_mirror(emb, in_image_direction)
    doubled = [0] * 22
    doubled[2] = 2
    with pytest.raises(errors.NotPrimitiveVector):
        lt.dn_mirror(emb, doubled)


# --- isotropic search -------------------------------------------------------


def test_isotropic_definite_conclusive():
    result = lt.find_isotropic(lt.from_gram([[2, 1], [1, 2]]))
    assert result.vector is None and result.conclusive
    assert result.exists is False


def test_isotropic_hyperbolic():
    result = lt.find_isotropic(lt.hyperbolic_plane())
    assert result.vector == (0, 1)
    assert result.conclusive


def test_isotropic_h_plus_minus4():
    lat = lt.direct_sum(lt.hyperbolic_plane(), lt.rank_one(-4))
    result = lt.find_isotropic(lat, bound=2)
    assert result.vector is not None
    assert lat.q(result.vector) == 0
    assert la.vec_gcd(result.vector) == 1


def test_isotropic_inconclusive():
    # 2a^2 = 4b^2 has no nonzero integer solutions, but the search cannot
    # know that; exhaustion must be reported as inconclusive.
    lat = lt.direct_sum(lt.rank_one(2), lt.rank_one(-4))
    result = lt.find_isotropic(lat, bound=3)
    assert result.vector is None and not result.conclusive
    assert result.exists is None


# --- invariant comparison ---------------------------------------------------


def test_invariants_match_mismatch_rank():
    a = lt.direct_sum(lt.hyperbolic_plane(), lt.e8_minus(), lt.e8_minus())
    b = lt.direct_sum(a, lt.a1_minus())
    verdict = lt.invariants_match(a, b)
    assert not verdict.matched
    assert any("rank" in m for m in verdict.mismatches)


def test_invariants_match_cubic_fourfold_example():
    # Transcendental lattice of the two-cubics fibre: rank 2, det 3,
    # embedded primitively in the K3 lattice; adding a hyperbolic plane to
    # its complement matches E8(-1)^2 + H^2 + [[-2,-1],[-1,-2]].
    amb = lt.k3_lattice()
    v1 = [0] * 22
    v1[0] = 1
    v1[1] = 1
    v2 = [0] * 22
    v2[1] = 1
    v2[2] = 1
    v2[3] = 1
    emb = lt.LatticeEmbedding(amb, (tuple(v1), tuple(v2)))
    assert emb.induced().gram == ((2, 1), (1, 2))
    comp = lt.orthogonal_complement(emb).induced()
    a = lt.direct_sum(lt.e8_minus(), lt.e8_minus(), lt.hyperbolic_plane(),
                      lt.hyperbolic_plane(), lt.from_gram([[-2, -1], [-1, -2]]))
    b = lt.direct_sum(lt.hyperbolic_plane(), comp)
    verdict = lt.invariants_match(a, b)
    assert verdict.matched, verdict.mismatches


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
@example(entries=[0, -1, 0, 1, 0, 0])
def test_isotropic_postconditions_random(entries):
    # Random even symmetric 3x3 gram; any found vector must be isotropic
    # and primitive, and definite forms must come back conclusive-None.
    a, b, c, d, e, f = entries
    gram = [[2 * a, b, c], [b, 2 * d, e], [c, e, 2 * f]]
    lat = lt.from_gram(gram)
    result = lt.find_isotropic(lat, bound=2)
    if result.vector is not None:
        assert lat.q(result.vector) == 0
        assert la.vec_gcd(result.vector) == 1
    pos, neg = 0, 0
    try:
        pos, neg = lt.signature(lat)
    except errors.Degenerate:
        return
    if pos == 0 or neg == 0:
        assert result.vector is None and result.conclusive
