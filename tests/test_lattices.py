"""Quadratic lattice tests.

The Smith-form routine is property-tested against its defining equations;
discriminant form values for the rank-one fixtures are derived inline from
the dual basis (the oracle is the one-variable computation q(k e/n) =
k^2/n mod 2Z), and on random even forms of rank 2-4 against a brute-force
enumeration of G^-1 Z^n mod Z^n that uses no Smith form.
"""

import ast
import gc
import inspect
import itertools
import math
import re
import sys
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mirrorcheck import errors, intlinalg as la, lattices as lt
from mirrorcheck._cache import cached

# The standard pieces, each one shared object.
H, E8, A1 = map(lt.standard_lattice, ("H", "E8(-1)", "A1(-1)"))


# --- integer linear algebra ------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_smith_normal_form_properties(rows):
    u, d, v, _ = la.smith_normal_form(rows)
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
        # A direct summand of Z^4: every invariant factor of the basis is 1.
        _, d, _, _ = la.smith_normal_form(basis)
        assert [d[i][i] for i in range(len(basis))] == [1] * len(basis)


def test_complete_to_unimodular():
    m = la.complete_to_unimodular([6, 10, 15])
    assert m[0] == [6, 10, 15]
    assert abs(la.determinant(m)) == 1
    with pytest.raises(errors.NotPrimitiveVector):
        la.complete_to_unimodular([2, 4])


# --- constructors and invariants -------------------------------------------


def test_standard_lattices():
    assert H.gram == ((0, 1), (1, 0))
    assert lt.signature(H) == (1, 1)
    assert lt.determinant(H) == -1
    assert lt.signature(E8) == (0, 8)
    assert lt.determinant(E8) == 1
    assert lt.rank_one(4).gram == ((4,),)
    assert lt.standard_lattice("<4>").gram == ((4,),)
    with pytest.raises(errors.OddDiagonal):
        lt.rank_one(3)
    with pytest.raises(errors.OddDiagonal):
        lt.from_gram([[2, 0], [0, 1]])


def test_ragged_gram_is_not_square():
    # A short later row is reported as not square, not as an IndexError;
    # rows are still checked in order, so a mismatch before it is still
    # reported first.
    for gram in ([[0, 1], []], [[0, 1, 0], [1, 0], [0, 0, 2]], [[2, 0, 0], [0]]):
        with pytest.raises(errors.RankMismatch, match="^gram matrix is not square$"):
            lt.from_gram(gram)
    with pytest.raises(errors.RankMismatch, match="^gram matrix is not symmetric$"):
        lt.from_gram([[0, 1, 5], [1, 0], [0, 0, 2]])
    with pytest.raises(errors.OddDiagonal):
        lt.from_gram([[1, 0], []])


def test_from_gram_refuses_non_integral_entries():
    # int() would truncate this to [[2, 0], [0, -2]].
    with pytest.raises(errors.InputError):
        lt.from_gram([[2.7, 0], [0, -2.9]])


def test_example_gram_definite():
    lat = lt.from_gram([[2, 1], [1, 2]])
    assert lt.signature(lat) == (2, 0)
    assert lt.determinant(lat) == 3


def test_direct_sums():
    m = lt.direct_sum(H, E8, E8)
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
@given(st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2,
                       max_size=n * (n + 1) // 2)))
@example(entries=[0, 1, -1])
@example(entries=[0, -1, 0, 1, 0, 0])
# [[2, 2, 0], [2, 2, 1], [0, 1, 0]]: det -2, inertia (2, 1); the leading
# 2 x 2 minor is 0, so the first zero pivot comes at step 1, not step 0.
@example(entries=[1, 2, 0, 1, 1, 0])
# [[0, 0, -1, -1], [0, 0, -1, 0], [-1, -1, 0, 0], [-1, 0, 0, 0]], inertia
# (2, 2): a zero-pivot fix that adds the row but not the column reads it as
# degenerate.
@example(entries=[0, 0, -1, -1, 0, -1, 0, 0, 0, 0])
def test_signature_matches_sympy(entries):
    n = {n * (n + 1) // 2: n for n in range(2, 7)}[len(entries)]
    gram = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        gram[i][i] = 2 * next(it)
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = next(it)
    lat = lt.from_gram(gram)
    assert lt.determinant(lat) == la.determinant(gram)
    if la.determinant(gram) == 0:
        with pytest.raises(errors.Degenerate):
            lt.signature(lat)
    else:
        assert lt.signature(lat) == _sympy_inertia(gram)


def _congruent_by(gram, ops):
    """U G U^T for U the product of the elementary row additions
    ``row i += c * row j`` in ``ops`` (steps with i == j are skipped)."""
    n = len(gram)
    u = la.identity(n)
    for i, j, c in ops:
        if i != j:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return la.mat_mul(la.mat_mul(u, gram), la.transpose(u))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(lt.k3_lattice(), (3, 19)),
                        (lt.direct_sum(H, E8, E8),
                         (1, 17))]),
       st.lists(st.tuples(st.integers(0, 21), st.integers(0, 21), st.integers(-2, 2)),
                max_size=80))
def test_signature_is_a_congruence_invariant(case, ops):
    # Ranks 22 and 18, out of the sympy oracle's reach: Sylvester's law of
    # inertia says any unimodular congruence keeps the signature.
    lat, inertia = case
    n = lat.rank
    gram = _congruent_by(lat.gram, [(i % n, j % n, c) for i, j, c in ops])
    congruent = lt.from_gram(gram)
    assert lt.signature(congruent) == inertia
    # A unimodular congruence keeps the determinant exactly, not only its sign.
    assert lt.determinant(congruent) == lt.determinant(lat) == -1


def test_signature_uses_no_fractions():
    # The lattice layer holds no rationals: it imports nothing from fractions.
    tree = ast.parse(inspect.getsource(lt))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in imported and not hasattr(lt, "Fraction")
    assert lt.signature(lt.k3_lattice()) == (3, 19)
    assert lt.signature(lt.from_gram([[2, 2, 0], [2, 2, 1], [0, 1, 0]])) == (2, 1)


def test_degenerate_rejected():
    zero = lt.from_gram([[0]])
    with pytest.raises(errors.Degenerate):
        lt.signature(zero)
    with pytest.raises(errors.Degenerate):
        lt.discriminant(zero)


# --- discriminant forms ----------------------------------------------------


def _discriminant_values(lat):
    """``discriminant``'s group and its form's values, the (residue, count)
    pairs expanded into one sorted ``Fraction`` per group element."""
    data = lt.discriminant(lat)
    return data.group, tuple(sorted(
        Fraction(x, data.denominator) for x, count in data.form_counts for _ in range(count)))


def test_discriminant_rank_one_oracle():
    # Dual basis e/4 in <-4>: q(k e/4) = -k^2/4 mod 2Z for k = 0..3.
    oracle = sorted(Fraction(-k * k, 4) % 2 for k in range(4))
    group, values = _discriminant_values(lt.rank_one(-4))
    assert group == (4,)
    assert list(values) == oracle == [0, 1, Fraction(7, 4), Fraction(7, 4)]


def test_discriminant_a1_minus():
    group, values = _discriminant_values(A1)
    assert group == (2,)
    assert list(values) == [0, Fraction(3, 2)]


def test_discriminant_unimodular_trivial():
    assert lt.discriminant(H).group == ()
    assert lt.discriminant(lt.k3_lattice()).group == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(-8, 8), st.integers(-4, 4), st.integers(-8, 8))
def test_discriminant_order_equals_det(a, b, c):
    gram = [[2 * a, b], [b, 2 * c]]
    det = la.determinant(gram)
    if det == 0:
        return
    group, values = _discriminant_values(lt.from_gram(gram))
    order = 1
    for f in group:
        order *= f
    assert order == abs(det)
    assert len(values) == order


def _brute_discriminant(gram):
    """Group check and sorted q-values of L*/L, with no Smith form.

    L* = G^-1 Z^n, so L*/L is every class G^-1 z mod Z^n; they are reached
    by adding the columns of G^-1 to the classes found until none is new,
    each class kept by its representative in [0, 1)^n.  Returns the count
    of classes killed by m, for each m up to |det|, and the sorted values
    x^T G x mod 2.
    """
    sympy = pytest.importorskip("sympy")
    n = len(gram)
    inv = sympy.Matrix(gram).inv()
    cols = [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for i in range(n)]
            for j in range(n)]
    zero = (Fraction(0),) * n
    classes = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for c in cols:
            y = tuple((a + b) % 1 for a, b in zip(x, c))
            if y not in classes:
                classes.add(y)
                frontier.append(y)
    det = abs(la.determinant(gram))
    killed = {m: sum(all((m * a).denominator == 1 for a in x) for x in classes)
              for m in range(1, det + 1)}
    values = sorted(sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)) % 2
                    for x in classes)
    return killed, values


@st.composite
def even_grams(draw):
    n = draw(st.integers(2, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-2, 2))
    return gram


@settings(max_examples=150, deadline=None)
@given(even_grams())
@example([[4, 0], [0, 6]])
@example([[0, 1, 0], [1, 0, 0], [0, 0, 4]])
@example([[4, 2, 2], [2, 4, 2], [2, 2, 4]])
def test_discriminant_matches_brute_force(gram):
    det = abs(la.determinant(gram))
    assume(0 < det <= 64)
    lat = lt.from_gram(gram)
    group, form = _discriminant_values(lat)
    killed, values = _brute_discriminant(gram)
    assert all(d > 1 for d in group)
    assert all(b % a == 0 for a, b in zip(group, group[1:]))
    # |A[m]| = prod gcd(m, d_i) pins the invariant factors down.
    assert killed == {m: math.prod(math.gcd(m, d) for d in group) for m in killed}
    assert list(form) == values
    # The pairs are over the exponent squared, and render as Fraction prints.
    data = lt.discriminant(lat)
    assert data.denominator == (group[-1] if group else 1) ** 2
    assert data.to_json() == {"group": list(group), "form_values": [str(v) for v in values]}


def test_discriminant_runs_one_smith_form(monkeypatch):
    calls = {"smith_normal_form": 0, "inverse_unimodular": 0}
    for name in calls:
        real = getattr(la, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(la, name, counting)
    data = lt.discriminant(lt.from_gram([[4, 2, 2], [2, 4, 2], [2, 2, 4]]))
    assert math.prod(data.group) == 32
    assert calls == {"smith_normal_form": 1, "inverse_unimodular": 0}


def test_discriminant_cap_is_a_budget():
    lat = lt.from_gram([[600, 0, 0], [0, 600, 0], [0, 0, -2]])
    with pytest.raises(errors.BudgetExceeded, match="order 720000 exceeds enumeration cap"):
        lt.discriminant(lat)


def test_discriminant_cap_is_refused_before_any_smith_form(monkeypatch):
    # |L*/L| = |det|, so the determinant alone refuses an over-cap group.
    def refuse(*args, **kwargs):
        raise AssertionError("a Smith form ran")

    monkeypatch.setattr(la, "smith_normal_form", refuse)
    lat = lt.from_gram([[600, 0, 0], [0, 600, 0], [0, 0, -2]])
    with pytest.raises(errors.BudgetExceeded,
                       match="^discriminant group of order 720000 exceeds enumeration cap$"):
        lt.discriminant(lat)


def test_rank_cap_is_a_budget_at_its_bound():
    # The cap is a rank a lattice may have: rank 256 is built, rank 257 is
    # refused, by a sum and by a Gram matrix alike.
    assert lt.direct_sum(*[H] * (lt._RANK_CAP // 2)).rank == lt._RANK_CAP
    with pytest.raises(errors.BudgetExceeded,
                       match="^a lattice of rank 257 passes the rank cap of 256$"):
        lt.direct_sum(*[H] * (lt._RANK_CAP // 2), A1)
    with pytest.raises(errors.BudgetExceeded, match="rank 257 passes"):
        lt.from_gram([[0] * 257] * 257)


def test_rank_cap_is_refused_before_the_gram_is_built(monkeypatch):
    # A 6 000-piece sum once built its 12 000 x 12 000 Gram matrix; now its
    # rank alone refuses it, at once.
    def refuse(*args, **kwargs):
        raise AssertionError("a Gram matrix was built")

    monkeypatch.setattr(lt, "_lattice", refuse)
    start = time.perf_counter()
    with pytest.raises(errors.BudgetExceeded, match="^a lattice of rank 12000 passes"):
        lt.direct_sum(*[H] * 6000)
    assert time.perf_counter() - start < 1.0


def test_gram_rank_cap_is_refused_before_its_entries_are_read(monkeypatch):
    # A 3 000 x 3 000 Gram matrix once had every entry converted before the
    # rank cap refused it; now its row count alone refuses it, at once.
    def refuse(*args, **kwargs):
        raise AssertionError("the Gram matrix's entries were read")

    monkeypatch.setattr(la, "as_int_rows", refuse)
    start = time.perf_counter()
    with pytest.raises(errors.BudgetExceeded, match="^a lattice of rank 3000 passes"):
        lt.from_gram([[0] * 3000] * 3000)
    assert time.perf_counter() - start < 0.1


def test_discriminant_budget_is_not_cached():
    # A failed computation keeps nothing: every call raises again.
    lat = lt.from_gram([[600, 0, 0], [0, 600, 0], [0, 0, -2]])
    for _ in range(3):
        with pytest.raises(errors.BudgetExceeded, match="exceeds enumeration cap"):
            lt.discriminant(lat)
    assert "discriminant" not in lat._cache
    assert lt.determinant(lat) == -720000


def test_degenerate_signature_is_not_cached():
    lat = lt.from_gram([[0, 0], [0, 2]])
    for _ in range(2):
        with pytest.raises(errors.Degenerate):
            lt.signature(lat)
    assert "signature" not in lat._cache


def test_invariants_are_computed_once_per_lattice(monkeypatch):
    fresh = lt.direct_sum(H, lt.rank_one(-4))
    calls = {"_minors": 0, "determinant": 0, "smith_normal_form": 0}
    for name in calls:
        module = lt if name == "_minors" else la
        real = getattr(module, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    lat = lt.direct_sum(H, lt.rank_one(-4))
    for _ in range(3):
        assert lt.signature(lat) == (1, 2)
        assert lt.determinant(lat) == 4
        assert lt.discriminant(lat).group == (4,)
    # The sum carries its summands' blocks: H's was eliminated at import,
    # so the one elimination is <-4>'s, and no Bareiss determinant runs;
    # the unimodular H block takes no Smith form.
    assert calls == {"_minors": 1, "determinant": 0, "smith_normal_form": 1}
    # The cache takes no part in equality, hashing or repr.
    assert lat == fresh and hash(lat) == hash(fresh) and repr(lat) == repr(fresh)


def test_invariant_cache_keeps_one_object_and_nothing_on_failure():
    # A second call returns the kept object; a call that raises leaves the
    # lattice's cache as it was.
    lat = lt.direct_sum(H, lt.rank_one(-4))
    for invariant in (lt.signature, lt.determinant, lt.discriminant):
        assert invariant(lat) is invariant(lat)
    assert set(lat._cache) == {"_blocks", "signature", "determinant", "discriminant"}
    for gram, invariant, error in [([[0, 0], [0, 2]], lt.signature, errors.Degenerate),
                                   ([[600, 0, 0], [0, 600, 0], [0, 0, -2]], lt.discriminant,
                                    errors.BudgetExceeded)]:
        bad = lt.from_gram(gram)
        lt.determinant(bad)
        before = dict(bad._cache)
        with pytest.raises(error):
            invariant(bad)
        assert bad._cache == before


def test_block_split_runs_once_per_lattice(monkeypatch):
    # signature, determinant and discriminant read one kept split.  A direct
    # sum takes none of its own: it carries the blocks of its summands, of
    # which only the fresh <-4> is split here, H and E8(-1) at import.
    calls = []
    real = lt._blocks.__wrapped__

    def _blocks(lat):
        calls.append(lat)
        return real(lat)

    monkeypatch.setattr(lt, "_blocks", cached(_blocks))
    piece = lt.rank_one(-4)
    lat = lt.direct_sum(H, E8, piece)
    whole = lt.from_gram(lat.gram)
    for target in (lat, whole):
        for _ in range(2):
            assert lt.signature(target) == (1, 10)
            assert lt.determinant(target) == 4
            assert lt.discriminant(target).group == (4,)
    assert len(calls) == 2 and calls[0] is piece and calls[1] is whole
    # The carried blocks are the ones the split finds, in the same order.
    assert lat._cache["_blocks"] == whole._cache["_blocks"]


def test_signature_alone_takes_no_determinant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a determinant ran")

    monkeypatch.setattr(la, "determinant", refuse)
    lat = lt.direct_sum(H, E8, lt.rank_one(-4))
    assert lt.signature(lat) == (1, 10)


def test_unimodular_blocks_take_no_smith_form(monkeypatch):
    sizes = []
    real = la.smith_normal_form

    def recording(m, *args, **kwargs):
        sizes.append(len(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(la, "smith_normal_form", recording)
    lat = lt.direct_sum(H, E8, lt.rank_one(-4), E8, lt.from_gram([[2, 1], [1, 2]]))
    data = lt.discriminant(lat)
    assert data.group == (12,)
    # Only <-4> and the A2 block of determinant 3 take one.
    assert sorted(sizes) == [1, 2]
    assert _discriminant_values(lt.k3_lattice()) == ((), (Fraction(0),))
    assert sorted(sizes) == [1, 2]


@pytest.mark.parametrize("wrong", [
    # One block's factors are wrong: <4> reported as Z/2.
    {(4,): 2},
    # Both are wrong, but multiply to the whole |det| 24: <4> as Z/2 and
    # <-6> as Z/12.  Only a per-block check catches this.
    {(4,): 2, (-6,): 12},
], ids=["one-block", "product-kept"])
def test_smith_factors_are_checked_against_each_block_determinant(wrong, monkeypatch):
    real = la.smith_normal_form

    def patched(m, *args, **kwargs):
        u, d, v, w = real(m, *args, **kwargs)
        if len(m) == 1 and tuple(m[0]) in wrong:
            d = [[wrong[tuple(m[0])]]]
        return u, d, v, w

    monkeypatch.setattr(la, "smith_normal_form", patched)
    lat = lt.from_gram([[4, 0], [0, -6]])
    with pytest.raises(errors.Degenerate,
                       match="^invariant factors inconsistent with determinant$"):
        lt.discriminant(lat)
    assert "discriminant" not in lat._cache


def test_lattice_with_cached_invariants_is_freed_without_the_collector():
    # The cached values hold no reference back to the lattice, so
    # reference counting alone frees it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        lat = lt.direct_sum(H, E8, lt.rank_one(-4))
        alive = weakref.ref(lat)
        lt.signature(lat), lt.determinant(lat), lt.discriminant(lat)
        assert set(lat._cache) == {"_blocks", "signature", "determinant", "discriminant"}
        del lat
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


# --- invariants of orthogonal blocks against the whole matrix --------------


def _whole_signature(gram):
    """The inertia by one fraction-free symmetric elimination of the whole
    Gram matrix, as ``signature`` ran before it split off blocks."""
    n = len(gram)
    m = [list(row) for row in gram]
    pos = neg = 0
    prev = 1
    for k in range(n):
        pr = m[k]
        if not pr[k]:
            j = next((j for j in range(k + 1, n) if pr[j]), None)
            if j is None:
                raise errors.Degenerate("the form is degenerate")
            s = 1 if 2 * pr[j] + m[j][j] else -1
            for c in range(k, n):
                pr[c] += s * m[j][c]
            for row in m[k:]:
                row[k] += s * row[j]
        pv = pr[k]
        if pv * prev > 0:
            pos += 1
        else:
            neg += 1
        for row in m[k + 1:]:
            f = row[k]
            for c in range(k + 1, n):
                row[c] = (pv * row[c] - f * pr[c]) // prev
        prev = pv
    return pos, neg


def _whole_discriminant(gram):
    """The group and form values from one Smith form of the whole Gram
    matrix, as ``discriminant`` ran before it split off blocks."""
    det = la.determinant(gram)
    if det == 0:
        raise errors.Degenerate("discriminant needs a nondegenerate lattice")
    _, d, v, _ = la.smith_normal_form(gram)
    diag = [d[i][i] for i in range(len(gram))]
    factors = [di for di in diag if di > 1]
    order = math.prod(factors)
    if order != abs(det):
        raise errors.Degenerate("invariant factors inconsistent with determinant")
    if order > lt._DISC_ENUMERATION_CAP:
        raise errors.BudgetExceeded(
            f"discriminant group of order {order} exceeds enumeration cap")
    gens = [g for g, di in zip(la.transpose(v), diag) if di > 1]
    w = la.mat_mul(la.mat_mul(gens, gram), la.transpose(gens))
    den = factors[-1] if factors else 1
    values = sorted(Fraction(la.dot(a, la.mat_vec(w, a)) % (2 * den * den), den * den)
                    for a in itertools.product(*(range(0, den, den // f) for f in factors)))
    return tuple(factors), tuple(values)


def _outcome(compute, *args):
    """The value, or the type and message of the error."""
    try:
        return compute(*args)
    except errors.MirrorcheckError as exc:
        return type(exc), str(exc)


@st.composite
def permuted_block_sums(draw):
    """Orthogonal sums of 1-4 even blocks of rank 1-4, degenerate ones
    included, under a random simultaneous permutation of rows and
    columns, so that a block's indices need not be contiguous."""
    blocks = [draw(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(-2, 2), min_size=n * (n + 1) // 2,
                           max_size=n * (n + 1) // 2)))
              for _ in range(draw(st.integers(1, 4)))]
    grams = []
    for entries in blocks:
        n = {n * (n + 1) // 2: n for n in range(1, 5)}[len(entries)]
        gram = [[0] * n for _ in range(n)]
        it = iter(entries)
        for i in range(n):
            gram[i][i] = 2 * next(it)
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = next(it)
        grams.append(lt.from_gram(gram))
    total = lt.direct_sum(*grams).gram
    perm = draw(st.permutations(range(len(total))))
    return [[total[i][j] for j in perm] for i in perm]


@settings(max_examples=100, deadline=None)
@given(permuted_block_sums())
# Interleaved blocks {0, 2} and {1, 3}, both with a discriminant.
@example([[2, 0, 1, 0], [0, 4, 0, 1], [1, 0, 2, 0], [0, 1, 0, -2]])
# Z/4 + Z/6 = Z/2 + Z/12 from two rank-one blocks around an H block.
@example([[4, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -6]])
# A degenerate block: a zero row and column next to H.
@example([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
# A degenerate block of rank two, [[2, 2], [2, 2]], on indices 0 and 2.
@example([[2, 0, 2], [0, -4, 0], [2, 0, 2]])
# An over-cap group, 600 * 600 * 2 = 720000 > 65536.
@example([[600, 0, 0], [0, -2, 0], [0, 0, 600]])
def test_block_invariants_match_the_whole_matrix(gram):
    expected = (_outcome(_whole_signature, gram), la.determinant(gram),
                _outcome(_whole_discriminant, gram))
    lat = lt.from_gram(gram)
    assert (_outcome(lt.signature, lat), lt.determinant(lat),
            _outcome(_discriminant_values, lat)) == expected


# A direct sum carries its summands' blocks and their eliminations instead
# of splitting its own Gram matrix; its invariants, or its errors, must be
# those of the same Gram matrix read by ``from_gram``, and those of the
# whole-matrix oracles above.
DIRECT_SUM_PIECES = st.one_of(
    st.sampled_from([H, E8, A1]),
    st.integers(-5, 5).map(lambda k: lt.rank_one(2 * k)),  # <0> is degenerate
    even_grams().map(lt.from_gram),
    # Degenerate blocks, and rank-one pieces whose pairs pass the cap.
    st.sampled_from([[[0, 0], [0, 0]], [[2, 2], [2, 2]], [[600]], [[-300]]]).map(lt.from_gram),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(DIRECT_SUM_PIECES, max_size=4))
# A two-generator block, Z/2 + Z/6, beside a rank-one block: the sumset
# combines the values of two blocks over the common denominator 6.
@example([lt.from_gram([[4, 2], [2, 4]]), lt.rank_one(6)])
@example([lt.rank_one(-4), H, lt.from_gram([[4, 2], [2, 4]])])
# 600 * 300 = 180000 passes the cap of 65536.
@example([lt.rank_one(600), E8, lt.rank_one(-300)])
@example([lt.rank_one(4), lt.from_gram([[2, 2], [2, 2]])])
@example([])
def test_direct_sum_invariants_match_from_gram(pieces):
    total = lt.direct_sum(*pieces)
    whole = lt.from_gram(total.gram)
    invariants = (lt.signature, lt.determinant, _discriminant_values)
    got = [_outcome(f, total) for f in invariants]
    assert got == [_outcome(f, whole) for f in invariants]
    assert got == [_outcome(_whole_signature, total.gram), la.determinant(total.gram),
                   _outcome(_whole_discriminant, total.gram)]


def test_invariant_factors_of_cyclic_orders():
    assert lt._invariant_factors([]) == []
    assert lt._invariant_factors([4, 6]) == [2, 12]
    assert lt._invariant_factors([12, 2, 3, 8]) == [2, 12, 24]
    assert lt._invariant_factors([5, 7]) == [35]


def test_library_built_lattices_skip_the_input_conversion(monkeypatch):
    # direct_sum, induced and the mirror quotient hold ints the library
    # computed; only input goes through as_int_rows.
    emb = lt.canonical_embedding([lt.rank_one(4)])

    def refuse(rows):
        raise AssertionError("as_int_rows ran on a library-built Gram matrix")

    monkeypatch.setattr(la, "as_int_rows", refuse)
    lt.direct_sum(H, E8, A1)
    lt.orthogonal_complement(emb).induced()
    lt.dn_mirror(emb, lt.default_isotropic_vector(emb))
    # The square/even/symmetric check still runs.
    with pytest.raises(errors.OddDiagonal):
        lt._lattice([[1]])
    with pytest.raises(errors.RankMismatch, match="not symmetric"):
        lt._lattice([[0, 1], [2, 0]])


# --- embeddings and complements --------------------------------------------


def test_embedding_requires_primitive():
    amb = lt.k3_lattice()
    doubled = [0] * 22
    doubled[0] = 2
    with pytest.raises(errors.NotPrimitive):
        lt.LatticeEmbedding(amb, (tuple(doubled),))


def test_embedding_runs_one_smith_form(monkeypatch):
    calls = {"smith_normal_form": 0, "rank": 0}
    for name in calls:
        real = getattr(la, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(la, name, counting)
    amb = lt.k3_lattice()
    lt.LatticeEmbedding(amb, (_k3_unit(0), _k3_unit(1)))
    assert calls == {"smith_normal_form": 1, "rank": 0}
    with pytest.raises(errors.NotPrimitive, match="^image basis is not linearly independent$"):
        lt.LatticeEmbedding(amb, (_k3_unit(0), _k3_unit(0)))
    # More vectors than the ambient rank: the Smith diagonal is too short.
    with pytest.raises(errors.NotPrimitive, match="^image basis is not linearly independent$"):
        lt.LatticeEmbedding(H, ((1, 0), (0, 1), (1, 1)))
    doubled = tuple(2 * x for x in _k3_unit(0))
    with pytest.raises(errors.NotPrimitive,
                       match="^image is not a direct summand of the ambient lattice$"):
        lt.LatticeEmbedding(amb, (doubled, _k3_unit(1)))
    # Dependence is reported first, even when the rows are also not primitive.
    with pytest.raises(errors.NotPrimitive, match="^image basis is not linearly independent$"):
        lt.LatticeEmbedding(amb, (doubled, _k3_unit(0)))
    assert calls == {"smith_normal_form": 5, "rank": 0}


def _k3_unit(i):
    return tuple(int(j == i) for j in range(22))


def test_complement_of_rank_one_two():
    emb = lt.canonical_embedding([lt.rank_one(2)])
    comp = lt.orthogonal_complement(emb).induced()
    target = lt.direct_sum(H, H, E8, E8, A1)
    assert lt.invariants_match(comp, target).matched
    assert comp.rank == 21


def test_complement_blockwise():
    emb = lt.canonical_embedding([H])
    comp = lt.orthogonal_complement(emb).induced()
    target = lt.direct_sum(H, H, E8, E8)
    assert lt.invariants_match(comp, target).matched
    m = lt.canonical_embedding([H, E8, E8])
    comp_m = lt.orthogonal_complement(m).induced()
    assert lt.invariants_match(
        comp_m, lt.direct_sum(H, H)).matched


@pytest.mark.parametrize("specs,message", [
    (["E8(-1)"] * 3, "piece 3 (E8(-1)) finds no free E8(-1) block left in the K3 lattice"),
    (["H"] * 4, "piece 4 (H) finds no free H block left in the K3 lattice"),
    (["<2>"] * 4, "piece 4 (<2>) finds no free H block left in the K3 lattice"),
    (["H", "<2>", "A1(-1)", "<4>"],
     "piece 4 (<4>) finds no free H block left in the K3 lattice"),
], ids=["e8x3", "hx4", "2x4", "mixed"])
def test_canonical_embedding_names_the_piece_with_no_free_block(specs, message):
    pieces = [lt.standard_lattice(s) for s in specs]
    with pytest.raises(errors.RankMismatch, match=f"^{re.escape(message)}$"):
        lt.canonical_embedding(pieces)


def test_canonical_embedding_names_an_unnamed_piece_by_its_gram():
    pieces = [lt.from_gram([[2]])] * 4
    with pytest.raises(errors.RankMismatch,
                       match=re.escape("piece 4 (gram ((2,),)) finds no free H block")):
        lt.canonical_embedding(pieces)


# Pieces that fit in K3 together: at most three taking an H block (H,
# A1(-1), <2n> with n != 0) and at most two E8(-1), in any order.
_K3_PIECES = st.tuples(
    st.lists(st.one_of(st.sampled_from(["H", "A1(-1)"]),
                       st.integers(-40, 40).filter(bool).map(lambda n: f"<{2 * n}>")),
             max_size=3),
    st.integers(0, 2)).flatmap(lambda d: st.permutations(d[0] + ["E8(-1)"] * d[1]))


@settings(max_examples=100, deadline=None)
@given(_K3_PIECES)
def test_canonical_basis_passes_the_smith_form_check(specs):
    # canonical_embedding trusts its basis to span a direct summand; the
    # checked constructor must agree.
    emb = lt.canonical_embedding([lt.standard_lattice(s) for s in specs])
    checked = lt.LatticeEmbedding(lt.k3_lattice(), emb.image_basis)
    assert checked == emb


def test_standard_pieces_are_built_once():
    assert lt.standard_lattice("K3") is lt.k3_lattice() is lt.canonical_embedding(
        [lt.rank_one(2)]).ambient
    assert lt.standard_lattice(" H ") is H
    assert lt.standard_lattice("E8(-1)") is E8
    assert lt.standard_lattice("A1(-1)") is A1


def test_default_isotropic_vector_needs_the_k3_ambient():
    h2 = lt.direct_sum(H, H)
    emb = lt.LatticeEmbedding(h2, ((1, 1, 0, 0),))
    with pytest.raises(errors.InputError, match="^the default isotropic vector is "
                       "defined for the K3 ambient only; give f$"):
        lt.default_isotropic_vector(emb)
    # A K3 Gram matrix given explicitly is the K3 ambient.
    k3 = lt.from_gram(lt.k3_lattice().gram)
    assert lt.default_isotropic_vector(lt.LatticeEmbedding(k3, ())) == _k3_unit(2)


def test_double_complement_matches_original():
    emb = lt.canonical_embedding([lt.rank_one(2)])
    comp = lt.orthogonal_complement(emb)
    back = lt.orthogonal_complement(comp).induced()
    assert lt.invariants_match(back, lt.rank_one(2)).matched


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
             min_size=1, max_size=n - 1))))
def test_induced_matches_pairwise_bilinear(data):
    entries, rows = data
    n = len(rows[0])
    gram = [[entries[min(i, j) * n + max(i, j)] * (2 if i == j else 1)
             for j in range(n)] for i in range(n)]
    amb = lt.from_gram(gram)
    # A saturated kernel is a primitive basis of its span.
    basis = tuple(tuple(v) for v in la.kernel_basis(rows))
    assume(basis)
    induced = lt.LatticeEmbedding(amb, basis).induced().gram
    assert induced == tuple(tuple(amb.bilinear(u, v) for v in basis) for u in basis)
    assert induced == tuple(
        tuple(sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
              for v in basis) for u in basis)


def test_complement_of_empty_image_is_ambient():
    emb = lt.LatticeEmbedding(lt.k3_lattice(), ())
    comp = lt.orthogonal_complement(emb)
    assert comp.rank == 22
    assert lt.invariants_match(comp.induced(), lt.k3_lattice()).matched
    mirror = lt.dn_mirror(emb, lt.default_isotropic_vector(emb))
    assert mirror.rank == 20
    target = lt.direct_sum(H, H, E8, E8)
    assert lt.invariants_match(mirror, target).matched


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
    # int() would truncate this to the isotropic vector e_2.
    half = [0] * 22
    half[2] = 1.5
    with pytest.raises(errors.InputError):
        lt.dn_mirror(emb, half)


# The mirror construction by integer solves, as it was built before the
# Smith form kept its inverse: the complement and (Z phi)^perp from
# ``kernel_basis``, the coordinates phi and a from ``integral_solve``, and
# the completion of a by inverting the Smith transform of [a].  Every step
# has a unique answer, so ``dn_mirror`` must give the same Gram matrix and
# raise the same errors, in the same order.


def _reference_completion(a):
    if la.vec_gcd(a) != 1:
        raise errors.NotPrimitiveVector(f"{list(a)} is not primitive")
    _, _, v, _ = la.smith_normal_form([list(a)])
    if la.mat_vec(la.transpose(v), list(a))[0] == -1:
        for row in v:
            row[0] = -row[0]
    return la.inverse_unimodular(v)


def _reference_dn_mirror(emb, f):
    amb = emb.ambient
    fv = [la.as_int(x) for x in f]
    if amb.q(fv) != 0:
        raise errors.NotIsotropic(f"<f, f> = {amb.q(fv)} != 0")
    basis = (la.kernel_basis(la.mat_mul(emb.image_basis, amb.gram)) if emb.image_basis
             else la.identity(amb.rank))
    comp = lt.LatticeEmbedding(amb, tuple(tuple(v) for v in basis))
    phi = la.integral_solve(la.transpose(comp.image_basis), fv)
    if phi is None:
        raise errors.NotInComplement("f is not orthogonal to the embedded lattice")
    if la.vec_gcd(phi) != 1:
        raise errors.NotPrimitiveVector("f is not primitive in the complement")
    comp_gram = comp.induced().gram
    sub = la.kernel_basis(la.mat_mul([phi], comp_gram))
    a = la.integral_solve(la.transpose(sub), phi)
    if a is None or la.vec_gcd(a) != 1:
        raise errors.NotPrimitiveVector("f is not primitive in its own orthogonal")
    quot = la.mat_mul(_reference_completion(a), sub)[1:]
    lat = lt.from_gram(lt._congruent(comp_gram, quot))
    if lt.determinant(lat) == 0:
        raise errors.Degenerate(
            "degenerate quotient form: the orthogonal complement has a radical outside Zf")
    return lat


def _mirror_outcome(construct, emb, f):
    """The mirror's Gram matrix, or the type and message of the error."""
    try:
        return construct(emb, f).gram
    except errors.MirrorcheckError as exc:
        return type(exc), str(exc)


def _assert_same_mirror(emb, f):
    expected = _mirror_outcome(_reference_dn_mirror, emb, f)
    assert _mirror_outcome(lt.dn_mirror, emb, f) == expected
    return expected


@pytest.mark.parametrize("pieces", [[spec] for spec, _ in MIRROR_CASES] + [
    ["H", "E8(-1)", "E8(-1)"],
    ["H", "E8(-1)", "E8(-1)", "A1(-1)"],
    ["H", "E8(-1)", "E8(-1)", "<-4>"],
    [],
])
def test_dn_mirror_matches_the_solve_path(pieces):
    emb = (lt.canonical_embedding([lt.standard_lattice(s) for s in pieces]) if pieces
           else lt.LatticeEmbedding(lt.k3_lattice(), ()))
    gram = _assert_same_mirror(emb, lt.default_isotropic_vector(emb))
    assert isinstance(gram, tuple) and len(gram) == 20 - emb.rank


def _k3_vector(entries):
    vec = [0] * 22
    for i, x in entries.items():
        vec[i] = x
    return vec


# With x_i the i-th coordinate vector of K3, whose H blocks are (x_0, x_1),
# (x_2, x_3) and (x_4, x_5): isotropic vectors of the second and third
# blocks, free under each of these embeddings, (m a) x_2 + (n b) x_3 +
# (m b) x_4 - (n a) x_5, so that x_2 + x_4 + k (x_3 - x_5) is the case
# m = a = b = 1, n = k.
FREE_BLOCK_PIECES = [[], ["<2>"], ["<4>"], ["<-6>"], ["H"], ["E8(-1)"],
                     ["<2>", "E8(-1)", "E8(-1)"], ["H", "E8(-1)", "E8(-1)"]]


# With gcd(m, n) = gcd(a, b) = 1 the entries' gcd, gcd(m, n) gcd(a, b), is 1:
# every drawn f is primitive, so no draw is filtered out.
COPRIME_PAIRS = [(m, n) for m in range(-4, 5) for n in range(-4, 5) if math.gcd(m, n) == 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FREE_BLOCK_PIECES),
       st.tuples(st.sampled_from(COPRIME_PAIRS), st.sampled_from(COPRIME_PAIRS)).map(
           lambda pairs: pairs[0] + pairs[1]),
       st.sampled_from(["as drawn", "doubled", "not isotropic", "in the image"]))
@example([], (1, 1, 1, 1), "as drawn")
@example(["<4>"], (1, 3, 1, 1), "as drawn")
@example(["<2>"], (1, 1, 1, 1), "in the image")
def test_dn_mirror_matches_the_solve_path_on_drawn_vectors(pieces, coeffs, change):
    m, n, a, b = coeffs
    f = _k3_vector({2: m * a, 3: n * b, 4: m * b, 5: -n * a})
    emb = (lt.canonical_embedding([lt.standard_lattice(s) for s in pieces]) if pieces
           else lt.LatticeEmbedding(lt.k3_lattice(), ()))
    if change == "doubled":
        f = [2 * c for c in f]
    elif change == "not isotropic":
        f[3] += 1
    elif change == "in the image":
        assume(emb.image_basis)
        f = [c + b for c, b in zip(f, emb.image_basis[0])]
    outcome = _assert_same_mirror(emb, f)
    if change == "as drawn":
        assert isinstance(outcome, tuple) and len(outcome) == 20 - emb.rank


# The checks run in order: 2 x_0 is neither orthogonal to the image x_0 + x_1
# of <2> nor primitive, and 2 (x_2 + x_3) is not isotropic either.
@pytest.mark.parametrize("f,error", [
    (_k3_vector({2: 1, 3: 1}), "NotIsotropic"),
    (_k3_vector({2: 2, 3: 2}), "NotIsotropic"),
    (_k3_vector({0: 1}), "NotInComplement"),
    (_k3_vector({0: 2}), "NotInComplement"),
    (_k3_vector({2: 2}), "NotPrimitiveVector"),
    ([0] * 22, "NotPrimitiveVector"),
])
def test_dn_mirror_errors_match_the_solve_path(f, error):
    emb = lt.canonical_embedding([lt.rank_one(2)])
    outcome = _assert_same_mirror(emb, f)
    assert outcome[0].__name__ == error


def test_dn_mirror_blames_the_radical_for_a_degenerate_quotient():
    # L = <x_0> is isotropic, so x_0 lies in the radical of its complement
    # and survives in (Zf)^perp / Zf for every f: the quotient is degenerate
    # with f primitive, and the error names the radical, not f.
    emb = lt.LatticeEmbedding(lt.k3_lattice(), (tuple(_k3_vector({0: 1})),))
    f = lt.default_isotropic_vector(emb)
    assert _assert_same_mirror(emb, f) == (
        errors.Degenerate,
        "degenerate quotient form: the orthogonal complement has a radical outside Zf")


def test_dn_mirror_on_a_full_rank_image_refuses_f_outside_the_complement():
    # The complement is 0: only f = 0 lies in it.  The solve path lost the
    # row count of its empty coefficient matrix here and called any
    # isotropic f "not primitive in the complement".
    emb = lt.canonical_embedding([lt.standard_lattice(s)
                                  for s in ("H", "H", "H", "E8(-1)", "E8(-1)")])
    with pytest.raises(errors.NotInComplement, match="^f is not orthogonal"):
        lt.dn_mirror(emb, _k3_vector({0: 1}))
    with pytest.raises(errors.NotPrimitiveVector, match="^f is not primitive in the complement$"):
        lt.dn_mirror(emb, [0] * 22)


def test_complement_takes_one_smith_form_and_no_recheck(monkeypatch):
    emb = lt.canonical_embedding([lt.rank_one(4), E8])
    calls = []
    real = la.smith_normal_form

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(la, "smith_normal_form", counting)
    comp = lt.orthogonal_complement(emb)
    assert calls == [{}]
    calls.clear()
    whole = lt.orthogonal_complement(lt.LatticeEmbedding(emb.ambient, ()))
    assert calls == []
    assert whole.image_basis == tuple(map(tuple, la.identity(22)))
    monkeypatch.undo()
    assert comp.image_basis == tuple(
        tuple(v) for v in la.kernel_basis(la.mat_mul(emb.image_basis, emb.ambient.gram)))


def test_spec_with_a_non_integer_is_an_input_error():
    with pytest.raises(errors.InputError):
        lt.standard_lattice("<x>")
    with pytest.raises(errors.InputError):
        lt.standard_lattice("<2.0>")
    assert lt.standard_lattice("< 4 >").gram == ((4,),)
    # int() would read "<1_0>" as <10> and the Arabic-Indic "<\u0664>" as <4>.
    for spec in ("<1_0>", "<\u0664>"):
        with pytest.raises(errors.InputError, match="needs an integer"):
            lt.standard_lattice(spec)


def test_unknown_spec_is_an_input_error():
    with pytest.raises(errors.InputError, match="unknown lattice spec 'foo'"):
        lt.standard_lattice("foo")


# --- isotropic search -------------------------------------------------------


def test_isotropic_definite_conclusive():
    result = lt.find_isotropic(lt.from_gram([[2, 1], [1, 2]]))
    assert result.vector is None and result.conclusive
    assert result.exists is False


def test_isotropic_hyperbolic():
    result = lt.find_isotropic(H)
    assert result.vector == (0, 1)
    assert result.conclusive


def test_isotropic_h_plus_minus4():
    lat = lt.direct_sum(H, lt.rank_one(-4))
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


def test_isotropic_scan_budget(monkeypatch):
    # The scan counts the candidates it evaluates.  A witness within the cap
    # is returned whatever the box size, exhaustion of a box within the cap
    # stays inconclusive, and a larger box with no witness within the cap
    # raises, naming the box size (2b+1)^n.
    monkeypatch.setattr(lt, "_ISOTROPIC_SCAN_CAP", 49)
    assert lt.find_isotropic(H, bound=10 ** 12).vector == (0, 1)
    lat = lt.direct_sum(lt.rank_one(2), lt.rank_one(-4))
    assert not lt.find_isotropic(lat, bound=3).conclusive
    with pytest.raises(errors.BudgetExceeded, match=r"\[-4, 4\]\^2 \(81 candidates\)"):
        lt.find_isotropic(lat, bound=4)


@pytest.mark.parametrize("bound", [int("9" * 1200), 10 ** 5000], ids=["1200", "5001"])
def test_isotropic_budget_with_a_box_too_large_to_print(bound):
    # (2b+1)^10 has more digits than Python will print, and so does a bound
    # of 5001 digits: the budget error says the box is larger than that,
    # where formatting the count once raised ValueError.
    lat = lt.direct_sum(H, E8)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(errors.BudgetExceeded) as info:
        lt.find_isotropic(lat, bound)
    assert str(info.value) == (
        f"isotropic scan of a box of more than 10^{limit} candidates exceeds "
        f"the cap of {lt._ISOTROPIC_SCAN_CAP} candidates")


def _product_scan(lat, bound, cap):
    """The isotropic scan as it was before the fibre scan: q at every box
    position in ``itertools.product`` order, the cap counting positions."""
    try:
        pos, neg = lt.signature(lat)
    except errors.Degenerate:
        pos = neg = -1
    if pos == 0 or neg == 0:
        return lt.IsotropicSearch(None, True)
    values = [0]
    for k in range(1, min(bound, cap) + 1):
        values.extend((k, -k))
    for count, combo in enumerate(itertools.product(values, repeat=lat.rank)):
        if count == cap:
            raise errors.BudgetExceeded(
                f"isotropic scan of the box [-{bound}, {bound}]^{lat.rank} "
                f"({(2 * bound + 1) ** lat.rank} candidates) exceeds the cap of "
                f"{cap} candidates")
        if la.vec_gcd(combo) == 1 and lat.q(combo) == 0:
            return lt.IsotropicSearch(tuple(combo), True)
    return lt.IsotropicSearch(None, False)


def _isotropic_outcome(search, *args):
    try:
        return search(*args)
    except errors.BudgetExceeded as exc:
        return str(exc)


@st.composite
def isotropy_cases(draw):
    gram = draw(even_grams())
    kill = draw(st.none() | st.integers(0, 3))
    if kill is not None:
        # Zero one row and column: a degenerate form.
        k = kill % len(gram)
        for i in range(len(gram)):
            gram[i][k] = gram[k][i] = 0
    return gram, draw(st.integers(0, 4)), draw(st.sampled_from([7, 30, 100, 2 ** 18]))


@settings(max_examples=300, deadline=None)
@given(isotropy_cases())
@example(([[4, 2], [2, 0]], 0, 2 ** 18))  # every t is a root, but the box holds only t = 0
@example(([[4, 2], [2, 0]], 1, 2 ** 18))
@example(([[0, 0], [0, 0]], 1, 7))
@example(([[2, 0, 0], [0, 0, 0], [0, 0, -2]], 2, 7))
@example(([[2, 0], [0, -4]], 4, 30))
@example(([[2, 0], [0, -4]], 3, 49))  # a box of exactly cap positions, no witness
@example(([[2, -1], [-1, -4]], 2, 7))  # the first witness, (1, -1), at position 7
@example(([[0]], 1, 2 ** 18))  # rank one: one fibre, the empty prefix; (1,) at position 1
@example(([[2, 0], [0, -8]], 3, 2 ** 18))  # rank two: no outer coordinate; (2, 1)
# (1, 0, 1), in the first fibre (s = 0) of outer prefix (1,).
@example(([[2, 0, 0], [0, 4, 0], [0, 0, -2]], 2, 2 ** 18))
# (1, -1, 1) at position 16, in the last fibre (s = -1) of outer prefix (1,),
# then with the cap at 16, inside that outer prefix's positions 9 to 17.
@example(([[-2, -1, 1], [-1, 2, 0], [1, 0, -4]], 1, 2 ** 18))
@example(([[-2, -1, 1], [-1, 2, 0], [1, 0, -4]], 1, 16))
# x^2 + y^2 = 3 z^2 has no witness; the cap, 37, falls inside outer prefix (1,).
@example(([[2, 0, 0], [0, 2, 0], [0, 0, -6]], 2, 37))
def test_fibre_scan_matches_product_scan(case):
    gram, bound, cap = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lt, "_ISOTROPIC_SCAN_CAP", cap)
        got = _isotropic_outcome(lt.find_isotropic, lt.from_gram(gram), bound)
        want = _isotropic_outcome(_product_scan, lt.from_gram(gram), bound, cap)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.integers(-4, 4), st.integers(-12, 12), st.integers(-12, 12),
       st.integers(0, 6), st.integers(0, 6))
@example(0, 3, 2, 1, 4)  # a linear fibre whose root -2/3 is not an integer
@example(0, 0, 0, 2, 0)  # every t is a root, but the box holds only t = 0
def test_fibre_root_is_the_first_root_in_scan_order(a, b, c, g, top):
    order = [0] + [t for k in range(1, top + 1) for t in (k, -k)]
    want = next((t for t in order if a * t * t + b * t + c == 0 and math.gcd(g, t) == 1),
                None)
    assert lt._fibre_root(a, b, c, g, top) == want


def test_isotropic_scan_work_grows_with_prefixes(monkeypatch):
    # x^2 + y^2 + z^2 = 7w^2 at bound 12, 25 values a coordinate: no
    # witness, and the cap is passed in fibre ceil(cap / 25) = 10486, the
    # fibre of prefix (x, y, z), which lies in outer prefix (x, y) number
    # 10486 // 25 = 419.  Each outer prefix takes three dots, for q0, c1
    # and b0, and its 25 fibres none; no fibre evaluates q.  So the 420
    # outer prefixes take 1260 dots, and the work grows with the outer
    # prefixes, not with the 2^18 positions.
    calls = {"dot": 0, "bilinear": 0}
    real_dot, real_bilinear = la.dot, lt.QuadLattice.bilinear

    def dot(*args):
        calls["dot"] += 1
        return real_dot(*args)

    def bilinear(*args):
        calls["bilinear"] += 1
        return real_bilinear(*args)

    monkeypatch.setattr(la, "dot", dot)
    monkeypatch.setattr(lt.QuadLattice, "bilinear", bilinear)
    lat = lt.from_gram([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, -14]])
    with pytest.raises(errors.BudgetExceeded, match="390625 candidates"):
        lt.find_isotropic(lat, bound=12)
    fibres = -(-lt._ISOTROPIC_SCAN_CAP // 25) + 1  # the last one meets the cap
    assert calls == {"dot": 3 * -(-fibres // 25), "bilinear": 0}


# --- invariant comparison ---------------------------------------------------


def test_invariants_match_mismatch_rank():
    a = lt.direct_sum(H, E8, E8)
    b = lt.direct_sum(a, A1)
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
    a = lt.direct_sum(E8, E8, H,
                      H, lt.from_gram([[-2, -1], [-1, -2]]))
    b = lt.direct_sum(H, comp)
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
