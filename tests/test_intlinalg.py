"""Exact linear algebra against sympy as an independent oracle.

Rank, determinant, the rational solve and the unimodular inverse run on
one fraction-free elimination kernel; each is compared here with sympy's own
exact matrix routines on random square, rectangular and low-rank integer
matrices, and so is the Smith normal form with its transforms and the
inverse of its column transform that it keeps.  The tests skip when
sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorcheck import errors, intlinalg as la

entries = st.integers(-6, 6)


def _sympy():
    return pytest.importorskip("sympy")


def _frac(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


@st.composite
def matrices(draw, square=False):
    """Integer matrices up to 6x6; about half are products of two thinner
    factors, so low ranks and zero rows and columns come up often."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    k = draw(st.integers(1, min(nrows, ncols)))
    left = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                          min_size=k, max_size=k))
    return la.mat_mul(left, right)


@st.composite
def unimodular(draw):
    """Products of random elementary integer row operations."""
    n = draw(st.integers(1, 5))
    m = la.identity(n)
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            f = draw(st.integers(-3, 3))
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return m


# Inner-product kernels against explicit double sums: big ints, Fractions
# (mixed with ints) and empty vectors give the same values, of the same type.
scalars = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                    st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6))


def _same(x, y) -> bool:
    return x == y and type(x) is type(y)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(scalars, min_size=n, max_size=n), st.lists(scalars, min_size=n, max_size=n))))
@example(([], []))
@example(([Fraction(1, 2)], [2]))
def test_dot_matches_explicit_sum(vectors):
    u, v = vectors
    expected = 0
    for i in range(len(u)):
        expected = expected + u[i] * v[i]
    assert _same(la.dot(u, v), expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=6))
@example([])
@example([0, 0])
@example([-4, 6])
def test_vec_gcd_is_the_largest_common_divisor(v):
    # The greatest d >= 0 dividing every entry, by the Euclidean fold.
    expected = 0
    for x in v:
        a, b = expected, abs(x)
        while b:
            a, b = b, a % b
        expected = a
    assert _same(la.vec_gcd(v), expected)
    assert _same(la.vec_gcd(tuple(v)), expected)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(lambda shape: st.tuples(
    st.lists(st.lists(scalars, min_size=shape[1], max_size=shape[1]),
             min_size=shape[0], max_size=shape[0]),
    st.lists(scalars, min_size=shape[1], max_size=shape[1]))))
def test_mat_vec_matches_explicit_sums(system):
    a, v = system
    out = la.mat_vec(a, v)
    assert len(out) == len(a)
    for i, row in enumerate(a):
        expected = 0
        for k in range(len(v)):
            expected = expected + row[k] * v[k]
        assert _same(out[i], expected)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(
        st.lists(st.lists(scalars, min_size=shape[1], max_size=shape[1]),
                 min_size=shape[0], max_size=shape[0]),
        st.lists(st.lists(scalars, min_size=shape[2], max_size=shape[2]),
                 min_size=shape[1], max_size=shape[1]))))
def test_mat_mul_matches_explicit_sums(factors):
    a, b = factors
    out = la.mat_mul(a, b)
    assert len(out) == len(a)
    for i in range(len(a)):
        assert len(out[i]) == len(b[0])
        for j in range(len(b[0])):
            expected = 0
            for k in range(len(b)):
                expected = expected + a[i][k] * b[k][j]
            assert _same(out[i][j], expected)


# Integer factors with many zeros, of any shape with up to 4 rows, inner
# size and columns, 0 included: the sparse product skips zero entries and
# must give mat_mul's result, empty rows included.
sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 10 ** 20])


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda shape: st.tuples(
        st.lists(st.lists(sparse_entries, min_size=shape[1], max_size=shape[1]),
                 min_size=shape[0], max_size=shape[0]),
        st.lists(st.lists(sparse_entries, min_size=shape[2], max_size=shape[2]),
                 min_size=shape[1], max_size=shape[1]))))
@example(([], []))
@example(([[], []], []))
@example(([[1, 2]], [[], []]))
@example(([[0, 0], [1, -1]], [[3, 0], [2, 0]]))
@example(([[0, 0, 0]], [[1, 2], [3, 4], [5, 6]]))
# Tuple rows on the right, as the polytopes module's coordinate rows are.
@example(([[1, 0], [2, -1], [0, 1]], [(1, 2, 3), (4, 5, 6)]))
def test_sparse_mul_matches_mat_mul(factors):
    a, b = factors
    assert la._sparse_mul(a, b) == la.mat_mul(a, b)


@settings(max_examples=200, deadline=None)
@given(matrices())
@example([[0, 0], [0, 0]])
@example([[0, 1, 2], [0, 2, 4], [1, 0, 0]])
def test_rank_matches_sympy(m):
    sympy = _sympy()
    assert la.rank(m) == sympy.Matrix(m).rank()


def test_rank_empty():
    assert la.rank([]) == 0


@settings(max_examples=200, deadline=None)
@given(matrices())
@example([[0, 0], [0, 0]])
@example([[0, 1, 2], [0, 2, 4], [1, 0, 0]])
def test_pivot_columns_match_sympy(m):
    sympy = _sympy()
    pivots, _ = la._echelon([list(row) for row in m], len(m[0]))
    assert tuple(pivots) == sympy.Matrix(m).rref()[1]


def plain_bareiss(a, ncols):
    """The fraction-free Gauss-Jordan loop with no step skipped: every row
    but the pivot row is updated at every pivot."""
    nrows, width = len(a), len(a[0])
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if not a[r][c]:
            p = next((i for i in range(r + 1, nrows) if a[i][c]), None)
            if p is None:
                continue
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pv = a[r][c]
        for i in range(nrows):
            if i != r:
                f = a[i][c]
                for j in range(c + 1, width):
                    a[i][j] = (pv * a[i][j] - f * a[r][j]) // prev
        prev = pv
        pivots.append(c)
    return pivots, sign


@st.composite
def sparse_augmented(draw):
    """Integer matrices up to 6x9 whose first columns are eliminated and the
    rest carried: entries are often 0, some columns are all 0, and often
    the pivots are a chain of 1s (a unit lower triangle), so rows with a 0
    multiplier meet pivots both equal to the one before and not."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    extra = draw(st.integers(0, 3))
    width = ncols + extra
    cell = st.one_of(st.just(0), st.integers(-4, 4))
    m = draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                      min_size=nrows, max_size=nrows))
    for c in draw(st.sets(st.integers(0, width - 1), max_size=2)):
        for row in m:
            row[c] = 0
    if draw(st.booleans()):
        for i in range(min(nrows, ncols)):
            m[i][:i + 1] = [*m[i][:i], 1]
            for k in range(i + 1, ncols):
                m[i][k] = 0
    return m, ncols


@settings(max_examples=300, deadline=None)
@given(sparse_augmented())
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3))
@example(([[2, 0, 1], [0, 3, 1], [0, 0, 1]], 2))
@example(([[0, 0, 5], [0, 2, 1], [3, 0, 1]], 3))
def test_echelon_matches_a_plain_bareiss_loop(case):
    # Skipping a row whose multiplier is 0 under a pivot equal to the one
    # before changes no entry, no pivot and no sign.
    m, ncols = case
    a, b = [list(row) for row in m], [list(row) for row in m]
    assert la._echelon(a, ncols) == plain_bareiss(b, ncols)
    assert a == b


@pytest.mark.parametrize("value", [3, -7, 2.0, 10 ** 30])
def test_as_int_keeps_integral_numbers(value):
    assert la.as_int(value) == value and type(la.as_int(value)) is int


@pytest.mark.parametrize("value", [2.7, -0.5, "2", "a", None, [1],
                                   float("inf"), float("nan")])
def test_as_int_refuses_everything_else(value):
    with pytest.raises(errors.InputError):
        la.as_int(value)


@pytest.mark.parametrize("text,value", [
    ("0", 0), ("12", 12), ("+12", 12), ("-12", -12), (" 7\n", 7), ("007", 7),
    ("1" * 40, int("1" * 40)),
])
def test_strict_int_reads_sign_and_ascii_digits(text, value):
    assert la.strict_int(text) == value


# int() reads every one of the first four: "1_0" as 10, the Arabic-Indic and
# fullwidth digits as 3 and 12, and the last, past its no-break space, as 12.
@pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff11\uff12", "\u00a01_2",
                                  "", " ", "+", "-", "1.0", "1e3", "0x10", "1 2", "--1"])
def test_strict_int_refuses_everything_else(text):
    with pytest.raises(ValueError):
        la.strict_int(text)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
def test_determinant_matches_sympy(m):
    sympy = _sympy()
    assert la.determinant(m) == sympy.Matrix(m).det()


@st.composite
def systems(draw):
    """``(a, b)``; half the right-hand sides lie in the column span of ``a``."""
    a = draw(matrices())
    if draw(st.booleans()):
        x0 = draw(st.lists(entries, min_size=len(a[0]), max_size=len(a[0])))
        return a, la.mat_vec(a, x0)
    return a, draw(st.lists(entries, min_size=len(a), max_size=len(a)))


@settings(max_examples=300, deadline=None)
@given(systems())
@example(([[1, 2], [2, 4]], [1, 3]))
@example(([[0, 1], [0, 2]], [1, 2]))
@example(([[2, 1], [1, 3]], [1, 0]))
def test_solve_exact_matches_sympy(system):
    sympy = _sympy()
    a, b = system
    ncols = len(a[0])
    status, x = la.solve_exact(a, b)
    reduced, pivots = sympy.Matrix(a).row_join(sympy.Matrix(b)).rref()
    if ncols in pivots:
        assert (status, x) == ("inconsistent", None)
        return
    expected = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        expected[c] = _frac(reduced[i, ncols])
    assert status == ("unique" if len(pivots) == ncols else "underdetermined")
    assert x == expected
    assert all(isinstance(v, Fraction) for v in x)
    assert [sum(r * v for r, v in zip(row, x)) for row in a] == list(b)


def test_solve_exact_statuses():
    assert la.solve_exact([[1, 1], [1, -1]], [2, 0]) == ("unique", [1, 1])
    assert la.solve_exact([[2, 4]], [2]) == ("underdetermined", [1, 0])
    assert la.solve_exact([[1, 1], [2, 2]], [1, 3]) == ("inconsistent", None)
    assert la.solve_exact([[3, 0], [0, 2]], [1, 1]) == (
        "unique", [Fraction(1, 3), Fraction(1, 2)])


def test_integral_solve_refuses_a_right_hand_side_of_the_wrong_length():
    # A matrix with no rows holds no column count; it answered [] for any b.
    with pytest.raises(errors.ShapeMismatch):
        la.integral_solve([], [1, 0])
    with pytest.raises(errors.ShapeMismatch):
        la.integral_solve([[1, 2], [3, 4]], [1])
    assert la.integral_solve([], []) == []
    assert la.integral_solve([[2, 0], [0, 3]], [4, 6]) == [2, 2]


@settings(max_examples=200, deadline=None)
@given(unimodular())
def test_inverse_unimodular_matches_sympy(m):
    sympy = _sympy()
    inv = la.inverse_unimodular(m)
    assert inv == [[int(x) for x in row] for row in sympy.Matrix(m).inv().tolist()]
    assert la.mat_mul(m, inv) == la.identity(len(m))


def test_inverse_errors_are_named():
    with pytest.raises(errors.Degenerate):
        la.inverse_unimodular([[1, 2], [2, 4]])
    with pytest.raises(errors.Degenerate):
        la.inverse_unimodular([[2, 0], [0, 1]])


@settings(max_examples=200, deadline=None)
@given(matrices())
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 4, 6], [1, 2, 3]])
@example([[2], [4], [6]])
@example([[6, 0], [0, 4]])
def test_smith_normal_form_matches_sympy(m):
    sympy = _sympy()
    from sympy.matrices.normalforms import smith_normal_form

    u, d, v, w = la.smith_normal_form(m)
    assert la.mat_mul(la.mat_mul(u, m), v) == d
    assert abs(la.determinant(u)) == 1 and abs(la.determinant(v)) == 1
    assert all(d[i][j] == 0 for i in range(len(d)) for j in range(len(d[0])) if i != j)
    expected = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
    size = min(len(m), len(m[0]))
    assert [abs(d[i][i]) for i in range(size)] == [abs(int(expected[i, i])) for i in range(size)]
    assert w == [[int(x) for x in row] for row in sympy.Matrix(v).inv().tolist()]


def _zero_matrices(shape):
    nrows, ncols = shape
    return [[0] * ncols for _ in range(nrows)]


# Any shape a list of rows can spell: wide, tall, zero, no columns, and the
# empty list, which has no rows and so no columns either.
@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(), st.tuples(st.integers(0, 6), st.integers(0, 6)).map(_zero_matrices)))
@example([])
@example([[], [], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[6, 10, 15]])
@example([[2], [4], [6]])
@example([[2, 4, 6], [1, 2, 3]])
def test_smith_normal_form_keeps_the_inverse(m):
    ncols = len(m[0]) if m else 0
    _, _, v, w = la.smith_normal_form(m)
    eye = la.identity(ncols)
    assert la.mat_mul(v, w) == eye
    assert la.mat_mul(w, v) == eye
