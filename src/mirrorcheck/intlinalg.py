"""Exact integer linear algebra.

All routines work on plain Python ints (arbitrary precision); nothing here
touches floating point.  Matrices are lists of row lists.  The pivot
columns and the rank they count, the determinant, the rational solve and
the unimodular inverse share one fraction-free (Bareiss) elimination
kernel, ``_echelon``, whose entries stay integer minors of the input;
``polytopes.hull`` (for one inverse) and ``nef._cartier_data`` run it
directly, with several right-hand sides at once.  The only rationals
are the solution coordinates of ``solve_exact``, one ``Fraction`` each.
Its only library caller is now
``polytopes.convex_hull_contains``, which no library path reaches and
ROADMAP.md queues for removal.  Smith normal form and the integer kernel
and solves built on it use unimodular row and column operations.  The
Smith form keeps the inverse of its column transform, at one row
operation per column operation, so no library path inverts a unimodular
matrix; ``_kernel_transform`` reads a saturated kernel basis and that
inverse off one such Smith form, and ``kernel_basis`` is its first part.
``_sparse_mul`` is the library's matrix product: row i of ``a @ b`` is a
C-level sum of the rows of ``b`` at the nonzero entries of row i of ``a``,
so it pays per nonzero of ``a``, not per entry; the unit-vector bases the
lattices module multiplies have few.  ``determinant``, ``mat_mul``,
``inverse_unimodular`` and ``integral_solve`` are tested helpers that no
library path calls.  ``as_int`` is the
one checked conversion of input values (JSON numbers) to ints;
``as_int_vector`` and ``as_int_rows`` apply it to input lists and lists of
lists, and refuse any other shape.  ``strict_int`` reads the integers
written in strings: flags, lattice specs and diamond keys.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from operator import add, mul
from typing import Optional, Sequence

from .errors import Degenerate, InputError, NotPrimitiveVector, ShapeMismatch

IntMatrix = list[list[int]]
IntVector = list[int]


def identity(n: int) -> IntMatrix:
    m = [[0] * n for _ in range(n)]
    for i, row in enumerate(m):
        row[i] = 1
    return m


def transpose(m: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _sparse_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    """``a @ b`` for integer matrices: row i of the product sums ``a[i][k]``
    times row k of ``b`` over the nonzero ``a[i][k]`` only, each row added
    in one C-level pass (with no products when ``a[i][k]`` is 1)."""
    width = len(b[0]) if b else 0
    ks = range(len(b))
    out = []
    for row in a:
        acc = [0] * width
        for k in compress(ks, row):
            x = row[k]
            acc = list(map(add, acc, b[k] if x == 1 else map(mul, b[k], repeat(x))))
        out.append(acc)
    return out


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> IntVector:
    return [sum(map(mul, row, v)) for row in a]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def as_int(x) -> int:
    """An input value as an int; anything but an integral number raises
    InputError, where ``int`` would truncate or fail with a ValueError.
    A boolean (JSON ``true``) is not a number here, though Python's is 0 or 1."""
    if type(x) is int:
        return x
    if type(x) is not bool:
        try:
            v = int(x)
            if v == x:
                return v
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(f"non-integer value {x!r}")


_INT_STRING = re.compile(r"[+-]?[0-9]+")


def strict_int(s: str) -> int:
    """The integer a string spells as an optional sign and ASCII digits,
    surrounding whitespace aside; anything else raises ValueError, which
    argparse reports as an invalid flag value.  ``int`` would also read
    ``_`` separators and non-ASCII digits, so that ``"1_0"`` read 10."""
    t = s.strip()
    if not _INT_STRING.fullmatch(t):
        raise ValueError(f"not an integer: {s!r}")
    return int(t)


def as_int_vector(v) -> tuple[int, ...]:
    """An input list as a tuple of ``as_int`` entries; a value that is not
    a list (a JSON number or object, say) raises InputError too."""
    if not isinstance(v, (list, tuple)):
        raise InputError(f"expected a list of integers, not {type(v).__name__}")
    return tuple(map(as_int, v))


def as_int_rows(rows) -> tuple[tuple[int, ...], ...]:
    """An input list of integer lists as a tuple of ``as_int_vector`` rows."""
    if not isinstance(rows, (list, tuple)):
        raise InputError(f"expected a list of integer lists, not {type(rows).__name__}")
    return tuple(map(as_int_vector, rows))


def vec_gcd(v: Sequence[int]) -> int:
    """The gcd of the entries, never negative: 0 for an empty or zero vector."""
    return gcd(*v)


def _echelon(a: IntMatrix, ncols: int, reduced: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of ``a`` in place.

    Pivots are sought in the first ``ncols`` columns; any further columns
    (an augmented right-hand side) are carried along.  Returns
    ``(pivots, sign)``: row ``i`` holds the pivot of column ``pivots[i]``,
    and ``sign`` is the parity of the row swaps.  Every entry computed is an
    integer minor of the input (Bareiss 1968), so each ``//`` is exact, and
    the last pivot ``den`` is, up to ``sign``, the minor on the pivot rows
    and columns.  A step updates only the columns right of its pivot, the
    only ones read again.  With ``reduced`` the rows above each pivot are
    cleared too, so right of the last pivot column ``a`` ends as ``den``
    times the reduced row echelon form.
    """
    nrows = len(a)
    width = len(a[0]) if nrows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
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
        pr = a[r]
        pv = pr[c]
        for i in range(0 if reduced else r + 1, nrows):
            if i != r:
                row = a[i]
                f = row[c]
                for j in range(c + 1, width):
                    row[j] = (pv * row[j] - f * pr[j]) // prev
        prev = pv
        pivots.append(c)
    return pivots, sign


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    a = [list(row) for row in m]
    pivots, sign = _echelon(a, n)
    if len(pivots) < n:
        return 0
    return sign * a[n - 1][n - 1] if n else 1


def pivot_columns(m: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the columns of ``m`` outside the span of the columns
    before them: the pivot columns of its fraction-free echelon form."""
    return _echelon([list(row) for row in m], len(m[0]) if m else 0)[0]


def rank(m: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the number of pivot columns."""
    return len(pivot_columns(m))


def solve_exact(a: Sequence[Sequence[int]], b: Sequence[int]):
    """Solve ``a @ x = b`` over the rationals.

    Returns a pair ``(status, x)`` where ``status`` is one of
    ``"inconsistent"`` (x is None), ``"unique"`` or ``"underdetermined"``
    (x is a particular solution with free coordinates set to zero).  The
    elimination runs over the integers; each coordinate of ``x`` is one
    ``Fraction`` of the reduced right-hand side over the common pivot.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    pivots, _ = _echelon(aug, ncols, reduced=True)
    r = len(pivots)
    if any(aug[i][ncols] for i in range(r, nrows)):
        return "inconsistent", None
    den = aug[r - 1][pivots[-1]] if r else 1
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = Fraction(aug[i][ncols], den)
    status = "unique" if r == ncols else "underdetermined"
    return status, x


def smith_normal_form(m: Sequence[Sequence[int]]):
    """Smith normal form with transforms.

    Returns ``(u, d, v, w)`` with ``u @ m @ v == d``, ``u`` and ``v``
    unimodular, ``d`` diagonal with nonnegative entries satisfying
    ``d[i] | d[i+1]``, and ``w == v^-1``: each column operation on ``v`` is
    matched by the inverse row operation on ``w``.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    d = [list(row) for row in m]
    u = identity(nrows)
    v = identity(ncols)
    w = identity(ncols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        w[i], w[j] = w[j], w[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]
        # v @ (I + c E_src,dst) has inverse (I - c E_src,dst) @ w.
        w[src] = [x - c * y for x, y in zip(w[src], w[dst])]

    t = 0
    while t < min(nrows, ncols):
        # Locate a pivot of minimal absolute value in the trailing block.
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, nrows):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility of the remaining block by the pivot.
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    for i in range(min(nrows, ncols)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return u, d, v, w


def _kernel_transform(m: Sequence[Sequence[int]], n: int):
    """``(kernel, w, r)`` from one Smith form ``u m v = d`` of an integer
    matrix ``m`` with ``n`` columns and rank r: the rows of ``kernel`` (the
    columns of ``v`` from r on) are a basis of the saturated kernel of
    ``m``, and ``w = v^-1``.  An integer x has ``m x = 0`` exactly when the
    first r entries of ``w x`` are 0, and then the rest are its coordinates
    in ``kernel``.  A matrix with no rows needs no Smith form: its kernel
    basis and ``w`` are the identity, and r = 0."""
    if not m:
        return identity(n), identity(n), 0
    _, d, v, w = smith_normal_form(m)
    r = sum(1 for i in range(min(len(m), n)) if d[i][i])
    return transpose(v)[r:], w, r


def kernel_basis(m: Sequence[Sequence[int]]) -> list[IntVector]:
    """Basis of the saturated integer kernel ``{x : m @ x = 0}``.

    The returned vectors generate the kernel as a direct summand of Z^n.
    """
    return _kernel_transform(m, len(m[0]) if m else 0)[0]


def integral_solve(m: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[IntVector]:
    """One integer solution of ``m @ x = b``, or None if there is none.

    ``b`` needs one entry per row of ``m``; a list of rows holds no column
    count, so a matrix with no rows is refused rather than read as having
    the solution ``[]`` for every ``b``.
    """
    nrows = len(m)
    if len(b) != nrows:
        raise ShapeMismatch(f"right-hand side of length {len(b)} for {nrows} rows")
    ncols = len(m[0]) if nrows else 0
    u, d, v, _ = smith_normal_form(m)
    ub = mat_vec(u, list(b))
    y = [0] * ncols
    for i in range(nrows):
        di = d[i][i] if i < min(nrows, ncols) else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return mat_vec(v, y)


def inverse_unimodular(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact inverse of an integer matrix with determinant +-1: reduced
    elimination of ``[m | I]`` leaves ``den * m^-1`` right, den = +-det(m)."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    pivots, _ = _echelon(aug, n, reduced=True)
    if len(pivots) < n:
        raise Degenerate("matrix is singular")
    den = aug[n - 1][n - 1] if n else 1
    if den not in (1, -1):
        raise Degenerate("matrix is not unimodular")
    return [[den * x for x in row[n:]] for row in aug]


def complete_to_unimodular(a: Sequence[int]) -> IntMatrix:
    """Unimodular matrix whose first row is the primitive vector ``a``."""
    if vec_gcd(a) != 1:
        raise NotPrimitiveVector(f"{list(a)} is not primitive")
    _, _, _, m = smith_normal_form([list(a)])
    # [a] @ v = (+-1, 0, ..., 0), so the first row of m = v^-1 is +-a.
    if m[0] != list(a):
        m[0] = [-x for x in m[0]]
    assert m[0] == list(a)
    return m
