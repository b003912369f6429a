"""Hodge-diamond arithmetic and the numerical identities of glued models.

Covers Euler characteristics, the mirror transposition check, the smoothing
formulas for a normal-crossings union of two quasi-Fano threefolds, the
rank bookkeeping of a proper superpotential relative to a smooth fibre, the
Picard count of a fibred Calabi-Yau from its singular fibres, the fibre
component catalogs (Kodaira types for elliptic fibrations, and the five
K3-fibration degenerations used by the quartic-mirror family), slicing and
moduli checks for multi-component Type II degenerations, and the rank table
of the limit mixed Hodge structure with its mirror comparison.

Deformation counts and fibre multisets are inputs here, never computed;
conjectural clauses are reported as PASS/FAIL/UNVERIFIABLE, never silently
asserted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InputError,
    InvalidDiamond,
    ShapeMismatch,
    UnknownType,
)
from .intlinalg import as_int, as_int_vector, strict_int


@dataclass(frozen=True)
class Verdict:
    name: str
    status: str  # PASS | FAIL | UNVERIFIABLE
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def _pass(name: str, detail: str = "") -> Verdict:
    return Verdict(name, "PASS", detail)


def _fail(name: str, detail: str = "") -> Verdict:
    return Verdict(name, "FAIL", detail)


# Largest diamond dimension taken: the grid and the checks on it grow as
# (d+1)^2, and the varieties here have dimension 3 or less.
MAX_DIAMOND_DIM = 64

_FLAGS = {"kaehler": True, "quasifano": False}


class HodgeDiamond:
    """The h^{p,q} table of a compact complex manifold.

    Entries are stored as a full (d+1) x (d+1) grid, for d up to
    ``MAX_DIAMOND_DIM``.  Hodge symmetry
    h^{p,q} = h^{q,p} is always enforced; Serre duality
    h^{p,q} = h^{d-p,d-q} only for diamonds flagged as Kaehler.  Quasi-Fano
    inputs carry h^{d,0} = 0 and are flagged so the Calabi-Yau constraints
    are not wrongly imposed on them.  ``entries`` maps pairs (p, q) to
    h^{p,q}; the dimension, the indices and the entries are read through
    ``as_int``.  Every diamond ends in one finisher, ``_finish``, which
    writes the grid, the flag and the Euler number: ``__init__`` calls it
    with the alternating sum of the grid it has validated, and the
    threefold builders ``cy_threefold_diamond`` and
    ``quasi_fano_threefold_diamond`` with the grid and the Euler number in
    closed form from their two checked integers.  A built diamond is
    read-only, and copy and pickle rebuild it via JSON.
    """

    __slots__ = ("dim", "h", "kaehler", "_chi")

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], int],
                 kaehler: bool = True):
        dim = as_int(dim)
        if dim < 0:
            raise InvalidDiamond(f"dimension {dim} is negative")
        if dim > MAX_DIAMOND_DIM:
            raise BudgetExceeded(
                f"diamond dimension {dim} exceeds the limit of {MAX_DIAMOND_DIM}")
        try:
            items = entries.items()
        except AttributeError:
            raise InputError(
                f"diamond entries are a mapping, not {type(entries).__name__}") from None
        grid = [[0] * (dim + 1) for _ in range(dim + 1)]
        for key, v in items:
            try:
                p, q = key
            except (TypeError, ValueError):
                raise InputError(f"diamond index {key!r} is not a pair (p, q)") from None
            if not (type(p) is type(q) is type(v) is int):
                p, q, v = as_int(p), as_int(q), as_int(v)
            if not (0 <= p <= dim and 0 <= q <= dim):
                raise InvalidDiamond(f"index ({p},{q}) outside dimension {dim}")
            if v < 0:
                raise InvalidDiamond(f"h^{{{p},{q}}} = {v} is negative")
            grid[p][q] = v
            if grid[q][p] not in (0, v):
                raise InvalidDiamond(f"Hodge symmetry broken at ({p},{q})")
            grid[q][p] = v
        h = tuple(tuple(row) for row in grid)
        if h[0][0] != 1:
            raise InvalidDiamond("h^{0,0} must be 1")
        if kaehler and h != tuple(row[::-1] for row in h[::-1]):
            p, q = next((p, q) for p in range(dim + 1) for q in range(dim + 1)
                        if h[p][q] != h[dim - p][dim - q])
            raise InvalidDiamond(f"Serre duality broken at ({p},{q})")
        alternating = [sum(row[::2]) - sum(row[1::2]) for row in h]
        self._finish(dim, h, kaehler, sum(alternating[::2]) - sum(alternating[1::2]))

    def _finish(self, dim: int, h: tuple[tuple[int, ...], ...], kaehler: bool,
                chi: int) -> "HodgeDiamond":
        """Write the slots of a diamond whose grid is already checked."""
        _put_dim(self, dim)
        _put_h(self, h)
        _put_kaehler(self, kaehler)
        _put_chi(self, chi)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a HodgeDiamond is read-only: {name!r} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        return HodgeDiamond.from_json, (self.to_json(),)

    def __eq__(self, other):
        return (isinstance(other, HodgeDiamond) and self.dim == other.dim
                and self.h == other.h)

    def __hash__(self):
        return hash((self.dim, self.h))

    def hpq(self, p: int, q: int) -> int:
        """h^{p,q}, read through ``as_int``; 0 outside the diamond."""
        p, q = as_int(p), as_int(q)
        return self.h[p][q] if 0 <= p <= self.dim and 0 <= q <= self.dim else 0

    def betti(self, n: int) -> int:
        """b_n, the sum of h^{p,n-p}; 0 outside 0 <= n <= 2 dim."""
        n = as_int(n)
        h, d = self.h, self.dim
        return sum(h[p][n - p] for p in range(max(0, n - d), min(n, d) + 1))

    def to_json(self) -> dict:
        entries = {}
        for p in range(self.dim + 1):
            for q in range(self.dim + 1):
                if self.h[p][q]:
                    entries[f"{p},{q}"] = self.h[p][q]
        return {
            "dim": self.dim,
            "h": dict(sorted(entries.items())),
            "flags": ["kaehler" if self.kaehler else "quasifano"],
        }

    @staticmethod
    def from_json(data: Mapping) -> "HodgeDiamond":
        if not isinstance(data, Mapping) or "dim" not in data:
            raise InputError("diamond input must carry a 'dim' field")
        h, flags = data.get("h", {}), data.get("flags", [])
        if not isinstance(h, Mapping) or not isinstance(flags, list):
            raise InputError("diamond 'h' must be a JSON object and 'flags' a list")
        entries = {}
        for key, v in h.items():
            try:
                p, q = map(strict_int, key.split(","))
            except ValueError:
                raise InputError(f"diamond key {key!r} is not of the form 'p,q'") from None
            entries[(p, q)] = v
        kinds = {_FLAGS.get(f) if isinstance(f, str) else None for f in flags}
        if None in kinds or len(kinds) > 1:
            raise InputError(f"diamond flags {flags!r}: give 'kaehler' or 'quasifano', "
                             "not both and nothing else")
        kaehler = kinds.pop() if kinds else True
        return HodgeDiamond(data["dim"], entries, kaehler)


# The slot writers of ``HodgeDiamond._finish``: cheaper than object.__setattr__.
_put_dim, _put_h, _put_kaehler, _put_chi = (
    HodgeDiamond.__dict__[name].__set__ for name in HodgeDiamond.__slots__)


def k3_diamond() -> HodgeDiamond:
    return HodgeDiamond(2, {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1})


def elliptic_curve_diamond() -> HodgeDiamond:
    return HodgeDiamond(1, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def cy_threefold_diamond(h11: int, h21: int) -> HodgeDiamond:
    """h^{0,0} = h^{3,0} = 1, h^{1,1} = h11 and h^{2,1} = h21, with
    chi = 2 (h11 - h21).  The two numbers are read and refused as
    ``HodgeDiamond`` reads and refuses the entries h^{1,1} and h^{2,1}."""
    h11 = as_int(h11)
    if h11 < 0:
        raise InvalidDiamond(f"h^{{1,1}} = {h11} is negative")
    h21 = as_int(h21)
    if h21 < 0:
        raise InvalidDiamond(f"h^{{2,1}} = {h21} is negative")
    return object.__new__(HodgeDiamond)._finish(
        3, ((1, 0, 0, 1), (0, h11, h21, 0), (0, h21, h11, 0), (1, 0, 0, 1)),
        True, 2 * (h11 - h21))


def quasi_fano_threefold_diamond(h2: int, h21: int) -> HodgeDiamond:
    """Threefold with effective anticanonical class, so h^{3,0} = 0:
    h^{1,1} = h2 and h^{2,1} = h21, with chi = 2 + 2 (h2 - h21).  The two
    numbers are read and refused as in ``cy_threefold_diamond``."""
    h2 = as_int(h2)
    if h2 < 0:
        raise InvalidDiamond(f"h^{{1,1}} = {h2} is negative")
    h21 = as_int(h21)
    if h21 < 0:
        raise InvalidDiamond(f"h^{{2,1}} = {h21} is negative")
    return object.__new__(HodgeDiamond)._finish(
        3, ((1, 0, 0, 0), (0, h2, h21, 0), (0, h21, h2, 0), (0, 0, 0, 1)),
        False, 2 + 2 * (h2 - h21))


def projective_space_diamond(n: int) -> HodgeDiamond:
    return HodgeDiamond(n, {(p, p): 1 for p in range(n + 1)}, kaehler=True)


def surface_diamond(h11: int, pg: int = 0, q: int = 0) -> HodgeDiamond:
    return HodgeDiamond(2, {(0, 0): 1, (2, 2): 1, (1, 1): h11,
                            (2, 0): pg, (0, 2): pg, (1, 0): q, (0, 1): q})


def euler_char(d: HodgeDiamond) -> int:
    """sum over p, q of (-1)^{p+q} h^{p,q}; computed once per diamond, from
    its alternating row sums when it is built, so this is a read."""
    return d._chi


def mirror_dual_check(v: HodgeDiamond, w: HodgeDiamond) -> Verdict:
    """h^{p,q}(V) = h^{d-p,q}(W) for all p, q, plus the Euler sign relation."""
    if v.dim != w.dim:
        raise DimensionMismatch(f"dim {v.dim} vs {w.dim}")
    d = v.dim
    failures = []
    if v.h != w.h[::-1]:
        failures = [f"({d - p},{q})" for p in range(d + 1) for q in range(d + 1)
                    if v.h[p][q] != w.h[d - p][q]]
    if euler_char(v) != (-1) ** d * euler_char(w):
        failures.append("euler")
    if failures:
        return _fail("mirror_duality", "mismatch at " + ", ".join(failures))
    return _pass("mirror_duality")


@dataclass(frozen=True)
class TyurinData:
    """Two components glued along an anticanonical member, plus the rank k
    of the span of their restricted divisor classes, read through ``as_int``."""

    x1: HodgeDiamond
    x2: HodgeDiamond
    z: HodgeDiamond
    k: int = 1

    def __post_init__(self):
        object.__setattr__(self, "k", as_int(self.k))
        if self.x1.dim != self.x2.dim or self.z.dim != self.x1.dim - 1:
            raise DimensionMismatch("components and gluing locus have wrong dimensions")
        if not 1 <= self.k <= 20:
            raise InvalidDiamond(f"k = {self.k} outside [1, 20]")


@dataclass(frozen=True)
class LeeHodge:
    h11: int
    h21: int
    warning: Optional[str] = None

    def to_json(self) -> dict:
        out = {"h11": self.h11, "h21": self.h21}
        if self.warning:
            out["warning"] = self.warning
        return out


def lee_smoothing(t: TyurinData) -> LeeHodge:
    """Hodge numbers of the smoothing of a two-component threefold union.

        h11 = h2(X1) + h2(X2) - k - 1
        h21 = 21 + h21(X1) + h21(X2) - k

    Components of any other dimension are a DimensionMismatch.
    """
    if t.x1.dim != 3:
        raise DimensionMismatch(f"components of dimension {t.x1.dim}, not threefolds")
    h11 = t.x1.betti(2) + t.x2.betti(2) - t.k - 1
    h21 = 21 + t.x1.h[2][1] + t.x2.h[2][1] - t.k
    warning = None
    if h11 < 1:
        warning = ("NonKaehlerOrInvalid: h11 = %d < 1; the smoothing cannot "
                   "be a Kaehler Calabi-Yau" % h11)
    return LeeHodge(h11, h21, warning)


def glue_euler_check(t: TyurinData, w_chi: int, d: int) -> Verdict:
    """chi(V) = chi(X1) + chi(X2) - 2 chi(Z), then chi(W) = (-1)^d chi(V);
    a negative d is an InputError."""
    w_chi, d = as_int(w_chi), as_int(d)
    if d < 0:
        raise InputError(f"dimension must be nonnegative, got {d}")
    chi_v = euler_char(t.x1) + euler_char(t.x2) - 2 * euler_char(t.z)
    expected = (-1) ** d * chi_v
    if w_chi == expected:
        return _pass("euler_gluing", f"chi(V) = {chi_v}, chi(W) = {w_chi}")
    return _fail("euler_gluing",
                 f"chi(V) = {chi_v} gives (-1)^{d} chi(V) = {expected}, "
                 f"but chi(W) = {w_chi}")


def euler_blowup_curve(chi_x: int, genus: int) -> int:
    """Euler number after blowing up a threefold along a smooth curve of
    genus g >= 0; a negative genus is an InputError."""
    genus = as_int(genus)
    if genus < 0:
        raise InputError(f"genus must be nonnegative, got {genus}")
    return as_int(chi_x) + (2 - 2 * genus)


def lg_relative_ranks(x: HodgeDiamond) -> list[int]:
    """Ranks h^i(Y, w^{-1}(t)) = sum_j h^{d-i+j, j}(X) for i = 0..2d."""
    d = x.dim
    return [sum(x.hpq(d - i + j, j) for j in range(d + 1)) for i in range(2 * d + 1)]


def h2w_formula(h2_rel_1: int, h2_rel_2: int, ell: int) -> int:
    """h2 of the glued total space: 1 + h2(Y1, S) + h2(Y2, S) + ell, for
    ranks and a count that are nonnegative; a negative one is an InputError."""
    counts = as_int(h2_rel_1), as_int(h2_rel_2), as_int(ell)
    if min(counts) < 0:
        raise InputError(f"ranks and counts must be nonnegative, got {counts}")
    return 1 + sum(counts)


def ell_plus_k_check(ell: int, k: int) -> Verdict:
    ell, k = as_int(ell), as_int(k)
    if ell + k == 20:
        return _pass("ell_plus_k", f"{ell} + {k} = 20")
    return _fail("ell_plus_k", f"{ell} + {k} = {ell + k} != 20")


# ---------------------------------------------------------------------------
# Fibre component catalog.
#
# Kodaira types of elliptic-fibration fibres, plus the five K3-fibration
# degenerations of the quartic-mirror family.  "I0" is the smooth fibre
# (one component) in both readings; the Kodaira subscript rule I_n -> n is
# applied for n >= 1.
# ---------------------------------------------------------------------------

_KODAIRA_FIXED = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}
_THREEFOLD_FIXED = {"I0": 1, "I_odp": 1, "II_3f": 11, "IV_3f": 31}
# I_n, I_n* and I_n^Delta.
_SUBSCRIPTED_RE = re.compile(r"I([0-9]+)(\*|\^Delta)?")


def fibre_components(tag: str) -> int:
    """Number of irreducible components of a singular fibre type.

    Kodaira: I_n -> n (n >= 1), I_n* -> n + 5, II/III/IV -> 1/2/3,
    IV*/III*/II* -> 7/8/9.  K3-fibration catalog: I0 -> 1 (smooth),
    I_odp -> 1, I_n^Delta -> 2 n^2 + 2, II_3f -> 11, IV_3f -> 31.  A tag
    that is not a string is an InputError.
    """
    if not isinstance(tag, str):
        raise InputError(f"fibre type must be a string, not {type(tag).__name__}")
    if tag in _THREEFOLD_FIXED:
        return _THREEFOLD_FIXED[tag]
    if tag in _KODAIRA_FIXED:
        return _KODAIRA_FIXED[tag]
    m = _SUBSCRIPTED_RE.fullmatch(tag)
    if m:
        digits, kind = m.groups()
        try:
            n = int(digits)
        except ValueError:  # past Python's limit on integer string conversion
            raise InputError(f"fibre subscript of {len(digits)} digits is too long") from None
        if kind == "*":
            return n + 5
        if n >= 1:
            return n if kind is None else 2 * n ** 2 + 2
    raise UnknownType(f"unknown fibre type {tag!r}")


@dataclass(frozen=True)
class Fibre:
    tag: str
    components: int

    @staticmethod
    def of(tag: str) -> "Fibre":
        return Fibre(tag, fibre_components(tag))


@dataclass(frozen=True)
class FibrationDescriptor:
    """Multiset of singular fibres plus the generic-fibre polarization rank.

    For elliptic K3 surfaces the convention is ell = 1, so that the Picard
    count below becomes the section-plus-fibre Shioda-Tate shape.  ``ell``
    is read through ``as_int``.
    """

    fibres: tuple[Fibre, ...]
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "ell", as_int(self.ell))
        if not 1 <= self.ell <= 20:
            raise ShapeMismatch(f"ell = {self.ell} outside [1, 20]")
        for f in self.fibres:
            if f.components < 1:
                raise ShapeMismatch(f"fibre {f.tag} with component count < 1")

    @staticmethod
    def from_tags(tags: Sequence[str], ell: int) -> "FibrationDescriptor":
        return FibrationDescriptor(tuple(Fibre.of(t) for t in tags), ell)

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "fibres": [{"type": f.tag, "components": f.components} for f in self.fibres],
        }


def picard_from_fibration(f: FibrationDescriptor) -> int:
    """h^{1,1} of the fibred total space: sum (rho_p - 1) + ell + 1."""
    return sum(fib.components - 1 for fib in f.fibres) + f.ell + 1


@dataclass(frozen=True)
class TypeIIDegeneration:
    """A chain of components with deformation counts, double-curve count and
    the rank of the polarizing lattice, each read through ``as_int``."""

    components: tuple[int, ...]
    double_curves: int
    l_rank: int

    def __post_init__(self):
        object.__setattr__(self, "components", as_int_vector(self.components))
        object.__setattr__(self, "double_curves", as_int(self.double_curves))
        object.__setattr__(self, "l_rank", as_int(self.l_rank))
        if self.double_curves != len(self.components) - 1:
            raise ShapeMismatch(
                f"a chain of {len(self.components)} components must have "
                f"{len(self.components) - 1} double curves, got {self.double_curves}")


@dataclass(frozen=True)
class SlicedFibration:
    """A fibration with its singular fibres apportioned into ordered slices."""

    descriptor: FibrationDescriptor
    slices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        indices = [i for s in self.slices for i in s]
        if sorted(indices) != list(range(len(self.descriptor.fibres))):
            raise ShapeMismatch("slices must partition the fibre indices")


def slicing_check(s: SlicedFibration, deg: TypeIIDegeneration) -> Verdict:
    """Per-slice and total moduli identities of a sliced fibration.

    Each slice must satisfy n_i - 1 = sum over its fibres of (rho_p - 1),
    and the whole chain must satisfy
    sum n_i - #double curves = 19 - rank(L).
    """
    if len(s.slices) != len(deg.components):
        raise ShapeMismatch(
            f"{len(s.slices)} slices against {len(deg.components)} components")
    details = []
    ok = True
    for i, (n_i, slice_idx) in enumerate(zip(deg.components, s.slices)):
        rho_sum = sum(s.descriptor.fibres[j].components - 1 for j in slice_idx)
        details.append(f"slice {i + 1}: n-1 = {n_i - 1}, sum(rho-1) = {rho_sum}")
        if n_i - 1 != rho_sum:
            ok = False
    moduli = sum(deg.components) - deg.double_curves
    expected = 19 - deg.l_rank
    details.append(f"moduli: {moduli}, 19 - rank(L) = {expected}")
    if moduli != expected:
        ok = False
    detail = "; ".join(details)
    return _pass("slicing", detail) if ok else _fail("slicing", detail)


def lmhs_table(u: int, v: int) -> tuple[tuple[int, ...], ...]:
    """Rank table of the weight-graded limit mixed Hodge structure.

    Rows are the graded pieces in weights 4, 3, 2; columns the Hodge
    filtration steps from F^3 down to F^0.  Ranks are never negative.
    """
    u, v = as_int(u), as_int(v)
    if u < 0 or v < 0:
        raise InputError(f"LMHS ranks must be nonnegative, got u = {u}, v = {v}")
    return ((1, u, 1, 0), (0, v, v, 0), (0, 1, u, 1))


def lmhs_mirror_match(table_v: Sequence[Sequence[int]],
                      table_w: Sequence[Sequence[int]]) -> Verdict:
    """The mirror-side table (coimage/kernel/image of the cup operator)
    must equal the degeneration-side table entry by entry."""
    tv = tuple(tuple(row) for row in table_v)
    tw = tuple(tuple(row) for row in table_w)
    if tv == tw:
        return _pass("lmhs_mirror")
    return _fail("lmhs_mirror", f"{tv} != {tw}")


def conjecture318_report(rho_10: int, rho_11: int, rho_01: int,
                         h11_x1: int, h11_x2: int, h11_ambient: int,
                         points: int) -> list[Verdict]:
    """Check the numeric clauses of the fibre-count conjecture for K3 pairs.

    The three countable clauses compare fibre component counts with
    h^{1,1}(X_i) - h^{1,1}(ambient) + 1 and with the intersection point
    count.  Semistability of the distinguished fibre and irreducibility of
    all remaining fibres are out of computational reach here and are
    reported UNVERIFIABLE.
    """
    rho_10, rho_11, rho_01, h11_x1, h11_x2, h11_ambient, points = map(
        as_int, (rho_10, rho_11, rho_01, h11_x1, h11_x2, h11_ambient, points))
    out = []
    for name, rho, expected in (
            ("rho_[1:0]", rho_10, h11_x1 - h11_ambient + 1),
            ("rho_[1:1]", rho_11, h11_x2 - h11_ambient + 1)):
        if rho == expected:
            out.append(_pass(name, f"{rho} = {expected}"))
        else:
            out.append(_fail(name, f"{rho} != {expected}"))
    if rho_01 == points:
        out.append(_pass("rho_[0:1]", f"{rho_01} = {points} points"))
    else:
        out.append(_fail("rho_[0:1]", f"{rho_01} != {points} points"))
    out.append(Verdict("semistable_fibre", "UNVERIFIABLE",
                       "semistability is not computable from count data"))
    out.append(Verdict("other_fibres_irreducible", "UNVERIFIABLE",
                       "irreducibility of the remaining fibres is not computable "
                       "from count data"))
    return out
