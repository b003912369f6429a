"""Hodge numbers, fibre profiles and consistency reports for the family of
threefolds fibred by mirror-quartic K3 surfaces.

A member is indexed by ramification orders i, j in {1, 2, 4} over the
special point and a partition mu of i + j describing ramification over
infinity.  The fibre side W and the smoothing side V carry the closed
formulas

    h21(W) = k,   h11(W) = 20 + sum_s (2 x_s^2 + 1) + c_i + c_j,
    h11(V) = k,   h21(V) = 20 + sum_s (2 x_s^2 + 1) + h21(X_i) + h21(X_j),

with c_1, c_2, c_4 = 30, 10, 0 and the same constants appearing as
h21(X_i).  The consistency report re-derives the V side through the
smoothing formula and the Euler count through curve blow-ups, independently
of the W-side formula, and checks the five identities that tie the two
sides together.

Only the blown-up component and the W and V diamonds depend on the member.
The K3 gluing locus and the three unblown components X_1, X_2, X_4 are
built once per process, on first use, and every report shares them, as it
shares one ``Fibre`` per singular fibre type.  A sweep of all 71 members in
a fresh process builds 217 diamonds: three per member, and these four.
All but the K3 are threefolds built in closed form from two integers
(``cy_threefold_diamond``, ``quasi_fano_threefold_diamond``), which check
the two and write the grid and the Euler number through the diamond's one
finisher, with no entry-by-entry validation; the K3 takes the generic
constructor, which ends in the same finisher.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator, Sequence

from .errors import InvalidPartition
from .hodge import (
    Fibre,
    FibrationDescriptor,
    HodgeDiamond,
    LeeHodge,
    TyurinData,
    Verdict,
    cy_threefold_diamond,
    ell_plus_k_check,
    euler_blowup_curve,
    euler_char,
    glue_euler_check,
    k3_diamond,
    lee_smoothing,
    mirror_dual_check,
    picard_from_fibration,
    quasi_fano_threefold_diamond,
)
from .intlinalg import as_int, as_int_vector

# h^{2,1} of the three anticanonical-degree-4 Fano threefolds, indexed by
# their Fano index; these also serve as the fibre-count constants c_i.
H21_BY_INDEX = {1: 30, 2: 10, 4: 0}

# Singular fibre over a ramification point of the given order above 0.
FIBRE_OVER_ZERO = {1: "IV_3f", 2: "II_3f", 4: "I0"}

GENERIC_FIBRE_RANK = 19


@dataclass(frozen=True)
class FamilyParams:
    """Ramification orders i, j and the partition mu, read through
    ``as_int`` and ``as_int_vector``."""

    i: int
    j: int
    mu: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "i", as_int(self.i))
        object.__setattr__(self, "j", as_int(self.j))
        object.__setattr__(self, "mu", as_int_vector(self.mu))
        if self.i not in (1, 2, 4) or self.j not in (1, 2, 4):
            raise InvalidPartition(f"i, j must lie in {{1, 2, 4}}, got ({self.i}, {self.j})")
        if any(x < 1 for x in self.mu):
            raise InvalidPartition(f"partition parts must be positive: {self.mu}")
        if tuple(sorted(self.mu, reverse=True)) != self.mu:
            raise InvalidPartition(f"partition must be non-increasing: {self.mu}")
        if sum(self.mu) != self.i + self.j:
            raise InvalidPartition(
                f"partition {self.mu} sums to {sum(self.mu)}, expected {self.i + self.j}")

    @property
    def k(self) -> int:
        return len(self.mu)

    @staticmethod
    def of(i: int, j: int, mu: Sequence[int]) -> "FamilyParams":
        """The member with the parts of ``mu`` in any order."""
        return FamilyParams(i, j, tuple(sorted(as_int_vector(mu), reverse=True)))

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "mu": list(self.mu)}


def w_hodge(p: FamilyParams) -> tuple[int, int]:
    """(h11, h21) of the fibred side."""
    h11 = 20 + sum(2 * x * x + 1 for x in p.mu) + H21_BY_INDEX[p.i] + H21_BY_INDEX[p.j]
    return h11, p.k


def v_hodge(p: FamilyParams) -> tuple[int, int]:
    """(h11, h21) of the smoothing side."""
    h21 = 20 + sum(2 * x * x + 1 for x in p.mu) + H21_BY_INDEX[p.i] + H21_BY_INDEX[p.j]
    return p.k, h21


# One Fibre per tag; valid parameters give twelve tags in all: three over
# 0, I1^Delta to I8^Delta over infinity, and the node fibre I_odp.
_fibre = cache(Fibre.of)


def singular_fibre_profile(p: FamilyParams) -> FibrationDescriptor:
    """Fibres over 0 by ramification order, I_x^Delta over infinity per
    partition part, and one node fibre per sheet over the branch value.

    The classification assumes the covering map is unramified over the
    branch value, which is exactly the smoothness hypothesis for the family.
    """
    tags = [FIBRE_OVER_ZERO[p.i], FIBRE_OVER_ZERO[p.j]]
    tags.extend(f"I{x}^Delta" for x in p.mu)
    tags.extend("I_odp" for _ in range(p.i + p.j))
    return FibrationDescriptor(tuple(map(_fibre, tags)), GENERIC_FIBRE_RANK)


@dataclass(frozen=True)
class FamilyReport:
    params: FamilyParams
    w: tuple[int, int]
    v: tuple[int, int]
    profile: FibrationDescriptor
    lee: LeeHodge
    chi_v: int
    chi_w: int
    checks: tuple[Verdict, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "W": {"h11": self.w[0], "h21": self.w[1]},
            "V": {"h11": self.v[0], "h21": self.v[1]},
            "profile": self.profile.to_json(),
            "lee": self.lee.to_json(),
            "chi_V": self.chi_v,
            "chi_W": self.chi_w,
            "checks": [c.to_json() for c in self.checks],
            "all_pass": self.all_pass,
        }


@cache
def _shared_diamonds() -> tuple[HodgeDiamond, dict[int, HodgeDiamond]]:
    """The K3 gluing locus and each unblown X_i (h^{1,1} = 1) by its index."""
    return k3_diamond(), {i: quasi_fano_threefold_diamond(1, c)
                          for i, c in H21_BY_INDEX.items()}


def family_consistency_report(p: FamilyParams) -> FamilyReport:
    """Run the five cross-checks tying the two sides of the family together.

    The V side is rebuilt through the smoothing formula applied to the
    blown-up component, and the Euler characteristic through curve blow-up
    counts, so the duality checks do not reuse the W-side formula they are
    compared against.
    """
    w = w_hodge(p)
    v = v_hodge(p)
    profile = singular_fibre_profile(p)
    genera = [2 * x * x + 1 for x in p.mu]
    k3, unblown = _shared_diamonds()

    # Components of the degenerate fibre: X_i blown up along the partition
    # curves, glued to X_j along a quartic-type K3.
    blown = quasi_fano_threefold_diamond(1 + p.k, H21_BY_INDEX[p.i] + sum(genera))
    plain = unblown[p.j]
    tyurin = TyurinData(blown, plain, k3, k=1)

    lee = lee_smoothing(tyurin)
    w_diamond = cy_threefold_diamond(*w)
    v_diamond = cy_threefold_diamond(*v)
    chi_w = euler_char(w_diamond)

    chi_blown = euler_char(unblown[p.i])
    for g in genera:
        chi_blown = euler_blowup_curve(chi_blown, g)
    if chi_blown != euler_char(blown):
        raise InvalidPartition("internal blow-up Euler bookkeeping disagrees")
    chi_v = chi_blown + euler_char(plain) - 2 * euler_char(k3)
    picard = picard_from_fibration(profile)

    checks = [
        mirror_dual_check(v_diamond, w_diamond),
        Verdict("picard_identity", "PASS" if picard == w[0] else "FAIL",
                f"sum(rho-1) + ell + 1 = {picard}, h11(W) = {w[0]}"),
        glue_euler_check(tyurin, chi_w, 3),
        Verdict("lee_smoothing",
                "PASS" if (lee.h11, lee.h21) == v else "FAIL",
                f"smoothing gives ({lee.h11}, {lee.h21}), expected {v}"),
        ell_plus_k_check(GENERIC_FIBRE_RANK, 1),
    ]
    return FamilyReport(p, w, v, profile, lee, chi_v, chi_w, tuple(checks))


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples, lexicographically
    descending from (n,)."""
    return _partitions(n, n)


def _partitions(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
    # A module-level function: a nested one would hold itself in its own
    # closure, a reference cycle that only the cyclic collector frees.
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in _partitions(remaining - first, first):
            yield (first,) + rest


def sweep() -> list[FamilyReport]:
    """Consistency reports for every (i, j) pair and every partition."""
    out = []
    for i in (1, 2, 4):
        for j in (1, 2, 4):
            for mu in partitions(i + j):
                out.append(family_consistency_report(FamilyParams.of(i, j, mu)))
    return out
