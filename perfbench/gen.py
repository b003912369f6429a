"""Seeded input generator for the mirrorcheck benchmark.

``build(workload, seed, outdir)`` writes every input file of one run into
``outdir`` and returns the run's manifest: the op list (CLI argv relative
to ``outdir``, expected exit code, oracle data) and the density record of
every polytope input.  The same (workload, seed) gives byte-identical files
and an identical manifest.  Inputs are never filtered on whether the
library handles them: the fixed skews of points-skewed were chosen once by
their bounding boxes, and at run time the only rejection sampling is on the
size of a known isotropic witness.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("nef-suite", "points-skewed", "lattice-family")

Vec = tuple


# ---------------------------------------------------------------------------
# Integer linear algebra of the generator (independent of the library).
# ---------------------------------------------------------------------------


def unit(i: int, d: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(d))


def neg(v) -> Vec:
    return tuple(-x for x in v)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def mat_vec(a, v) -> Vec:
    return tuple(dot(row, v) for row in a)


def mat_mul(a, b) -> list[list[int]]:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def box_size(vertices) -> int:
    """Lattice points of the bounding box of a vertex set."""
    out = 1
    for k in range(len(vertices[0])):
        out *= max(v[k] for v in vertices) - min(v[k] for v in vertices) + 1
    return out


def signed_permutation(rng: random.Random, d: int) -> list[list[int]]:
    perm = list(range(d))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(d)]
            for i in range(d)]


def unimodular(rng: random.Random, d: int, steps: int):
    """A random matrix in GL(d, Z) and its inverse, built from a signed
    permutation and ``steps`` row additions."""
    a = signed_permutation(rng, d)
    a_inv = transpose(a)
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        # a <- E a with E = I + c e_i e_j^T;  a_inv <- a_inv E^-1.
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a_inv:
            row[j] -= c * row[i]
    return a, a_inv


# ---------------------------------------------------------------------------
# Base inputs.  Every expected value below is a classical fact about the
# named polytope (point counts of simplices, cubes and cross-polytopes,
# monomial counts for the polar simplices, Hodge numbers of the quartic K3,
# quintic, degree-6 K3 in P(1,1,1,3), (2,2,2) K3 in P1^3 and (2,2,2,2)
# threefold in P1^4) or follows from them (complement count = l(polar) -
# l(nabla), with l(nabla_i) the monomial counts of the partition degrees).
# ---------------------------------------------------------------------------


def _cube(d: int, k: int = 1) -> list[Vec]:
    return [tuple(k * x for x in p) for p in itertools.product((-1, 1), repeat=d)]


def _cross(d: int) -> list[Vec]:
    return [unit(i, d) for i in range(d)] + [neg(unit(i, d)) for i in range(d)]


def _fan_simplex(d: int) -> list[Vec]:
    return [unit(i, d) for i in range(d)] + [(-1,) * d]


def _polar_simplex(d: int) -> list[Vec]:
    return [(-1,) * d] + [tuple(d if j == i else -1 for j in range(d)) for i in range(d)]


OCTAHEDRON = _cross(3)
CUBE3 = _cube(3)
WP1113 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -3)]
WP1113_POLAR = [(-1, -1, -1), (-1, -1, 1), (-1, 5, -1), (5, -1, -1)]
HEXAGON = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
HEXAGON_POLAR = [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]

# name -> vertices, polar vertices, f-vector [(dim, count)], l(P), l(polar),
# Hodge pair of P (rank 3 and 4 only), nef partition (None: use the trivial
# one-part partition only), and the partition's expected invariants.
NEF_BASES = {
    "p1p1p1": dict(
        vertices=OCTAHEDRON, polar=CUBE3,
        f_vector=[(-1, 1), (0, 6), (1, 12), (2, 8), (3, 1)],
        ell=7, ell_polar=27, hodge=(3, 17),
        parts=[[unit(0, 3), unit(1, 3), unit(2, 3)],
               [neg(unit(0, 3)), neg(unit(1, 3)), neg(unit(2, 3))]],
        nabla_points=[8, 8], ell_nabla=15, complement=12, curve=12),
    "wp1113": dict(
        vertices=WP1113, polar=WP1113_POLAR,
        f_vector=[(-1, 1), (0, 4), (1, 6), (2, 4), (3, 1)],
        ell=6, ell_polar=39, hodge=(1, 19),
        parts=[[(1, 0, 0), (0, 1, 0), (-1, -1, -3), (0, 0, -1)], [(0, 0, 1)]],
        nabla_points=[11, 11], ell_nabla=21, complement=18, curve=18),
    "quintic": dict(
        vertices=_fan_simplex(4), polar=_polar_simplex(4),
        f_vector=[(-1, 1), (0, 5), (1, 10), (2, 10), (3, 5), (4, 1)],
        ell=6, ell_polar=126, hodge=(1, 101),
        parts=[[unit(0, 4), unit(1, 4), unit(2, 4), (-1, -1, -1, -1)], [unit(3, 4)]],
        nabla_points=[70, 5], ell_nabla=74, complement=52, curve=51),
    "hexagon": dict(
        vertices=HEXAGON, polar=HEXAGON_POLAR,
        f_vector=[(-1, 1), (0, 6), (1, 6), (2, 1)],
        ell=7, ell_polar=7, hodge=None,
        parts=[[(1, 0), (-1, -1)], [(0, 1), (1, 1), (-1, 0), (0, -1)]],
        not_nef=True),
    "cube4": dict(
        vertices=_cube(4), polar=_cross(4),
        f_vector=[(-1, 1), (0, 16), (1, 32), (2, 24), (3, 8), (4, 1)],
        ell=81, ell_polar=9, hodge=(68, 4), parts=None),
    "p5-33": dict(
        vertices=_fan_simplex(5), polar=_polar_simplex(5),
        f_vector=[(-1, 1), (0, 6), (1, 15), (2, 20), (3, 15), (4, 6), (5, 1)],
        ell=7, ell_polar=462, hodge=None,
        parts=[[unit(0, 5), unit(1, 5), unit(2, 5)],
               [unit(3, 5), unit(4, 5), (-1, -1, -1, -1, -1)]],
        nabla_points=[56, 56], ell_nabla=111, complement=351, curve=350),
}

# Images of each base per pass of nef-suite.  The cheap K3/CY inputs run
# three times so the per-op latency distribution is not set by the two
# expensive inputs alone.  With 96 ops per pass, the 95th percentile falls
# in the middle of the samples of the four [-1,1]^4 Hodge ops, all of one
# cost, rather than on the boundary between two ops of different cost.
NEF_COPIES = {"p1p1p1": 3, "wp1113": 3, "quintic": 3, "hexagon": 1, "cube4": 2, "p5-33": 1}

# Reflexive rank-3 bases of points-skewed: vertices, polar, l(P), l(polar), Hodge.
SKEW_REFLEXIVE = {
    "cube3": (CUBE3, OCTAHEDRON, 27, 7, (17, 3)),
    "octahedron": (OCTAHEDRON, CUBE3, 7, 27, (3, 17)),
    "quartic": (_fan_simplex(3), _polar_simplex(3), 5, 35, (1, 19)),
    "wp1113": (WP1113, WP1113_POLAR, 6, 39, (1, 19)),
}
SKEW_DILATES = (2, 3)  # k * [-1, 1]^3
# Band of the box scan's work, box size times facet count, for every skewed
# input and for its polar.  The scan tests each box point against every
# facet, so the band makes all scans about equally expensive; point counts
# are fixed by the base, so it also fixes each input's density l(P) / box.
SKEW_SCAN_WORK = (21000, 22000)
# Fixed skews in GL(d, Z), found once by rejection sampling of random
# unimodular matrices into the band (for the polytope and its polar).  A run
# applies a seeded signed permutation on top, which keeps every box size, so
# the seed changes the inputs but not the work: finding skews per seed costs
# seconds, and skews from a wider band spread the figures across seeds.
SKEWS = {
    "cube3.0": [[-6, 1, 2], [5, 1, -2], [-3, 1, 1]],
    "cube3.1": [[-4, 1, 1], [-9, 4, 2], [-3, 0, 1]],
    "octahedron.0": [[-2, 0, -3], [8, 1, 12], [-5, -1, -7]],
    "octahedron.1": [[6, -2, 1], [-9, 3, -1], [-5, 2, 0]],
    "quartic.0": [[2, 1, 1], [5, 2, 3], [-16, -6, -9]],
    "quartic.1": [[1, 10, 8], [0, 4, 3], [0, -5, -4]],
    "wp1113.0": [[-1, 0, 5], [-1, 1, 4], [1, 0, -4]],
    "wp1113.1": [[1, -4, 4], [-1, 5, -5], [2, -8, 7]],
    "cube3x2": [[1, 1, 0], [-2, -6, -3], [0, 1, 1]],
    "cube3x3": [[0, 0, -1], [1, 0, 0], [7, 1, 4]],
}
# Thin triangles: a small lattice triangle (20 to 60 points, at least two
# inside, so never reflexive) and its skew.
TRIANGLES = (
    ([(0, 0), (-2, 3), (7, 8)], [[-3, 20], [1, -7]]),
    ([(0, 0), (-1, -4), (-9, 3)], [[-10, -33], [-3, -10]]),
    ([(0, 0), (-9, -1), (2, 4)], [[-14, -5], [3, 1]]),
    ([(0, 0), (-6, -8), (4, 0)], [[7, -3], [-23, 10]]),
)


# ---------------------------------------------------------------------------
# Writing inputs.
# ---------------------------------------------------------------------------


class _Writer:
    def __init__(self, outdir: str):
        self.outdir = outdir
        self.names: set[str] = set()

    def write(self, name: str, obj) -> str:
        if name in self.names:
            raise ValueError(f"duplicate input name {name}")
        self.names.add(name)
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        with open(os.path.join(self.outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name


def _shuffled(rng: random.Random, items) -> list:
    out = [list(x) for x in items]
    rng.shuffle(out)
    return out


def _op(ops: list, op_id: str, argv: list, code: int, kind: str, **check) -> None:
    ops.append({"id": op_id, "argv": argv, "code": code, "kind": kind, "check": check})


# ---------------------------------------------------------------------------
# nef-suite
# ---------------------------------------------------------------------------


def _nef_suite(rng: random.Random, w: _Writer) -> tuple[list, list]:
    ops: list = []
    inputs: list = []
    for name, copies in NEF_COPIES.items():
        base = NEF_BASES[name]
        d = len(base["vertices"][0])
        for c in range(copies):
            tag = f"{name}.{c}"
            a = signed_permutation(rng, d)
            # For a signed permutation a^-T = a, so the polar maps by a too.
            verts = [mat_vec(a, v) for v in base["vertices"]]
            polar = [mat_vec(a, u) for u in base["polar"]]
            poly = w.write(f"{tag}.poly.json", {"rank": d, "vertices": _shuffled(rng, verts)})
            polar_file = w.write(f"{tag}.polar.json",
                                 {"rank": d, "vertices": _shuffled(rng, polar)})
            inputs.append({"input": tag, "rank": d, "box": box_size(verts),
                           "points": base["ell"], "polar_box": box_size(polar),
                           "polar_points": base["ell_polar"]})
            geo = {"vertices": [list(v) for v in verts], "dual": [list(u) for u in polar]}
            _op(ops, f"{tag}/polytope-dual", ["polytope", "dual", "--polytope", poly], 0,
                "polytope-dual", **geo)
            _op(ops, f"{tag}/polytope-faces", ["polytope", "faces", "--polytope", poly], 0,
                "polytope-faces", vertices=geo["vertices"], f_vector=base["f_vector"])

            boundary_parts = base["parts"]
            if boundary_parts is None:
                # Trivial one-part partition of all boundary points: always nef.
                boundary = [p for p in itertools.product((-1, 0, 1), repeat=d) if any(p)]
                boundary_parts = [[tuple(p) for p in boundary]]
            parts = [[mat_vec(a, v) for v in part] for part in boundary_parts]
            part_file = w.write(f"{tag}.parts.json",
                                {"parts": [_shuffled(rng, part) for part in parts]})
            poly_args = ["--polytope", poly, "--partition", part_file]
            if base.get("not_nef"):
                err = dict(error="NotNef")
                _op(ops, f"{tag}/nef-verify", ["nef", "verify"] + poly_args, 1, "error", **err)
                _op(ops, f"{tag}/nef-dual", ["nef", "dual"] + poly_args, 2, "error", **err)
                _op(ops, f"{tag}/nef-counts", ["nef", "counts"] + poly_args, 2, "error", **err)
            else:
                _op(ops, f"{tag}/nef-verify", ["nef", "verify"] + poly_args, 0, "nef-verify",
                    k=len(parts), part_sizes=[len(p) for p in parts])
                nabla_points = base.get("nabla_points", [base["ell_polar"]])
                _op(ops, f"{tag}/nef-dual", ["nef", "dual"] + poly_args, 0, "nef-dual",
                    nabla_points=nabla_points, vertices=geo["vertices"])
                if len(parts) == 2:
                    _op(ops, f"{tag}/nef-counts", ["nef", "counts"] + poly_args, 0,
                        "nef-counts", ell_polar=base["ell_polar"], ell_nabla=base["ell_nabla"],
                        ell_nabla_i=nabla_points, complement=base["complement"],
                        curve=base["curve"], dim_v=d - 1)
            if len(parts) == 2:
                trivial = w.write(f"{tag}.trivial.json",
                                  {"parts": [_shuffled(rng, parts[0] + parts[1])]})
                refine_args = ["nef", "refine", "--polytope", poly,
                               "--coarse", trivial, "--fine", part_file]
                if base.get("not_nef"):
                    _op(ops, f"{tag}/nef-refine", refine_args, 2, "error", error="NotNef")
                else:
                    _op(ops, f"{tag}/nef-refine", refine_args, 0, "nef-refine")
            if base["hodge"] is not None:
                h11, h21 = base["hodge"]
                _op(ops, f"{tag}/nef-hodge", ["nef", "hodge", "--polytope", poly], 0,
                    "nef-hodge", h11=h11, h21=h21)
                _op(ops, f"{tag}/nef-hodge-polar", ["nef", "hodge", "--polytope", polar_file],
                    0, "nef-hodge", h11=h21, h21=h11)
    return ops, inputs


# ---------------------------------------------------------------------------
# points-skewed
# ---------------------------------------------------------------------------


def inverse_unimodular(a) -> list[list[int]]:
    """Exact inverse of an integer matrix of determinant +-1."""
    d = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(a)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[d:] for row in aug]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError(f"{a} is not unimodular")
    return [[int(x) for x in row] for row in inv]


def _check_band(vertices, facets: int) -> None:
    lo, hi = SKEW_SCAN_WORK
    if not lo <= box_size(vertices) * facets <= hi:
        raise ValueError(f"skewed input {vertices} leaves the scan-work band")


def _skewed_image(rng: random.Random, tag: str, verts, polar, facets: int):
    """The seeded image S A P of a base under its fixed skew A and a seeded
    signed permutation S, with (S A)^-1 and the image of the polar,
    (S A)^-T P*.  The facets of P correspond to the vertices of its polar
    and the other way round."""
    m = mat_mul(signed_permutation(rng, 3), SKEWS[tag])
    m_inv = inverse_unimodular(m)
    image = [mat_vec(m, v) for v in verts]
    _check_band(image, facets)
    if polar is None:
        return m_inv, image, None
    image_polar = [mat_vec(transpose(m_inv), u) for u in polar]
    _check_band(image_polar, len(verts))
    return m_inv, image, image_polar


def _points_ops(ops, tag, poly, counts, member):
    for region in ("all", "boundary", "interior"):
        _op(ops, f"{tag}/points-{region}",
            ["polytope", "points", "--polytope", poly, "--region", region], 0,
            "polytope-points", region=region, count=counts[region], **member)


def _points_skewed(rng: random.Random, w: _Writer) -> tuple[list, list]:
    ops: list = []
    inputs: list = []
    for name, (verts, polar, ell, ell_polar, hodge) in SKEW_REFLEXIVE.items():
        for c in range(2):
            tag = f"{name}.{c}"
            a_inv, image, image_polar = _skewed_image(rng, tag, verts, polar, len(polar))
            poly = w.write(f"{tag}.poly.json", {"rank": 3, "vertices": _shuffled(rng, image)})
            polar_file = w.write(f"{tag}.polar.json",
                                 {"rank": 3, "vertices": _shuffled(rng, image_polar)})
            inputs.append({"input": tag, "rank": 3, "box": box_size(image), "points": ell,
                           "polar_box": box_size(image_polar), "polar_points": ell_polar})
            member = dict(a_inv=a_inv, normals=[list(u) for u in polar], k=1)
            _points_ops(ops, tag, poly, {"all": ell, "boundary": ell - 1, "interior": 1}, member)
            geo = {"vertices": [list(v) for v in image], "dual": [list(u) for u in image_polar]}
            _op(ops, f"{tag}/polytope-dual", ["polytope", "dual", "--polytope", poly], 0,
                "polytope-dual", **geo)
            _op(ops, f"{tag}/polytope-reflexive", ["polytope", "reflexive", "--polytope", poly],
                0, "polytope-reflexive", vertices=geo["vertices"], reflexive=True)
            _op(ops, f"{tag}/nef-hodge", ["nef", "hodge", "--polytope", poly], 0,
                "nef-hodge", h11=hodge[0], h21=hodge[1])
            _op(ops, f"{tag}/nef-hodge-polar", ["nef", "hodge", "--polytope", polar_file], 0,
                "nef-hodge", h11=hodge[1], h21=hodge[0])
    for k in SKEW_DILATES:
        tag = f"cube3x{k}"
        a_inv, image, _ = _skewed_image(rng, tag, _cube(3, k), None, len(OCTAHEDRON))
        poly = w.write(f"{tag}.poly.json", {"rank": 3, "vertices": _shuffled(rng, image)})
        # Ehrhart: l(k C) = (2k+1)^3, interior (2k-1)^3.
        counts = {"all": (2 * k + 1) ** 3, "interior": (2 * k - 1) ** 3}
        counts["boundary"] = counts["all"] - counts["interior"]
        inputs.append({"input": tag, "rank": 3, "box": box_size(image), "points": counts["all"]})
        member = dict(a_inv=a_inv, normals=[list(u) for u in OCTAHEDRON], k=k)
        _points_ops(ops, tag, poly, counts, member)
        _op(ops, f"{tag}/polytope-reflexive", ["polytope", "reflexive", "--polytope", poly],
            1, "polytope-reflexive", vertices=[list(v) for v in image], reflexive=False)
        _op(ops, f"{tag}/polytope-dual", ["polytope", "dual", "--polytope", poly], 2,
            "error", error="NonIntegralDual")
    for c, (base, skew) in enumerate(TRIANGLES):
        tag = f"triangle.{c}"
        m = mat_mul(signed_permutation(rng, 2), skew)
        image = [mat_vec(m, v) for v in base]
        _check_band(image, 3)
        shift = (rng.randint(-50, 50), rng.randint(-50, 50))
        image = [(x + shift[0], y + shift[1]) for x, y in image]
        counts = pick_counts(image)
        poly = w.write(f"{tag}.poly.json", {"rank": 2, "vertices": _shuffled(rng, image)})
        inputs.append({"input": tag, "rank": 2, "box": box_size(image), "points": counts["all"]})
        _points_ops(ops, tag, poly, counts, dict(triangle=[list(v) for v in image]))
        _op(ops, f"{tag}/polytope-reflexive", ["polytope", "reflexive", "--polytope", poly],
            1, "polytope-reflexive", vertices=[list(v) for v in image], reflexive=False)
    return ops, inputs


def _area2(tri) -> int:
    (x0, y0), (x1, y1), (x2, y2) = tri
    return abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


def pick_counts(tri) -> dict:
    """Lattice-point counts of a triangle by Pick's theorem."""
    from math import gcd

    b = sum(gcd(tri[i][0] - tri[i - 1][0], tri[i][1] - tri[i - 1][1]) for i in range(3))
    interior = (_area2(tri) - b + 2) // 2
    return {"all": interior + b, "boundary": b, "interior": interior}


# ---------------------------------------------------------------------------
# lattice-family
# ---------------------------------------------------------------------------

def _e8_gram() -> list[list[int]]:
    edges = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))
    g = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in edges:
        g[a - 1][b - 1] = g[b - 1][a - 1] = 1
    return g


def piece(spec: str) -> dict:
    """Rank, signature, Gram matrix and discriminant data of a standard piece."""
    if spec == "H":
        return dict(rank=2, sig=(1, 1), gram=[[0, 1], [1, 0]], det=-1, cyclic=[])
    if spec == "E8(-1)":
        return dict(rank=8, sig=(0, 8), gram=_e8_gram(), det=1, cyclic=[])
    if spec == "A1(-1)":
        spec = "<-2>"
    n = int(spec[1:-1])
    return dict(rank=1, sig=(1, 0) if n > 0 else (0, 1), gram=[[n]], det=n, cyclic=[n])


def form_values(specs) -> list[Fraction]:
    """Sorted discriminant-form values q(x) in Q/2Z of a direct sum."""
    values = [Fraction(0)]
    for s in specs:
        p = piece(s)
        if not p["cyclic"]:
            continue
        n = p["cyclic"][0]
        own = [Fraction(k * k, n) % 2 for k in range(abs(n))]
        values = [(x + y) % 2 for x in values for y in own]
    return sorted(values)


def invariant_factors(orders) -> list[int]:
    """Invariant factors (> 1, ascending) of a product of cyclic groups."""
    exps: dict[int, list[int]] = {}
    for n in orders:
        n = abs(n)
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                exps.setdefault(p, []).append(e)
            p += 1
    factors = []
    depth = max((len(v) for v in exps.values()), default=0)
    for i in range(depth):
        f = 1
        for p, es in exps.items():
            es = sorted(es, reverse=True)
            if i < len(es):
                f *= p ** es[i]
        factors.append(f)
    return sorted(f for f in factors if f > 1)


def lattice_invariants(specs) -> dict:
    pieces = [piece(s) for s in specs]
    det = 1
    for p in pieces:
        det *= p["det"]
    return {
        "rank": sum(p["rank"] for p in pieces),
        "signature": [sum(p["sig"][0] for p in pieces), sum(p["sig"][1] for p in pieces)],
        "det": det,
        "group": invariant_factors([c for p in pieces for c in p["cyclic"]]),
        "form_values": [str(v) for v in form_values(specs)],
    }


def direct_sum_gram(specs) -> list[list[int]]:
    grams = [piece(s)["gram"] for s in specs]
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(g)
    return out


def _k3_complement(specs) -> dict:
    """Invariants of the orthogonal complement of a sum of pieces in K3
    (signature (3, 19), unimodular): the discriminant form is negated."""
    inv = lattice_invariants(specs)
    return {
        "rank": 22 - inv["rank"],
        "signature": [3 - inv["signature"][0], 19 - inv["signature"][1]],
        "det_abs": abs(inv["det"]),
        "group": inv["group"],
        "form_values": [str(v) for v in sorted(-Fraction(x) % 2 for x in inv["form_values"])],
    }


def _default_f(specs) -> list[int]:
    """Default isotropic vector of the canonical embedding: e of the first
    H block the image leaves free, trying the 2nd, 3rd, then 1st block.
    H and rank-one pieces fill the H blocks in order."""
    used = sum(1 for s in specs if s != "E8(-1)")
    block = 1 if used <= 1 else 2
    f = [0] * 22
    f[2 * block] = 1
    return f


def _mirror_op(ops, tag, specs, expect_specs):
    spec = "+".join(specs)
    expect = "+".join(expect_specs)
    comp = _k3_complement(specs)
    inv = lattice_invariants(expect_specs)
    check = dict(rank=22 - lattice_invariants(specs)["rank"] - 2, signature=inv["signature"],
                 det_abs=abs(inv["det"]), group=inv["group"], form_values=comp["form_values"],
                 f=_default_f(specs))
    if inv["form_values"] != comp["form_values"]:
        raise ValueError(f"expected mirror {expect} has the wrong discriminant form")
    _op(ops, tag, ["lattice", "mirror", "--spec", spec, "--expect", expect], 0,
        "lattice-mirror", **check)


def conjugate(rng: random.Random, gram, steps: int):
    """U^T G U for a random unimodular U, and U^-1."""
    u, u_inv = unimodular(rng, len(gram), steps)
    return mat_mul(mat_mul(transpose(u), gram), u), u_inv


def _lattice_family(rng: random.Random, w: _Writer) -> tuple[list, list]:
    # Discriminant enumeration costs grow with the group order, so seeded
    # orders are drawn from narrow ranges: the seed changes the inputs, not
    # the amount of work.
    ops: list = []
    for c in range(4):
        n = rng.randint(16, 20)
        _mirror_op(ops, f"mirror.rank1.{c}", [f"<{2 * n}>"],
                   ["H", "E8(-1)", "E8(-1)", f"<{-2 * n}>"])
    for c in range(2):
        n = rng.randint(16, 20)
        _mirror_op(ops, f"mirror.H.{c}", ["H", f"<{2 * n}>"], ["E8(-1)", "E8(-1)", f"<{-2 * n}>"])
        n = rng.randint(16, 20)
        _mirror_op(ops, f"mirror.E8.{c}", ["E8(-1)", f"<{2 * n}>"], ["H", "E8(-1)", f"<{-2 * n}>"])
    for c, specs in enumerate((["E8(-1)", f"<{2 * rng.randint(5, 7)}>"],
                               [f"<{2 * rng.randint(3, 4)}>", f"<{2 * rng.randint(3, 4)}>"])):
        comp = _k3_complement(specs)
        _op(ops, f"complement.{c}", ["lattice", "complement", "--spec", "+".join(specs)], 0,
            "lattice-complement", **comp)
    n, m = rng.randint(3, 4), rng.randint(3, 4)
    pieces = ["H", f"<{2 * n}>", f"<{-2 * m}>"]
    shuffled = pieces[:]
    rng.shuffle(shuffled)
    _op(ops, "match.same", ["lattice", "match", "--a", "+".join(pieces), "--b", "+".join(shuffled)],
        0, "lattice-match", matched=True)
    _op(ops, "match.other", ["lattice", "match", "--a", f"H+<{2 * n}>", "--b", f"H+<{2 * n + 2}>"],
        1, "lattice-match", matched=False)

    sums = [
        ["H", f"<{2 * rng.randint(3, 6)}>"],
        ["H", "A1(-1)", f"<{2 * rng.randint(2, 3)}>"],
        [f"<{2 * rng.randint(2, 3)}>", f"<{-2 * rng.randint(2, 3)}>"],
        [f"<{2 * rng.randint(2, 3)}>", f"<{2 * rng.randint(2, 3)}>", f"<{-2 * rng.randint(2, 3)}>"],
        ["H", "H", f"<{-2 * rng.randint(3, 6)}>"],
        ["E8(-1)", f"<{2 * rng.randint(3, 6)}>"],
    ]
    for c, specs in enumerate(sums):
        gram, _ = conjugate(rng, direct_sum_gram(specs), rng.randint(4, 10))
        inv = lattice_invariants(specs)
        _op(ops, f"invariants.{c}", ["lattice", "invariants", "--gram", _compact(gram)], 0,
            "lattice-invariants", base="+".join(specs), **inv)

    # Isotropic search: a form with a witness inside the bound, two forms
    # that are anisotropic over Q (exhaustion is INCONCLUSIVE), one definite.
    bound = 5
    specs = ["H", f"<{2 * rng.randint(3, 6)}>"]
    while True:
        gram, u_inv = conjugate(rng, direct_sum_gram(specs), rng.randint(3, 8))
        witness = [row[0] for row in u_inv]  # U^-1 e_1, with e_1 isotropic in H
        if max(abs(x) for x in witness) <= bound:
            break
    _op(ops, "isotropic.found", ["lattice", "isotropic", "--gram", _compact(gram),
                                 "--bound", str(bound)], 0, "lattice-isotropic",
        gram=gram, bound=bound, outcome="found", base="+".join(specs))
    for c, (specs, b) in enumerate(((["<2>", "<2>", "<-6>"], 6),
                                    (["<2>", "<2>", "<2>", "<-14>"], 4))):
        gram, _ = conjugate(rng, direct_sum_gram(specs), rng.randint(3, 8))
        _op(ops, f"isotropic.anisotropic.{c}", ["lattice", "isotropic", "--gram", _compact(gram),
                                                "--bound", str(b)], 1, "lattice-isotropic",
            gram=gram, bound=b, outcome="inconclusive", base="+".join(specs))
    gram, _ = conjugate(rng, direct_sum_gram(["E8(-1)"]), rng.randint(4, 10))
    _op(ops, "isotropic.definite", ["lattice", "isotropic", "--gram", _compact(gram)], 0,
        "lattice-isotropic", gram=gram, bound=10, outcome="definite", base="E8(-1)")

    for c in range(6):
        i, j = rng.choice((1, 2, 4)), rng.choice((1, 2, 4))
        mu = _random_partition(rng, i + j)
        _op(ops, f"family.quartic.{c}", ["family", "quartic", "--i", str(i), "--j", str(j),
                                         "--mu", ",".join(map(str, mu))], 0,
            "family-quartic", i=i, j=j, mu=mu)
    _op(ops, "family.sweep", ["family", "sweep"], 0, "family-sweep", count=71)

    for name, args, payload in HODGE_FIXTURE_OPS:
        _op(ops, f"hodge.{name}", ["hodge"] + args, 0, "hodge-fixture", payload=payload)
    for c in range(4):
        u, v = rng.randint(0, 40), rng.randint(0, 40)
        _op(ops, f"hodge.lmhs.{c}", ["hodge", "lmhs", "--u", str(u), "--v", str(v)], 0,
            "hodge-lmhs", u=u, v=v)
    return ops, []


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _random_partition(rng: random.Random, n: int) -> list[int]:
    parts = []
    while n:
        x = rng.randint(1, n)
        parts.append(x)
        n -= x
    return sorted(parts, reverse=True)


# Fixture ops of the hodge layer and the payload fields they must report.
# chi(K3) = 24 and chi = 2 - 2 * 30 + 2 = -56 for the quartic threefold; its
# Tyurin degeneration smooths to (1, 89); the relative ranks carry
# h^{1,2} = 30; Picard counts are sum(rho - 1) + ell + 1 = 16 + 2 = 18.
HODGE_FIXTURE_OPS = (
    ("euler", ["euler", "--fixture", "k3-diamond"], {"chi": 24}),
    ("euler.threefold", ["euler", "--fixture", "quartic-threefold"], {"chi": -56}),
    ("mirror", ["mirror", "--fixture", "mirror-pair-89"], {"status": "PASS"}),
    ("lee", ["lee", "--fixture", "tyurin-quartic"], {"h11": 1, "h21": 89}),
    ("glue", ["glue", "--fixture", "tyurin-quartic"], {"status": "PASS"}),
    ("lg-ranks", ["lg-ranks", "--fixture", "quartic-threefold"],
     {"ranks": [0, 0, 30, 4, 30, 0, 0]}),
    ("picard", ["picard", "--fixture", "slice-h1"], {"picard": 18}),
    ("picard.h2", ["picard", "--fixture", "slice-h2"], {"picard": 18}),
    ("slice.h1", ["slice", "--fixture", "slice-h1"], {"status": "PASS"}),
    ("slice.h2", ["slice", "--fixture", "slice-h2"], {"status": "PASS"}),
    ("slice.deg2-1", ["slice", "--fixture", "slice-deg2-1"], {"status": "PASS"}),
    ("slice.deg2-4", ["slice", "--fixture", "slice-deg2-4"], {"status": "PASS"}),
    ("conj318", ["conj318", "--fixture", "p1p1p1"], {}),
    ("conj318.wp1113", ["conj318", "--fixture", "wp1113"], {}),
)


# ---------------------------------------------------------------------------


_BUILDERS = {
    "nef-suite": _nef_suite,
    "points-skewed": _points_skewed,
    "lattice-family": _lattice_family,
}


def build(workload: str, seed: int, outdir: str) -> dict:
    """Write the inputs of one run into ``outdir``; return its manifest."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"mirrorcheck-bench:{workload}:{seed}")
    os.makedirs(outdir, exist_ok=True)
    ops, inputs = _BUILDERS[workload](rng, _Writer(outdir))
    for rec in inputs:
        rec["density"] = rec["points"] / rec["box"]
        if "polar_box" in rec:
            rec["polar_density"] = rec["polar_points"] / rec["polar_box"]
    manifest = {"workload": workload, "seed": seed, "ops": ops, "inputs": inputs}
    _Writer(outdir).write("manifest.json", manifest)
    return manifest
