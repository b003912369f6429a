"""Per-op oracle: checks one CLI report against what the generator knows.

``check(op, code, stdout)`` returns the list of problems found (empty when
the report is right).  Scalars are compared with the values of the
unskewed base input (GL invariance) or with closed formulas (Ehrhart,
Pick, the rank law of the mirror lattice, the LMHS table); point lists,
polar duals, nabla vertices and isotropic vectors are checked point by
point with the benchmark's own integer arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

_STATUSES = {0: ("PASS",), 1: ("FAIL", "INCONCLUSIVE"), 2: ("ERROR",)}


def check(op: dict, code, stdout: str) -> list[str]:
    problems = []
    if code != op["code"]:
        problems.append(f"exit code {code}, expected {op['code']}")
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        problems.append("stdout is not exactly one line")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not a JSON report"]
    if report.get("status") not in _STATUSES[op["code"]]:
        problems.append(f"status {report.get('status')!r} does not fit exit code {op['code']}")
    prov = report.get("provenance") or {}
    if prov.get("tool") != "mirrorcheck" or prov.get("command") != op["argv"][:2]:
        problems.append(f"provenance {prov!r} does not name the command")
    try:
        problems += _CHECKS[op["kind"]](report.get("payload") or {}, op["check"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed payload: {type(exc).__name__}: {exc}")
    return problems


def _eq(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _vset(vectors) -> set:
    return {tuple(v) for v in vectors}


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# Polytopes and nef partitions.
# ---------------------------------------------------------------------------


def _polytope_dual(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    verts, dual = _vset(c["vertices"]), _vset(c["dual"])
    _eq(out, "polytope vertices", _vset(p["polytope"]["vertices"]), verts)
    _eq(out, "dual vertices", _vset(p["dual"]["vertices"]), dual)
    # Facet/vertex duality: the facets of P are <u, x> >= -1 over the polar's
    # vertices u, and the other way round.
    for name, poly, normals in (("polytope", p["polytope"], dual), ("dual", p["dual"], verts)):
        facets = poly["facets"]
        _eq(out, f"{name} facet normals", {tuple(f[:-1]) for f in facets}, normals)
        _eq(out, f"{name} facet count", len(facets), len(normals))
        if any(f[-1] != 1 for f in facets):
            out.append(f"{name} has a facet offset other than 1")
    return out


def _polytope_faces(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "f-vector", p["f_vector"], [list(x) for x in c["f_vector"]])
    verts = _vset(c["vertices"])
    counts: dict = {}
    for face in p["faces"]:
        counts[face["dim"]] = counts.get(face["dim"], 0) + 1
        if not _vset(face["vertices"]) <= verts:
            out.append(f"face {face['vertices']} has a vertex outside the polytope")
        if len(face["vertices"]) < face["dim"] + 1:
            out.append(f"face of dim {face['dim']} has {len(face['vertices'])} vertices")
    _eq(out, "faces per dimension", sorted(counts.items()), [tuple(x) for x in c["f_vector"]])
    return out


def _region_of(point, c: dict):
    """'interior', 'boundary' or None (outside) for the generator's polytope."""
    if "triangle" in c:
        tri = c["triangle"]
        sides = []
        for i in range(3):
            a, b = tri[i - 1], tri[i]
            sides.append((b[0] - a[0]) * (point[1] - a[1]) - (b[1] - a[1]) * (point[0] - a[0]))
        if min(sides) < 0 < max(sides):
            return None
        return "boundary" if 0 in sides else "interior"
    # Image A P of k * (reflexive base): x in it iff <u, A^-1 x> >= -k for
    # every vertex u of the base's polar.
    x = [_dot(row, point) for row in c["a_inv"]]
    slacks = [_dot(u, x) + c["k"] for u in c["normals"]]
    if min(slacks) < 0:
        return None
    return "boundary" if 0 in slacks else "interior"


def _polytope_points(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    region = c["region"]
    _eq(out, "region", p["region"], region)
    _eq(out, "count", p["count"], c["count"])
    points = [tuple(x) for x in p["points"]]
    _eq(out, "listed points", len(points), c["count"])
    if points != sorted(set(points)):
        out.append("points are not distinct and in lexicographic order")
    for x in points:
        where = _region_of(x, c)
        if where is None or (region != "all" and where != region):
            out.append(f"point {list(x)} is not in the {region} region")
            break
    return out


def _polytope_reflexive(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "reflexive", p["reflexive"], c["reflexive"])
    _eq(out, "polytope vertices", _vset(p["polytope"]["vertices"]), _vset(c["vertices"]))
    return out


def _nef_verify(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "valid", p["valid"], True)
    _eq(out, "k", p["k"], c["k"])
    _eq(out, "part sizes", p["part_sizes"], c["part_sizes"])
    return out


def _nef_dual(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "nabla point counts", p["nabla_point_counts"], c["nabla_points"])
    _eq(out, "number of nabla_i", len(p["nablas"]), len(c["nabla_points"]))
    nabla = p["nabla"]
    verts = c["vertices"]
    for x in nabla["vertices"]:
        if any(_dot(x, v) < -1 for v in verts):
            out.append(f"nabla vertex {x} lies outside the polar polytope")
            break
    pieces = set()
    for piece in p["nablas"]:
        pieces |= _vset(piece["vertices"])
    if not _vset(nabla["vertices"]) <= pieces:
        out.append("a nabla vertex is no vertex of any nabla_i")
    if any(f[-1] != 1 for f in nabla["facets"]):
        out.append("nabla is not reflexive")
    return out


def _nef_counts(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "ell_polar", p["ell_polar"], c["ell_polar"])
    _eq(out, "ell_nabla", p["ell_nabla"], c["ell_nabla"])
    _eq(out, "ell_nabla_i", p["ell_nabla_i"], c["ell_nabla_i"])
    _eq(out, "complement_count", p["complement_count"], c["complement"])
    _eq(out, "curve_invariant", p["curve_invariant"], c["curve"])
    _eq(out, "dim_v", p["dim_v"], c["dim_v"])
    return out


def _nef_refine(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "refines", p["refines"], True)
    return out


def _nef_hodge(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "h11", p["h11"], c["h11"])
    _eq(out, "h_d_minus_2_1", p["h_d_minus_2_1"], c["h21"])
    return out


def _error(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "error", p["error"], c["error"])
    return out


# ---------------------------------------------------------------------------
# Lattices, family, hodge.
# ---------------------------------------------------------------------------


def _det(m) -> int:
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(det)


def _lattice_common(out: list, p: dict, c: dict) -> None:
    _eq(out, "rank", p["rank"], c["rank"])
    _eq(out, "signature", p["signature"], c["signature"])
    _eq(out, "discriminant group", p["discriminant"]["group"], c["group"])
    _eq(out, "discriminant form", p["discriminant"]["form_values"], c["form_values"])
    gram = p["lattice"]["gram"]
    _eq(out, "gram size", len(gram), c["rank"])
    _eq(out, "det of the reported gram", _det(gram), p["det"])


def _lattice_mirror(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _lattice_common(out, p, c)
    _eq(out, "|det|", abs(p["det"]), c["det_abs"])
    _eq(out, "f", p["f"], c["f"])
    _eq(out, "match", p["match"], {"status": "MATCH", "mismatches": []})
    return out


def _lattice_complement(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _lattice_common(out, p, c)
    _eq(out, "|det|", abs(p["det"]), c["det_abs"])
    _eq(out, "image basis size", len(p["image_basis"]), c["rank"])
    return out


def _lattice_invariants(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _lattice_common(out, p, c)
    _eq(out, "det", p["det"], c["det"])
    return out


def _lattice_match(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "status", p["status"], "MATCH" if c["matched"] else "MISMATCH")
    _eq(out, "has mismatches", bool(p["mismatches"]), not c["matched"])
    return out


def _lattice_isotropic(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "bound", p["bound"], c["bound"])
    outcome = c["outcome"]
    if outcome == "found":
        v = p["vector"]
        gram = c["gram"]
        if not isinstance(v, list) or len(v) != len(gram):
            return out + [f"no isotropic vector of length {len(gram)}: {v!r}"]
        q = sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))
        _eq(out, "q(v)", q, 0)
        g = 0
        for x in v:
            g = gcd(g, x)
        _eq(out, "gcd(v)", g, 1)
        if max(abs(x) for x in v) > c["bound"]:
            out.append(f"vector {v} exceeds the bound")
        _eq(out, "exists", p["exists"], True)
        _eq(out, "conclusive", p["conclusive"], True)
    else:
        _eq(out, "vector", p["vector"], None)
        _eq(out, "exists", p["exists"], None if outcome == "inconclusive" else False)
        _eq(out, "conclusive", p["conclusive"], outcome == "definite")
    return out


def _family_report(out: list, r: dict) -> None:
    if not r.get("all_pass"):
        out.append(f"member {r.get('params')} does not pass")
    w, v = r["W"], r["V"]
    if (v["h11"], v["h21"]) != (w["h21"], w["h11"]):
        out.append(f"member {r['params']}: V {v} is not the mirror of W {w}")


def _family_quartic(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "params", p["params"], {"i": c["i"], "j": c["j"], "mu": c["mu"]})
    _family_report(out, p)
    if any(chk["status"] != "PASS" for chk in p["checks"]):
        out.append("a consistency check does not pass")
    _eq(out, "lee", p["lee"], p["V"])
    # chi of a Calabi-Yau threefold is 2 (h11 - h21).
    _eq(out, "chi_W", p["chi_W"], 2 * (p["W"]["h11"] - p["W"]["h21"]))
    _eq(out, "chi_V", p["chi_V"], -p["chi_W"])
    return out


def _family_sweep(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    _eq(out, "count", p["count"], c["count"])
    _eq(out, "reports", len(p["reports"]), c["count"])
    _eq(out, "all_pass", p["all_pass"], True)
    seen = set()
    for r in p["reports"]:
        _family_report(out, r)
        seen.add(json.dumps(r["params"], sort_keys=True))
    _eq(out, "distinct members", len(seen), c["count"])
    return out


def _hodge_fixture(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    for key, want in c["payload"].items():
        _eq(out, key, p[key], want)
    if "clauses" in p and any(cl["status"] == "FAIL" for cl in p["clauses"]):
        out.append("a conjecture clause fails")
    return out


def _hodge_lmhs(p: dict, c: dict) -> list[str]:
    out: list[str] = []
    u, v = c["u"], c["v"]
    _eq(out, "table", p["table"], [[1, u, 1, 0], [0, v, v, 0], [0, 1, u, 1]])
    return out


_CHECKS = {
    "polytope-dual": _polytope_dual,
    "polytope-faces": _polytope_faces,
    "polytope-points": _polytope_points,
    "polytope-reflexive": _polytope_reflexive,
    "nef-verify": _nef_verify,
    "nef-dual": _nef_dual,
    "nef-counts": _nef_counts,
    "nef-refine": _nef_refine,
    "nef-hodge": _nef_hodge,
    "error": _error,
    "lattice-mirror": _lattice_mirror,
    "lattice-complement": _lattice_complement,
    "lattice-invariants": _lattice_invariants,
    "lattice-match": _lattice_match,
    "lattice-isotropic": _lattice_isotropic,
    "family-quartic": _family_quartic,
    "family-sweep": _family_sweep,
    "hodge-fixture": _hodge_fixture,
    "hodge-lmhs": _hodge_lmhs,
}
