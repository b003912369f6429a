"""Batch front-end: parse inputs, dispatch to the engines, emit reports.

Reports are JSON objects ``{"status", "payload", "provenance"}`` printed
with sorted keys and no timestamps, so identical invocations are
byte-identical.  Exit codes: 0 = PASS, 1 = FAIL or INCONCLUSIVE (the check
ran but did not verify), 2 = usage or input error.  Engine errors surface
with status ERROR and the engine's error name verbatim.

The argument parser is built once per process and shared by every
``main()`` call: ``parse_args`` leaves the parser unchanged and returns a
fresh namespace each time, so repeated in-process calls skip rebuilding
the subcommand tree.  ``build_parser()`` still returns a fresh parser.
A reader that closes stdout early (``| head``) ends the output silently;
the exit code is still the report's.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import __version__
from . import family as fam
from . import hodge as hg
from . import lattices as lt
from . import nef
from . import polytopes as pt
from .errors import InputError, MirrorcheckError
from .fixtures import fixture_names, load_fixture
from .intlinalg import as_int, as_int_rows, as_int_vector, strict_int

PASS, FAIL, INCONCLUSIVE, ERROR = "PASS", "FAIL", "INCONCLUSIVE", "ERROR"

_EXIT = {PASS: 0, FAIL: 1, INCONCLUSIVE: 1, ERROR: 2}


class _Inputs:
    """Resolves input slots from explicit flags, files, or a fixture."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.fixture = {}
        self.echo: dict = {}
        name = getattr(args, "fixture", None)
        if name:
            self.fixture = load_fixture(name)
            self.echo["fixture"] = name

    def _load_file(self, path: str) -> dict:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            raise InputError(f"no such file: {path}")
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror or exc}")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON in {path}: {exc.msg} "
                             f"(line {exc.lineno}, column {exc.colno})")

    def _inline_json(self, text: str, flag: str):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON in {flag}: {exc.msg} "
                             f"(line {exc.lineno}, column {exc.colno})")

    def slot(self, flag: str, slot_name: str, required: bool = True):
        """A JSON object input: file path flag wins, then the fixture slot."""
        path = getattr(self.args, flag.replace("-", "_"), None)
        if path is not None:
            data = self._load_file(path)
            # A dedicated file may carry the slot at top level or nested.
            value = data.get(slot_name, data) if isinstance(data, dict) else data
            self.echo[slot_name] = {"file": path}
        elif slot_name in self.fixture:
            value = self.fixture[slot_name]
        elif required:
            raise InputError(f"missing input: provide --{flag} or a fixture "
                             f"with a {slot_name!r} slot")
        else:
            return None
        if not isinstance(value, dict):
            raise InputError(f"{slot_name} input must be a JSON object")
        return value

    def polytope(self, flag: str = "polytope", slot: str = "polytope") -> pt.LatticePolytope:
        # Partition files may embed their polytope.
        embedded = getattr(self, "_partition_polytope", None)
        data = self.slot(flag, slot, required=embedded is None)
        if data is None:
            data = embedded
        if not isinstance(data, dict) or "vertices" not in data:
            raise InputError("polytope input must carry a 'vertices' field")
        poly = pt.hull(data["vertices"])
        if "rank" in data and as_int(data["rank"]) != poly.rank:
            raise InputError(f"polytope input declares rank {data['rank']} "
                             f"but the vertices have rank {poly.rank}")
        return poly

    def parts(self, flag: str = "partition", slot: str = "parts"):
        path = getattr(self.args, flag.replace("-", "_"), None)
        if path is not None:
            data = self._load_file(path)
            self.echo[slot] = {"file": path}
            if isinstance(data, dict):
                if "polytope" in data:
                    self._partition_polytope = data["polytope"]
                if "parts" not in data:
                    raise InputError("partition input must carry a 'parts' field")
                return data["parts"]
            return data
        if slot in self.fixture:
            return self.fixture[slot]
        raise InputError(f"missing input: provide --{flag} or a fixture "
                         f"with a {slot!r} slot")

    def gram(self) -> lt.QuadLattice:
        inline = getattr(self.args, "gram", None)
        spec = getattr(self.args, "spec", None)
        if inline is not None:
            return lt.from_gram(self._inline_json(inline, "--gram"))
        if spec is not None:
            return _parse_lattice_spec(spec)
        if "gram" in self.fixture:
            return lt.from_gram(self.fixture["gram"])
        raise InputError("missing input: provide --gram, --spec or a fixture "
                         "with a 'gram' slot")

    def diamond(self, flag: str = "diamond", slot: str = "diamond") -> hg.HodgeDiamond:
        return hg.HodgeDiamond.from_json(self.slot(flag, slot))

    def fibration(self, with_slices: bool = False):
        data = self.slot("fibration", "fibration")
        if "fibres" not in data:
            raise InputError("fibration input must carry a 'fibres' field")
        fibres = data["fibres"]
        if not isinstance(fibres, list):
            raise InputError("fibration 'fibres' must be a list")
        tags = [_fibre_tag(f) for f in fibres]
        ell = as_int(data.get("ell", 1))
        desc = hg.FibrationDescriptor.from_tags(tags, ell)
        if not with_slices:
            return desc
        if "slices" not in data:
            raise InputError("fibration input must carry a 'slices' field for slicing")
        slices = as_int_rows(data["slices"])
        return hg.SlicedFibration(desc, slices)

    def degeneration(self) -> hg.TypeIIDegeneration:
        data = self.slot("degeneration", "degeneration")
        components, curves, l_rank = _fields(data, "degeneration",
                                             "components", "double_curves", "L_rank")
        return hg.TypeIIDegeneration(as_int_vector(components), as_int(curves),
                                     as_int(l_rank))


def _fields(data: dict, kind: str, *keys: str) -> list:
    """The values of the named fields of an input object, each required."""
    for key in keys:
        if key not in data:
            raise InputError(f"{kind} input must carry a {key!r} field")
    return [data[key] for key in keys]


def _fibre_tag(entry) -> str:
    if isinstance(entry, str):
        return entry
    if not isinstance(entry, dict):
        raise InputError("fibre entries must be strings or JSON objects")
    tag = entry.get("type")
    if not isinstance(tag, str):
        raise InputError("fibre entries must carry a 'type' field")
    n = entry.get("n")
    if n is not None and "{n}" not in tag:
        n = as_int(n)
        if tag == "I":
            return f"I{n}"
        if tag == "I*":
            return f"I{n}*"
        if tag == "I^Delta":
            return f"I{n}^Delta"
        raise InputError(f"fibre type {tag!r} does not take a subscript")
    return tag


def _spec_pieces(spec: str) -> list[lt.QuadLattice]:
    pieces = [lt.standard_lattice(p.strip()) for p in spec.split("+") if p.strip()]
    if not pieces:
        raise InputError("empty lattice spec")
    return pieces


def _parse_lattice_spec(spec: str) -> lt.QuadLattice:
    return lt.direct_sum(*_spec_pieces(spec))


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (status, payload).
# ---------------------------------------------------------------------------


def _cmd_polytope_dual(inp: _Inputs):
    poly = inp.polytope()
    return PASS, {"polytope": poly.to_json(), "dual": pt.polar_dual(poly).to_json()}


def _cmd_polytope_reflexive(inp: _Inputs):
    poly = inp.polytope()
    ok = pt.is_reflexive(poly)
    return (PASS if ok else FAIL), {"reflexive": ok, "polytope": poly.to_json()}


def _cmd_polytope_points(inp: _Inputs):
    poly = inp.polytope()
    region = inp.args.region
    points = pt.lattice_points(poly, region)
    return PASS, {"region": region, "count": len(points),
                  "points": [list(p) for p in points]}


def _cmd_polytope_faces(inp: _Inputs):
    poly = inp.polytope()
    faces = pt.face_lattice(poly)
    fvec: dict = {}
    for f in faces:
        fvec[f.dim] = fvec.get(f.dim, 0) + 1
    return PASS, {
        "f_vector": [[d, fvec[d]] for d in sorted(fvec)],
        "faces": [{"dim": f.dim, "vertices": [list(v) for v in f.vertices]}
                  for f in faces],
    }


def _cmd_nef_verify(inp: _Inputs):
    parts = inp.parts()
    poly = inp.polytope()
    try:
        np_ = nef.validate_nef_partition(poly, parts)
    except InputError:
        raise
    except MirrorcheckError as exc:
        return FAIL, {"valid": False, "error": exc.name, "message": str(exc)}
    return PASS, {"valid": True, "k": np_.k,
                  "part_sizes": [len(p) for p in np_.parts]}


def _cmd_nef_dual(inp: _Inputs):
    parts = inp.parts()
    np_ = nef.validate_nef_partition(inp.polytope(), parts)
    dual = nef.dual_nef_partition(np_)
    return PASS, dual.to_json()


def _cmd_nef_counts(inp: _Inputs):
    parts = inp.parts()
    poly = inp.polytope()
    np_ = nef.validate_nef_partition(poly, parts)
    dual = nef.dual_nef_partition(np_)
    polar = pt.polar_dual(poly)
    count = nef.complement_count(dual, polar)
    payload = {
        "ell_polar": pt.ell(polar),
        "ell_nabla": pt.ell(dual.nabla),
        "ell_nabla_i": [len(ps) for ps in dual.nabla_point_sets],
        "complement_count": count,
        "dim_v": poly.rank - 1,
    }
    if count > 0:
        payload["curve_invariant"] = nef.curve_invariant(dual, polar, poly.rank - 1)
    return PASS, payload


def _cmd_nef_hodge(inp: _Inputs):
    h11, h21 = nef.batyrev_hodge(inp.polytope())
    return PASS, {"h11": h11, "h_d_minus_2_1": h21}


def _cmd_nef_refine(inp: _Inputs):
    poly = inp.polytope()
    coarse = nef.validate_nef_partition(poly, inp.parts("coarse", "trivial_parts"))
    fine = nef.validate_nef_partition(poly, inp.parts("fine", "parts"))
    ok = nef.check_refinement(coarse, fine)
    return (PASS if ok else FAIL), {"refines": ok}


def _cmd_lattice_sum(inp: _Inputs):
    lat = inp.gram()
    return PASS, _lattice_payload(lat)


def _lattice_payload(lat: lt.QuadLattice) -> dict:
    p, q = lt.signature(lat)
    payload = {"lattice": lat.to_json(), "rank": lat.rank,
               "signature": [p, q], "det": lt.determinant(lat)}
    return payload


def _cmd_lattice_invariants(inp: _Inputs):
    lat = inp.gram()
    payload = _lattice_payload(lat)
    payload["discriminant"] = lt.discriminant(lat).to_json()
    return PASS, payload


def _cmd_lattice_complement(inp: _Inputs):
    emb = _embedding_from_args(inp)
    comp = lt.orthogonal_complement(emb)
    lat = comp.induced()
    payload = _lattice_payload(lat)
    payload["discriminant"] = lt.discriminant(lat).to_json()
    payload["image_basis"] = [list(v) for v in comp.image_basis]
    return PASS, payload


def _embedding_from_args(inp: _Inputs) -> lt.LatticeEmbedding:
    """Embedding from --embedding FILE, inline --image-basis, or --spec."""
    path = getattr(inp.args, "embedding", None)
    if path is not None:
        data = inp._load_file(path)
        if not isinstance(data, dict) or "image_basis" not in data:
            raise InputError("embedding input must carry an 'image_basis' field")
        ambient_spec = data.get("ambient", "K3")
        ambient = (lt.k3_lattice() if ambient_spec == "K3"
                   else lt.from_gram(ambient_spec))
        emb = lt.LatticeEmbedding(ambient, as_int_rows(data["image_basis"]))
        if "f" in data and getattr(inp.args, "f", None) is None:
            inp.args.f = json.dumps(data["f"])
        return emb
    basis = getattr(inp.args, "image_basis", None)
    if basis is not None:
        vectors = inp._inline_json(basis, "--image-basis")
        return lt.LatticeEmbedding(lt.k3_lattice(), as_int_rows(vectors))
    spec = getattr(inp.args, "spec", None)
    if spec is None:
        raise InputError("missing input: provide --spec, --image-basis or --embedding")
    return lt.canonical_embedding(_spec_pieces(spec))


def _cmd_lattice_mirror(inp: _Inputs):
    emb = _embedding_from_args(inp)
    fflag = getattr(inp.args, "f", None)
    if fflag is not None:
        f = as_int_vector(inp._inline_json(fflag, "--f"))
    else:
        f = lt.default_isotropic_vector(emb)
    mirror = lt.dn_mirror(emb, f)
    payload = _lattice_payload(mirror)
    payload["discriminant"] = lt.discriminant(mirror).to_json()
    payload["f"] = list(f)
    expect = getattr(inp.args, "expect", None)
    status = PASS
    if expect is not None:
        verdict = lt.invariants_match(mirror, _parse_lattice_spec(expect))
        payload["match"] = verdict.to_json()
        status = PASS if verdict.matched else FAIL
    return status, payload


def _cmd_lattice_isotropic(inp: _Inputs):
    lat = inp.gram()
    result = lt.find_isotropic(lat, inp.args.bound)
    payload = result.to_json()
    payload["bound"] = inp.args.bound
    if result.vector is not None or result.conclusive:
        return PASS, payload
    return INCONCLUSIVE, payload


def _cmd_lattice_match(inp: _Inputs):
    a = _parse_lattice_spec(inp.args.a)
    b = _parse_lattice_spec(inp.args.b)
    verdict = lt.invariants_match(a, b)
    return (PASS if verdict.matched else FAIL), verdict.to_json()


def _cmd_hodge_euler(inp: _Inputs):
    d = inp.diamond()
    return PASS, {"chi": hg.euler_char(d)}


def _cmd_hodge_mirror(inp: _Inputs):
    v = inp.diamond("v", "v")
    w = inp.diamond("w", "w")
    verdict = hg.mirror_dual_check(v, w)
    return (PASS if verdict.passed else FAIL), verdict.to_json()


def _tyurin_from(inp: _Inputs) -> hg.TyurinData:
    data = inp.slot("tyurin", "tyurin")
    x1, x2, z = map(hg.HodgeDiamond.from_json, _fields(data, "tyurin", "X1", "X2", "Z"))
    return hg.TyurinData(x1, x2, z, as_int(data.get("k", 1)))


def _cmd_hodge_lee(inp: _Inputs):
    return PASS, hg.lee_smoothing(_tyurin_from(inp)).to_json()


def _cmd_hodge_glue(inp: _Inputs):
    t = _tyurin_from(inp)
    w_chi = inp.args.w_chi
    if w_chi is None:
        w_chi = inp.fixture.get("w_chi")
        if w_chi is None:
            raise InputError("missing input: provide --w-chi")
    dim = inp.args.dim
    if dim is None:
        dim = inp.fixture.get("dim", t.x1.dim)
    verdict = hg.glue_euler_check(t, as_int(w_chi), as_int(dim))
    return (PASS if verdict.passed else FAIL), verdict.to_json()


def _cmd_hodge_lg_ranks(inp: _Inputs):
    d = inp.diamond()
    return PASS, {"ranks": hg.lg_relative_ranks(d)}


def _cmd_hodge_picard(inp: _Inputs):
    desc = inp.fibration()
    return PASS, {"picard": hg.picard_from_fibration(desc),
                  "fibration": desc.to_json()}


def _cmd_hodge_slice(inp: _Inputs):
    sliced = inp.fibration(with_slices=True)
    deg = inp.degeneration()
    verdict = hg.slicing_check(sliced, deg)
    return (PASS if verdict.passed else FAIL), verdict.to_json()


def _cmd_hodge_lmhs(inp: _Inputs):
    table = hg.lmhs_table(inp.args.u, inp.args.v)
    payload = {"table": [list(r) for r in table]}
    if inp.args.mirror is not None:
        data = inp._load_file(inp.args.mirror)
        if not isinstance(data, dict) or "table" not in data:
            raise InputError("mirror table input must carry a 'table' field")
        verdict = hg.lmhs_mirror_match(table, as_int_rows(data["table"]))
        payload["match"] = verdict.to_json()
        return (PASS if verdict.passed else FAIL), payload
    return PASS, payload


def _cmd_hodge_conj318(inp: _Inputs):
    clauses = hg.conjecture318_report(*map(as_int, _fields(
        inp.slot("data", "conj318"), "conjecture",
        "rho_10", "rho_11", "rho_01", "h11_X1", "h11_X2", "h11_ambient", "points")))
    ok = all(c.status != "FAIL" for c in clauses)
    return (PASS if ok else FAIL), {
        "clauses": [c.to_json() for c in clauses],
        "note": "conjecture-level claims; UNVERIFIABLE clauses are recorded, not asserted",
    }


def _cmd_family_quartic(inp: _Inputs):
    try:
        mu = [strict_int(x) for x in inp.args.mu.split(",") if x != ""]
    except ValueError:
        raise InputError(f"--mu must list integers, got {inp.args.mu!r}") from None
    params = fam.FamilyParams.of(inp.args.i, inp.args.j, mu)
    report = fam.family_consistency_report(params)
    return (PASS if report.all_pass else FAIL), report.to_json()


def _cmd_family_sweep(inp: _Inputs):
    reports = fam.sweep()
    payload = {
        "count": len(reports),
        "all_pass": all(r.all_pass for r in reports),
        "reports": [{"params": r.params.to_json(),
                     "W": {"h11": r.w[0], "h21": r.w[1]},
                     "V": {"h11": r.v[0], "h21": r.v[1]},
                     "all_pass": r.all_pass} for r in reports],
    }
    return (PASS if payload["all_pass"] else FAIL), payload


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorcheck",
        description="Exact invariants for mirror pairs of degenerations and fibrations.")
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="group", required=True)
    fixtures = ", ".join(fixture_names())

    def sub(group, name, handler, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--fixture", metavar="NAME",
                       help=f"load inputs from a bundled fixture ({fixtures})")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable text instead of JSON")
        p.add_argument("--out", metavar="PATH", help="also write the report to a file")
        return p

    g = top.add_parser("polytope", help="exact convex geometry").add_subparsers(
        dest="command", required=True)
    p = sub(g, "dual", _cmd_polytope_dual, help="polar dual of a reflexive polytope")
    p.add_argument("--polytope", metavar="FILE")
    p = sub(g, "reflexive", _cmd_polytope_reflexive, help="reflexivity check")
    p.add_argument("--polytope", metavar="FILE")
    p = sub(g, "points", _cmd_polytope_points, help="lattice point enumeration")
    p.add_argument("--polytope", metavar="FILE")
    p.add_argument("--region", choices=("all", "boundary", "interior"), default="all")
    p = sub(g, "faces", _cmd_polytope_faces, help="full face lattice")
    p.add_argument("--polytope", metavar="FILE")

    g = top.add_parser("nef", help="nef partitions and their duals").add_subparsers(
        dest="command", required=True)
    for name, handler, desc in (
            ("verify", _cmd_nef_verify, "validate a nef partition"),
            ("dual", _cmd_nef_dual, "dual nef partition"),
            ("counts", _cmd_nef_counts, "complement and curve counts"),
    ):
        p = sub(g, name, handler, help=desc)
        p.add_argument("--polytope", metavar="FILE")
        p.add_argument("--partition", metavar="FILE")
    p = sub(g, "hodge", _cmd_nef_hodge, help="hypersurface Hodge numbers")
    p.add_argument("--polytope", metavar="FILE")
    p = sub(g, "refine", _cmd_nef_refine, help="refinement check")
    p.add_argument("--polytope", metavar="FILE")
    p.add_argument("--coarse", metavar="FILE")
    p.add_argument("--fine", metavar="FILE")

    g = top.add_parser("lattice", help="even quadratic lattices").add_subparsers(
        dest="command", required=True)
    p = sub(g, "sum", _cmd_lattice_sum, help="direct sum from a spec")
    p.add_argument("--spec", metavar="SPEC")
    p.add_argument("--gram", metavar="JSON")
    p = sub(g, "invariants", _cmd_lattice_invariants,
            help="signature, determinant, discriminant form")
    p.add_argument("--spec", metavar="SPEC")
    p.add_argument("--gram", metavar="JSON")
    p = sub(g, "complement", _cmd_lattice_complement,
            help="orthogonal complement in the K3 lattice")
    p.add_argument("--spec", metavar="SPEC")
    p.add_argument("--image-basis", metavar="JSON")
    p.add_argument("--embedding", metavar="FILE")
    p = sub(g, "mirror", _cmd_lattice_mirror, help="mirror lattice (Zf)^perp / Zf")
    p.add_argument("--spec", metavar="SPEC")
    p.add_argument("--image-basis", metavar="JSON")
    p.add_argument("--embedding", metavar="FILE")
    p.add_argument("--f", metavar="JSON", help="isotropic vector in ambient coordinates")
    p.add_argument("--expect", metavar="SPEC", help="compare invariants against this lattice")
    p = sub(g, "isotropic", _cmd_lattice_isotropic, help="bounded isotropic vector search")
    p.add_argument("--spec", metavar="SPEC")
    p.add_argument("--gram", metavar="JSON")
    p.add_argument("--bound", type=strict_int, default=10)
    p = sub(g, "match", _cmd_lattice_match, help="invariant comparison of two lattices")
    p.add_argument("--a", metavar="SPEC", required=True)
    p.add_argument("--b", metavar="SPEC", required=True)

    g = top.add_parser("hodge", help="diamond arithmetic and identities").add_subparsers(
        dest="command", required=True)
    p = sub(g, "euler", _cmd_hodge_euler, help="Euler characteristic")
    p.add_argument("--diamond", metavar="FILE")
    p = sub(g, "mirror", _cmd_hodge_mirror, help="mirror transposition check")
    p.add_argument("--v", metavar="FILE")
    p.add_argument("--w", metavar="FILE")
    p = sub(g, "lee", _cmd_hodge_lee, help="smoothing Hodge numbers")
    p.add_argument("--tyurin", metavar="FILE")
    p = sub(g, "glue", _cmd_hodge_glue, help="Euler gluing check")
    p.add_argument("--tyurin", metavar="FILE")
    p.add_argument("--w-chi", type=strict_int, default=None)
    p.add_argument("--dim", type=strict_int, default=None)
    p = sub(g, "lg-ranks", _cmd_hodge_lg_ranks, help="relative cohomology ranks")
    p.add_argument("--diamond", metavar="FILE")
    p = sub(g, "picard", _cmd_hodge_picard, help="Picard count from a fibration")
    p.add_argument("--fibration", metavar="FILE")
    p = sub(g, "slice", _cmd_hodge_slice, help="slicing and moduli identities")
    p.add_argument("--fibration", metavar="FILE")
    p.add_argument("--degeneration", metavar="FILE")
    p = sub(g, "lmhs", _cmd_hodge_lmhs, help="limit mixed Hodge structure table")
    p.add_argument("--u", type=strict_int, required=True)
    p.add_argument("--v", type=strict_int, required=True)
    p.add_argument("--mirror", metavar="FILE", help="table to compare against")
    p = sub(g, "conj318", _cmd_hodge_conj318, help="fibre-count conjecture report")
    p.add_argument("--data", metavar="FILE")

    g = top.add_parser("family", help="mirror-quartic threefold family").add_subparsers(
        dest="command", required=True)
    p = sub(g, "quartic", _cmd_family_quartic, help="consistency report for one member")
    p.add_argument("--i", type=strict_int, required=True)
    p.add_argument("--j", type=strict_int, required=True)
    p.add_argument("--mu", required=True, metavar="X1,X2,...")
    p = sub(g, "sweep", _cmd_family_sweep, help="exhaustive parameter sweep")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main()`` call in this process shares."""
    return build_parser()


def _silence_stdout() -> None:
    """Point stdout's descriptor at the null device once its reader is gone,
    so the interpreter's flush at exit writes nowhere instead of raising
    again.  In-memory streams have no descriptor and are left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _render_pretty(report: dict) -> str:
    lines = [f"status: {report['status']}"]

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {value}")
        elif isinstance(obj, list):
            for value in obj:
                if isinstance(value, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}- {value}")

    walk(report["payload"], 1)
    return "\n".join(lines)


def _render(args: argparse.Namespace, status: str, payload: dict, echo: dict) -> str:
    report = {
        "status": status,
        "payload": payload,
        "provenance": {
            "tool": "mirrorcheck",
            "version": __version__,
            "command": [args.group, getattr(args, "command", "")],
            "inputs": echo,
        },
    }
    if args.pretty:
        return _render_pretty(report)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # --help and --version leave argparse's text in stdout's buffer.
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _silence_stdout()
        code = exc.code
        return code if isinstance(code, int) else 2

    inputs_echo: dict = {}
    try:
        inp = _Inputs(args)
        status, payload = args.handler(inp)
        inputs_echo = inp.echo
    except MirrorcheckError as exc:
        status = ERROR
        payload = {"error": exc.name, "message": str(exc)}
    except Exception as exc:  # never a traceback: any other failure is reported
        status = ERROR
        payload = {"error": "InternalError", "message": f"{type(exc).__name__}: {exc}"}

    text = _render(args, status, payload, inputs_echo)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            status = ERROR
            payload = {"error": "InputError", "message": str(exc)}
            text = _render(args, status, payload, inputs_echo)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        _silence_stdout()
    return _EXIT[status]


if __name__ == "__main__":
    sys.exit(main())
