"""Batch front-end: resolve inputs, dispatch to the engines, emit reports.

Reports are JSON objects ``{"status", "payload", "provenance"}`` printed
with sorted keys and no timestamps, so identical invocations are
byte-identical.  Exit codes: 0 = PASS, 1 = FAIL or INCONCLUSIVE (the check
ran but did not verify), 2 = usage or input error.  Engine errors surface
with status ERROR and the engine's error name verbatim.

``_COMMANDS`` lists every group and subcommand with its handler, help and
flags; ``build_parser`` builds the parser from it, and ``_Inputs`` reads
from a flag's metavar whether it names a file, holds JSON or is as typed.

``_Inputs`` alone resolves, parses and echoes every input.  A partition
file's ``polytope`` serves every ``nef`` subcommand given no other; the
provenance lists the fixture and every file read, in an ERROR report too,
as far as they were read before the error; malformed JSON, JSON
nested too deeply and an integer too long for Python to read are input
errors.  A report holding an integer too long to print is rendered as an
ERROR report (``BudgetExceeded``), never a traceback.

A call that names a group and one of its commands is parsed by that
command's own parser, ``_leaf(group, command)``, which ``_add_command``
fills exactly as it fills the command's parser in the tree; ``main`` then
sets ``group`` and ``command`` itself.  The full tree, ``_parser()``,
parses every other call (``--help``, ``--version``, an unknown group or
command) and again any call the command's parser leaves arguments over
from, so every help text, usage line and error is the tree's own, byte for
byte.  Each parser is built once per process and shared by every ``main()``
call: ``parse_args`` leaves a parser unchanged and returns a fresh
namespace each time.  A valid command never builds the tree, and
``build_parser()`` still returns a fresh one.
A reader that closes stdout early (``| head``) ends the output silently;
the exit code is still the report's.

Engines load on first use, as the package docstring says: importing this
module runs none of ``family``, ``hodge``, ``lattices``, ``nef`` and
``polytopes``, so ``--help`` and ``--version`` load no engine and each
command loads only its own.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import re
import sys
from typing import Optional

from . import __version__, family as fam, hodge as hg, lattices as lt, nef, polytopes as pt
from .errors import BudgetExceeded, InputError, MirrorcheckError
from .fixtures import fixture_names, load_fixture
from .intlinalg import as_int, as_int_rows, as_int_vector, strict_int

PASS, FAIL, INCONCLUSIVE, ERROR = "PASS", "FAIL", "INCONCLUSIVE", "ERROR"

_EXIT = {PASS: 0, FAIL: 1, INCONCLUSIVE: 1, ERROR: 2}


class _Inputs:
    """The inputs of one run, each resolved by ``_get``: the first of its
    flags given, else the fixture's slot, else the caller's default or a
    ``missing input`` error.  A FILE flag names a JSON file, read once and
    echoed under the input's slot; a JSON flag is parsed as given; the
    others are taken as argparse typed them.  Accessors check shapes."""

    # Each partition flag, with the fixture slot it stands for.
    _PARTITIONS = {"partition": "parts", "coarse": "trivial_parts", "fine": "parts"}

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.echo: dict = {}
        self._fixture: dict = {}
        self._files: dict = {}
        name = getattr(args, "fixture", None)
        if name:
            self._fixture = load_fixture(name)
            self.echo["fixture"] = name

    def _get(self, *flags: str, slot: Optional[str] = None, required: bool = True,
             missing: Optional[str] = None) -> Optional[tuple]:
        """(flag, value) from the first of ``flags`` given, else (None, value)
        from the fixture's ``slot``, else None or, if ``required``, an error."""
        for flag in flags:
            given = getattr(self.args, flag.replace("-", "_"), None)
            if given is None:
                continue
            metavar = self.args.flags[flag].get("metavar")
            if metavar == "JSON":
                return flag, _parse_json(given, f"--{flag}")
            if metavar != "FILE":
                return flag, given
            self.echo[slot or flag] = {"file": given}
            return flag, self._load_file(given)
        if slot in self._fixture:
            return None, self._fixture[slot]
        if required:
            raise InputError(missing or f"missing input: provide --{flags[0]} or a "
                             f"fixture with a {slot!r} slot")
        return None

    def _load_file(self, path: str):
        if path not in self._files:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except FileNotFoundError:
                raise InputError(f"no such file: {path}") from None
            except OSError as exc:
                raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
            except UnicodeDecodeError as exc:
                raise InputError(f"{path} is not UTF-8 text: {exc.reason} "
                                 f"at byte {exc.start}") from None
            except ValueError as exc:  # a NUL character in the path
                raise InputError(f"cannot read {path}: {exc}") from None
            self._files[path] = _parse_json(text, path)
        return self._files[path]

    def _object(self, flag: str, slot: Optional[str] = None) -> dict:
        slot = slot or flag
        return _as_object(self._get(flag, slot=slot)[1], slot)

    def polytope(self) -> pt.LatticePolytope:
        found = self._get("polytope", slot="polytope", required=False)
        data = self._carried_polytope() if found is None else _as_object(found[1], "polytope")
        if not isinstance(data, dict) or "vertices" not in data:
            raise InputError("polytope input must carry a 'vertices' field")
        poly = pt.hull(data["vertices"])
        if "rank" in data and as_int(data["rank"]) != poly.rank:
            raise InputError(f"polytope input declares rank {data['rank']} "
                             f"but the vertices have rank {poly.rank}")
        return poly

    def _carried_polytope(self):
        """The polytope of the first partition file that carries one (a
        fixture's parts are a bare list)."""
        for flag, slot in self._PARTITIONS.items():
            _, data = self._get(flag, slot=slot, required=False) or (None, None)
            if isinstance(data, dict) and "polytope" in data:
                return data["polytope"]
        raise InputError("missing input: provide --polytope or a fixture "
                         "with a 'polytope' slot")

    def parts(self, flag: str = "partition"):
        """A partition file's 'parts' field or bare list, or the fixture's slot."""
        data = self._get(flag, slot=self._PARTITIONS[flag])[1]
        if isinstance(data, dict):
            (data,) = _fields(data, "partition", "parts")
        return data

    def gram(self) -> lt.QuadLattice:
        flag, value = self._get("gram", "spec", slot="gram", missing=(
            "missing input: provide --gram, --spec or a fixture with a 'gram' slot"))
        return _parse_lattice_spec(value) if flag == "spec" else lt.from_gram(value)

    def embedding(self) -> lt.LatticeEmbedding:
        flag, value = self._get("embedding", "image-basis", "spec", missing=(
            "missing input: provide --spec, --image-basis or --embedding"))
        if flag == "spec":
            return lt.canonical_embedding(_spec_pieces(value))
        if flag == "image-basis":
            return lt.LatticeEmbedding(lt.k3_lattice(), as_int_rows(value))
        if not isinstance(value, dict) or "image_basis" not in value:
            raise InputError("embedding input must carry an 'image_basis' field")
        return lt.LatticeEmbedding(lt.standard_lattice(value.get("ambient", "K3")),
                                   as_int_rows(value["image_basis"]))

    def f(self, emb: lt.LatticeEmbedding) -> tuple[int, ...]:
        """--f, else the embedding file's 'f', else the embedding's default."""
        found = self._get("f", "embedding", required=False)
        if found is None or (found[0] == "embedding" and "f" not in found[1]):
            return lt.default_isotropic_vector(emb)
        flag, value = found
        return as_int_vector(value["f"] if flag == "embedding" else value)

    def diamond(self, flag: str = "diamond") -> hg.HodgeDiamond:
        return hg.HodgeDiamond.from_json(self._object(flag))

    def tyurin(self) -> hg.TyurinData:
        data = self._object("tyurin")
        x1, x2, z = map(hg.HodgeDiamond.from_json, _fields(data, "tyurin", "X1", "X2", "Z"))
        return hg.TyurinData(x1, x2, z, data.get("k", 1))

    def w_chi(self) -> int:
        return as_int(self._get("w-chi", slot="w_chi",
                                missing="missing input: provide --w-chi")[1])

    def dim(self, default: int) -> int:
        found = self._get("dim", slot="dim", required=False)
        return as_int(default if found is None else found[1])

    def mirror_table(self) -> Optional[tuple]:
        found = self._get("mirror", required=False)
        if found is None:
            return None
        if not isinstance(found[1], dict) or "table" not in found[1]:
            raise InputError("mirror table input must carry a 'table' field")
        return as_int_rows(found[1]["table"])

    def conj318(self) -> list[int]:
        return list(map(as_int, _fields(
            self._object("data", "conj318"), "conjecture", "rho_10", "rho_11", "rho_01",
            "h11_X1", "h11_X2", "h11_ambient", "points")))

    def fibration(self, with_slices: bool = False):
        data = self._object("fibration")
        (fibres,) = _fields(data, "fibration", "fibres")
        if not isinstance(fibres, list):
            raise InputError("fibration 'fibres' must be a list")
        desc = hg.FibrationDescriptor.from_tags([_fibre_tag(f) for f in fibres],
                                                as_int(data.get("ell", 1)))
        if not with_slices:
            return desc
        if "slices" not in data:
            raise InputError("fibration input must carry a 'slices' field for slicing")
        return hg.SlicedFibration(desc, as_int_rows(data["slices"]))

    def degeneration(self) -> hg.TypeIIDegeneration:
        components, curves, l_rank = _fields(self._object("degeneration"), "degeneration",
                                             "components", "double_curves", "L_rank")
        return hg.TypeIIDegeneration(components, curves, l_rank)


def _parse_json(text: str, where: str):
    """JSON text as Python values; every parse failure is an InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {where}: {exc.msg} "
                         f"(line {exc.lineno}, column {exc.colno})") from None
    except ValueError:
        # An integer literal longer than Python's conversion limit.
        raise InputError(f"integer too long in {where}: more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise InputError(f"JSON nested too deeply in {where}") from None


def _as_object(value, slot: str) -> dict:
    """A JSON object input, which a file may also nest under its slot's name."""
    if isinstance(value, dict):
        value = value.get(slot, value)
    if not isinstance(value, dict):
        raise InputError(f"{slot} input must be a JSON object")
    return value


def _fields(data: dict, kind: str, *keys: str) -> list:
    """The values of the named fields of an input object, each required."""
    for key in keys:
        if key not in data:
            raise InputError(f"{kind} input must carry a {key!r} field")
    return [data[key] for key in keys]


# Fibre types that take a subscript n, and the tag each spells with it.
_SUBSCRIPTED = {"I": "I{}", "I*": "I{}*", "I^Delta": "I{}^Delta"}


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
        if tag not in _SUBSCRIPTED:
            raise InputError(f"fibre type {tag!r} does not take a subscript")
        return _SUBSCRIPTED[tag].format(n)
    return tag


def _spec_pieces(spec: str) -> list[lt.QuadLattice]:
    """The pieces of ``spec``, split at each ``+`` outside ``<...>``."""
    pieces = [p.strip() for p in re.split(r"\+(?![^<]*>)", spec)]
    if not any(pieces):
        raise InputError("empty lattice spec")
    if not all(pieces):
        raise InputError(f"lattice spec {spec!r} has an empty piece")
    return [lt.standard_lattice(p) for p in pieces]


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
    region = inp.args.region
    points = pt.lattice_points(inp.polytope(), region)
    return PASS, {"region": region, "count": len(points),
                  "points": [list(p) for p in points]}


def _cmd_polytope_faces(inp: _Inputs):
    poly = inp.polytope()
    faces = pt.face_lattice(poly)
    fvec = collections.Counter(f.dim for f in faces)
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
    return PASS, nef.dual_nef_partition(np_).to_json()


def _cmd_nef_counts(inp: _Inputs):
    parts = inp.parts()
    poly = inp.polytope()
    np_ = nef.validate_nef_partition(poly, parts)
    dual = nef.dual_nef_partition(np_)
    polar = dual.polar
    count = nef.complement_count(dual, polar)
    payload = {
        "ell_polar": pt.ell(polar),
        "ell_nabla": dual.ell_nabla,
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
    coarse = nef.validate_nef_partition(poly, inp.parts("coarse"))
    fine = nef.validate_nef_partition(poly, inp.parts("fine"))
    ok = nef.check_refinement(coarse, fine)
    return (PASS if ok else FAIL), {"refines": ok}


def _cmd_lattice_sum(inp: _Inputs):
    return PASS, _lattice_payload(inp.gram())


def _lattice_payload(lat: lt.QuadLattice, discriminant: bool = False) -> dict:
    p, q = lt.signature(lat)
    payload = {"lattice": lat.to_json(), "rank": lat.rank,
               "signature": [p, q], "det": lt.determinant(lat)}
    if discriminant:
        payload["discriminant"] = lt.discriminant(lat).to_json()
    return payload


def _cmd_lattice_invariants(inp: _Inputs):
    return PASS, _lattice_payload(inp.gram(), discriminant=True)


def _cmd_lattice_complement(inp: _Inputs):
    comp = lt.orthogonal_complement(inp.embedding())
    payload = _lattice_payload(comp.induced(), discriminant=True)
    payload["image_basis"] = [list(v) for v in comp.image_basis]
    return PASS, payload


def _cmd_lattice_mirror(inp: _Inputs):
    emb = inp.embedding()
    f = inp.f(emb)
    mirror = lt.dn_mirror(emb, f)
    payload = _lattice_payload(mirror, discriminant=True)
    payload["f"] = list(f)
    status = PASS
    if inp.args.expect is not None:
        verdict = lt.invariants_match(mirror, _parse_lattice_spec(inp.args.expect))
        payload["match"] = verdict.to_json()
        status = PASS if verdict.matched else FAIL
    return status, payload


def _cmd_lattice_isotropic(inp: _Inputs):
    result = lt.find_isotropic(inp.gram(), inp.args.bound)
    payload = result.to_json()
    payload["bound"] = inp.args.bound
    if result.vector is not None or result.conclusive:
        return PASS, payload
    return INCONCLUSIVE, payload


def _cmd_lattice_match(inp: _Inputs):
    verdict = lt.invariants_match(_parse_lattice_spec(inp.args.a),
                                  _parse_lattice_spec(inp.args.b))
    return (PASS if verdict.matched else FAIL), verdict.to_json()


def _cmd_hodge_euler(inp: _Inputs):
    return PASS, {"chi": hg.euler_char(inp.diamond())}


def _cmd_hodge_mirror(inp: _Inputs):
    verdict = hg.mirror_dual_check(inp.diamond("v"), inp.diamond("w"))
    return (PASS if verdict.passed else FAIL), verdict.to_json()


def _cmd_hodge_lee(inp: _Inputs):
    return PASS, hg.lee_smoothing(inp.tyurin()).to_json()


def _cmd_hodge_glue(inp: _Inputs):
    t = inp.tyurin()
    verdict = hg.glue_euler_check(t, inp.w_chi(), inp.dim(t.x1.dim))
    return (PASS if verdict.passed else FAIL), verdict.to_json()


def _cmd_hodge_lg_ranks(inp: _Inputs):
    return PASS, {"ranks": hg.lg_relative_ranks(inp.diamond())}


def _cmd_hodge_picard(inp: _Inputs):
    desc = inp.fibration()
    return PASS, {"picard": hg.picard_from_fibration(desc),
                  "fibration": desc.to_json()}


def _cmd_hodge_slice(inp: _Inputs):
    verdict = hg.slicing_check(inp.fibration(with_slices=True), inp.degeneration())
    return (PASS if verdict.passed else FAIL), verdict.to_json()


def _cmd_hodge_lmhs(inp: _Inputs):
    table = hg.lmhs_table(inp.args.u, inp.args.v)
    payload = {"table": [list(r) for r in table]}
    mirror = inp.mirror_table()
    if mirror is not None:
        verdict = hg.lmhs_mirror_match(table, mirror)
        payload["match"] = verdict.to_json()
        return (PASS if verdict.passed else FAIL), payload
    return PASS, payload


def _cmd_hodge_conj318(inp: _Inputs):
    clauses = hg.conjecture318_report(*inp.conj318())
    ok = all(c.status != "FAIL" for c in clauses)
    return (PASS if ok else FAIL), {
        "clauses": [c.to_json() for c in clauses],
        "note": "conjecture-level claims; UNVERIFIABLE clauses are recorded, not asserted",
    }


def _cmd_family_quartic(inp: _Inputs):
    try:
        mu = [strict_int(x) for x in inp.args.mu.split(",")]
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


_FILE = {"metavar": "FILE"}
_JSON = {"metavar": "JSON"}
_SPEC = {"metavar": "SPEC"}
_INT = {"type": strict_int}
_POLYTOPE = {"polytope": _FILE}
_PARTITION = {"polytope": _FILE, "partition": _FILE}
_GRAM = {"spec": _SPEC, "gram": _JSON}
_EMBEDDING = {"spec": _SPEC, "image-basis": _JSON, "embedding": _FILE}

# group -> (help, {subcommand -> (handler, help, {flag -> add_argument keywords})}).
_COMMANDS = {
    "polytope": ("exact convex geometry", {
        "dual": (_cmd_polytope_dual, "polar dual of a reflexive polytope", _POLYTOPE),
        "reflexive": (_cmd_polytope_reflexive, "reflexivity check", _POLYTOPE),
        "points": (_cmd_polytope_points, "lattice point enumeration", {
            **_POLYTOPE,
            "region": {"choices": ("all", "boundary", "interior"), "default": "all"}}),
        "faces": (_cmd_polytope_faces, "full face lattice", _POLYTOPE),
    }),
    "nef": ("nef partitions and their duals", {
        "verify": (_cmd_nef_verify, "validate a nef partition", _PARTITION),
        "dual": (_cmd_nef_dual, "dual nef partition", _PARTITION),
        "counts": (_cmd_nef_counts, "complement and curve counts", _PARTITION),
        "hodge": (_cmd_nef_hodge, "hypersurface Hodge numbers", _POLYTOPE),
        "refine": (_cmd_nef_refine, "refinement check",
                   {"polytope": _FILE, "coarse": _FILE, "fine": _FILE}),
    }),
    "lattice": ("even quadratic lattices", {
        "sum": (_cmd_lattice_sum, "direct sum from a spec", _GRAM),
        "invariants": (_cmd_lattice_invariants,
                       "signature, determinant, discriminant form", _GRAM),
        "complement": (_cmd_lattice_complement,
                       "orthogonal complement in the K3 lattice", _EMBEDDING),
        "mirror": (_cmd_lattice_mirror, "mirror lattice (Zf)^perp / Zf", {
            **_EMBEDDING,
            "f": {**_JSON, "help": "isotropic vector in ambient coordinates"},
            "expect": {**_SPEC, "help": "compare invariants against this lattice"}}),
        "isotropic": (_cmd_lattice_isotropic, "bounded isotropic vector search",
                      {**_GRAM, "bound": {**_INT, "default": 10}}),
        "match": (_cmd_lattice_match, "invariant comparison of two lattices", {
            "a": {**_SPEC, "required": True}, "b": {**_SPEC, "required": True}}),
    }),
    "hodge": ("diamond arithmetic and identities", {
        "euler": (_cmd_hodge_euler, "Euler characteristic", {"diamond": _FILE}),
        "mirror": (_cmd_hodge_mirror, "mirror transposition check", {"v": _FILE, "w": _FILE}),
        "lee": (_cmd_hodge_lee, "smoothing Hodge numbers", {"tyurin": _FILE}),
        "glue": (_cmd_hodge_glue, "Euler gluing check",
                 {"tyurin": _FILE, "w-chi": _INT, "dim": _INT}),
        "lg-ranks": (_cmd_hodge_lg_ranks, "relative cohomology ranks", {"diamond": _FILE}),
        "picard": (_cmd_hodge_picard, "Picard count from a fibration", {"fibration": _FILE}),
        "slice": (_cmd_hodge_slice, "slicing and moduli identities",
                  {"fibration": _FILE, "degeneration": _FILE}),
        "lmhs": (_cmd_hodge_lmhs, "limit mixed Hodge structure table", {
            "u": {**_INT, "required": True}, "v": {**_INT, "required": True},
            "mirror": {**_FILE, "help": "table to compare against"}}),
        "conj318": (_cmd_hodge_conj318, "fibre-count conjecture report", {"data": _FILE}),
    }),
    "family": ("mirror-quartic threefold family", {
        "quartic": (_cmd_family_quartic, "consistency report for one member", {
            "i": {**_INT, "required": True}, "j": {**_INT, "required": True},
            "mu": {"required": True, "metavar": "X1,X2,..."}}),
        "sweep": (_cmd_family_sweep, "exhaustive parameter sweep", {}),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorcheck",
        description="Exact invariants for mirror pairs of degenerations and fibrations.")
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="group", required=True)
    fixtures = ", ".join(fixture_names())
    for group, (group_help, commands) in _COMMANDS.items():
        sub = top.add_parser(group, help=group_help).add_subparsers(
            dest="command", required=True)
        for name, (handler, command_help, flags) in commands.items():
            _add_command(sub.add_parser(name, help=command_help), handler, flags, fixtures)
    return parser


def _add_command(parser: argparse.ArgumentParser, handler, flags: dict,
                 fixtures: str) -> argparse.ArgumentParser:
    """``parser`` given one command's handler, the common flags and its own."""
    parser.set_defaults(handler=handler, flags=flags)
    parser.add_argument("--fixture", metavar="NAME",
                        help=f"load inputs from a bundled fixture ({fixtures})")
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable text instead of JSON")
    parser.add_argument("--out", metavar="PATH", help="also write the report to a file")
    for flag, keywords in flags.items():
        parser.add_argument(f"--{flag}", **keywords)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main()`` call in this process shares."""
    return build_parser()


@functools.cache
def _leaf(group: str, command: str) -> argparse.ArgumentParser:
    """One command's parser on its own, as ``build_parser`` builds it in the tree."""
    handler, _, flags = _COMMANDS[group][1][command]
    return _add_command(argparse.ArgumentParser(prog=f"mirrorcheck {group} {command}"),
                        handler, flags, ", ".join(fixture_names()))


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` as the tree parses it.  A known group and command go straight
    to that command's parser, the one the tree hands the rest to; the tree
    parses every other call, and again one with arguments left over, so that
    help, the version and every error are its own.  The tree itself refuses
    an argument ``--=...`` before the first ``--``: ``--`` is a prefix of
    both of its own flags."""
    head = argv[:argv.index("--")] if "--" in argv else argv
    if (len(argv) > 1 and argv[0] in _COMMANDS and argv[1] in _COMMANDS[argv[0]][1]
            and not any(arg.startswith("--=") for arg in head)):
        args, rest = _leaf(argv[0], argv[1]).parse_known_args(argv[2:])
        if not rest:
            args.group, args.command = argv[0], argv[1]
            return args
    return _parser().parse_args(argv)


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
        items = ([(f"{key}:", obj[key]) for key in sorted(obj)] if isinstance(obj, dict)
                 else [("-", value) for value in obj])
        for label, value in items:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{label}")
                walk(value, indent + 1)
            else:
                lines.append(f"{pad}{label} {value}")

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
    try:
        if args.pretty:
            return _render_pretty(report)
        return json.dumps(report, sort_keys=True, separators=(",", ":"))
    except ValueError:
        # An integer longer than Python's conversion limit.
        raise BudgetExceeded(f"report holds an integer of more than "
                             f"{sys.get_int_max_str_digits()} digits") from None


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # --help and --version leave argparse's text in stdout's buffer.
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _silence_stdout()
        code = exc.code
        return code if isinstance(code, int) else 2

    inp = text = None
    try:
        inp = _Inputs(args)
        status, payload = args.handler(inp)
        text = _render(args, status, payload, inp.echo)
    except MirrorcheckError as exc:
        status = ERROR
        payload = {"error": exc.name, "message": str(exc)}
    except Exception as exc:  # never a traceback: any other failure is reported
        status = ERROR
        payload = {"error": "InternalError", "message": f"{type(exc).__name__}: {exc}"}

    # An ERROR report echoes whatever inputs were resolved before the error.
    inputs_echo = inp.echo if inp is not None else {}
    if text is None:
        text = _render(args, status, payload, inputs_echo)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
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
