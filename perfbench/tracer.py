"""Span tracing of mirrorcheck's public functions, from outside the library.

``Tracer.install()`` replaces every listed function with a timing wrapper
in every ``mirrorcheck`` module that holds it as a global, whatever the
local name (``polytopes`` and ``nef`` import ``rank`` as ``mat_rank``), so
cross-module calls are timed too; ``uninstall()`` puts the originals back.
Spans stay in memory as ``(span, parent, op, name, start, end)`` tuples and
are written out once, at the end of the run.  Self time is a span's duration minus that of its
direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

# Layer -> wrapped functions, as "<module>.<function>".  The hodge layer is
# reported as a module total over all of its functions.
TRACED = {
    "cli": ("cli.build_parser", "cli.main", "fixtures.load_fixture"),
    "intlinalg": tuple(f"intlinalg.{f}" for f in (
        "rank", "solve_exact", "determinant", "smith_normal_form",
        "inverse_unimodular", "kernel_basis", "integral_solve")),
    "polytopes": tuple(f"polytopes.{f}" for f in (
        "hull", "polar_dual", "lattice_points", "face_lattice", "dual_face",
        "ell_star_face", "smallest_face_containing", "extreme_points")),
    "nef": tuple(f"nef.{f}" for f in (
        "validate_nef_partition", "dual_nef_partition", "complement_count",
        "curve_invariant", "batyrev_hodge", "check_refinement")),
    "lattices": tuple(f"lattices.{f}" for f in (
        "signature", "determinant", "discriminant", "orthogonal_complement",
        "dn_mirror", "find_isotropic", "invariants_match", "canonical_embedding",
        "QuadLattice.bilinear")),
    "hodge": (),
    "family": ("family.family_consistency_report", "family.sweep"),
}

MODULES = ("cli", "fixtures", "intlinalg", "polytopes", "nef", "lattices", "hodge", "family")
LATTICE_POINTS = "polytopes.lattice_points"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer, funcs in TRACED.items():
        for f in funcs:
            names += [f"{f}.calls", f"{f}.self_s"]
        if layer == "hodge":
            names.append("hodge.calls")
        names.append(f"{layer}.self_s")
        if layer == "polytopes":
            names += [f"{LATTICE_POINTS}.box_points", f"{LATTICE_POINTS}.points",
                      f"{LATTICE_POINTS}.density"]
    return names


def _box_points(poly) -> int:
    out = 1
    for k in range(poly.rank):
        coords = [v[k] for v in poly.vertices]
        out *= max(coords) - min(coords) + 1
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._next = 0
        self.layer_of: dict[str, str] = {}
        self.box_points = 0
        self.points = 0
        self._patched: list[tuple] | None = None

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_points = name == LATTICE_POINTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end))
            if count_points:
                self.box_points += _box_points(args[0])
                self.points += len(result)
            return result

        return traced

    def _patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every place to patch."""
        mods = {m: importlib.import_module(f"mirrorcheck.{m}") for m in MODULES}
        mods["mirrorcheck"] = importlib.import_module("mirrorcheck")
        targets = {}
        for layer, funcs in TRACED.items():
            for qual in funcs:
                mod, _, attr = qual.partition(".")
                if "." in attr:
                    continue  # a method, patched on its class below
                targets[id(getattr(mods[mod], attr))] = qual
                self.layer_of[qual] = layer
        hodge = mods["hodge"]
        for attr, obj in vars(hodge).items():
            if inspect.isfunction(obj) and obj.__module__ == hodge.__name__:
                targets[id(obj)] = f"hodge.{attr}"
                self.layer_of[f"hodge.{attr}"] = "hodge"
        wrappers = {}
        patches = []
        for mod in mods.values():
            for attr, obj in vars(mod).items():
                qual = targets.get(id(obj))
                if qual is not None:
                    if qual not in wrappers:
                        wrappers[qual] = self._wrap(qual, obj)
                    patches.append((mod, attr, obj, wrappers[qual]))
        quad = mods["lattices"].QuadLattice
        qual = "lattices.QuadLattice.bilinear"
        self.layer_of[qual] = "lattices"
        patches.append((quad, "bilinear", quad.bilinear, self._wrap(qual, quad.bilinear)))
        return patches

    def install(self) -> None:
        """Patch the listed functions wherever a mirrorcheck module holds them."""
        if self._patched is None:
            self._patched = self._patches()
        for owner, attr, _, wrapper in self._patched:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, original, _ in self._patched or ():
            setattr(owner, attr, original)

    def summary(self, passes: int, slowness: dict) -> dict:
        """Per-layer metrics, as totals per pass over the op list; self times
        at reference speed, given each op execution's slowness factor."""
        child = {}
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        calls: dict = {}
        self_s: dict = {}
        for sid, _, op, name, start, end in self.spans:
            calls[name] = calls.get(name, 0) + 1
            own = ((end - start) - child.get(sid, 0.0)) / slowness[op]
            self_s[name] = self_s.get(name, 0.0) + own
        out = {}
        layer_self = {layer: 0.0 for layer in TRACED}
        hodge_calls = 0
        for name, secs in self_s.items():
            layer_self[self.layer_of[name]] += secs
            if self.layer_of[name] == "hodge":
                hodge_calls += calls[name]
        for layer, funcs in TRACED.items():
            for f in funcs:
                out[f"{f}.calls"] = (calls.get(f, 0) / passes, "count")
                out[f"{f}.self_s"] = (self_s.get(f, 0.0) / passes, "s")
            if layer == "hodge":
                out["hodge.calls"] = (hodge_calls / passes, "count")
            out[f"{layer}.self_s"] = (layer_self[layer] / passes, "s")
        out[f"{LATTICE_POINTS}.box_points"] = (self.box_points / passes, "count")
        out[f"{LATTICE_POINTS}.points"] = (self.points / passes, "count")
        density = self.points / self.box_points if self.box_points else 0.0
        out[f"{LATTICE_POINTS}.density"] = (density, "ratio")
        return out

    def write(self, path: str, op_ids: list[str]) -> None:
        """All spans as gzipped JSON lines, one per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"span": sid, "parent": parent, "op": op,
                                     "op_id": op_ids[op % len(op_ids)], "name": name,
                                     "start": start, "end": end}) + "\n")
