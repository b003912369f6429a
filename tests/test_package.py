"""The package surface: public names, and what a cold start loads."""

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mirrorcheck
from mirrorcheck.errors import InputError
from mirrorcheck.fixtures import load_fixture

# Home module -> the public names it provides; the module names are public too.
HOMES = {
    "errors": ("MirrorcheckError",),
    "intlinalg": (),
    "polytopes": (
        "Face", "LatticePolytope", "dilate", "dual_face", "face_lattice", "hull",
        "is_reflexive", "lattice_points", "minkowski_sum", "polar_dual"),
    "nef": (
        "DualNefPartition", "NefPartition", "batyrev_hodge", "check_refinement",
        "complement_count", "curve_invariant", "divisor_component_count",
        "dual_nef_partition", "validate_nef_partition"),
    "lattices": (
        "DiscriminantData", "LatticeEmbedding", "QuadLattice", "canonical_embedding",
        "default_isotropic_vector", "determinant", "direct_sum", "discriminant",
        "dn_mirror", "find_isotropic", "invariants_match", "k3_lattice",
        "orthogonal_complement", "signature", "standard_lattice"),
    "hodge": (
        "FibrationDescriptor", "HodgeDiamond", "SlicedFibration", "TypeIIDegeneration",
        "TyurinData", "conjecture318_report", "ell_plus_k_check", "euler_blowup_curve",
        "euler_char", "fibre_components", "glue_euler_check", "h2w_formula",
        "lee_smoothing", "lg_relative_ranks", "lmhs_mirror_match", "lmhs_table",
        "mirror_dual_check", "picard_from_fibration", "slicing_check"),
    "family": (
        "FamilyParams", "FamilyReport", "family_consistency_report",
        "singular_fibre_profile", "v_hodge", "w_hodge"),
}
PUBLIC = sorted([*HOMES, *(name for names in HOMES.values() for name in names)])
ENGINES = ("family", "hodge", "lattices", "nef", "polytopes")


def fresh(code: str):
    """The JSON that ``code`` prints, run in a new interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(mirrorcheck.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_public_names_are_pinned():
    assert len(PUBLIC) == 67
    assert mirrorcheck.__all__ == PUBLIC


@pytest.mark.parametrize("home", sorted(HOMES))
def test_each_name_is_its_home_modules_object(home):
    module = getattr(mirrorcheck, home)
    assert module is sys.modules[f"mirrorcheck.{home}"]
    for name in HOMES[home]:
        assert getattr(mirrorcheck, name) is getattr(module, name)


def test_fresh_package_binds_and_lists_every_name():
    found = fresh("""
        import json, mirrorcheck
        listed = dir(mirrorcheck)
        namespace = {}
        exec("from mirrorcheck import *", namespace)
        print(json.dumps({"dir": listed, "star": sorted(set(namespace) - {"__builtins__"})}))
    """)
    assert set(PUBLIC) <= set(found["dir"])
    assert found["star"] == PUBLIC


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'mirrorcheck' has no attribute 'no_such_name'$"):
        mirrorcheck.no_such_name


# What a fresh interpreter has run after the given CLI calls: a module that
# is imported lazily and not yet run still has the lazy loader's module type.
_COLD_START = """
    import contextlib, io, json, sys, types
    import mirrorcheck.cli as cli
    cli.build_parser()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in {calls!r}]
    print(json.dumps({{"codes": codes, "run": sorted(
        name for name, module in sys.modules.items()
        if name.startswith("mirrorcheck.") and type(module) is types.ModuleType)}}))
"""
_FRONT_END = ["mirrorcheck.cli", "mirrorcheck.data", "mirrorcheck.errors",
              "mirrorcheck.fixtures", "mirrorcheck.intlinalg"]


@pytest.mark.parametrize("calls, engines", [
    ([], []),
    ([["--version"]], []),
    ([["lattice", "--help"]], []),
    ([["polytope", "faces", "--fixture", "p1p1p1"]], ["polytopes"]),
    ([["nef", "verify", "--fixture", "p1p1p1"]], ["nef", "polytopes"]),
    ([["hodge", "euler", "--fixture", "k3-diamond"]], ["hodge"]),
    ([["lattice", "invariants", "--spec", "H+<4>"],
      ["family", "quartic", "--i", "1", "--j", "1", "--mu", "2"]],
     ["family", "hodge", "lattices"]),
])
def test_cold_start_runs_only_the_engines_used(calls, engines):
    found = fresh(_COLD_START.format(calls=calls))
    assert found["codes"] == [0] * len(calls)
    run = set(found["run"])
    assert sorted(e for e in ENGINES if f"mirrorcheck.{e}" in run) == engines
    assert set(_FRONT_END) <= run


# Only ``intlinalg.solve_exact`` builds a ``Fraction``, and no command calls
# it: a fresh interpreter that runs every command group loads neither
# ``fractions`` nor the ``decimal`` that it imports.
_RATIONALS = """
    import contextlib, io, json, sys
    import mirrorcheck.cli as cli
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in {calls!r}]
    print(json.dumps({{"codes": codes,
                      "loaded": sorted({{"fractions", "decimal"}} & set(sys.modules))}}))
"""


def test_commands_load_no_rationals():
    calls = [
        ["polytope", "faces", "--fixture", "p1p1p1"],
        ["polytope", "points", "--fixture", "wp1113"],
        ["nef", "dual", "--fixture", "quintic"],
        ["nef", "hodge", "--fixture", "p1p1p1"],
        ["nef", "refine", "--fixture", "p1p1p1"],
        ["hodge", "euler", "--fixture", "k3-diamond"],
        ["lattice", "mirror", "--spec", "<4>"],
        ["lattice", "isotropic", "--spec", "H+<4>"],
        ["lattice", "match", "--a", "H", "--b", "H"],
        ["family", "quartic", "--i", "1", "--j", "1", "--mu", "2"],
    ]
    found = fresh(_RATIONALS.format(calls=calls))
    assert found == {"codes": [0] * len(calls), "loaded": []}


# The package binds each of its seven modules unrun; a module runs on its
# first attribute access, and the CLI imports the very same objects.
_RUN = """
    def run():
        import sys, types
        return sorted(name for name, module in sys.modules.items()
                      if name.startswith("mirrorcheck.") and type(module) is types.ModuleType)
"""


def test_bare_import_binds_every_module_unrun():
    found = fresh(_RUN + """
    import json, sys, mirrorcheck
    print(json.dumps({"run": run(), "bound": sorted(
        name for name in sys.modules if name.startswith("mirrorcheck."))}))
    """)
    assert found == {"run": [], "bound": sorted(f"mirrorcheck.{home}" for home in HOMES)}


def test_imported_module_runs_on_first_attribute_access():
    found = fresh(_RUN + """
    import importlib.util, json
    from mirrorcheck import nef
    lazy = type(nef) is importlib.util._LazyModule
    before = run()
    nef.NefPartition
    print(json.dumps({"lazy": lazy, "before": before, "after": run()}))
    """)
    assert found["lazy"] and found["before"] == []
    assert {"mirrorcheck.nef", "mirrorcheck.polytopes"} <= set(found["after"])
    assert "mirrorcheck.lattices" not in found["after"]


def test_cli_engines_are_the_package_modules():
    found = fresh("""
    import json, mirrorcheck, mirrorcheck.cli as cli
    aliases = {"fam": "family", "hg": "hodge", "lt": "lattices", "nef": "nef",
               "pt": "polytopes"}
    print(json.dumps({alias: getattr(cli, alias) is getattr(mirrorcheck, home)
                      for alias, home in aliases.items()}))
    """)
    assert found == dict.fromkeys(["fam", "hg", "lt", "nef", "pt"], True)


_TYURIN = mirrorcheck.TyurinData(*(
    mirrorcheck.HodgeDiamond.from_json(load_fixture("tyurin-quartic")["tyurin"][part])
    for part in ("X1", "X2", "Z")))
_NEF = load_fixture("p1p1p1")
_DELTA = mirrorcheck.hull(_NEF["polytope"]["vertices"])
_NABLA = mirrorcheck.dual_nef_partition(
    mirrorcheck.validate_nef_partition(_DELTA, _NEF["parts"]))


# A public integer parameter reads as ``as_int`` reads it: 2.0 acts as 2,
# and 2.5 or True is an InputError (the reprs tell 2.0 from 2 in a result).
@pytest.mark.parametrize("call", [
    lambda n: mirrorcheck.dilate(mirrorcheck.hull([[0, 0], [1, 0], [0, 1]]), n).vertices,
    lambda n: mirrorcheck.find_isotropic(mirrorcheck.standard_lattice("H"), n),
    lambda n: mirrorcheck.lmhs_table(1, n),
    lambda n: mirrorcheck.lattices.rank_one(n).name,
    lambda n: mirrorcheck.glue_euler_check(_TYURIN, n, 1),
    lambda n: mirrorcheck.glue_euler_check(_TYURIN, 0, n),
    lambda n: mirrorcheck.euler_blowup_curve(0, n),
    lambda n: mirrorcheck.h2w_formula(1, 1, n),
    lambda n: mirrorcheck.ell_plus_k_check(18, n),
    lambda n: mirrorcheck.conjecture318_report(1, 1, 1, 2, 2, 2, n),
    lambda n: mirrorcheck.curve_invariant(_NABLA, mirrorcheck.polar_dual(_DELTA), n),
], ids=["dilate", "find_isotropic", "lmhs_table", "rank_one", "glue_euler_check-w_chi",
        "glue_euler_check-d", "euler_blowup_curve", "h2w_formula", "ell_plus_k_check",
        "conjecture318_report", "curve_invariant"])
def test_integer_parameters_read_as_integers(call):
    assert repr(call(2.0)) == repr(call(2))
    for value in (2.5, True):
        with pytest.raises(InputError, match=f"^non-integer value {value!r}$"):
            call(value)


def _traced_names() -> list[str]:
    """The library functions the benchmark's tracer wraps by name
    (``perfbench/run.py --trace 1``), each as ``module.name`` or
    ``module.Class.method``.  The tracer's source is compiled from the
    file, so nothing is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = {"__name__": "tracer"}
    exec(compile(path.read_text(), str(path), "exec"), tracer)
    return [qual for funcs in tracer["TRACED"].values() for qual in funcs]


def _library_code():
    """The package's modules, parsed, by name, and a test of whether code
    elsewhere in the package names a definition: outside the definition
    itself, as a name or an attribute.  A docstring or comment that
    mentions it does not count, and neither does a test."""
    trees = {path.stem: ast.parse(path.read_text()) for path in
             sorted(Path(mirrorcheck.__file__).parent.glob("*.py"))}
    named: dict[str, set[int]] = {}
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, (ast.Name, ast.Attribute)):
            named.setdefault(node.id if isinstance(node, ast.Name) else node.attr,
                             set()).add(id(node))

    def called(node) -> bool:
        return bool(named.get(node.name, set()) - set(map(id, ast.walk(node))))

    return trees, called


def test_every_traced_name_resolves_in_the_library():
    # A removal that would break a traced run fails here.
    for qual in _traced_names():
        module, *attrs = qual.split(".")
        obj = importlib.import_module(f"mirrorcheck.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), qual


def test_every_private_helper_has_a_library_caller():
    # A module-level function or class whose name starts with ``_`` (dunder
    # hooks aside) is named by library code, so a helper only the tests
    # reach fails here.
    trees, called = _library_code()
    uncalled = [node.name for tree in trees.values() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and not called(node)]
    assert uncalled == []


def test_every_public_name_has_a_library_caller_an_export_or_a_trace():
    # A public module-level function or class, and a public method, is
    # named by library code, exported by ``_EXPORTS`` or traced by the
    # benchmark.  Anything else is a second spelling of an entry point that
    # only the tests reach.  ``intlinalg.mat_mul`` stays as the tests'
    # oracle for ``intlinalg._sparse_mul``.
    trees, called = _library_code()
    kept = {f"{module}.{name}" for module, names in mirrorcheck._EXPORTS.items()
            for name in names}
    kept.update(_traced_names(), ["intlinalg.mat_mul"])

    def public(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{node.name}"
                if not node.name.startswith("_"):
                    yield qual, node
                if isinstance(node, ast.ClassDef):
                    yield from public(node.body, qual)

    unused = [qual for module, tree in trees.items() for qual, node in public(tree.body, module)
              if qual not in kept and not called(node)]
    assert unused == []
