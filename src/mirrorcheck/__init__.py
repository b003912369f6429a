"""Exact-arithmetic invariants for mirror pairs of degenerations and fibrations.

Subpackages by topic: ``polytopes`` (exact convex geometry over Z),
``nef`` (nef partitions, duals and fibre/genus counts), ``lattices`` (even
quadratic forms and the mirror-lattice construction), ``hodge`` (diamond
arithmetic and gluing/smoothing identities), ``family`` (the mirror-quartic
threefold family calculator), and ``cli`` (the batch front-end).

Modules run on first use: ``import mirrorcheck`` binds each module of
``_EXPORTS`` unrun (``importlib.util.LazyLoader``), and a module runs on the
first access to one of its attributes; every import of it, from here or from
a sibling module, gets that same object.  The first lookup of a public name
reads it from its home module (a module ``__getattr__``, PEP 562) and keeps
it in the package.
"""

import importlib.util
import sys as _sys

__version__ = "0.1.0"

# Home module -> the public names it provides.  The module names are public too.
_EXPORTS = {
    "errors": ("MirrorcheckError",),
    "intlinalg": (),
    "polytopes": (
        "LatticePolytope", "Face", "hull", "polar_dual", "is_reflexive",
        "lattice_points", "face_lattice", "dual_face", "minkowski_sum", "dilate"),
    "nef": (
        "NefPartition", "DualNefPartition", "validate_nef_partition",
        "dual_nef_partition", "check_refinement", "complement_count",
        "curve_invariant", "divisor_component_count", "batyrev_hodge"),
    "lattices": (
        "QuadLattice", "LatticeEmbedding", "DiscriminantData", "standard_lattice",
        "direct_sum", "signature", "determinant", "discriminant",
        "orthogonal_complement", "dn_mirror", "find_isotropic", "invariants_match",
        "k3_lattice", "canonical_embedding", "default_isotropic_vector"),
    "hodge": (
        "HodgeDiamond", "TyurinData", "FibrationDescriptor", "TypeIIDegeneration",
        "SlicedFibration", "euler_char", "mirror_dual_check", "lee_smoothing",
        "glue_euler_check", "euler_blowup_curve", "lg_relative_ranks", "h2w_formula",
        "ell_plus_k_check", "picard_from_fibration", "fibre_components",
        "slicing_check", "lmhs_table", "lmhs_mirror_match", "conjecture318_report"),
    "family": (
        "FamilyParams", "FamilyReport", "w_hodge", "v_hodge",
        "singular_fibre_profile", "family_consistency_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def _lazy(name: str):
    """The module ``mirrorcheck.<name>``, registered but not run (the
    lazy-import recipe of the ``importlib`` docs)."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    _sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
