"""Exact-arithmetic invariants for mirror pairs of degenerations and fibrations.

Subpackages by topic: ``polytopes`` (exact convex geometry over Z),
``nef`` (nef partitions, duals and fibre/genus counts), ``lattices`` (even
quadratic forms and the mirror-lattice construction), ``hodge`` (diamond
arithmetic and gluing/smoothing identities), ``family`` (the mirror-quartic
threefold family calculator), and ``cli`` (the batch front-end).

Engines load on first use: ``import mirrorcheck`` runs none of them, and the
first lookup of a public name imports its home module (a module
``__getattr__``, PEP 562) and keeps the name in the package.
"""

import importlib

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


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
