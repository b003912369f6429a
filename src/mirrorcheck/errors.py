"""Exception types shared across the library.

Every error that can surface through the CLI carries a stable ``name``
(the class name), which error reports emit verbatim.
"""


class MirrorcheckError(Exception):
    """Base class for all library errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class EmptyInput(MirrorcheckError):
    pass


class NotFullDimensional(MirrorcheckError):
    pass


class UnsupportedRank(MirrorcheckError):
    pass


class OriginNotInterior(MirrorcheckError):
    pass


class NonIntegralDual(MirrorcheckError):
    pass


class NotReflexive(MirrorcheckError):
    pass


class RankMismatch(MirrorcheckError):
    pass


class NotAPartition(MirrorcheckError):
    pass


class NotCartier(MirrorcheckError):
    pass


class NotNef(MirrorcheckError):
    pass


class PolytopeMismatch(MirrorcheckError):
    pass


class NablaNotContained(MirrorcheckError):
    pass


class NotBipartite(MirrorcheckError):
    pass


class DegenerateConfiguration(MirrorcheckError):
    pass


class NotBoundaryPoint(MirrorcheckError):
    pass


class OddDiagonal(MirrorcheckError):
    pass


class Degenerate(MirrorcheckError):
    pass


class NotPrimitive(MirrorcheckError):
    pass


class NotIsotropic(MirrorcheckError):
    pass


class NotInComplement(MirrorcheckError):
    pass


class NotPrimitiveVector(MirrorcheckError):
    pass


class UnknownType(MirrorcheckError):
    pass


class DimensionMismatch(MirrorcheckError):
    pass


class ShapeMismatch(MirrorcheckError):
    pass


class InvalidPartition(MirrorcheckError):
    pass


class InvalidDiamond(MirrorcheckError):
    pass


class InputError(MirrorcheckError):
    pass


class BudgetExceeded(MirrorcheckError):
    """The exact answer needs more work than a fixed cap allows."""
