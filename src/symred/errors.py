"""Exception types shared across the package."""


class SymredError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SymredError):
    pass


class UnsupportedType(SymredError):
    pass


class NoMatrixRep(SymredError):
    pass


class SolveFailure(SymredError):
    pass


class NotOnModel(SymredError):
    pass


class NotStable(SymredError):
    pass


class NotASubalgebra(SymredError):
    pass


class EtaNotInAnnihilator(SymredError):
    pass


class BaseNotInSubgroupoid(SymredError):
    pass


class KindNotInvariant(SymredError):
    pass


class LiftNotValid(SymredError):
    pass


class ConfigError(SymredError):
    pass


class CertificateFailed(SymredError):
    """An exact consistency certificate did not hold (kept under ``python -O``)."""
