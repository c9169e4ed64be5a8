"""Exception hierarchy shared by all qsum modules."""


class QsumError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QsumError, ValueError):
    """An argument violates a documented precondition."""


class ConsistencyError(QsumError):
    """An internal invariant failed (normalization drift, near-pole term)."""
