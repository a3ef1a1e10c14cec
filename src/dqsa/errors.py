"""Exception taxonomy shared across the package."""


class DqsaError(Exception):
    """Base class for all package errors."""


class InvalidPattern(DqsaError):
    """Basis pattern is empty, too long, or contains symbols other than g/e."""


class DimensionMismatch(DqsaError):
    """Operands describe different qubit counts or amplitude lengths."""


class NegativePhase(DqsaError):
    """Control phase phi must be non-negative."""


class OverdampedQubit(DqsaError):
    """Dissipation rate at or above 4, where xi becomes non-real, or, in a
    tabulated run, at or above 2.27574, where its gate amplifies."""


class UnsupportedSize(DqsaError):
    """Qubit count outside the range supported by the requested operation."""


class UnknownTable(DqsaError):
    """No bundled reference table with the requested id."""


class MalformedConfig(DqsaError):
    """Configuration file is not valid JSON or violates the schema."""
