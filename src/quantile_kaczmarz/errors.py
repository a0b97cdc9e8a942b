"""Exception types shared across the package."""

from __future__ import annotations


class QuantileKaczmarzError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(QuantileKaczmarzError):
    """Operand shapes do not agree."""


class ZeroRowError(QuantileKaczmarzError):
    """A row that must be selectable has (numerically) zero norm."""

    def __init__(self, index: int, norm: float = 0.0):
        self.index = int(index)
        self.norm = float(norm)
        super().__init__(f"row {index} has norm {norm:.3e}, below the zero-row tolerance")


class InvalidQuantilesError(QuantileKaczmarzError):
    """Quantile parameters violate their ordering or range constraints."""


class HypothesisViolationError(QuantileKaczmarzError):
    """Inputs violate a hypothesis of the bound being evaluated."""

    def __init__(self, constraint: str):
        self.constraint = constraint
        super().__init__(f"hypothesis violated: {constraint}")


class MatrixMarketParseError(QuantileKaczmarzError):
    """A Matrix Market file is malformed."""

    def __init__(self, line: int, reason: str):
        self.line = int(line)
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class UnsupportedFieldError(QuantileKaczmarzError):
    """The Matrix Market file uses a field or symmetry this reader does not handle."""


# What ends a CLI command with exit 2, and a diagnosed file with a FAILED row,
# instead of a traceback; numpy's LinAlgError is a ValueError.
HANDLED_ERRORS = (QuantileKaczmarzError, OSError, ValueError, MemoryError)
