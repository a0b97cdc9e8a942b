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


class ConvergenceFailureError(QuantileKaczmarzError):
    """A factorization did not converge within the attempt budget."""

    def __init__(self, attempts: int, detail: str = ""):
        self.attempts = int(attempts)
        msg = f"singular value computation failed after {attempts} attempts"
        super().__init__(msg + (f": {detail}" if detail else ""))


class InvalidQuantilesError(QuantileKaczmarzError):
    """Quantile parameters violate their ordering or range constraints."""


class BudgetExceededError(QuantileKaczmarzError):
    """Exhaustive subset enumeration would exceed the configured budget."""

    def __init__(self, subset_count: int, budget: int):
        self.subset_count = int(subset_count)
        self.budget = int(budget)
        super().__init__(
            f"{subset_count} subsets exceed the enumeration budget of {budget}; "
            "use the sampled variant"
        )


class HypothesisViolationError(QuantileKaczmarzError):
    """Inputs violate a hypothesis of the bound being evaluated."""

    def __init__(self, constraint: str):
        self.constraint = constraint
        super().__init__(f"hypothesis violated: {constraint}")


class DegenerateConditioningError(QuantileKaczmarzError):
    """Conditioning on the tail would divide by a (numerically) zero mass."""


class MatrixMarketParseError(QuantileKaczmarzError):
    """A Matrix Market file is malformed."""

    def __init__(self, line: int, reason: str):
        self.line = int(line)
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class UnsupportedFieldError(QuantileKaczmarzError):
    """The Matrix Market file uses a field or symmetry this reader does not handle."""
