"""Exception types shared across the package."""

import math
import numbers

__all__ = [
    "JohnEllipsoidError", "DimensionError", "ZeroRowError", "RankDeficientError",
    "NotPositiveDefiniteError", "DomainError", "NoConvergenceError", "ParseError",
    "GenerationFailedError",
]


class JohnEllipsoidError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionError(JohnEllipsoidError):
    """Constraint matrix shape is unusable (m < n, empty, or not 2-D)."""


class ZeroRowError(JohnEllipsoidError):
    """A constraint row is identically zero, so the polytope is degenerate."""

    def __init__(self, row: int):
        super().__init__(f"constraint row {row} is identically zero")
        self.row = row


class RankDeficientError(JohnEllipsoidError):
    """Constraint matrix does not have full column rank."""


class NotPositiveDefiniteError(JohnEllipsoidError):
    """Weighted Gram matrix is numerically semidefinite or indefinite."""


class DomainError(JohnEllipsoidError, ValueError):
    """A scalar or vector argument lies outside its documented range."""


class NoConvergenceError(JohnEllipsoidError):
    """Reference solver exhausted its iteration budget before reaching tol."""

    def __init__(self, iterations: int, max_sigma: float | None = None):
        detail = f"no convergence after {iterations} iterations"
        if max_sigma is not None:
            detail += f" (max score {max_sigma!r})"
        super().__init__(detail)
        self.iterations = iterations
        self.max_sigma = max_sigma


class ParseError(JohnEllipsoidError):
    """Matrix Market input is malformed or uses an unsupported variant."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GenerationFailedError(JohnEllipsoidError):
    """Random generation kept producing invalid matrices and gave up."""


def check_real(name: str, value) -> None:
    """Raise :class:`DomainError` unless ``value`` is a real scalar (Python or
    numpy), not a bool, a string or an array."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")


def check_unit_interval(name: str, value) -> None:
    """Raise :class:`DomainError` unless ``value`` is a real scalar with
    ``0 < value < 1`` (epsilon, delta, tol)."""
    check_real(name, value)
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {value!r}")


def check_positive(name: str, value) -> None:
    """Raise :class:`DomainError` unless ``value`` is a finite, positive real
    scalar (a target epsilon, a cube's scale)."""
    check_real(name, value)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")


def check_count(name: str, value, minimum: int | None = 1) -> None:
    """Raise :class:`DomainError` unless ``value`` is an integer (Python or
    numpy, not a bool) of at least ``minimum``; ``minimum=None`` checks the
    type alone, for a caller whose range rule spans several values."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r}")
