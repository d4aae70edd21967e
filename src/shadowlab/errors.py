"""Exception types shared across the package."""

from __future__ import annotations


class ShadowlabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(ShadowlabError, ValueError):
    """A parameter is outside its documented range; ``path`` holds the keys,
    outermost first, from the spec being built to the one field it concerns."""

    def __init__(self, message: str, *path: str):
        super().__init__(message)
        self.path = path


class RangeError(ShadowlabError, ValueError):
    """An index or symbol is outside the valid range."""


class DomainError(ShadowlabError, ValueError):
    """A point is outside the phase space, or a map leaves it."""


class IntegrityError(ShadowlabError):
    """A serialized artifact failed its embedded consistency check."""


class PreconditionError(ShadowlabError):
    """An operation's precondition verdict failed.

    Carries the classification witness so callers can report why the
    input was rejected.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceCapError(ShadowlabError):
    """A computation would exceed a configured resource cap."""

    def __init__(self, message: str, required_cap: int):
        super().__init__(message)
        self.required_cap = required_cap


def check_positive(name: str, value: float) -> None:
    """Reject a threshold, budget or mesh that is not > 0 (NaN included)."""
    if not value > 0:
        raise ParameterError(f"{name} must be positive, got {value}")


def check_nonnegative(name: str, value: float) -> None:
    """Reject a tolerance or a count that is not >= 0 (NaN included)."""
    if not value >= 0:
        raise ParameterError(f"{name} must be nonnegative, got {value}")


def check_alpha(alpha: float | None) -> None:
    """Reject a density threshold alpha outside (0, 1) (NaN included); None means none."""
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0,1), got {alpha}")
