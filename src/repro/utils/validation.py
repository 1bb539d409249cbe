"""Argument-validation helpers shared across the library.

These raise :class:`repro.errors.ParameterError` with messages that name the
offending argument, so every public entry point reports misuse uniformly.
"""

from __future__ import annotations

from repro.errors import ParameterError

__all__ = [
    "ensure_int",
    "ensure_nonnegative",
    "ensure_positive",
    "ensure_odd",
    "ensure_in_range",
]


def ensure_int(name: str, value) -> int:
    """Return ``value`` if it is an ``int`` (bool excluded), else raise."""
    if type(value) is int:  # the common case, checked without isinstance
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an int, got {type(value).__name__}")
    return value


def ensure_nonnegative(name: str, value) -> int:
    """Return ``value`` if it is an int >= 0, else raise."""
    ensure_int(name, value)
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return value


def ensure_positive(name: str, value) -> int:
    """Return ``value`` if it is an int > 0, else raise."""
    ensure_int(name, value)
    if value <= 0:
        raise ParameterError(f"{name} must be > 0, got {value}")
    return value


def ensure_odd(name: str, value) -> int:
    """Return ``value`` if it is a positive odd int, else raise."""
    ensure_positive(name, value)
    if value % 2 == 0:
        raise ParameterError(f"{name} must be odd, got {value}")
    return value


def ensure_in_range(name: str, value, low: int, high: int) -> int:
    """Return ``value`` if ``low <= value < high``, else raise.

    The half-open convention matches the operand windows in the paper
    (``x, y ∈ [0, 2N)`` for Algorithm 2).
    """
    ensure_int(name, value)
    if not (low <= value < high):
        raise ParameterError(f"{name} must be in [{low}, {high}), got {value}")
    return value
