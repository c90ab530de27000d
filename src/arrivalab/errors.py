"""Typed errors raised across the package.

Domain violations are reported, never clamped: a silently "fixed" argument
would mask real modelling mistakes (negative times, invalid shape values).
"""

__all__ = ["ParameterError", "DomainError"]


class ParameterError(ValueError):
    """A distribution or configuration parameter is outside its legal domain."""


class DomainError(ValueError):
    """A function argument is outside the supported domain (negative value,
    inverted window, empty series, ...)."""
