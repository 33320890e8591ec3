"""Exception types shared across the library."""

from __future__ import annotations


class DiffmonadError(Exception):
    """Base class for all library errors."""


class MixedFields(DiffmonadError):
    """Two scalars (or elements) from different base fields were combined."""


class DivisionByZero(DiffmonadError):
    """Multiplicative inverse of zero was requested."""


class NonIntegralQuotient(DiffmonadError):
    """An exact integer division left a remainder.

    Structure constants are integral by construction, so this always signals
    an internal bug rather than bad user input.
    """


class ShapeMismatch(DiffmonadError):
    """Operands disagree on arity, degree cap, field, or theory."""


class NonReducedArgument(DiffmonadError):
    """A capped series substitution received a constant-bearing argument."""


class NotReduced(DiffmonadError):
    """An operation requiring a constant-free element got one with a constant."""


class TooLarge(DiffmonadError):
    """An exhaustive enumeration or oracle exceeded its size bound."""


def too_many_variables(arity: int, limit: int) -> TooLarge:
    """The error of an element over more than ``limit`` variables; only
    packed monomials have a limit."""
    return TooLarge(f"{arity} variables exceed the limit {limit} of packed "
                    "monomials")


class ParseError(DiffmonadError):
    """Expression text does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(DiffmonadError):
    """An expression mentions a variable index outside the declared arity."""
