"""Exact scalar arithmetic over Q or a prime field, plus integer combinatorics.

Coefficients have two forms.  Inside the element dicts of the algebra modules
they are raw Python numbers in canonical form:

* over F_p, an ``int`` residue in ``[0, p)``;
* over Q, an ``int`` when the value is integral and a ``Fraction`` only when
  it is not.

``int`` and ``Fraction`` compare and hash alike, and ``str(Fraction(6))`` is
``"6"``, so the canonical form is invisible in equality and printing; it only
keeps the common integral case off the slow ``Fraction`` path.  The inner
loops multiply raw values directly and hand every sum or product to
:func:`accumulate`, which brings it back to canonical form.

:class:`Scalar` boxes a raw value together with its field.  It is the form
seen at the API boundary: counits, the argument of ``scale``, the parser,
and the public element constructors.

Every structure constant used by the algebra modules (binomials, multinomials,
iterated divided-power multiplicities) is computed over the integers by the
helpers at the bottom of this module and only then embedded into the working
field.  Nothing in the library ever inverts a factorial inside F_p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, MixedFields, NonIntegralQuotient

PRIME_LIMIT = 1 << 20

# Size bound of every exhaustive expansion or enumeration; beyond it the
# library raises TooLarge instead of running without limit.
ENUMERATION_LIMIT = 10 ** 5


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """The base field: the rationals when ``p`` is None, otherwise F_p.

    Instances are interned via :func:`rationals` / :func:`prime_field`, so
    identity comparison is the common fast path.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= PRIME_LIMIT:
                raise ValueError(f"prime moduli are capped at 2^20, got {p}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p or 0

    def embed(self, n: int) -> "Scalar":
        """Canonical image of the integer ``n`` in this field."""
        return Scalar(self, canonical(n, self.p))

    def from_fraction(self, num: int, den: int) -> "Scalar":
        if den == 0:
            raise DivisionByZero("fraction with zero denominator")
        if self.p is None:
            return Scalar(self, canonical(Fraction(num, den), None))
        return self.embed(num) / self.embed(den)

    def raw(self, x):
        """The canonical raw value of ``x``: a Scalar of this field, an int
        that is not a bool, or (over Q) a Fraction."""
        if isinstance(x, Scalar):
            if x.field != self:
                raise MixedFields(f"cannot mix {self} and {x.field}")
            return x.value
        if (isinstance(x, int) and type(x) is not bool) or \
                (self.p is None and isinstance(x, Fraction)):
            return canonical(x, self.p)
        raise TypeError(f"{x!r} is not a scalar of {self!r}")

    def zero(self) -> "Scalar":
        return self.embed(0)

    def one(self) -> "Scalar":
        return self.embed(1)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.p))

    def __repr__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


@lru_cache(maxsize=None)
def rationals() -> FieldSpec:
    return FieldSpec(None)


@lru_cache(maxsize=None)
def prime_field(p: int) -> FieldSpec:
    return FieldSpec(p)


def canonical(value, p: int | None):
    """The canonical raw form of an int (or, over Q, a Fraction) value."""
    if p:
        return value % p
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def accumulate(dst: dict, key, value, p: int | None) -> None:
    """Add the raw ``value`` to ``dst[key]`` in canonical form; a sum that
    vanishes removes the key, so the dict never stores a zero.

    This is the innermost call of every product, so :func:`canonical` is
    written out here instead of called.
    """
    cur = dst.get(key)
    if cur is not None:
        value += cur
    if p:
        value %= p
    elif type(value) is Fraction and value.denominator == 1:
        value = value.numerator
    if value:
        dst[key] = value
    elif cur is not None:
        del dst[key]


class Scalar:
    """An element of Q or of F_p: a field and a canonical raw value."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        self.field = field
        self.value = value

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        """``other`` as a Scalar of this field, on the terms of
        :meth:`FieldSpec.raw`; NotImplemented for what it does not take."""
        try:
            return Scalar(self.field, self.field.raw(other))
        except TypeError:
            return NotImplemented

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field,
                      canonical(self.value + other.value, self.field.p))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, canonical(-self.value, self.field.p))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field,
                      canonical(self.value * other.value, self.field.p))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self:
            raise DivisionByZero("inverse of zero")
        if self.field.p is None:
            return Scalar(self.field, canonical(1 / Fraction(self.value), None))
        return Scalar(self.field, pow(self.value, -1, self.field.p))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure --------------------------------------------------------

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.field!r}, {self.value!r})"


# -- integer combinatorics -------------------------------------------------


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(parts) -> int:
    """(sum parts)! / prod(part!) via a product of binomials."""
    total = 0
    out = 1
    for part in parts:
        if part < 0:
            raise ValueError("multinomial parts must be nonnegative")
        total += part
        out *= math.comb(total, part)
    return out


def dp_power_coeff(m: int, n: int) -> int:
    """Multiplicity of the iterated divided power: (a^[n])^[m] = c * a^[mn].

    c = (mn)! / (m! (n!)^m); the quotient is exact, a remainder signals an
    internal bug.
    """
    if m < 0 or n < 0:
        raise ValueError("dp_power_coeff takes nonnegative arguments")
    if n == 1:
        return 1  # m! / m!, which would otherwise be computed twice
    num = math.factorial(m * n)
    den = math.factorial(m) * math.factorial(n) ** m
    q, r = divmod(num, den)
    if r:
        raise NonIntegralQuotient(f"(mn)!/(m!(n!)^m) not integral at m={m}, n={n}")
    return q
