"""The sparse linear structure shared by every element type.

An element is a finitely supported map key -> nonzero raw coefficient (see
:mod:`diffmonads.scalars`), tagged with a *shape*: the tuple of its public
constructor's leading arguments, whose names are the class attribute
``SHAPE``.  A shape starts with the arity and ends with the field; series put
their degree cap and reduced flag in between.  An element stores its shape
once, and every shape check is one tuple comparison.

:class:`Element` owns the linear structure: the public constructor and
``from_terms`` (which check coefficients and keys), the internal ``_make``,
sums, negation, scaling, equality, ``terms``, the counit, ``degrees``,
``extend_arity`` and the argument checks of ``substitute`` and
``substitute_linear``.

Checks run at the public edge only.  The public constructor, and so
``from_terms`` and the parser, make every coefficient canonical and check
every key against the shape.  The operations check their arguments (shapes,
variable ranges, size budgets), and then build results whose keys are valid by
construction, so ``_make`` checks no key: it compares the arity with the
class's ``ARITY_LIMIT`` (packed monomials grow with the arity, words do not)
and raises TooLarge past it.  A test runs the axiom checks with the key
checks put back into ``_make``, so a key that an operation builds wrong still
shows.

A subclass supplies its algebra (products, substitution, derivatives) and
these hooks on its keys:

* ``_check_keys()``: validate the keys of ``self.coeffs`` against the shape
  (the per-key work of the public constructor);
* ``_check_key(key)``: ``key`` itself when the public constructor may take
  it, else ShapeMismatch;
* ``_key(pairs)``: the key of the basis element with the given (variable,
  exponent) pairs;
* ``_key_of_letters(letters)``: the key of the product of the variables in
  the sequence ``letters``, in that order;
* ``_key_of_draws(draw, degree, arity)``: ``_key_of_letters`` of ``degree``
  letters drawn in order as ``draw() % arity`` (random elements);
* ``_pairs(key)``: an iterable of the (variable, exponent) pairs of a key,
  in print order;
* ``_order(key)``: the sort key of terms in print: the degree first, then
  the pairs (words compare as letter tuples, which sorts them alike);
* ``_degree(key)``: the degree of a key, a builtin so that the counit and
  ``degrees`` make no Python call per key;
* ``_shift(key, offset)``: relabel every variable v as v + offset;
* ``_count(arity, d)`` and ``_letters(variables, d)``: the number of keys of
  degree d, and the letter tuples that spell them;
* ``notation``: (separator, opening and closing bracket of exponents) for
  :mod:`diffmonads.syntax`; words take no exponents and have None brackets;
* ``_tag``: the name that opens the repr.

Every subclass also has ``substitute_linear(spec, arity)``: ``substitute``
along a linear map, given as its *spec*, the tuple of variables that each
argument sums (an empty tuple is the zero argument).  It rewrites keys
directly, or returns None for a spec that its keys cannot follow (packed
monomials follow only renamings); ``substitute`` with the materialized sums
is its oracle and the caller's fallback.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ShapeMismatch, TooLarge
from .scalars import FieldSpec, Scalar, accumulate, canonical


class Element:
    """A finitely supported map key -> nonzero raw coefficient, with a shape."""

    __slots__ = ("shape", "arity", "field", "coeffs")

    SHAPE = ("arity", "field")
    ARITY_LIMIT = math.inf  # elements over more variables raise TooLarge

    def __init__(self, arity: int, field: FieldSpec, coeffs: dict):
        """Public constructor: values Scalars of ``field`` or ints (or
        Fractions over Q); zero values are dropped."""
        self._build((arity, field), coeffs)

    def _build(self, shape: tuple, coeffs: dict) -> None:
        field = shape[-1]
        raw = {}
        for key, c in coeffs.items():
            value = field.raw(c)
            if value:
                raw[self._check_key(key)] = value
        self.shape = shape
        self.arity = shape[0]
        self.field = field
        self.coeffs = raw
        self._check_keys()

    @classmethod
    def _make(cls, shape: tuple, coeffs: dict):
        """Internal constructor: ``coeffs`` is already canonical and its keys
        are valid for ``shape``.  Only the arity is checked: TooLarge past
        ``ARITY_LIMIT``."""
        arity = shape[0]
        if arity > cls.ARITY_LIMIT:
            raise TooLarge(f"{arity} variables exceed the limit "
                           f"{cls.ARITY_LIMIT} of {cls.__name__}")
        self = cls.__new__(cls)
        self.shape = shape
        self.arity = arity
        self.field = shape[-1]
        self.coeffs = coeffs
        return self

    @classmethod
    def from_terms(cls, *args):
        """The constructor's arguments with an iterable of (key, coefficient)
        pairs in place of the dict; repeated keys add up."""
        *shape, terms = args
        field = shape[-1]
        coeffs: dict = {}
        for key, c in terms:
            accumulate(coeffs, key, field.raw(c), field.p)
        return cls(*shape, coeffs)

    @staticmethod
    def _check_key(key):
        return key

    # -- linear structure ---------------------------------------------------

    def _like(self, coeffs: dict):
        return self._make(self.shape, coeffs)

    def _check_shape(self, other: "Element") -> None:
        if self.shape != other.shape:
            raise ShapeMismatch(f"{type(self).__name__} shapes differ")

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.coeffs)
        p = self.field.p
        for key, c in other.coeffs.items():
            accumulate(out, key, c, p)
        return self._like(out)

    def __neg__(self):
        p = self.field.p
        return self._like({key: canonical(-c, p)
                           for key, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s: Scalar):
        s = self.field.raw(s)
        if not s:
            return self._like({})
        p = self.field.p
        return self._like({key: canonical(c * s, p)
                           for key, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and self.coeffs == other.coeffs

    def terms(self) -> list:
        """The (key, coefficient) pairs with boxed coefficients."""
        return [(key, Scalar(self.field, c)) for key, c in self.coeffs.items()]

    def counit(self) -> tuple[Scalar, ...]:
        """The coefficients of the degree-1 basis elements x_i."""
        out = [0] * self.arity
        degree = self._degree
        for key, c in self.coeffs.items():
            if degree(key) == 1:
                (i, _), = self._pairs(key)
                out[i] = c
        return tuple(Scalar(self.field, c) for c in out)

    def degrees(self) -> list[int]:
        return list(map(self._degree, self.coeffs))

    def extend_arity(self, new_arity: int, offset: int = 0):
        """Relabel into a wider variable block (the functor on an injection)."""
        if offset < 0 or self.arity + offset > new_arity:
            raise ShapeMismatch("block does not fit in the new arity")
        shift = self._shift
        return self._make((new_arity,) + self.shape[1:],
                          {shift(key, offset): c
                           for key, c in self.coeffs.items()})

    # -- substitution ---------------------------------------------------------

    def _target(self, args: Sequence["Element"], arity: int | None) -> int:
        """The target arity of substituting ``args`` for the variables: that
        of the arguments, which must agree in arity and field, or ``arity``
        when there are none."""
        if len(args) != self.arity:
            raise ShapeMismatch(f"{self.arity} arguments expected, got {len(args)}")
        if args:
            arity = args[0].arity
        elif arity is None:
            raise ShapeMismatch("target arity required for nullary substitution")
        field = self.field
        for a in args:
            if (a.arity, a.field) != (arity, field):
                raise ShapeMismatch("substitution arguments disagree in shape")
        return arity

    def _linear_shape(self, spec: Sequence[tuple], arity: int) -> tuple:
        """The shape of substituting along a linear map: the checks of
        ``_target`` for a spec whose sums are over ``arity`` variables."""
        if len(spec) != self.arity:
            raise ShapeMismatch(f"{self.arity} arguments expected, "
                                f"got {len(spec)}")
        for variables in spec:
            for v in variables:
                if not 0 <= v < arity:
                    raise ShapeMismatch(f"variable {v} out of range for "
                                        f"arity {arity}")
        return (arity,) + self.shape[1:]

    def __repr__(self) -> str:
        return f"<{self._tag} arity={self.arity} terms={len(self.coeffs)}>"
