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
``extend_arity`` and the argument checks of ``substitute_linear``.  It also
owns ``substitute``, the monad multiplication of all three theories: a key,
read as the product of its (variable, exponent) pairs, becomes the product
a_1 * (a_2 * (... * a_k)) of the factors ``args[v]^e``, nested from the
right as the half-shuffle of words needs.  The powers of each argument are
kept for the call, and all its products share one budget (``_charge``).
And it owns the differential structure: ``partial_combinator``, the one
combinator path of every class, the single derivative ``partial(x)`` of the
non-unital theories (series, whose derivative lowers the cap, keep their
own) and ``_product``, the checked entry of the product of every class.
Each element class binds these in its own namespace, so that
instrumentation which wraps class attributes tells the theories apart.

Checks run at the public edge only.  The public constructor, and so
``from_terms`` and the parser, make every coefficient canonical and check
every key against the shape.  The operations check their arguments (element
class, shapes, variable ranges, size budgets), and then build results whose
keys are valid by construction, so ``_make`` checks no key: it compares the
arity with the class's ``ARITY_LIMIT`` (packed monomials grow with the
arity, words do not) and raises TooLarge past it.  A test runs the axiom
checks with the key checks put back into ``_make``, so a key that an
operation builds wrong still shows.

A subclass supplies these hooks; the first four work on coefficient dicts:

* ``_times(a, b)``: the product (truncated, divided-power, half-shuffle);
* ``_power(known, e, spent)``: the e-th power of ``known[1]``, given the
  powers of it known so far (exponent -> coeffs), and ``spent`` plus its
  cost: repeated products by default, the divided power for divided powers;
* ``_cost(a, b)`` and ``_UNIT``: the cost of a product and its unit, term
  pairs or interleavings, for ``_charge``;
* ``_combinator(coeffs, n, p)``: the coefficients of the combinator of an
  element over n variables, with ``p`` the field's modulus (None over Q);
  series bind a ``partial_combinator`` that checks the capped regime is
  reduced first, then runs the core's;
* ``_lower(key, x)`` (divided powers and words): the key of d/dx of the
  basis element ``key``, empty (falsy) for the field unit, None for zero;
* ``_target(args, arity)``: the shape of a substitution (series add their
  cap and reduced checks);
* ``_check_keys()``: validate the keys of ``self.coeffs`` against the shape
  (the per-key work of the public constructor);
* ``_key(pairs)``: the key of the basis element with the given (variable,
  exponent) pairs; a variable repeated in a monomial adds up, and a word
  keeps the variables in order;
* ``_key_of_draws(draw, degree, arity)``: the key of the product of
  ``degree`` variables, each drawn in turn as ``draw() % arity``, without
  building the pairs (random elements);
* ``_pairs(key)``: the tuple of the (variable, exponent) pairs of a key, in
  print order; terms print by degree, then by their pairs;
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
directly, or returns None for a spec that its keys cannot follow: packed
monomials follow a spec whose targets are pairwise distinct, renamings
alike and sums such as the sum map at exponents up to 1, and decline a
spec with a repeated target, such as the diagonal, or an element with a
summed exponent above 1; words follow every spec.  ``substitute`` with the
materialized sums is its oracle and the caller's fallback, and it still
runs where the rewrite declines, in the monad laws, and in CD.5 and dc.4,
which substitute random elements.  A spec's variable range is resolved
once per spec (:func:`_span`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .errors import ShapeMismatch, TooLarge, too_many_variables
from .scalars import FieldSpec, Scalar, accumulate, canonical, size_limit


@lru_cache(maxsize=1024)
def _span(spec: tuple) -> tuple[int, int]:
    """The least variable that the linear spec ``spec`` sums and one more
    than the greatest; (0, 0) when it sums none.  Resolved once per spec, so
    the range check of ``_linear_shape`` is two comparisons."""
    variables = [v for sums in spec for v in sums]
    if not variables:
        return 0, 0
    return min(variables), max(variables) + 1


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
        if shape[0] < 0:
            raise ShapeMismatch(f"negative arity {shape[0]}")
        field = shape[-1]
        raw = {}
        for key, c in coeffs.items():
            value = field.raw(c)
            if value:
                raw[key] = value
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
            raise too_many_variables(arity, cls.ARITY_LIMIT)
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

    # -- linear structure ---------------------------------------------------

    def _like(self, coeffs: dict):
        return self._make(self.shape, coeffs)

    def _check_shape(self, other: "Element") -> None:
        if type(other) is not type(self) or self.shape != other.shape:
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

    # -- substitution (the monad multiplication) ---------------------------

    def _target(self, args: Sequence["Element"], arity: int | None) -> tuple:
        """The shape of substituting ``args`` for the variables: the arity
        of the arguments, which must be elements of this class and agree in
        arity and field, or ``arity`` when there are none."""
        if len(args) != self.arity:
            raise ShapeMismatch(f"{self.arity} arguments expected, got {len(args)}")
        if args:
            arity = getattr(args[0], "arity", None)
        elif arity is None:
            raise ShapeMismatch("target arity required for nullary substitution")
        cls, field = type(self), self.field
        for a in args:
            if type(a) is not cls or (a.arity, a.field) != (arity, field):
                raise ShapeMismatch("substitution arguments disagree in shape")
        return (arity,) + self.shape[1:]

    def _charge(self, spent: int, a: dict, b: dict) -> int:
        """``spent`` plus the cost of the product of a and b (``_cost``);
        TooLarge past the size bound in force (``scalars.size_limit``)."""
        spent += self._cost(a, b)
        if spent > size_limit():
            raise TooLarge(f"products expand over {spent} {self._UNIT}")
        return spent

    def _power(self, known: dict, e: int, spent: int) -> tuple:
        """known[1]^e by repeated products from the highest power known below
        it, each kept in ``known``; and ``spent`` plus their cost."""
        k = e
        while k not in known:
            k -= 1
        out, base = known[k], known[1]
        while k < e:
            k += 1
            spent = self._charge(spent, out, base)
            out = known[k] = self._times(out, base)
        return out, spent

    def substitute(self, args: Sequence["Element"],
                   arity: int | None = None):
        """Replace variable v by ``args[v]`` and expand, on one budget (see the
        module docstring); ``arity`` is the target arity of a nullary call."""
        shape = self._target(args, arity)
        p = self.field.p
        powers: dict = {}
        spent = 0
        out: dict = {}
        for key, c in self.coeffs.items():
            acc = None
            for v, e in reversed(self._pairs(key)):
                if e == 1:
                    factor = args[v].coeffs
                else:
                    known = powers.get(v) or powers.setdefault(
                        v, {1: args[v].coeffs})
                    factor = known.get(e)
                    if factor is None:
                        factor, spent = self._power(known, e, spent)
                        known[e] = factor
                if acc is None:
                    acc = factor
                else:
                    spent = self._charge(spent, factor, acc)
                    acc = self._times(factor, acc)
                if not acc:
                    break
            if acc is None:  # the constant of a polynomial maps to itself
                acc = {key: 1}
            for k, ck in acc.items():
                accumulate(out, k, ck * c, p)
        return self._make(shape, out)

    def _linear_shape(self, spec: tuple, arity: int) -> tuple:
        """The shape of substituting along a linear map: the checks of
        ``_target`` for a spec whose sums are over ``arity`` variables."""
        if len(spec) != self.arity:
            raise ShapeMismatch(f"{self.arity} arguments expected, "
                                f"got {len(spec)}")
        low, high = _span(spec)
        if low < 0 or high > arity:
            v = low if low < 0 else high - 1
            raise ShapeMismatch(f"variable {v} out of range for "
                                f"arity {arity}")
        return (arity,) + self.shape[1:]

    # -- the product and the differential structure ------------------------

    def _product(self, other: "Element"):
        """The product ``_times``, its cost charged up front (``_charge``)."""
        self._check_shape(other)
        self._charge(0, self.coeffs, other.coeffs)
        return self._like(self._times(self.coeffs, other.coeffs))

    def partial(self, x: int) -> tuple["Element", Scalar]:
        """The derivative d/dx of a non-unital algebra: each key lowered by
        ``_lower``.  A key that it empties stands for the field unit, which
        the algebra lacks, so its coefficient goes to the constant part."""
        if not 0 <= x < self.arity:
            raise ShapeMismatch(f"variable {x} out of range")
        p = self.field.p
        lower = self._lower
        out: dict = {}
        const = 0
        for key, c in self.coeffs.items():
            lowered = lower(key, x)
            if lowered:
                accumulate(out, lowered, c, p)
            elif lowered is not None:
                const += c
        return self._like(out), Scalar(self.field, canonical(const, p))

    def partial_combinator(self):
        """The differential combinator: the sum over i of d/dx_i times the
        dual variable y_i = x_{n+i} (y_i < d/dx_i for words), over twice the
        arity, with the coefficients of ``_combinator``."""
        n = self.arity
        return self._make((2 * n,) + self.shape[1:],
                          self._combinator(self.coeffs, n, self.field.p))

    def __repr__(self) -> str:
        return f"<{self._tag} arity={self.arity} terms={len(self.coeffs)}>"
