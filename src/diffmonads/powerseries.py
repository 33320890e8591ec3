"""Multivariable power series truncated at a degree cap, and bare polynomials.

Two regimes share one representation:

* the reduced capped regime (``cap`` an integer, ``reduced`` True): series with
  no constant term, kept exact modulo monomials of degree > cap.  Substitution
  of reduced series is a congruence for this quotient, because composite
  monomial degrees only grow, so composing truncations computes the truncation
  of the composite.
* the polynomial regime (``cap`` None, ``reduced`` False): ordinary sparse
  polynomials, constants allowed, nothing discarded.

Single partial derivatives can produce constant terms, so they lower the cap
by one and clear the reduced flag; the differential combinator multiplies each
partial by a fresh dual variable, which keeps everything reduced at full cap.

Monomial keys are packed exponent vectors (Monagan & Pearce, *Polynomial
division using dynamic arrays, heaps, and packed exponent vectors*, CASC
2007).  A key is one plain ``int`` made of ``WIDTH``-bit fields: the lowest
field holds the total degree, and the field above it at position ``v + 1``
holds the exponent of variable ``v``::

    key = deg + (e_0 << WIDTH) + (e_1 << 2*WIDTH) + ...

so equal monomials have equal keys, a product of monomials is one integer
add, and the degree is one mask.  Every exponent is at most the total degree,
so no field can overflow while the degree is at most ``MAX_DEGREE``
(``2**WIDTH - 1``).  Products check the degree before adding: it is the cap
test in the capped regime, and a product past ``MAX_DEGREE`` that the cap
does not discard raises ``TooLarge`` instead of producing a wrong key; this
holds for a cap above ``MAX_DEGREE`` too.  Variable ``v`` occurs in a
key below ``1 << WIDTH * (arity + 1)`` only if ``v < arity``, so the arity
check is one comparison.

Coefficients are raw canonical values (see :mod:`diffmonads.scalars`).
:class:`MultiIndex` builds and reads keys, and :class:`MonomialElement` gives
:class:`diffmonads.element.Element` its key hooks for them, shared with
divided powers; its key check is ``MultiIndex.check`` followed by reads of
the degree field and the key size.  The truncated product is the ``_times``
of series, which their substitution uses.

Substitution along a linear map (``substitute_linear``) rewrites keys for
a map whose targets are pairwise distinct, each spec compiled once
(``_compile``).  A variable sent to one variable or to zero, as by a
*renaming*, moves its run of exponent fields or drops the key.  A variable
sent to a sum of variables, as by the sum map x -> x + x', is followed at
exponent 0 or 1 only: x_v goes to the sum of its targets with the
coefficient unchanged, for divided powers too, since x^[1] = x.  Distinct
targets make every output key come from one input key, so nothing is
summed, and the degree is kept, so nothing is truncated.  It returns None
for a map with a repeated target (the diagonal), for an element with a
summed exponent above 1, and once the output has more terms than the size
bound (``scalars.size_limit``); the caller then substitutes the
materialized sums, the generic substitution that the monad laws, CD.5 and
dc.4 also run.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from .element import Element
from .errors import (NonReducedArgument, NotReduced, ShapeMismatch, TooLarge,
                     too_many_variables)
from .scalars import FieldSpec, accumulate, binomial, size_limit

WIDTH = 16
MAX_DEGREE = (1 << WIDTH) - 1
# A key over n variables is a WIDTH * (n + 1)-bit int, and reading its fields
# (``MultiIndex.pairs``, the key check, printing) shifts the whole key once
# per field, so one read costs time quadratic in n.  At 1024 variables a key
# is 2 KiB and one read takes under a millisecond (about 0.8 ms on a 2-vCPU
# VM), while the acceptance configurations reach 12 variables.  Elements over
# more variables raise TooLarge.  Words, whose keys do not grow with the
# arity, have no limit.
MAX_ARITY = 1024


def _too_large(degree: int) -> TooLarge:
    return TooLarge(f"monomial degree {degree} exceeds the limit {MAX_DEGREE}")


class MultiIndex:
    """Builds and reads packed monomial keys; a key is a plain ``int``."""

    @classmethod
    def make(cls, pairs: Iterable[tuple[int, int]]) -> int:
        """The key of the monomial prod x_var^exp; repeated variables add."""
        key = 0
        degree = 0
        for var, exp in pairs:
            if var < 0 or exp < 0:
                raise ValueError("variables and exponents must be nonnegative")
            key += exp << (WIDTH * (var + 1))
            degree += exp
        if degree > MAX_DEGREE:
            raise _too_large(degree)
        return key + degree

    @classmethod
    def single(cls, var: int, exp: int = 1) -> int:
        return cls.make(((var, exp),))

    @staticmethod
    def mul(a: int, b: int) -> int:
        """The key of the product of two monomials."""
        degree = (a & MAX_DEGREE) + (b & MAX_DEGREE)
        if degree > MAX_DEGREE:
            raise _too_large(degree)
        return a + b

    @staticmethod
    def power(key: int, n: int) -> int:
        """The key of the n-th power of a monomial (n >= 0)."""
        degree = (key & MAX_DEGREE) * n
        if degree > MAX_DEGREE:
            raise _too_large(degree)
        return key * n

    @staticmethod
    def degree(key: int) -> int:
        return key & MAX_DEGREE

    @staticmethod
    def exponent(key: int, var: int) -> int:
        return (key >> (WIDTH * (var + 1))) & MAX_DEGREE

    @staticmethod
    def pairs(key: int) -> tuple[tuple[int, int], ...]:
        """The sorted ((var, exp), ...) pairs with exp >= 1."""
        out = []
        key >>= WIDTH
        var = 0
        while key:
            exp = key & MAX_DEGREE
            if exp:
                out.append((var, exp))
            key >>= WIDTH
            var += 1
        return tuple(out)

    @staticmethod
    def shift(key: int, offset: int) -> int:
        """Relabel every variable v as v + offset."""
        return ((key >> WIDTH) << (WIDTH * (offset + 1))) | (key & MAX_DEGREE)

    @staticmethod
    def bound(arity: int) -> int:
        """Every key over ``arity`` variables, and no other, is below this;
        TooLarge past ``MAX_ARITY`` variables."""
        if arity > MAX_ARITY:
            raise too_many_variables(arity, MAX_ARITY)
        return 1 << (WIDTH * (arity + 1))

    @classmethod
    def check(cls, key) -> int:
        """``key`` itself when it is a canonical key, else ShapeMismatch;
        TooLarge for a key over more than ``MAX_ARITY`` variables."""
        if type(key) is not int or key < 0:
            raise ShapeMismatch(f"{key!r} is not a monomial key")
        if key >= _KEY_LIMIT:
            raise too_many_variables(key.bit_length() // WIDTH, MAX_ARITY)
        if sum(e for _, e in cls.pairs(key)) != key & MAX_DEGREE:
            raise ShapeMismatch(f"{key!r} is not a monomial key")
        return key


EMPTY_INDEX = 0
_KEY_LIMIT = MultiIndex.bound(MAX_ARITY)
# The exponent field of x_v for the first variables, which random elements
# draw from: what a letter x_v adds to a key besides its degree.  Small
# ints, unlike a table over all MAX_ARITY variables.
_UNITS = tuple(1 << WIDTH * (v + 1) for v in range(32))


@lru_cache(maxsize=1024)
def _compile(spec: tuple):
    """The key rewrite of the linear map ``spec``, resolved once per spec:
    None when two variables of ``spec`` share a target (the diagonal, a
    variable repeated in one sum); else (zero_mask, moves, sums): the mask
    of the exponent fields whose variables go to zero, the moves (shift,
    mask, shift_to) of runs of consecutive fields whose variables go to one
    variable each, and per variable that goes to a sum, (shift, the unit
    keys of its targets' exponents)."""
    targets = [t for variables in spec for t in variables]
    if len(set(targets)) != len(targets):
        return None
    zero_mask = 0
    runs: list = []  # [first source variable, first target, length]
    sums = []
    for v, variables in enumerate(spec):
        if not variables:
            zero_mask |= MAX_DEGREE << (WIDTH * (v + 1))
        elif len(variables) > 1:
            sums.append((WIDTH * (v + 1),
                         tuple(1 << WIDTH * (t + 1) for t in variables)))
        elif runs and runs[-1][0] + runs[-1][2] == v and \
                runs[-1][1] + runs[-1][2] == variables[0]:
            runs[-1][2] += 1
        else:
            runs.append([v, variables[0], 1])
    moves = tuple((WIDTH * (v + 1), (1 << (WIDTH * n)) - 1, WIDTH * (t + 1))
                  for v, t, n in runs)
    return zero_mask, moves, tuple(sums)


@lru_cache(maxsize=32)
def _dual_steps(arity: int) -> tuple:
    """Per variable v < ``arity``, what moving one unit of exponent from v to
    its dual variable ``arity + v`` adds to a key."""
    MultiIndex.bound(2 * arity)  # TooLarge before a table that is not needed
    return tuple((1 << WIDTH * (arity + v + 1)) - (1 << WIDTH * (v + 1))
                 for v in range(arity))


def _combinator_coeffs(coeffs: dict, arity: int, p: int | None) -> dict:
    """The coefficients of the series combinator of ``coeffs`` over ``arity``
    variables: each term c * x^k gives, for every variable v of k with
    exponent e, the value c * e on k with one unit of v moved to its dual
    ``arity + v``.  Distinct (key, v) give distinct output keys, whose dual
    part names v, so every product c * e is a value of its own, made
    canonical; one that vanishes mod p drops out."""
    steps = _dual_steps(arity)
    out: dict = {}
    for key, c in coeffs.items():
        fields = key >> WIDTH
        for step in steps:
            e = fields & MAX_DEGREE
            if e:
                ce = c * e
                if p:
                    ce %= p
                    if ce:
                        out[key + step] = ce
                elif type(ce) is Fraction and ce.denominator == 1:
                    out[key + step] = ce.numerator
                else:
                    out[key + step] = ce
            fields >>= WIDTH
            if not fields:
                break
    return out


class MonomialElement(Element):
    """The key hooks of :class:`Element` for packed monomial keys, and the
    substitution along linear maps with distinct targets, shared by series
    and divided powers."""

    __slots__ = ()

    ARITY_LIMIT = MAX_ARITY
    _UNIT = "term products"
    _pairs = staticmethod(MultiIndex.pairs)
    _degree = staticmethod(MAX_DEGREE.__and__)
    _shift = staticmethod(MultiIndex.shift)
    _letters = staticmethod(itertools.combinations_with_replacement)

    @staticmethod
    def _key(pairs) -> int:
        # Looked up per call, so that a wrapper put on MultiIndex.make (to
        # count key constructions) sees these too.
        return MultiIndex.make(pairs)

    @staticmethod
    def _key_of_draws(draw, degree: int, arity: int) -> int:
        if degree > MAX_DEGREE:
            raise _too_large(degree)
        key = degree
        if arity <= len(_UNITS):
            for _ in range(degree):
                key += _UNITS[draw() % arity]
        else:
            for _ in range(degree):
                key += 1 << WIDTH * (draw() % arity + 1)
        return key

    @staticmethod
    def _count(arity: int, degree: int) -> int:
        return binomial(arity + degree - 1, degree)

    @staticmethod
    def _cost(a: dict, b: dict) -> int:
        """A product is counted by its term pairs, before it runs."""
        return len(a) * len(b)

    def _check_keys(self) -> None:
        """Canonical keys (``MultiIndex.check``) over the arity, of degree at
        least 1 in a reduced element and at most a cap; divided powers are
        reduced and uncapped."""
        arity, *regime, _ = self.shape
        cap, reduced = regime or (None, True)
        bound = MultiIndex.bound(arity)
        for key in self.coeffs:
            deg = MultiIndex.check(key) & MAX_DEGREE
            if key >= bound:
                raise ShapeMismatch(f"monomial {MultiIndex.pairs(key)} "
                                    f"exceeds arity {arity}")
            if reduced and deg < 1:
                raise NotReduced("constant term in a reduced element")
            if cap is not None and deg > cap:
                raise ShapeMismatch(f"degree {deg} exceeds cap {cap}")

    def substitute_linear(self, spec: tuple, arity: int):
        """Substitute for variable i the sum of the variables in ``spec[i]``,
        or zero when it is empty, with ``arity`` variables in the result;
        None where the keys cannot follow ``spec`` (see the module
        docstring)."""
        shape = self._linear_shape(spec, arity)
        plan = _compile(spec)
        if plan is None:
            return None
        zero_mask, moves, sums = plan
        limit = size_limit()
        out = {}
        for key, c in self.coeffs.items():
            if key & zero_mask:
                continue
            new = key & MAX_DEGREE
            for shift, mask, to in moves:
                new += ((key >> shift) & mask) << to
            if not sums:
                out[new] = c
                continue
            keys = [new]
            for shift, units in sums:
                e = (key >> shift) & MAX_DEGREE
                if e > 1:
                    return None
                if e:
                    keys = [k + u for k in keys for u in units]
            if len(out) + len(keys) > limit:
                return None
            out.update(dict.fromkeys(keys, c))
        return self._make(shape, out)


class SeriesElement(MonomialElement):
    """A finitely supported map key -> nonzero raw coefficient, with shape
    (arity, cap, reduced, field)."""

    __slots__ = ()

    SHAPE = ("arity", "cap", "reduced", "field")
    notation = ("*", "", "")

    def __init__(self, arity: int, cap: int | None, reduced: bool,
                 field: FieldSpec, coeffs: dict):
        """Public constructor: keys from MultiIndex, values Scalars of
        ``field`` or ints (or Fractions over Q); zero values are dropped."""
        self._build((arity, cap, reduced, field), coeffs)

    @property
    def cap(self) -> int | None:
        return self.shape[1]

    @property
    def reduced(self) -> bool:
        return self.shape[2]

    @property
    def _tag(self) -> str:
        return "poly" if self.cap is None else f"series(cap={self.cap})"

    # -- multiplication and substitution -----------------------------------

    def _times(self, a: dict, b: dict) -> dict:
        """The product of coefficient dicts, truncated above the cap.  A
        degree past ``min(cap, MAX_DEGREE)`` is dropped past the cap and
        raises TooLarge below it: no degree carries into the exponents."""
        cap = self.shape[1]
        p = self.field.p
        limit = MAX_DEGREE if cap is None else min(cap, MAX_DEGREE)
        out: dict = {}
        for ka, ca in a.items():
            room = limit - (ka & MAX_DEGREE)
            for kb, cb in b.items():
                if kb & MAX_DEGREE > room:
                    degree = (ka & MAX_DEGREE) + (kb & MAX_DEGREE)
                    if cap is None or degree <= cap:
                        raise _too_large(degree)
                    continue
                accumulate(out, ka + kb, ca * cb, p)
        return out

    def __mul__(self, other: "SeriesElement") -> "SeriesElement":
        """The truncated product, charged up front (``_charge``)."""
        if type(other) is not SeriesElement or (
                (self.arity, self.cap, self.field)
                != (other.arity, other.cap, other.field)):
            raise ShapeMismatch("series shapes differ")
        self._charge(0, self.coeffs, other.coeffs)
        return SeriesElement._make(
            (self.arity, self.cap, self.reduced and other.reduced, self.field),
            self._times(self.coeffs, other.coeffs))

    def _target(self, args: Sequence["SeriesElement"],
                arity: int | None) -> tuple:
        """Capped series require every argument to be reduced; the
        polynomial regime (cap None) also accepts constant-bearing
        arguments, and its result is reduced when they all are."""
        out_arity, cap, reduced, field = super()._target(args, arity)
        if cap is not None and not reduced:
            raise NotReduced("capped substitution needs a reduced series")
        for a in args:
            _, a_cap, a_reduced, _ = a.shape
            if a_cap != cap:
                raise ShapeMismatch("substitution arguments disagree in shape")
            if cap is not None and not a_reduced:
                raise NonReducedArgument("capped series composed with a "
                                         "constant-bearing argument")
            reduced = reduced and a_reduced
        return (out_arity, cap, reduced, field)

    substitute = Element.substitute  # bound per theory: see Element

    def _linear_shape(self, spec: tuple, arity: int) -> tuple:
        if self.cap is not None and not self.reduced:
            raise NotReduced("capped substitution needs a reduced series")
        return super()._linear_shape(spec, arity)

    # -- differentiation ------------------------------------------------------

    def partial(self, i: int) -> "SeriesElement":
        """Formal partial derivative; caps drop by one, constants may appear."""
        if not 0 <= i < self.arity:
            raise ShapeMismatch(f"variable {i} out of range")
        p = self.field.p
        step = MultiIndex.single(i)
        out: dict = {}
        for key, c in self.coeffs.items():
            e = MultiIndex.exponent(key, i)
            if e:
                accumulate(out, key - step, c * e, p)
        new_cap = None if self.cap is None else self.cap - 1
        return SeriesElement._make((self.arity, new_cap, False, self.field),
                                   out)

    _combinator = staticmethod(_combinator_coeffs)

    def partial_combinator(self) -> "SeriesElement":
        """Sum over i of (df/dx_i) * y_i, with y_i the dual variable n+i.

        Each output monomial keeps the total degree of its source and carries
        exactly one unit of dual degree, so the result is reduced at the same
        cap.
        """
        n, cap, reduced, field = self.shape
        if cap is not None and not reduced:
            raise NotReduced("differential combinator needs a reduced series")
        return self._make((2 * n, cap, reduced, field),
                          _combinator_coeffs(self.coeffs, n, field.p))

    # -- shape utilities ------------------------------------------------------

    def truncate(self, new_cap: int) -> "SeriesElement":
        if self.cap is not None and new_cap > self.cap:
            raise ShapeMismatch("cannot raise a degree cap")
        out = {key: c for key, c in self.coeffs.items()
               if key & MAX_DEGREE <= new_cap}
        return SeriesElement._make(
            (self.arity, new_cap, self.reduced, self.field), out)
