"""Reduced divided power polynomials, exact in every characteristic.

A monomial with exponent k on variable x stands for the divided power x^[k],
which behaves like x^k / k! without the division ever happening.  The three
places structure constants enter:

* products: x^[k] * x^[l] = C(k+l, k) x^[k+l], one binomial per shared
  variable;
* divided powers of a monomial: peel factors with (a*b)^[n] = a^{*n} * b^[n],
  whose left part is a multinomial (nk)!/(k!)^n and whose final single-factor
  step is (x^[k])^[n] = (kn)!/(n!(k!)^n) x^[kn];
* divided powers of a sum: the usual expansion over compositions of n with the
  zero parts omitted, scalars entering as c^[n-part] = c^n.

All of these are integers computed in Z and embedded afterwards.  Using the
n! * a^[n] * b^[n] form of the product rule instead would spuriously vanish in
characteristic p, which is why the a^{*n} * b^[n] form is used.

The product and the divided power are the ``_times`` and ``_power`` hooks of
the element core, and the derivative and the combinator its ``_lower`` and
``_combinator``.  Keys and coefficients are those of the power series.
"""

from __future__ import annotations

from .element import Element
from .errors import TooLarge
from .powerseries import (MAX_DEGREE, WIDTH, MonomialElement, MultiIndex,
                          _dual_steps)
from .scalars import (ENUMERATION_LIMIT, accumulate, binomial, dp_power_coeff,
                      multinomial)


def _compositions(n: int, k: int):
    """All k-tuples of nonnegative integers summing to n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _merge_constant(pairs: tuple[tuple[int, int], ...], b: int) -> int:
    """The integer constant of the product of the divided monomial with
    ``pairs`` (from ``MultiIndex.pairs``) and the monomial ``b``: one binomial
    C(e+f, e) per shared variable.  The product's key is the sum of keys."""
    coeff = 1
    for v, e in pairs:
        f = MultiIndex.exponent(b, v)
        if f:
            coeff *= binomial(e + f, e)
    return coeff


def _monomial_divided_power(key: int, n: int) -> tuple[int, int]:
    """n-th divided power of a single monomial: integer constant and key."""
    if n == 1:
        return 1, key
    powered = MultiIndex.power(key, n)
    exps = [e for _, e in MultiIndex.pairs(key)]
    coeff = 1
    for e in exps[:-1]:
        coeff *= multinomial([e] * n)
    coeff *= dp_power_coeff(n, exps[-1])
    return coeff, powered


class DPElement(MonomialElement):
    """Finitely supported combination of divided power monomials, as a map
    key -> nonzero raw coefficient, with shape (arity, field)."""

    __slots__ = ()

    notation = ("*", "[", "]")
    _tag = "divided"

    # -- products, divided powers and substitution --------------------------

    def _times(self, a: dict, b: dict) -> dict:
        """The product of coefficient dicts: one merge binomial per shared
        variable (:func:`_merge_constant`)."""
        p = self.field.p
        out: dict = {}
        for ka, ca in a.items():
            room = MAX_DEGREE - (ka & MAX_DEGREE)
            pairs = MultiIndex.pairs(ka)
            for kb, cb in b.items():
                if kb & MAX_DEGREE > room:
                    raise TooLarge("divided power product exceeds the "
                                   f"degree limit {MAX_DEGREE}")
                accumulate(out, ka + kb, ca * cb * _merge_constant(pairs, kb),
                           p)
        return out

    def _power(self, known: dict, n: int, spent: int) -> tuple:
        """known[1]^[n] for n >= 1 by composition-expansion, and ``spent`` as
        it was: the C(n+k-1, k-1) compositions of a support of k terms have
        their own bound, ``ENUMERATION_LIMIT``, checked up front."""
        terms = list(known[1].items())
        count = binomial(n + len(terms) - 1, len(terms) - 1)
        if count > ENUMERATION_LIMIT:
            raise TooLarge(f"divided power expands over {count} compositions")
        p = self.field.p
        out: dict = {}
        for parts in _compositions(n, len(terms)):
            scalar = 1
            mono: int | None = None
            for (key, c), nj in zip(terms, parts):
                if nj == 0:
                    continue
                scalar *= pow(c, nj, p) if p else c ** nj
                k, powered = _monomial_divided_power(key, nj)
                scalar *= k
                if mono is None:
                    mono = powered
                else:
                    scalar *= _merge_constant(MultiIndex.pairs(mono), powered)
                    mono = MultiIndex.mul(mono, powered)
            if mono is not None:
                accumulate(out, mono, scalar, p)
        return out, spent

    __mul__ = Element._product  # bound per theory: see Element

    def mul_int_power(self, n: int) -> "DPElement":
        """Plain n-fold product f * f * ... * f (n >= 1), on one budget."""
        return self._like(Element._power(self, {1: self.coeffs}, n, 0)[0])

    def divided_power(self, n: int) -> "DPElement":
        """f^[n] for n >= 1 (see ``_power``)."""
        if n < 1:
            raise ValueError("divided powers are defined for n >= 1")
        return self._like(self._power({1: self.coeffs}, n, 0)[0])

    substitute = Element.substitute  # bound per theory: see Element

    # -- differentiation -------------------------------------------------------------

    @staticmethod
    def _lower(key: int, x: int) -> int | None:
        """x^[e] to x^[e-1], without a binomial factor; the bare x^[1] empties
        the key, so its derivative is the field unit."""
        if MultiIndex.exponent(key, x):
            return key - (1 << WIDTH * (x + 1)) - 1

    @staticmethod
    def _combinator(coeffs: dict, arity: int, p: int | None) -> dict:
        """Sum over i of (d f/d x_i) * y_i^[1] with y_i the dual variable
        n+i: one unit of each variable moved to its dual.  Distinct (key, v)
        give distinct output keys, whose dual part names v, so every
        coefficient is copied as it is."""
        steps = _dual_steps(arity)
        out: dict = {}
        for key, c in coeffs.items():
            fields = key >> WIDTH
            for step in steps:
                if fields & MAX_DEGREE:
                    out[key + step] = c
                fields >>= WIDTH
                if not fields:
                    break
        return out

    partial = Element.partial  # bound per theory: see Element
    partial_combinator = Element.partial_combinator
