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

Monomials use the packed keys of :mod:`diffmonads.powerseries` and
coefficients are raw canonical values, as there.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NotReduced, ShapeMismatch, TooLarge
from .powerseries import (MAX_DEGREE, WIDTH, MonomialElement, MultiIndex,
                          _charge, _dual_steps)
from .scalars import (ENUMERATION_LIMIT, Scalar, accumulate, binomial,
                      canonical, dp_power_coeff, multinomial)


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

    def _check_keys(self) -> None:
        bound = MultiIndex.bound(self.arity)
        for key in self.coeffs:
            if key >= bound:
                raise ShapeMismatch(f"monomial {MultiIndex.pairs(key)} "
                                    f"exceeds arity {self.arity}")
            if not key:
                raise NotReduced("constant term in a divided power polynomial")

    # -- multiplication ---------------------------------------------------------

    def __mul__(self, other: "DPElement") -> "DPElement":
        """The product; its term pairs are counted up front (``_charge``)."""
        self._check_shape(other)
        _charge(0, self.coeffs, other.coeffs)
        p = self.field.p
        out: dict = {}
        for ka, ca in self.coeffs.items():
            room = MAX_DEGREE - (ka & MAX_DEGREE)
            pairs = MultiIndex.pairs(ka)
            for kb, cb in other.coeffs.items():
                if kb & MAX_DEGREE > room:
                    raise TooLarge("divided power product exceeds the "
                                   f"degree limit {MAX_DEGREE}")
                accumulate(out, ka + kb, ca * cb * _merge_constant(pairs, kb),
                           p)
        return self._like(out)

    def mul_int_power(self, n: int) -> "DPElement":
        """Plain n-fold product f * f * ... * f (n >= 1)."""
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- divided powers ----------------------------------------------------------

    def divided_power(self, n: int) -> "DPElement":
        """f^[n] for n >= 1, by composition-expansion over the support.

        The expansion visits C(n+k-1, k-1) compositions for a support of k
        terms; above ``ENUMERATION_LIMIT`` it raises TooLarge up front.
        """
        if n < 1:
            raise ValueError("divided powers are defined for n >= 1")
        if n == 1:
            return self
        terms = list(self.coeffs.items())
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
        return self._like(out)

    # -- substitution (the monad multiplication on tuples) -------------------------

    def substitute(self, args: Sequence["DPElement"],
                   arity: int | None = None) -> "DPElement":
        """Monomial y_1^[r_1]...y_j^[r_j] maps to the product of args^[r].

        The products charge their len(a) * len(b) term pairs to one budget
        of ``ENUMERATION_LIMIT``, past which TooLarge is raised.
        """
        out_arity = self._target(args, arity)
        p = self.field.p
        result: dict = {}
        spent = 0
        for key, c in self.coeffs.items():
            term: DPElement | None = None
            for v, e in MultiIndex.pairs(key):
                factor = args[v].divided_power(e)
                if term is None:
                    term = factor
                else:
                    spent = _charge(spent, term.coeffs, factor.coeffs)
                    term = term * factor
                if term.is_zero():
                    break
            for k, ck in term.coeffs.items():
                accumulate(result, k, ck * c, p)
        return DPElement._make((out_arity, self.field), result)

    # -- differentiation -------------------------------------------------------------

    def partial(self, x: int) -> tuple["DPElement", Scalar]:
        """Divided-power derivative d/dx: decrement without a binomial factor.

        The bare monomial x^[1] differentiates to the field unit, reported in
        the separate constant component since the algebra has no unit element.
        """
        if not 0 <= x < self.arity:
            raise ShapeMismatch(f"variable {x} out of range")
        p = self.field.p
        step = MultiIndex.single(x)
        out: dict = {}
        const = 0
        for key, c in self.coeffs.items():
            if not MultiIndex.exponent(key, x):
                continue
            lowered = key - step
            if lowered:
                accumulate(out, lowered, c, p)
            else:
                const += c
        return self._like(out), Scalar(self.field, canonical(const, p))

    def partial_combinator(self) -> "DPElement":
        """Sum over i of (d f/d x_i) * y_i^[1] with y_i the dual variable n+i.

        Distinct (key, v) give distinct output keys, whose dual part names v,
        so every coefficient is copied as it is.
        """
        steps = _dual_steps(self.arity)
        out: dict = {}
        for key, c in self.coeffs.items():
            fields = key >> WIDTH
            for step in steps:
                if fields & MAX_DEGREE:
                    out[key + step] = c
                fields >>= WIDTH
                if not fields:
                    break
        return DPElement._make((2 * self.arity, self.field), out)
