"""The free Zinbiel algebra on words: half-shuffle, substitution, derivatives.

Elements are Scalar combinations of nonempty words over the variable alphabet.
The half-shuffle of two words keeps the first letter of the left word in front
and interleaves everything else:

    (v_1 ... v_n) < (w_1 ... w_m) = v_1 . shuffle(v_2 ... v_n, w_1 ... w_m)

Its symmetrisation a*b = a<b + b<a is the ordinary shuffle product.  The
substitution of words is right-nested: a word i_1 ... i_l sends its letters to
arguments and combines them as g_{i_1} < (g_{i_2} < (... < g_{i_l})).

Along a linear map, whose arguments are sums of one-letter words, the
right-nested half-shuffle is concatenation, so a word maps letter by letter to
the sum over the choices of one target per letter.

The derivative reads off the first letter: d(x_1 ... x_n)/dx is the tail when
x_1 = x and zero otherwise, with the one-letter word contributing to a
separate constant component (the algebra is not unital).  The combinator form
re-tags the first letter of every word into the dual block.

Coefficients are raw canonical values (see :mod:`diffmonads.scalars`); the
keys stay tuples.
"""

from __future__ import annotations

import itertools
from math import comb, prod
from operator import itemgetter
from typing import Sequence

from .dividedpower import DPElement
from .element import Element
from .errors import ShapeMismatch, TooLarge
from .powerseries import MultiIndex
from .scalars import (ENUMERATION_LIMIT, Scalar, accumulate, canonical,
                      multinomial)

Word = tuple  # nonempty tuple of variable indices

_variable = itemgetter(0)  # of a (variable, exponent) pair


def _shuffles(u: Word, w: Word):
    """Yield every interleaving of u and w, once per merge pattern: a
    depth-first walk with an explicit stack, so long words need no
    recursion."""
    n, m = len(u), len(w)
    stack = [(0, 0, ())]
    while stack:
        i, j, prefix = stack.pop()
        if i == n:
            yield prefix + w[j:]
        elif j == m:
            yield prefix + u[i:]
        else:
            stack.append((i, j + 1, prefix + (w[j],)))
            stack.append((i + 1, j, prefix + (u[i],)))


def _arrangements(letters: list[int]):
    """Distinct words using each of ``letters`` once, in lexicographic order
    (the next-permutation algorithm, so long words need no recursion)."""
    word = sorted(letters)
    last = len(word) - 1
    while True:
        yield tuple(word)
        i = last - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]


def _half_shuffle(a: dict, b: dict, p: int | None) -> dict:
    """The coefficients of a < b, for coefficient dicts a and b."""
    out: dict = {}
    for v, cv in a.items():
        head, tail = v[:1], v[1:]
        for w, cw in b.items():
            c = cv * cw
            for s in _shuffles(tail, w):
                accumulate(out, head + s, c, p)
    return out


def _charge(spent: int, a: dict, b: dict) -> int:
    """``spent`` plus the interleavings of a < b; words of lengths n and m
    have C(n-1+m, m).  TooLarge past ``ENUMERATION_LIMIT``."""
    spent += sum(comb(len(v) - 1 + len(w), len(w)) for v in a for w in b)
    if spent > ENUMERATION_LIMIT:
        raise TooLarge(f"half-shuffles expand over {spent} interleavings")
    return spent


def _right_nested(factors: list, p: int | None, spent: int) -> tuple:
    """The coefficients of f_1 < (f_2 < (... < f_k)) for coefficient dicts
    f_i, and ``spent`` plus the interleavings of its steps."""
    acc = factors[-1]
    for a in reversed(factors[:-1]):
        spent = _charge(spent, a, acc)
        acc = _half_shuffle(a, acc, p)
    return acc, spent


class ZinElement(Element):
    """Finitely supported combination of words, as a map word -> nonzero raw
    coefficient, with shape (arity, field)."""

    __slots__ = ()

    notation = (".", None, None)
    _tag = "zinbiel"
    _degree = staticmethod(len)

    def _check_keys(self) -> None:
        arity = self.arity
        for w in self.coeffs:
            if len(w) < 1:
                raise ShapeMismatch("empty word")
            if max(w) >= arity:
                raise ShapeMismatch(f"word {w} exceeds arity {arity}")

    @staticmethod
    def _key(pairs) -> Word:
        return tuple(map(_variable, pairs))

    _key_of_letters = staticmethod(tuple)

    @staticmethod
    def _key_of_draws(draw, degree: int, arity: int) -> Word:
        return tuple([draw() % arity for _ in range(degree)])

    @staticmethod
    def _pairs(w: Word):
        return zip(w, itertools.repeat(1))

    @staticmethod
    def _shift(w: Word, offset: int) -> Word:
        return tuple(i + offset for i in w)

    @staticmethod
    def _letters(variables, degree: int):
        return itertools.product(variables, repeat=degree)

    @staticmethod
    def _count(arity: int, degree: int) -> int:
        return arity ** degree

    @staticmethod
    def _order(w: Word) -> tuple:
        return len(w), w

    # -- products -----------------------------------------------------------

    def half_shuffle(self, other: "ZinElement") -> "ZinElement":
        """Sum of v < w over the term pairs; TooLarge up front past
        ``ENUMERATION_LIMIT`` interleavings (see :func:`_charge`)."""
        self._check_shape(other)
        _charge(0, self.coeffs, other.coeffs)
        return self._like(_half_shuffle(self.coeffs, other.coeffs,
                                        self.field.p))

    def __mul__(self, other: "ZinElement") -> "ZinElement":
        """The shuffle product a<b + b<a (commutative and associative); both
        half-shuffles are charged to one budget up front."""
        self._check_shape(other)
        _charge(_charge(0, self.coeffs, other.coeffs), other.coeffs,
                self.coeffs)
        return self.half_shuffle(other) + other.half_shuffle(self)

    # -- substitution ---------------------------------------------------------

    def substitute(self, args: Sequence["ZinElement"],
                   arity: int | None = None) -> "ZinElement":
        """Each word i_1 ... i_l maps to the right-nested half-shuffle of
        args[i_1], ..., args[i_l].  The interleavings of all of them are
        charged to one budget of ``ENUMERATION_LIMIT``, past which TooLarge
        is raised."""
        out_arity = self._target(args, arity)
        p = self.field.p
        result: dict = {}
        spent = 0
        for w, c in self.coeffs.items():
            term, spent = _right_nested([args[i].coeffs for i in w], p, spent)
            for word, cw in term.items():
                accumulate(result, word, cw * c, p)
        return ZinElement._make((out_arity, self.field), result)

    def substitute_linear(self, spec: tuple, arity: int) -> "ZinElement":
        """Substitute for letter i the sum of the letters in ``spec[i]``
        (zero when it is empty), with ``arity`` letters in the result.

        A word expands into the product of its letters' sum sizes; above
        ``ENUMERATION_LIMIT`` words in all it raises TooLarge up front.
        """
        shape = self._linear_shape(spec, arity)
        p = self.field.p
        image = spec.__getitem__
        if any(len(variables) > 1 for variables in spec):
            count = sum(prod(map(len, map(image, w))) for w in self.coeffs)
            if count > ENUMERATION_LIMIT:
                raise TooLarge(f"a linear substitution expands into {count} "
                               "words")
        out: dict = {}
        for w, c in self.coeffs.items():
            for word in itertools.product(*map(image, w)):
                accumulate(out, word, c, p)
        return self._make(shape, out)

    # -- differentiation --------------------------------------------------------

    def partial(self, x: int) -> tuple["ZinElement", Scalar]:
        """Deconcatenation derivative: drop a leading x, else zero.

        One-letter words land in the constant component (x tensor the empty
        word is read as the field unit).
        """
        if not 0 <= x < self.arity:
            raise ShapeMismatch(f"variable {x} out of range")
        p = self.field.p
        out: dict = {}
        const = 0
        for w, c in self.coeffs.items():
            if w[0] != x:
                continue
            if len(w) == 1:
                const += c
            else:
                accumulate(out, w[1:], c, p)
        return self._like(out), Scalar(self.field, canonical(const, p))

    def partial_combinator(self) -> "ZinElement":
        """Move the first letter of every word into the dual block n+i."""
        n = self.arity
        out = {(n + w[0],) + w[1:]: c for w, c in self.coeffs.items()}
        return ZinElement._make((2 * n, self.field), out)


def right_nested(elems: Sequence[ZinElement]) -> ZinElement:
    """e_1 < (e_2 < (... < e_k)); identity on a singleton sequence.  The
    interleavings of all steps are charged to one budget."""
    if not elems:
        raise ShapeMismatch("right-nested product of an empty sequence")
    for e in elems:
        elems[0]._check_shape(e)
    coeffs, _ = _right_nested([e.coeffs for e in elems], elems[0].field.p, 0)
    return elems[0]._like(coeffs)


def divided_to_zinbiel(f: DPElement) -> ZinElement:
    """The embedding of divided powers into words.

    A monomial x_1^[r_1]...x_p^[r_p] becomes the sum of all distinct words
    using x_i exactly r_i times, each with coefficient one.  This is an
    algebra map for the shuffle product, but it does not commute with the
    differential combinators.  A monomial with more than
    ``ENUMERATION_LIMIT`` such words, the multinomial of its exponents,
    raises TooLarge up front.
    """
    p = f.field.p
    out: dict = {}
    for key, c in f.coeffs.items():
        pairs = MultiIndex.pairs(key)
        count = multinomial(e for _, e in pairs)
        if count > ENUMERATION_LIMIT:
            raise TooLarge(f"a monomial expands into {count} words")
        for w in _arrangements([v for v, e in pairs for _ in range(e)]):
            accumulate(out, w, c, p)
    return ZinElement._make(f.shape, out)


def integral_candidate(g: ZinElement) -> ZinElement:
    """Fold the dual block back onto the sources: both x_i and y_i become x_i.

    This is substitution along the diagonal map; on a basis word it erases
    the block distinction of every letter.  It is exposed as an experimental
    antiderivative candidate, with no axioms promised.
    """
    if g.arity % 2:
        raise ShapeMismatch("block folding needs an even arity")
    half = g.arity // 2
    return g.substitute_linear(tuple((i,) for i in range(half)) * 2, half)
