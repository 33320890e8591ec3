"""The free Zinbiel algebra on words: half-shuffle, substitution, derivatives.

Elements are linear combinations of nonempty words over the variable
alphabet, with raw coefficients.
The half-shuffle of two words keeps the first letter of the left word in front
and interleaves everything else:

    (v_1 ... v_n) < (w_1 ... w_m) = v_1 . shuffle(v_2 ... v_n, w_1 ... w_m)

Its symmetrisation a*b = a<b + b<a is the ordinary shuffle product.  The
element core's substitution is right-nested: a word i_1 ... i_l sends its
letters to arguments, combined as g_{i_1} < (g_{i_2} < (... < g_{i_l})).

Along a linear map, whose arguments are sums of one-letter words, the
right-nested half-shuffle is concatenation, so a word maps letter by letter to
the sum over the choices of one target per letter.

The derivative reads off the first letter: d(x_1 ... x_n)/dx is the tail when
x_1 = x and zero otherwise, with the one-letter word contributing to a
separate constant component (the algebra is not unital).  The combinator form
re-tags the first letter of every word into the dual block.

Coefficients are raw canonical values (see :mod:`diffmonads.scalars`); the
keys stay tuples.

A half-shuffle v < w depends on the words only through their lengths: each
word of it picks its letters from v + w by a fixed list of positions.  So
the words of each pair of lengths come from a cached table of itemgetters,
one per interleaving, built from the walk :func:`_shuffles`.  Pairs with
more than ``TABLE_LIMIT`` interleavings or ``TABLE_LETTERS`` letters take
the walk itself, so the cache stays small.  Either way the coefficients are
summed raw and made canonical in one pass.  This is the ``_times`` hook of
the element core, and every caller charges the interleavings to its budget
(``_cost``) before any is enumerated.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import lru_cache
from math import comb, prod
from operator import itemgetter

from .dividedpower import DPElement
from .element import Element
from .errors import ShapeMismatch, TooLarge
from .powerseries import MultiIndex
from .scalars import accumulate, canonical, multinomial, size_limit

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


# Pairs of words with at most TABLE_LIMIT interleavings and TABLE_LETTERS
# letters in all get a table; the 103 such pairs of lengths hold about 2e5
# indices together, so the cache, which can hold all of them, stays small.
TABLE_LIMIT = 1 << 10
TABLE_LETTERS = 16


@lru_cache(maxsize=128)
def _shuffle_table(n: int, m: int) -> tuple | None:
    """For words v of length n and w of length m, one itemgetter per word of
    v < w that picks its letters from v + w, in the order of the walk
    :func:`_shuffles`; None past the table limits."""
    if n + m > TABLE_LETTERS or comb(n - 1 + m, m) > TABLE_LIMIT:
        return None
    return tuple(itemgetter(0, *s) for s in
                 _shuffles(tuple(range(1, n)), tuple(range(n, n + m))))


def _half_shuffle(a: dict, b: dict, p: int | None) -> dict:
    """The coefficients of a < b, for coefficient dicts a and b: raw sums
    over the interleavings, made canonical in one pass at the end."""
    out: dict = {}
    get = out.get
    for v, cv in a.items():
        n = len(v)
        for w, cw in b.items():
            c = cv * cw
            table = _shuffle_table(n, len(w))
            if table is not None:
                vw = v + w
                for pick in table:
                    word = pick(vw)
                    out[word] = get(word, 0) + c
            else:
                head = v[:1]
                for s in _shuffles(v[1:], w):
                    word = head + s
                    out[word] = get(word, 0) + c
    return {word: c for word, raw in out.items() if (c := canonical(raw, p))}


class ZinElement(Element):
    """Finitely supported combination of words, as a map word -> nonzero raw
    coefficient, with shape (arity, field)."""

    __slots__ = ()

    notation = (".", None, None)
    _tag = "zinbiel"
    _UNIT = "interleavings"
    _degree = staticmethod(len)

    def _check_keys(self) -> None:
        arity = self.arity
        for w in self.coeffs:
            if type(w) is not tuple or not w or not all(
                    type(v) is int and 0 <= v < arity for v in w):
                raise ShapeMismatch(f"{w!r} is not a word of arity {arity}")

    @staticmethod
    def _key(pairs) -> Word:
        return tuple(map(_variable, pairs))

    @staticmethod
    def _key_of_draws(draw, degree: int, arity: int) -> Word:
        return tuple([draw() % arity for _ in range(degree)])

    @staticmethod
    def _pairs(w: Word) -> tuple:
        return tuple(zip(w, itertools.repeat(1)))

    @staticmethod
    def _shift(w: Word, offset: int) -> Word:
        return tuple(i + offset for i in w)

    @staticmethod
    def _letters(variables, degree: int):
        return itertools.product(variables, repeat=degree)

    @staticmethod
    def _count(arity: int, degree: int) -> int:
        return arity ** degree

    # -- products and substitution -----------------------------------------

    def _times(self, a: dict, b: dict) -> dict:
        return _half_shuffle(a, b, self.field.p)

    @staticmethod
    def _cost(a: dict, b: dict) -> int:
        """C(n-1+m, m) interleavings for each pair of words of lengths n, m."""
        return sum(comb(len(v) - 1 + len(w), len(w)) for v in a for w in b)

    half_shuffle = Element._product  # bound per theory: see Element

    def __mul__(self, other: "ZinElement") -> "ZinElement":
        """The shuffle product a<b + b<a (commutative and associative); both
        half-shuffles are charged to one budget up front."""
        self._check_shape(other)
        a, b = self.coeffs, other.coeffs
        self._charge(self._charge(0, a, b), b, a)
        return self._like(self._times(a, b)) + self._like(self._times(b, a))

    substitute = Element.substitute  # bound per theory: see Element

    def substitute_linear(self, spec: tuple, arity: int) -> "ZinElement":
        """Substitute for letter i the sum of the letters in ``spec[i]``
        (zero when it is empty), with ``arity`` letters in the result.

        A word expands into the product of its letters' sum sizes; with
        more words in all than the size bound (``size_limit``) it raises
        TooLarge up front.
        """
        shape = self._linear_shape(spec, arity)
        p = self.field.p
        image = spec.__getitem__
        if any(len(variables) > 1 for variables in spec):
            count = sum(prod(map(len, map(image, w))) for w in self.coeffs)
            if count > size_limit():
                raise TooLarge(f"a linear substitution expands into {count} "
                               "words")
        out: dict = {}
        for w, c in self.coeffs.items():
            for word in itertools.product(*map(image, w)):
                accumulate(out, word, c, p)
        return self._make(shape, out)

    # -- differentiation --------------------------------------------------------

    @staticmethod
    def _lower(w: Word, x: int) -> Word | None:
        """Deconcatenation: drop a leading x, else zero; a one-letter word
        empties, x tensor the empty word being read as the field unit."""
        if w[0] == x:
            return w[1:]

    @staticmethod
    def _combinator(coeffs: dict, n: int, p: int | None) -> dict:
        """Move the first letter of every word into the dual block n+i."""
        return {(n + w[0],) + w[1:]: c for w, c in coeffs.items()}

    partial = Element.partial  # bound per theory: see Element
    partial_combinator = Element.partial_combinator


def right_nested(elems: Sequence[ZinElement]) -> ZinElement:
    """e_1 < (e_2 < (... < e_k)): the e_i substituted into the word
    x1...xk, so the interleavings of all steps are charged to one budget;
    identity on a singleton sequence."""
    if not elems:
        raise ShapeMismatch("right-nested product of an empty sequence")
    k = len(elems)
    word = ZinElement._make((k, elems[0].field), {tuple(range(k)): 1})
    return word.substitute(elems)


def divided_to_zinbiel(f: DPElement) -> ZinElement:
    """The embedding of divided powers into words.

    A monomial x_1^[r_1]...x_p^[r_p] becomes the sum of all distinct words
    using x_i exactly r_i times, each with coefficient one.  This is an
    algebra map for the shuffle product, but it does not commute with the
    differential combinators.  A monomial with more such words, the
    multinomial of its exponents, than the size bound (``size_limit``)
    raises TooLarge up front.
    """
    p = f.field.p
    out: dict = {}
    for key, c in f.coeffs.items():
        pairs = MultiIndex.pairs(key)
        count = multinomial(e for _, e in pairs)
        if count > size_limit():
            raise TooLarge(f"a monomial expands into {count} words")
        for w in _arrangements([v for v, e in pairs for _ in range(e)]):
            accumulate(out, w, c, p)
    return ZinElement._make(f.shape, out)
