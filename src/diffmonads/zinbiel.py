"""The free Zinbiel algebra on words: half-shuffle, substitution, derivatives.

Elements are Scalar combinations of nonempty words over the variable alphabet.
The half-shuffle of two words keeps the first letter of the left word in front
and interleaves everything else:

    (v_1 ... v_n) < (w_1 ... w_m) = v_1 . shuffle(v_2 ... v_n, w_1 ... w_m)

Its symmetrisation a*b = a<b + b<a is the ordinary shuffle product.  The
substitution of words is right-nested: a word i_1 ... i_l sends its letters to
arguments and combines them as g_{i_1} < (g_{i_2} < (... < g_{i_l})).

The derivative reads off the first letter: d(x_1 ... x_n)/dx is the tail when
x_1 = x and zero otherwise, with the one-letter word contributing to a
separate constant component (the algebra is not unital).  The combinator form
re-tags the first letter of every word into the dual block.

Coefficients are raw canonical values (see :mod:`diffmonads.scalars`); the
keys stay tuples.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

from .dividedpower import DPElement
from .errors import ShapeMismatch
from .powerseries import MultiIndex
from .scalars import FieldSpec, Scalar, accumulate, canonical

Word = tuple  # nonempty tuple of variable indices


def _shuffles(u: Word, w: Word):
    """Yield every interleaving of u and w, once per merge pattern."""
    if not u:
        yield w
        return
    if not w:
        yield u
        return
    for tail in _shuffles(u[1:], w):
        yield (u[0],) + tail
    for tail in _shuffles(u, w[1:]):
        yield (w[0],) + tail


def _arrangements(counts: list[tuple[int, int]]):
    """Distinct words using each variable with the given multiplicity."""
    total = sum(c for _, c in counts)
    if total == 0:
        yield ()
        return
    for k, (var, c) in enumerate(counts):
        if c == 0:
            continue
        rest = list(counts)
        rest[k] = (var, c - 1)
        for tail in _arrangements(rest):
            yield (var,) + tail


class ZinElement:
    """Finitely supported combination of words, as a map word -> nonzero raw
    coefficient."""

    __slots__ = ("arity", "field", "coeffs")

    def __init__(self, arity: int, field: FieldSpec, coeffs: dict):
        """Public constructor: values Scalars of ``field`` or ints (or
        Fractions over Q); zero values are dropped."""
        raw = {}
        for w, c in coeffs.items():
            value = field.raw(c)
            if value:
                raw[w] = value
        self._init(arity, field, raw)

    def _init(self, arity, field, coeffs) -> None:
        self.arity = arity
        self.field = field
        self.coeffs = coeffs
        for w in coeffs:
            if len(w) < 1:
                raise ShapeMismatch("empty word")
            if max(w) >= arity:
                raise ShapeMismatch(f"word {w} exceeds arity {arity}")

    @classmethod
    def _make(cls, arity: int, field: FieldSpec, coeffs: dict) -> "ZinElement":
        """Internal constructor: ``coeffs`` is already canonical."""
        self = cls.__new__(cls)
        self._init(arity, field, coeffs)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, arity: int, field: FieldSpec) -> "ZinElement":
        return cls._make(arity, field, {})

    @classmethod
    def generator(cls, i: int, arity: int, field: FieldSpec) -> "ZinElement":
        """The one-letter word at variable i (the monad unit)."""
        if not 0 <= i < arity:
            raise ShapeMismatch(f"variable {i} out of range for arity {arity}")
        return cls._make(arity, field, {(i,): 1})

    @classmethod
    def from_terms(cls, arity: int, field: FieldSpec,
                   terms: Iterable[tuple[Word, Scalar]]) -> "ZinElement":
        coeffs: dict = {}
        for w, c in terms:
            accumulate(coeffs, w, field.raw(c), field.p)
        return cls(arity, field, coeffs)

    # -- linear structure ---------------------------------------------------

    def _check_shape(self, other: "ZinElement") -> None:
        if (self.arity, self.field) != (other.arity, other.field):
            raise ShapeMismatch("word algebra shapes differ")

    def __add__(self, other: "ZinElement") -> "ZinElement":
        self._check_shape(other)
        out = dict(self.coeffs)
        p = self.field.p
        for w, c in other.coeffs.items():
            accumulate(out, w, c, p)
        return ZinElement._make(self.arity, self.field, out)

    def __neg__(self) -> "ZinElement":
        p = self.field.p
        return ZinElement._make(self.arity, self.field,
                                {w: canonical(-c, p)
                                 for w, c in self.coeffs.items()})

    def __sub__(self, other: "ZinElement") -> "ZinElement":
        return self + (-other)

    def scale(self, s: Scalar) -> "ZinElement":
        s = self.field.raw(s)
        if not s:
            return ZinElement._make(self.arity, self.field, {})
        p = self.field.p
        return ZinElement._make(self.arity, self.field,
                                {w: canonical(c * s, p)
                                 for w, c in self.coeffs.items()})

    # -- products -----------------------------------------------------------

    def half_shuffle(self, other: "ZinElement") -> "ZinElement":
        self._check_shape(other)
        p = self.field.p
        out: dict = {}
        for v, cv in self.coeffs.items():
            head, tail = v[:1], v[1:]
            for w, cw in other.coeffs.items():
                c = cv * cw
                for s in _shuffles(tail, w):
                    accumulate(out, head + s, c, p)
        return ZinElement._make(self.arity, self.field, out)

    def __mul__(self, other: "ZinElement") -> "ZinElement":
        """The shuffle product a<b + b<a (commutative and associative)."""
        return self.half_shuffle(other) + other.half_shuffle(self)

    # -- substitution ---------------------------------------------------------

    def substitute(self, args: Sequence["ZinElement"],
                   arity: int | None = None) -> "ZinElement":
        if len(args) != self.arity:
            raise ShapeMismatch(f"{self.arity} arguments expected, got {len(args)}")
        if args:
            out_arity = args[0].arity
        elif arity is not None:
            out_arity = arity
        else:
            raise ShapeMismatch("target arity required for nullary substitution")
        for a in args:
            if (a.arity, a.field) != (out_arity, self.field):
                raise ShapeMismatch("substitution arguments disagree in shape")
        p = self.field.p
        result: dict = {}
        for w, c in self.coeffs.items():
            term = right_nested([args[i] for i in w])
            for word, cw in term.coeffs.items():
                accumulate(result, word, cw * c, p)
        return ZinElement._make(out_arity, self.field, result)

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
        return (ZinElement._make(self.arity, self.field, out),
                Scalar(self.field, canonical(const, p)))

    def partial_combinator(self) -> "ZinElement":
        """Move the first letter of every word into the dual block n+i."""
        n = self.arity
        out = {(n + w[0],) + w[1:]: c for w, c in self.coeffs.items()}
        return ZinElement._make(2 * n, self.field, out)

    def counit(self) -> tuple[Scalar, ...]:
        """Coefficients of the one-letter words."""
        out = [0] * self.arity
        for w, c in self.coeffs.items():
            if len(w) == 1:
                out[w[0]] = c
        return tuple(Scalar(self.field, c) for c in out)

    def terms(self) -> list[tuple[Word, Scalar]]:
        """The (word, coefficient) pairs with boxed coefficients."""
        return [(w, Scalar(self.field, c)) for w, c in self.coeffs.items()]

    # -- shape utilities -----------------------------------------------------------

    def extend_arity(self, new_arity: int, offset: int = 0) -> "ZinElement":
        if offset < 0 or self.arity + offset > new_arity:
            raise ShapeMismatch("block does not fit in the new arity")
        return ZinElement._make(new_arity, self.field,
                                {tuple(i + offset for i in w): c
                                 for w, c in self.coeffs.items()})

    def degrees(self) -> list[int]:
        return [len(w) for w in self.coeffs]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZinElement):
            return NotImplemented
        return (self.arity, self.field) == (other.arity, other.field) and \
            self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"<zinbiel arity={self.arity} terms={len(self.coeffs)}>"


def right_nested(elems: Sequence[ZinElement]) -> ZinElement:
    """e_1 < (e_2 < (... < e_k)); identity on a singleton sequence."""
    if not elems:
        raise ShapeMismatch("right-nested product of an empty sequence")
    return reduce(lambda acc, e: e.half_shuffle(acc), reversed(elems[:-1]),
                  elems[-1])


def divided_to_zinbiel(f: DPElement) -> ZinElement:
    """The embedding of divided powers into words.

    A monomial x_1^[r_1]...x_p^[r_p] becomes the sum of all distinct words
    using x_i exactly r_i times, each with coefficient one.  This is an
    algebra map for the shuffle product, but it does not commute with the
    differential combinators.
    """
    p = f.field.p
    out: dict = {}
    for key, c in f.coeffs.items():
        for w in _arrangements(list(MultiIndex.pairs(key))):
            accumulate(out, w, c, p)
    return ZinElement._make(f.arity, f.field, out)


def integral_candidate(g: ZinElement) -> ZinElement:
    """Fold the dual block back onto the sources: both x_i and y_i become x_i.

    This is the functor applied to the codiagonal; on a basis word it erases
    the block distinction of every letter.  It is exposed as an experimental
    antiderivative candidate, with no axioms promised.
    """
    if g.arity % 2:
        raise ShapeMismatch("block folding needs an even arity")
    half = g.arity // 2
    p = g.field.p
    out: dict = {}
    for w, c in g.coeffs.items():
        folded = tuple(i if i < half else i - half for i in w)
        accumulate(out, folded, c, p)
    return ZinElement._make(half, g.field, out)
