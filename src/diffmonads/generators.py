"""Deterministic generators and naive brute-force oracles.

The PRNG is splitmix64: state advances by the golden-gamma constant
0x9E3779B97F4A7C15 and outputs are finalized with the xor-shift/multiply
constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  The same seed always
yields the same stream, so every recorded failure replays exactly.

The oracles at the bottom recompute the interesting combinatorics by flat
enumeration (position subsets, raw permutations, term-by-term convolution)
and share nothing with the main implementations beyond the coefficient and
key representations (`scalars.accumulate` and `MultiIndex`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dividedpower import DPElement
from .errors import TooLarge
from .powerseries import EMPTY_INDEX, MultiIndex, SeriesElement
from .scalars import ENUMERATION_LIMIT, accumulate, canonical, factorial
from .zinbiel import ZinElement

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The splitmix64 generator; 64-bit outputs, pure function of the seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        return _finalize(self.state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]: ``next_u64()`` by modulo
        reduction, with ``next_u64`` and :func:`_finalize` written out,
        because this is the innermost call of every random draw."""
        if hi < lo:
            raise ValueError("empty range")
        z = self.state = (self.state + _GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return lo + (z ^ (z >> 31)) % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


def stable_hash(text: str) -> int:
    """FNV-1a over UTF-8 bytes; stable across processes and Python versions."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def mix(*parts: int) -> int:
    """Fold integers into one 64-bit seed through the splitmix finalizer."""
    h = 0
    for p in parts:
        h = _finalize((h + _GAMMA + (p & MASK64)) & MASK64)
    return h


@dataclass
class GenConfig:
    """Bounds for random elements; the same config yields the same stream."""

    seed: int = 0
    arity: int = 3
    max_degree: int = 4
    max_terms: int = 4
    coeff_min: int = -3
    coeff_max: int = 3


# -- random elements and morphisms -------------------------------------------


def _random_coeff(rng: SplitMix64, cfg: GenConfig, field):
    """A raw coefficient; draws of zero and of values that embed to zero are
    retried."""
    while True:
        c = rng.randint(cfg.coeff_min, cfg.coeff_max)
        if c == 0:
            continue
        value = canonical(c, field.p)
        if value:
            return value


def _degree_range(theory, max_degree: int) -> range:
    """The degrees of basis elements up to ``max_degree`` and the cap."""
    if theory.cap is not None:
        max_degree = min(max_degree, theory.cap)
    return range(1 if theory.reduced else 0, max_degree + 1)


def random_element(theory, cfg: GenConfig, rng: SplitMix64 | None = None, *,
                   arity: int | None = None, max_degree: int | None = None,
                   max_terms: int | None = None):
    """A random nonzero element within the bounds, canonical and reduced.

    Each term draws its degree (none in the linear theory, whose terms have
    degree one), then its coefficient, then its letters.  Coefficients are
    drawn from the configured range, skipping values that embed to zero; a
    draw whose terms cancel is retried, so the result is never the zero
    element.
    """
    rng = rng if rng is not None else SplitMix64(cfg.seed)
    n = arity if arity is not None else cfg.arity
    tmax = max_terms if max_terms is not None else cfg.max_terms
    degrees = _degree_range(theory, max_degree if max_degree is not None
                            else cfg.max_degree)
    linear = theory.spec.product is None
    key_of_letters = theory.element._key_of_letters
    field = theory.field
    randint = rng.randint
    while True:
        coeffs: dict = {}
        for _ in range(randint(1, tmax)):
            d = 1 if linear else randint(degrees.start, degrees.stop - 1)
            coeff = _random_coeff(rng, cfg, field)
            key = key_of_letters([randint(0, n - 1) for _ in range(d)])
            accumulate(coeffs, key, coeff, field.p)
        if coeffs:
            return theory.element._make(theory.shapes[n], coeffs)


def random_morphism(theory, cfg: GenConfig, source: int, target: int,
                    rng: SplitMix64 | None = None, *,
                    max_degree: int | None = None,
                    max_terms: int | None = None):
    from .cdc import Morphism  # deferred: cdc imports this module

    rng = rng if rng is not None else SplitMix64(cfg.seed)
    comps = tuple(random_element(theory, cfg, rng, arity=source,
                                 max_degree=max_degree, max_terms=max_terms)
                  for _ in range(target))
    return Morphism(theory, source, target, comps)


# -- exhaustive enumeration ---------------------------------------------------


def basis_count(theory, arity: int, max_degree: int) -> int:
    count = theory.element._count
    return sum(count(arity, d) for d in _degree_range(theory, max_degree))


def enumerate_basis(theory, arity: int, max_degree: int) -> list:
    """Complete, duplicate-free basis up to the degree bound."""
    if basis_count(theory, arity, max_degree) > ENUMERATION_LIMIT:
        raise TooLarge("basis enumeration exceeds the size bound")
    element = theory.element
    shape = theory.shapes[arity]
    one = theory.field.one()
    return [element(*shape, {element._key_of_letters(letters): one})
            for d in _degree_range(theory, max_degree)
            for letters in element._letters(range(arity), d)]


# -- independent oracles ------------------------------------------------------


def interleavings(u: tuple, w: tuple) -> dict:
    """Multiset of interleavings of two words, by position subsets."""
    n, m = len(u), len(w)
    if n + m > 16:
        raise TooLarge("interleaving enumeration exceeds the size bound")
    out: dict = {}
    for positions in itertools.combinations(range(n + m), n):
        slots: list = [None] * (n + m)
        for letter, p in zip(u, positions):
            slots[p] = letter
        it = iter(w)
        word = tuple(slot if slot is not None else next(it) for slot in slots)
        out[word] = out.get(word, 0) + 1
    return out


def half_shuffle_oracle(a: ZinElement, b: ZinElement) -> ZinElement:
    """Head-fixed shuffle, recomputed from raw position subsets."""
    p = a.field.p
    out: dict = {}
    for v, cv in a.coeffs.items():
        for w, cw in b.coeffs.items():
            c = cv * cw
            for word, count in interleavings(v[1:], w).items():
                accumulate(out, (v[0],) + word, c * count, p)
    return ZinElement(a.arity, a.field, out)


def symmetrized_expand_oracle(f: DPElement) -> ZinElement:
    """Expand divided monomials into words via raw permutation counting.

    Every distinct arrangement of the letter multiset must occur exactly
    prod(r_i!) times among all permutations; the exact division is asserted.
    """
    p = f.field.p
    out: dict = {}
    for mi, c in f.coeffs.items():
        letters = []
        repeat = 1
        for v, e in MultiIndex.pairs(mi):
            letters.extend([v] * e)
            repeat *= factorial(e)
        if len(letters) > 8:
            raise TooLarge("permutation enumeration exceeds the size bound")
        counts: dict = {}
        for perm in itertools.permutations(letters):
            counts[perm] = counts.get(perm, 0) + 1
        for word, count in counts.items():
            q, r = divmod(count, repeat)
            if r or q != 1:
                raise AssertionError("permutation counting is inconsistent")
            accumulate(out, word, c, p)
    return ZinElement(f.arity, f.field, out)


def naive_substitute_oracle(f: SeriesElement, args) -> SeriesElement:
    """Substitution by literal term-by-term convolution, truncated at the end."""

    p = f.field.p

    def naive_mul(d1: dict, d2: dict) -> dict:
        out: dict = {}
        for m1, c1 in d1.items():
            for m2, c2 in d2.items():
                accumulate(out, MultiIndex.mul(m1, m2), c1 * c2, p)
        return out

    out_arity = args[0].arity if args else f.arity
    total: dict = {}
    size = 0
    for mi, c in f.coeffs.items():
        term = {EMPTY_INDEX: 1}
        for v, e in MultiIndex.pairs(mi):
            for _ in range(e):
                term = naive_mul(term, args[v].coeffs)
                size += len(term)
                if size > ENUMERATION_LIMIT:
                    raise TooLarge("naive expansion exceeds the size bound")
        for mk, ck in term.items():
            accumulate(total, mk, ck * c, p)
    if f.cap is not None:
        total = {mi: c for mi, c in total.items()
                 if MultiIndex.degree(mi) <= f.cap}
    reduced = f.reduced and all(a.reduced for a in args)
    return SeriesElement(out_arity, f.cap, reduced, f.field, total)
