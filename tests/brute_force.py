"""Brute-force oracles of the library's combinatorics, for tests.

Each recomputes what a kernel computes by flat enumeration (position subsets,
raw permutations, term-by-term convolution, repeated products) and shares
nothing with the kernels beyond the coefficient and key representations
(``scalars.accumulate`` and ``MultiIndex``).  Nothing in the library calls
them, so they live with the tests.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import factorial

from diffmonads import (EMPTY_INDEX, DPElement, MultiIndex, SeriesElement,
                        TooLarge, ZinElement)
from diffmonads.scalars import accumulate, size_limit


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
                if size > size_limit():
                    raise TooLarge("naive expansion exceeds the size bound")
        for mk, ck in term.items():
            accumulate(total, mk, ck * c, p)
    if f.cap is not None:
        total = {mi: c for mi, c in total.items()
                 if MultiIndex.degree(mi) <= f.cap}
    reduced = f.reduced and all(a.reduced for a in args)
    return SeriesElement(out_arity, f.cap, reduced, f.field, total)


def int_power(f: DPElement, n: int) -> DPElement:
    """The plain n-fold product f * f * ... * f (n >= 1), one product at a
    time."""
    return functools.reduce(operator.mul, [f] * n)
