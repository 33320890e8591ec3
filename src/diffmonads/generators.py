"""Deterministic generators and naive brute-force oracles.

The PRNG is splitmix64: state advances by the golden-gamma constant
0x9E3779B97F4A7C15 and outputs are finalized with the xor-shift/multiply
constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  The same seed always
yields the same stream, so every recorded failure replays exactly.

:class:`SplitMix64` finalizes its outputs in blocks.  Output k of the stream
from seed s is the finalizer applied to s + k*gamma mod 2^64; it depends on
nothing else, so a run of B outputs can be finalized at once and the stream
does not change (Steele, Lea & Flood, *Fast splittable pseudorandom number
generators*, OOPSLA 2014).  A block is one Python int of B lanes of 128 bits,
lane k holding s + (k+1)*gamma reduced to 64 bits, and each finalizer step
runs once on the whole int.  A mask that keeps the low 64 bits of every lane
goes before each multiply and after it: a shift moves the low bits of the
next lane into the high half of a lane, where the mask clears them, and a
64-bit lane times a 64-bit constant is below 2^128, so no carry crosses into
the next lane.  The last xor-shift only spoils high halves, which are never
read: the low halves are read out through ``int.to_bytes`` and an
``array('Q')``.  Blocks grow from 8 to 64 outputs, so a trial that draws a
few values pays for a short block only.  The scalar :func:`_finalize` stays
for :func:`mix` and as the reference of the blocks.

The trials of one axiom get their streams from :func:`trial_streams`.  Trial
k of an axiom runs from seed ``mix(seed, stable_hash(axiom), k)``, and the
last step of :func:`mix` is the finalizer on a value that grows by one with
k, so the seeds of a chunk of trials are one lane-parallel pass, and the
first ``STREAM_HEAD`` outputs of all their streams are a second.  A chunk
holds at most ``TRIAL_CHUNK`` trials, so memory does not grow with the trial
count.  Each trial's :class:`SplitMix64` starts with its precomputed outputs
and resumes at output ``STREAM_HEAD`` with the blocks above: the stream is
the one ``SplitMix64(seed)`` makes, which is how a single trial replays from
its recorded seed.

:func:`random_element` takes the constants of its loop from a sampler that
is built once per theory and bounds and kept in ``theory.samplers``.

The oracles at the bottom recompute the interesting combinatorics by flat
enumeration (position subsets, raw permutations, term-by-term convolution)
and share nothing with the main implementations beyond the coefficient and
key representations (`scalars.accumulate` and `MultiIndex`).

This module loads with ``cdc``; it takes ``Morphism`` from ``category``.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from collections import namedtuple
from math import factorial

from .category import Morphism
from .dividedpower import DPElement
from .errors import TooLarge
from .powerseries import EMPTY_INDEX, MultiIndex, SeriesElement
from .scalars import ENUMERATION_LIMIT, accumulate
from .zinbiel import ZinElement

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _finalize_lanes(z: int, mask: int) -> int:
    """:func:`_finalize` on the low 64 bits, kept by ``mask``, of every
    128-bit lane of ``z`` at once; the high halves come out unmasked."""
    z &= mask
    z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
    return z ^ (z >> 31)


def _block_constants(size: int) -> tuple:
    """(size, lane ones, lane steps, lane mask) of a block of ``size``
    outputs: lane k of ``state * ones + steps`` is state + (k+1)*gamma."""
    ones = sum(1 << (128 * k) for k in range(size))
    steps = sum((k + 1) * _GAMMA << (128 * k) for k in range(size))
    return size, ones, steps, MASK64 * ones


_BLOCKS = tuple(_block_constants(size) for size in (8, 16, 32, 64))
# The low half of every 128-bit lane, as 64-bit words in native order.
_LOW_HALVES = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _blocks(state: int):
    """The splitmix64 stream after ``state``, as arrays of consecutive
    outputs (see the module docstring)."""
    for size, ones, steps, mask in itertools.chain(
            _BLOCKS, itertools.repeat(_BLOCKS[-1])):
        z = _finalize_lanes(state * ones + steps, mask)
        yield array("Q", z.to_bytes(16 * size, sys.byteorder))[_LOW_HALVES]
        state = (state + size * _GAMMA) & MASK64


class SplitMix64:
    """The splitmix64 generator; 64-bit outputs, pure function of the seed.

    ``next_u64`` is an instance attribute, a builtin callable that returns
    the next output from the current block, so a caller that draws many
    values (``random_element``) calls it directly.  ``head``, when given,
    is the first ``len(head)`` outputs of the stream from ``seed``, already
    finalized (see :func:`trial_streams`); the blocks resume after them.
    """

    __slots__ = ("next_u64",)

    def __init__(self, seed: int, head=()):
        self.next_u64 = itertools.chain(
            head, itertools.chain.from_iterable(
                _blocks((seed + len(head) * _GAMMA) & MASK64))).__next__

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]: ``next_u64()`` by modulo
        reduction."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

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


# Trials per chunk of :func:`trial_streams`, and the outputs per trial that
# it finalizes up front: most trials draw fewer than STREAM_HEAD values.
TRIAL_CHUNK = 64
STREAM_HEAD = 24


@functools.lru_cache(maxsize=TRIAL_CHUNK)
def _chunk_constants(size: int) -> tuple:
    """(ones, index, mask, head steps, head mask) of a chunk of ``size``
    trials.  The seed pass has ``size`` lanes of 128 bits, lane k holding
    index k; the head pass has STREAM_HEAD * size lanes, lane j*size + k
    holding output j+1 of trial k, that is (j+1)*gamma past its seed."""
    ones = sum(1 << (128 * k) for k in range(size))
    index = sum(k << (128 * k) for k in range(size))
    head_ones = sum(1 << (128 * k) for k in range(size * STREAM_HEAD))
    head_steps = sum((j + 1) * _GAMMA << (128 * (j * size + k))
                     for j in range(STREAM_HEAD) for k in range(size))
    return ones, index, MASK64 * ones, head_steps, MASK64 * head_ones


def trial_streams(seed: int, salt: int, trials: int):
    """Yield (seed_k, stream) for k in range(trials): seed_k is
    ``mix(seed, salt, k)`` and stream is ``SplitMix64(seed_k)``, made in two
    lane-parallel passes per chunk (see the module docstring)."""
    base = mix(seed, salt) + _GAMMA
    order = sys.byteorder
    for start in range(0, trials, TRIAL_CHUNK):
        size = min(TRIAL_CHUNK, trials - start)
        ones, index, mask, head_steps, head_mask = _chunk_constants(size)
        # the last step of mix, for the trials start .. start + size - 1
        z = _finalize_lanes(((base + start) & MASK64) * ones + index, mask)
        lanes = (z & mask).to_bytes(16 * size, order)
        seeds = array("Q", lanes)[_LOW_HALVES]
        # every seed in each of STREAM_HEAD runs of lanes, stepped and
        # finalized as a block is
        z = _finalize_lanes(int.from_bytes(lanes * STREAM_HEAD, order) +
                            head_steps, head_mask)
        heads = array("Q", z.to_bytes(16 * size * STREAM_HEAD,
                                      order))[_LOW_HALVES]
        for k, trial_seed in enumerate(seeds):
            yield trial_seed, SplitMix64(trial_seed, heads[k::size])


class GenConfig(namedtuple("GenConfig", "seed arity max_degree max_terms "
                                        "coeff_min coeff_max",
                            defaults=(0, 3, 4, 4, -3, 3))):
    """Bounds for random elements; the same config yields the same stream."""

    __slots__ = ()


# -- random elements and morphisms -------------------------------------------


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
    element.  A draw from an empty range raises ValueError.

    The draws are made by the theory's sampler for these bounds, built on
    the first call with them (see :func:`_sampler`).
    """
    rng = rng if rng is not None else SplitMix64(cfg.seed)
    bounds = (cfg.coeff_min, cfg.coeff_max,
              max_degree if max_degree is not None else cfg.max_degree,
              max_terms if max_terms is not None else cfg.max_terms)
    sample = theory.samplers.get(bounds)
    if sample is None:
        sample = theory.samplers[bounds] = _sampler(theory, *bounds)
    return sample(rng.next_u64, arity if arity is not None else cfg.arity)


def _sampler(theory, coeff_min: int, coeff_max: int, max_degree: int,
             max_terms: int):
    """``sample(draw, arity)``: the draws of :func:`random_element` from the
    output function ``draw``, with the constants of these bounds bound.

    Every draw is ``lo + draw() % span``, as ``SplitMix64.randint`` makes
    it, written out here because this is the innermost loop of every trial.
    The span of an empty range is 0, so its draw divides by zero.
    """
    degrees = _degree_range(theory, max_degree)
    dmin, dspan = degrees.start, len(degrees)
    linear = theory.spec.product is None
    key_of_draws = theory.element._key_of_draws
    make = theory.element._make
    shapes = theory.shapes
    p = theory.field.p
    tspan = max(max_terms, 0)
    cspan = max(coeff_max - coeff_min + 1, 0)

    def sample(draw, n: int):
        vspan = max(n, 0)
        try:
            while True:
                coeffs: dict = {}
                for _ in range(1 + draw() % tspan):
                    d = 1 if linear else dmin + draw() % dspan
                    while True:
                        c = coeff_min + draw() % cspan
                        if p:
                            c %= p
                        if c:
                            break
                    key = key_of_draws(draw, d, vspan)
                    cur = coeffs.get(key)
                    if cur is not None:
                        c += cur
                        if p:
                            c %= p
                        if not c:
                            del coeffs[key]
                            continue
                    coeffs[key] = c
                if coeffs:
                    return make(shapes[n], coeffs)
        except ZeroDivisionError:
            raise ValueError("empty range") from None

    return sample


def random_morphism(theory, cfg: GenConfig, source: int, target: int,
                    rng: SplitMix64 | None = None, *,
                    max_degree: int | None = None,
                    max_terms: int | None = None):
    rng = rng if rng is not None else SplitMix64(cfg.seed)
    comps = tuple(random_element(theory, cfg, rng, arity=source,
                                 max_degree=max_degree, max_terms=max_terms)
                  for _ in range(target))
    return Morphism._make(theory, source, target, comps)


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
    return [element(*shape, {element._key([(v, 1) for v in letters]): one})
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
