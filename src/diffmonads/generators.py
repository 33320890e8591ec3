"""Deterministic generators: the splitmix64 stream, trial streams and random
elements.

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
``array('Q')``.  Blocks grow from 8 to 64 outputs, so a stream that draws a
few values pays for a short block only.  The scalar :func:`_finalize` stays
for :func:`mix` and as the reference of the blocks.

The trials of one axiom get their streams from :func:`trial_streams`.  Trial
k of an axiom runs from seed ``mix(seed, stable_hash(axiom), k)``, and the
last step of :func:`mix` is the finalizer on a value that grows by one with
k, so the seeds of a chunk of trials are one lane-parallel pass, and the
first ``head`` outputs of all their streams, trial after trial, are a second.
Each axiom has its own head (``cdc._AXIOMS``), near the 85th percentile of
the outputs its trials draw, so most trials draw within their head, and a
trial starts its blocks only when it runs past it.  A chunk holds at most
``TRIAL_CHUNK`` trials, so memory does not grow with the trial count.  The
seeds of a trial do not depend on the theory, so every theory checked at one
seed draws from the same chunks, and a cache of chunks finalizes each once
per process.  The cache keeps the chunks of the latest seed, and drops the
least recently used while it holds more than ``CACHE_OUTPUTS`` outputs.  A
new seed empties it: a caller that moves on to another seed does not read
the old chunks again, and holding them would only raise the peak memory.  A
trial's stream reads a copy of its head, never the cached array, and
resumes at output ``head`` with the blocks above: it is the stream that
``SplitMix64(seed)`` makes, which is how a single trial replays from its
recorded seed.

:func:`sampler` builds the draws of a random element for a theory and bounds
once, and keeps them in ``theory.samplers``; :func:`random_element` and the
checker's trials both draw through it.

This module loads with ``cdc``; it takes ``Morphism`` from ``category``.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from collections import namedtuple

from .category import Morphism
from .errors import TooLarge
from .scalars import size_limit

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


class _Rest(int):
    """The state of a stream after its head: iterating it yields the outputs
    that follow, from blocks that start only then."""

    __slots__ = ()

    def __iter__(self):
        return itertools.chain.from_iterable(_blocks(self))


class SplitMix64:
    """The splitmix64 generator; 64-bit outputs, pure function of the seed.

    ``next_u64`` is an instance attribute, a builtin callable that returns
    the next output, so a caller that draws many values (a sampler) calls
    it directly.  ``head``, when given, is the first ``len(head)`` outputs
    of the stream from ``seed``, already finalized (see
    :func:`trial_streams`); the blocks resume after them.
    """

    __slots__ = ("next_u64",)

    def __init__(self, seed: int, head=()):
        self.next_u64 = itertools.chain(
            head, _Rest((seed + len(head) * _GAMMA) & MASK64)).__next__

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


# Trials per chunk of :func:`trial_streams`, and the outputs (seeds and
# heads) that its cache of chunks holds at most, 1 MiB as array('Q'): enough
# for 200 trials of every axiom, so that the theories checked after the
# first at one seed finalize nothing again.
TRIAL_CHUNK = 64
CACHE_OUTPUTS = 1 << 17


@functools.lru_cache(maxsize=TRIAL_CHUNK)
def _seed_constants(size: int) -> tuple:
    """(ones, index, mask) of the seed pass of a chunk of ``size`` trials:
    ``size`` lanes of 128 bits, lane k holding index k."""
    ones = sum(1 << (128 * k) for k in range(size))
    index = sum(k << (128 * k) for k in range(size))
    return ones, index, MASK64 * ones


@functools.lru_cache(maxsize=64)
def _head_steps(head: int) -> bytes:
    """The ``head`` lanes of one trial's head pass as native-order bytes:
    lane j holds (j+1)*gamma, what output j+1 of a stream adds to its
    seed."""
    return sum((j + 1) * _GAMMA << (128 * j)
               for j in range(head)).to_bytes(16 * head, sys.byteorder)


# The mask of one 128-bit lane, as native-order bytes.
_LANE_MASK = MASK64.to_bytes(16, sys.byteorder)


def _finalize_chunk(root: int, start: int, size: int, head: int) -> tuple:
    """The seeds ``mix(seed, salt, k)`` of the ``size`` trials from
    ``start``, where ``root`` is ``mix(seed, salt)``, and the first ``head``
    outputs of each of their streams, trial after trial, as two arrays."""
    order = sys.byteorder
    ones, index, mask = _seed_constants(size)
    # the last step of mix, for the trials start .. start + size - 1
    z = _finalize_lanes(((root + _GAMMA + start) & MASK64) * ones + index,
                        mask)
    lanes = (z & mask).to_bytes(16 * size, order)
    seeds = array("Q", lanes)[_LOW_HALVES]
    # each seed in ``head`` lanes, stepped and finalized as a block is; in
    # either byte order, trial k's run of lanes is where its seed lane is
    rows = b"".join([lanes[i:i + 16] * head for i in range(0, len(lanes), 16)])
    z = _finalize_lanes(int.from_bytes(rows, order) +
                        int.from_bytes(_head_steps(head) * size, order),
                        int.from_bytes(_LANE_MASK * (size * head), order))
    heads = array("Q", z.to_bytes(16 * size * head, order))[_LOW_HALVES]
    return seeds, heads


class _ChunkCache:
    """The (seeds, heads) of chunks of trial streams at one seed, keyed by
    the arguments of :func:`_finalize_chunk`, (mix(seed, salt), first
    trial, trials, head), the least recently used first; ``held`` counts
    their outputs (see the module docstring)."""

    def __init__(self):
        self.seed = None
        self.chunks: dict = {}
        self.held = 0

    def get(self, seed: int, key: tuple) -> tuple:
        """``_finalize_chunk(*key)`` for a chunk of trials at ``seed``,
        finalized when it is not held; a new seed empties the cache, and the
        least recently used chunks go while it holds more than
        ``CACHE_OUTPUTS`` outputs."""
        chunks = self.chunks
        if seed != self.seed:
            chunks.clear()
            self.seed, self.held = seed, 0
        got = chunks.pop(key, None)
        if got is None:
            got = _finalize_chunk(*key)
            self.held += key[2] * (key[3] + 1)
        chunks[key] = got
        while self.held > CACHE_OUTPUTS:
            old = next(iter(chunks))
            del chunks[old]
            self.held -= old[2] * (old[3] + 1)
        return got


_CHUNKS = _ChunkCache()


def trial_streams(seed: int, salt: int, trials: int, head: int):
    """Yield (seed_k, stream) for k in range(trials): seed_k is
    ``mix(seed, salt, k)`` and stream is ``SplitMix64(seed_k)``, its first
    ``head`` outputs finalized per chunk of trials and cached (see the
    module docstring)."""
    root = mix(seed, salt)
    for start in range(0, trials, TRIAL_CHUNK):
        size = min(TRIAL_CHUNK, trials - start)
        seeds, heads = _CHUNKS.get(seed, (root, start, size, head))
        for k, trial_seed in enumerate(seeds):
            yield trial_seed, SplitMix64(trial_seed,
                                         heads[k * head:(k + 1) * head])


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


def sampler(theory, cfg: GenConfig, max_degree: int | None = None,
            max_terms: int | None = None):
    """``sample(draw, arity)``, the draws of :func:`random_element` within
    the bounds of ``cfg`` from the output function ``draw``; ``max_degree``
    and ``max_terms`` override those of ``cfg``.  Built on the first call
    with these bounds and kept in ``theory.samplers`` (see
    :func:`_sampler`)."""
    bounds = (cfg.coeff_min, cfg.coeff_max,
              cfg.max_degree if max_degree is None else max_degree,
              cfg.max_terms if max_terms is None else max_terms)
    sample = theory.samplers.get(bounds)
    if sample is None:
        sample = theory.samplers[bounds] = _sampler(theory, *bounds)
    return sample


def random_element(theory, cfg: GenConfig, rng: SplitMix64 | None = None, *,
                   arity: int | None = None, max_degree: int | None = None,
                   max_terms: int | None = None):
    """A random nonzero element within the bounds, canonical and reduced.

    Each term draws its degree (none in the linear theory, whose terms have
    degree one), then its coefficient, then its letters.  Coefficients are
    drawn from the configured range, skipping values that embed to zero; a
    draw whose terms cancel is retried, so the result is never the zero
    element.  A draw from an empty range raises ValueError.

    The draws are made by the theory's sampler for these bounds
    (:func:`sampler`).
    """
    rng = rng if rng is not None else SplitMix64(cfg.seed)
    return sampler(theory, cfg, max_degree, max_terms)(
        rng.next_u64, arity if arity is not None else cfg.arity)


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
    if basis_count(theory, arity, max_degree) > size_limit():
        raise TooLarge("basis enumeration exceeds the size bound")
    element = theory.element
    shape = theory.shapes[arity]
    one = theory.field.one()
    return [element(*shape, {element._key([(v, 1) for v in letters]): one})
            for d in _degree_range(theory, max_degree)
            for letters in element._letters(range(arity), d)]
