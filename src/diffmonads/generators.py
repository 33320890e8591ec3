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
``array('Q')``.  Every block holds ``_BLOCK`` = 32 outputs; the scalar
:func:`_finalize` is their reference and serves :func:`mix`.  Trial k of an
axiom runs from seed ``mix(seed, stable_hash(axiom), k)`` whatever the
theory, so :func:`trial_streams` keeps what each trial of the latest seed has
drawn, and a stream of that trial reads it back before it finalizes blocks,
appending them where the memo ends: a memoized output never changes, and
each theory after the first at a seed finalizes only what it draws past the
others.  Blocks that grow from a few outputs would spare a stream that draws
a few values the rest of a long block; but the memo keeps that rest, and the
next theory at the seed reads it, so one block size makes fewer lane passes
and finalizes in vain only what no theory at the seed draws.  The memo holds
``MEMO_TRIALS`` trials, and a new seed empties it.  A trial replays from its
seed alone: every stream is ``SplitMix64(seed_k)``.

:func:`sampler` builds the draws of a random element for a theory and bounds
once, and keeps them in ``theory.samplers``; :func:`random_element` and the
checker's trials both draw through it.

This module loads with ``cdc``; it takes ``Morphism`` from ``category``.
"""

from __future__ import annotations

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


# Outputs per block; lane k of ``state * _ONES + _STEPS`` is
# state + (k+1)*gamma, and ``_LANES`` keeps the low half of every lane.
_BLOCK = 32
_ONES = sum(1 << (128 * k) for k in range(_BLOCK))
_STEPS = sum((k + 1) * _GAMMA << (128 * k) for k in range(_BLOCK))
_LANES = MASK64 * _ONES
# The low half of every 128-bit lane, as 64-bit words in native order.
_LOW_HALVES = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _finalize_lanes(z: int) -> int:
    """:func:`_finalize` on the low 64 bits of every 128-bit lane of a block
    ``z`` at once; the high halves come out unmasked."""
    z &= _LANES
    z = ((z ^ (z >> 30)) & _LANES) * _MIX1 & _LANES
    z = ((z ^ (z >> 27)) & _LANES) * _MIX2 & _LANES
    return z ^ (z >> 31)


def _blocks(state: int):
    """The splitmix64 stream after ``state``, as arrays of ``_BLOCK``
    consecutive outputs (see the module docstring)."""
    while True:
        z = _finalize_lanes(state * _ONES + _STEPS)
        yield array("Q", z.to_bytes(16 * _BLOCK, sys.byteorder))[_LOW_HALVES]
        state = (state + _BLOCK * _GAMMA) & MASK64


def _memoized(state: int, drawn: array):
    """The stream after ``state``: ``drawn``, its first outputs, then blocks,
    each appended to ``drawn`` when it starts where ``drawn`` ends."""
    yield drawn
    at = len(drawn)
    for block in _blocks((state + at * _GAMMA) & MASK64):
        if len(drawn) == at:
            drawn.extend(block)
        at += _BLOCK
        yield block


class SplitMix64:
    """The splitmix64 generator; 64-bit outputs, pure function of the seed.

    ``next_u64`` is an instance attribute, a builtin callable that returns
    the next output, so a caller that draws many values (a sampler) calls
    it directly.  It finalizes ``_BLOCK`` outputs at a time.  ``drawn``,
    when given, holds the first outputs of the stream and takes the blocks
    finalized after them (:func:`trial_streams`).
    """

    __slots__ = ("next_u64",)

    def __init__(self, seed: int, drawn: array | None = None):
        self.next_u64 = itertools.chain.from_iterable(
            _blocks(seed & MASK64) if drawn is None
            else _memoized(seed, drawn)).__next__

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


# Trials per seed in the memo of trial_streams; 200 of each of 18 axioms fit.
MEMO_TRIALS = 4096


class _Memo:
    """The ``trials`` memoized at ``seed``, by salt: the seeds of its first
    trials and what each one's streams drew."""

    __slots__ = ("seed", "trials", "salts")

    def __init__(self, seed):
        self.seed, self.trials, self.salts = seed, 0, {}


_memo = _Memo(None)


def trial_streams(seed: int, salt: int, trials: int):
    """Yield (seed_k, stream) for k in range(trials): seed_k is
    ``mix(seed, salt, k)`` and stream is ``SplitMix64(seed_k)``, reading and
    extending what trial k has drawn while the memo holds it.  A call that
    needs a seed the memo lacks folds ``mix(seed, salt)`` once, and each new
    seed_k is its last fold, the trial index.  The memo has no lock: one
    thread at a time draws from it."""
    global _memo
    memo = _memo = _memo if _memo.seed == seed else _Memo(seed)
    seeds, drawn = memo.salts.setdefault(salt, (array("Q"), []))
    base = mix(seed, salt) + _GAMMA if len(seeds) < trials else None
    for k in range(trials):
        if k == len(seeds) and memo.trials < MEMO_TRIALS:
            memo.trials += 1
            seeds.append(_finalize((base + k) & MASK64))
            drawn.append(array("Q"))
        if k < len(seeds):
            yield seeds[k], SplitMix64(seeds[k], drawn[k])
        else:
            trial_seed = _finalize((base + k) & MASK64)
            yield trial_seed, SplitMix64(trial_seed)


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
