"""The per-trial kernels against the scalar code they replace.

* ``SplitMix64`` finalizes its outputs in blocks of 128-bit lanes; the
  scalar splitmix64 step is the reference, over several blocks of every size.
* ``trial_streams`` finalizes the seeds and stream heads of a chunk of
  trials at once; ``SplitMix64(mix(seed, salt, k))`` is the reference, at
  every head length of the axiom table, over the block boundaries after the
  head and the chunk boundaries, and on a chunk read again from its cache.
  The cache stays under its bound, and memory does not grow with the trial
  count.
* ``random_element`` writes its draws out in a sampler kept per theory and
  bounds; the loop of ``randint`` calls, ``_key`` over (variable, 1) pairs
  and ``accumulate`` that it replaces is the reference, on ordinary and on
  degenerate bounds.
* The packed-key combinators of series and divided powers add a per-arity
  step to each key; the loop of ``MultiIndex.pairs``, key arithmetic and
  ``accumulate`` is the reference, and the coefficients must be canonical
  (residues over F_p with zeros dropped, integral rationals as ``int``).
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import diffmonads as dm
from diffmonads import (DPElement, GenConfig, MultiIndex, SeriesElement,
                        SplitMix64, TooLarge, ZinElement, prime_field,
                        rationals)
from diffmonads import generators as gen
from diffmonads.powerseries import MAX_ARITY
from diffmonads.scalars import accumulate, canonical

Q = rationals()
F2, F3, F5 = prime_field(2), prime_field(3), prime_field(5)

CONFIGS = [("poly", None, None), ("power", None, 4), ("power", 5, 4),
           ("divided", None, None), ("divided", 2, None),
           ("divided", 3, None), ("zinbiel", None, None),
           ("zinbiel", 2, None), ("trivial", None, None)]
THEORIES = [dm.make_theory(kind, Q if p is None else prime_field(p), cap or 6)
            for kind, p, cap in CONFIGS]
IDS = [repr(t) for t in THEORIES]
# Every theory over Q, F2, F3 and F5: the acceptance configurations first.
SAMPLED = THEORIES + [
    t for t in (dm.make_theory(kind, field, 4)
                for kind in ("poly", "power", "divided", "zinbiel", "trivial")
                for field in (Q, F2, F3, F5))
    if t not in THEORIES]
SAMPLED_IDS = [repr(t) for t in SAMPLED]
PACKED = [t for t in THEORIES if t.element is not ZinElement]
PACKED_IDS = [repr(t) for t in PACKED]


# -- the block stream ------------------------------------------------------------


def scalar_stream(seed: int, count: int) -> list[int]:
    """The splitmix64 stream, one output per step."""
    state = seed & gen.MASK64
    out = []
    for _ in range(count):
        state = (state + gen._GAMMA) & gen.MASK64
        out.append(gen._finalize(state))
    return out


# 8 + 16 + 32 + 64 * 5 = 376 outputs cross every block boundary up to the
# fifth block of 64.
STREAM_LENGTH = 8 + 16 + 32 + 64 * 5


@pytest.mark.parametrize("seed", [
    0, 1, 2, 1 << 63, (1 << 64) - 1, 1 << 64, -1,
    0x9E3779B97F4A7C15, (1 << 64) - 0x9E3779B97F4A7C15, 0xDEADBEEF,
    123456789123456789])
def test_block_stream_equals_the_scalar_step(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(STREAM_LENGTH)] == \
        scalar_stream(seed, STREAM_LENGTH)


def test_randint_and_choice_reduce_the_block_stream():
    rng = SplitMix64(2024)
    expected = scalar_stream(2024, STREAM_LENGTH)
    got = []
    for k in range(STREAM_LENGTH):
        if k % 3 == 0:
            got.append(rng.next_u64())
        elif k % 3 == 1:
            assert rng.randint(-3, 3) == -3 + expected[k] % 7
            got.append(expected[k])
        else:
            assert rng.choice("abcde") == "abcde"[expected[k] % 5]
            got.append(expected[k])
    assert got == expected
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(1, 0)
    # an empty range draws nothing
    assert rng.next_u64() == scalar_stream(2024, STREAM_LENGTH + 1)[-1]


# -- the trial streams ----------------------------------------------------------

CHUNK = gen.TRIAL_CHUNK
# every stream head of the axiom table
HEADS = sorted({row[2] for row in dm.cdc._AXIOMS.values()})
SEEDS = [0, 1, -1, 1 << 63, (1 << 64) - 1, 1 << 70]


def past_the_blocks(head: int) -> int:
    """Outputs that cross each block boundary after a head of ``head``: into
    the blocks of 8, 16, 32 and 64 outputs and into the second of 64."""
    return head + 8 + 16 + 32 + 64 + 1


def drawn(streams, outputs: int) -> list:
    return [(k, [rng.next_u64() for _ in range(outputs)])
            for k, rng in streams]


def reference_streams(seed: int, salt: int, trials: int,
                      outputs: int) -> list:
    return drawn(((gen.mix(seed, salt, k), SplitMix64(gen.mix(seed, salt, k)))
                  for k in range(trials)), outputs)


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_streams_equal_single_seed_streams(seed):
    head = HEADS[-1]
    outputs = past_the_blocks(head)
    for salt in (0, (1 << 64) - 1, gen.stable_hash("CD.5"),
                 gen.stable_hash("dc.4")):
        for trials in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 200):
            assert drawn(gen.trial_streams(seed, salt, trials, head),
                         outputs) == \
                reference_streams(seed, salt, trials, outputs)


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_streams_equal_single_seed_streams_at_every_head(seed):
    for salt in (0, gen.stable_hash("monad.assoc")):
        # longest first, so that a chunk cached for one head length is never
        # a prefix of the chunk of the next
        for head in HEADS[::-1] + [0]:
            outputs = past_the_blocks(head)
            for trials in (1, CHUNK + 1):
                assert drawn(gen.trial_streams(seed, salt, trials, head),
                             outputs) == \
                    reference_streams(seed, salt, trials, outputs)


def test_a_chunk_read_again_comes_from_the_cache(monkeypatch):
    """A theory checked at a seed after another reads the chunks that the
    first finalized, and they are as the first found them: no reader
    mutates a cached array."""
    cfg = GenConfig(seed=2718)
    axiom = "monad.assoc"
    salt, head = gen.stable_hash(axiom), dm.cdc._AXIOMS[axiom][2]
    trials, outputs = CHUNK + 3, past_the_blocks(head)
    want = reference_streams(cfg.seed, salt, trials, outputs)
    assert dm.cdc.run_axiom(axiom, THEORIES[0], cfg, trials).passed

    def finalized_again(*args):
        raise AssertionError("a cached chunk was finalized again")

    monkeypatch.setattr(gen, "_finalize_chunk", finalized_again)
    assert drawn(gen.trial_streams(cfg.seed, salt, trials, head),
                 outputs) == want
    assert dm.cdc.run_axiom(axiom, THEORIES[1], cfg, trials).passed
    assert drawn(gen.trial_streams(cfg.seed, salt, trials, head),
                 outputs) == want


def held_outputs() -> int:
    return sum(size * (head + 1)
               for _, _, size, head in gen._CHUNKS.chunks)


def test_the_stream_cache_stays_under_its_bound(monkeypatch):
    head = HEADS[-1]
    # many distinct seeds: a new seed empties the cache
    for seed in range(40):
        for _ in gen.trial_streams(seed, 5, CHUNK, head):
            pass
        assert gen._CHUNKS.held == held_outputs() == CHUNK * (head + 1)
    # many chunks of one seed: the least recently used go
    for salt in range(3 * gen.CACHE_OUTPUTS // (CHUNK * (head + 1))):
        for _ in gen.trial_streams(7, salt, CHUNK, head):
            pass
        assert gen._CHUNKS.held == held_outputs() <= gen.CACHE_OUTPUTS
    assert gen._CHUNKS.held > gen.CACHE_OUTPUTS - CHUNK * (head + 1)
    assert (gen.mix(7, salt), 0, CHUNK, head) in gen._CHUNKS.chunks
    # a chunk larger than the cache is not kept
    monkeypatch.setattr(gen, "CACHE_OUTPUTS", CHUNK * (head + 1) - 1)
    assert drawn(gen.trial_streams(7, 5, CHUNK, head), 2) == \
        reference_streams(7, 5, CHUNK, 2)
    assert (gen._CHUNKS.held, gen._CHUNKS.chunks) == (0, {})


def test_a_full_acceptance_run_fits_the_stream_cache():
    """200 trials of every axiom: the chunks of the 9 acceptance configs at
    one seed are finalized once."""
    assert sum(200 * (head + 1) for _, _, head in dm.cdc._AXIOMS.values()) \
        <= gen.CACHE_OUTPUTS


MEMORY_RUN = """
import resource
from diffmonads import cdc, GenConfig, rationals
theory = cdc.make_theory("trivial", rationals())
report = cdc.run_axiom("du.1", theory, GenConfig(seed=7), {trials})
assert report.passed
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_rss_kb(trials: int) -> int:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c",
                           MEMORY_RUN.format(trials=trials)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return int(done.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux")
def test_trial_stream_memory_does_not_grow_with_the_trials():
    """Unchunked, the seeds and heads of 100 000 trials would be one int of
    about 38 MB.  The stream cache holds at most ``CACHE_OUTPUTS`` outputs
    (1 MiB) with their chunks, whatever the trial count."""
    assert peak_rss_kb(100_000) - peak_rss_kb(100) <= 2048


# -- random elements ---------------------------------------------------------------


def reference_random_element(theory, cfg, rng, *, arity, max_degree,
                             max_terms):
    """``random_element`` as a loop of ``randint`` calls."""
    n = arity
    degrees = gen._degree_range(theory, max_degree)
    linear = theory.spec.product is None
    p = theory.field.p
    while True:
        coeffs: dict = {}
        for _ in range(rng.randint(1, max_terms)):
            d = 1 if linear else rng.randint(degrees.start, degrees.stop - 1)
            while True:
                c = rng.randint(cfg.coeff_min, cfg.coeff_max)
                if c and canonical(c, p):
                    c = canonical(c, p)
                    break
            key = theory.element._key(
                [(rng.randint(0, n - 1), 1) for _ in range(d)])
            accumulate(coeffs, key, c, p)
        if coeffs:
            return theory.element._make(theory.shapes[n], coeffs)


def outcome(fn):
    """The result of ``fn()``, or the type and text of what it raised."""
    try:
        return fn()
    except (ValueError, TooLarge) as exc:
        return type(exc), str(exc)


def both(theory, cfg, seed, **bounds):
    """The outcomes of random_element and its reference from one seed, and
    the next output of each generator."""
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got = outcome(lambda: gen.random_element(theory, cfg, fast, **bounds))
    want = outcome(lambda: reference_random_element(theory, cfg, slow,
                                                    **bounds))
    return got, want, fast.next_u64(), slow.next_u64()


def same_terms(a, b) -> bool:
    """Equal elements with the same canonical values in the same order."""
    return a == b and [(k, type(c)) for k, c in a.coeffs.items()] == \
        [(k, type(c)) for k, c in b.coeffs.items()]


@pytest.mark.parametrize("theory", SAMPLED, ids=SAMPLED_IDS)
def test_random_element_equals_the_randint_loop(theory):
    for seed in range(150):
        cfg = GenConfig(seed=seed, coeff_min=-4, coeff_max=4)
        for arity, max_degree, max_terms in ((3, 4, 4), (1, 2, 6), (5, 3, 2)):
            got, want, after, expected = both(
                theory, cfg, seed, arity=arity, max_degree=max_degree,
                max_terms=max_terms)
            assert same_terms(got, want)
            assert after == expected


DEGENERATE = [
    # (theory, arity, max_degree, max_terms, coeff range)
    ("power", 3, 4, 0, (-3, 3)),        # no terms
    ("zinbiel", 3, 4, -2, (-3, 3)),
    ("trivial", 2, 1, 0, (-3, 3)),
    ("poly", 0, 0, 3, (-3, 3)),         # arity 0: constants only
    ("poly", 0, 2, 3, (-3, 3)),         # arity 0: constants or an error
    ("poly", -1, 0, 2, (-3, 3)),
    ("power", 0, 4, 3, (-3, 3)),        # arity 0 and degrees from 1
    ("divided", 0, 4, 3, (-3, 3)),
    ("zinbiel", 0, 2, 3, (-3, 3)),
    ("trivial", 0, 1, 3, (-3, 3)),
    ("power", 3, 0, 3, (-3, 3)),        # an empty degree range
    ("divided", 2, -1, 3, (-3, 3)),
    ("zinbiel", 2, 0, 1, (-3, 3)),
    ("trivial", 2, 0, 2, (-3, 3)),      # draws no degree, so no error
    ("power", 2, 3, 3, (3, -3)),        # an empty coefficient range
    ("poly", 2, 2, 2, (2, 2)),          # one coefficient
    ("poly", 2, 2, 4, (-1, 1)),
]


@pytest.mark.parametrize("kind,arity,max_degree,max_terms,coeffs", DEGENERATE)
def test_random_element_on_degenerate_bounds(kind, arity, max_degree,
                                             max_terms, coeffs):
    theory = dm.make_theory(kind, Q, 4)
    cfg = GenConfig(coeff_min=coeffs[0], coeff_max=coeffs[1])
    outcomes = set()
    for seed in range(60):
        got, want, after, expected = both(
            theory, cfg, seed, arity=arity, max_degree=max_degree,
            max_terms=max_terms)
        if isinstance(want, tuple):
            assert got == want
            outcomes.add(want)
        else:
            assert same_terms(got, want)
            assert after == expected
            outcomes.add("element")
    if (kind, arity, max_degree) == ("poly", 0, 2):
        assert outcomes == {"element", (ValueError, "empty range")}


def test_theories_that_differ_in_field_or_cap_share_no_sampler():
    """Samplers are kept per theory and bounds: a draw in one theory never
    runs with another's field, cap or element class."""
    theories = [dm.make_theory("power", Q, 4), dm.make_theory("power", F5, 4),
                dm.make_theory("power", Q, 2), dm.make_theory("poly", Q),
                dm.make_theory("divided", Q), dm.make_theory("divided", F3)]
    cfg = GenConfig(coeff_min=-7, coeff_max=7)
    for seed in range(40):
        for theory in theories:
            got, want, after, expected = both(
                theory, cfg, seed, arity=3, max_degree=4, max_terms=4)
            assert same_terms(got, want)
            assert after == expected
    samplers = [s for t in theories for s in t.samplers.values()]
    assert len(samplers) == len(theories)
    assert len({id(s) for s in samplers}) == len(theories)


@pytest.mark.parametrize("theory", PACKED, ids=PACKED_IDS)
def test_random_element_past_the_unit_key_table(theory):
    """Packed keys add the exponent fields of the first variables from a
    table, and shift the others into place."""
    units = len(dm.powerseries._UNITS)
    cfg = GenConfig(coeff_min=-4, coeff_max=4)
    for seed in range(40):
        for arity in (units - 1, units, units + 1, 3 * units):
            got, want, after, expected = both(theory, cfg, seed, arity=arity,
                                              max_degree=6, max_terms=4)
            assert same_terms(got, want)
            assert after == expected


def test_random_element_of_too_many_variables_is_too_large():
    for theory in PACKED:
        with pytest.raises(TooLarge):
            gen.random_element(theory, GenConfig(), SplitMix64(1),
                               arity=MAX_ARITY + 1)
    words = dm.make_theory("zinbiel", Q)
    assert gen.random_element(words, GenConfig(), SplitMix64(1),
                              arity=MAX_ARITY + 1).arity == MAX_ARITY + 1


# -- the combinators -----------------------------------------------------------------


def reference_combinator(f):
    """The combinator as a loop of ``pairs`` and ``accumulate``: one unit of
    x_v moves to its dual x_{n+v} by key arithmetic, as keys multiply by
    adding.  Series multiply by the exponent, divided powers do not."""
    n = f.arity
    p = f.field.p
    series = isinstance(f, SeriesElement)
    out: dict = {}
    for key, c in f.coeffs.items():
        for v, e in MultiIndex.pairs(key):
            moved = key - MultiIndex.single(v) + MultiIndex.single(n + v)
            accumulate(out, moved, c * e if series else c, p)
    return f._make((2 * n,) + f.shape[1:], out)


@pytest.mark.parametrize("theory", PACKED, ids=PACKED_IDS)
def test_combinator_equals_the_pairs_loop(theory):
    rng = SplitMix64(77)
    cfg = GenConfig(seed=77)
    for _ in range(300):
        arity = rng.randint(1, 6)
        f = gen.random_element(theory, cfg, rng, arity=arity,
                               max_degree=6, max_terms=6)
        assert same_terms(f.partial_combinator(), reference_combinator(f))


def test_series_combinator_drops_products_that_vanish_mod_p():
    """Over F5 an exponent divisible by 5 gives c * e = 0: the term goes."""
    key = MultiIndex.make
    f = SeriesElement(3, 12, True, F5, {
        key([(0, 5), (1, 1)]): 2, key([(0, 10)]): 1, key([(2, 5)]): 3,
        key([(0, 2), (2, 5)]): 4, key([(1, 3)]): 1})
    got = f.partial_combinator()
    assert same_terms(got, reference_combinator(f))
    # left: x2 of x1^5*x2, x1 of x1^2*x3^5 and x2 of x2^3
    assert len(got.coeffs) == 3
    assert all(type(c) is int and 0 < c < 5 for c in got.coeffs.values())
    poly = SeriesElement(2, None, False, F5, {key([(0, 5)]): 1})
    assert poly.partial_combinator().is_zero()


def test_series_combinator_makes_integral_rationals_ints():
    key = MultiIndex.make
    f = SeriesElement(2, None, False, Q, {
        key([(0, 2)]): Fraction(1, 2), key([(0, 3), (1, 1)]): Fraction(1, 3),
        key([(1, 4)]): Fraction(3, 4), key([(0, 1), (1, 2)]): Fraction(2, 5),
        key([]): Fraction(7, 2)})
    got = f.partial_combinator()
    assert same_terms(got, reference_combinator(f))
    values = list(got.coeffs.values())
    assert values == [1, 1, Fraction(1, 3), 3, Fraction(2, 5), Fraction(4, 5)]
    assert [type(c) for c in values] == [int, int, Fraction, int, Fraction,
                                         Fraction]


def test_divided_combinator_keeps_coefficients():
    key = MultiIndex.make
    f = DPElement(3, F5, {key([(0, 5), (2, 1)]): 3, key([(1, 10)]): 4})
    got = f.partial_combinator()
    assert same_terms(got, reference_combinator(f))
    assert sorted(got.coeffs.values()) == [3, 3, 4]


def test_combinator_past_the_arity_limit_is_too_large():
    half = MAX_ARITY // 2
    for cls_args in ((half + 1, None, False, Q), (half + 1, Q)):
        cls = SeriesElement if len(cls_args) == 4 else DPElement
        f = cls(*cls_args, {MultiIndex.single(half): 1})
        with pytest.raises(TooLarge):
            f.partial_combinator()
    f = SeriesElement(half, None, False, Q, {MultiIndex.single(half - 1): 1})
    assert f.partial_combinator().arity == MAX_ARITY


# -- the arity limit ---------------------------------------------------------------


def test_packed_keys_are_bounded_in_arity():
    big = MultiIndex.single(MAX_ARITY)  # variable MAX_ARITY + 1
    with pytest.raises(TooLarge):
        MultiIndex.check(big)
    with pytest.raises(TooLarge):
        MultiIndex.bound(MAX_ARITY + 1)
    with pytest.raises(TooLarge):
        SeriesElement(MAX_ARITY + 1, None, False, Q, {})
    with pytest.raises(TooLarge):
        DPElement(MAX_ARITY + 1, Q, {MultiIndex.single(0): 1})
    top = MultiIndex.single(MAX_ARITY - 1)
    assert MultiIndex.check(top) == top
    assert SeriesElement(MAX_ARITY, None, False, Q, {top: 1}).arity == \
        MAX_ARITY
    word = (MAX_ARITY * 4,)
    assert ZinElement(MAX_ARITY * 4 + 1, Q, {word: 1}).coeffs == {word: 1}


def test_internal_constructions_are_bounded_in_arity():
    """``_make`` checks no key, only the arity: every internal path that
    widens packed monomials past ``MAX_ARITY`` raises TooLarge."""
    half = MAX_ARITY // 2
    for theory in PACKED:
        with pytest.raises(TooLarge):
            theory.eta(0, 1).extend_arity(MAX_ARITY + 1)
        with pytest.raises(TooLarge):
            theory.zero(MAX_ARITY + 1)
        with pytest.raises(TooLarge):
            theory.eta(0, MAX_ARITY + 1)
        with pytest.raises(TooLarge):
            theory.linear_map(MAX_ARITY + 1, ((0,),))
        with pytest.raises(TooLarge):
            theory.eta(0, half + 1).partial_combinator()
        assert theory.eta(0, half).partial_combinator().arity == MAX_ARITY
    words = dm.make_theory("zinbiel", Q)
    wide = MAX_ARITY + 1
    assert words.eta(0, 1).extend_arity(wide).arity == wide
    assert words.zero(wide).arity == wide
    assert words.eta(wide - 1, wide).coeffs == {(wide - 1,): 1}
    assert words.linear_map(wide, ((0,),)).components[0].arity == wide
    assert words.eta(0, half + 1).partial_combinator().arity == 2 * half + 2
