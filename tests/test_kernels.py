"""The per-trial kernels against the scalar code they replace.

* ``SplitMix64`` finalizes its outputs in blocks of 128-bit lanes; the
  scalar splitmix64 step is the reference, over several blocks.
* ``trial_streams`` keeps what each trial of the latest seed has drawn;
  ``SplitMix64(mix(seed, salt, k))`` is the reference, on a stream that
  reads the memo and draws past the block boundaries after it, on trials
  past the memo, and on two streams of one trial drawing in turn.  A run
  after another at a seed finalizes nothing it drew and changes no verdict,
  the memo holds whole blocks and stays under its bound, and memory does not
  grow with the trial count.
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
from array import array
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


# 376 outputs cross 11 block boundaries and end inside the twelfth block.
STREAM_LENGTH = 376


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

MEMO = gen.MEMO_TRIALS
SEEDS = [0, 1, -1, 1 << 63, (1 << 64) - 1, 1 << 70]
SALTS = [0, (1 << 64) - 1, gen.stable_hash("CD.5"), gen.stable_hash("dc.4")]
# Trials on both sides of 64 and past the memo.
TRIALS = (0, 1, 63, 64, 65, 200, MEMO + 1)


def past_the_blocks(outputs: int) -> int:
    """Outputs that cross two block boundaries after the first ``outputs``."""
    return outputs + 2 * gen._BLOCK + 1


def drawn(streams, outputs: int, trials=None) -> dict:
    """``outputs`` draws of the streams of ``trials`` (all by default), with
    their seeds, by trial; the other streams draw nothing."""
    return {k: (trial_seed, [rng.next_u64() for _ in range(outputs)])
            for k, (trial_seed, rng) in enumerate(streams)
            if trials is None or k in trials}


def reference_streams(seed: int, salt: int, trials, outputs: int) -> dict:
    """What :func:`drawn` reads when trial k's stream is made alone, as
    ``SplitMix64(mix(seed, salt, k))``."""
    return {k: (gen.mix(seed, salt, k),
                scalar_stream(gen.mix(seed, salt, k), outputs))
            for k in trials}


def empty_the_memo(seed: int) -> None:
    """Trial streams at another seed: the memo starts again."""
    assert list(gen.trial_streams(seed + 1, 0, 0)) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_streams_equal_single_seed_streams(seed):
    """For each salt, with the memo emptied first: a pass draws a few
    outputs of each trial, a second reads them back from the memo and draws
    past every block boundary after them, and a third past the second."""
    for salt in SALTS:
        empty_the_memo(seed)
        assert list(gen.trial_streams(seed, salt, 0)) == []
        for outputs in (3, past_the_blocks(8), past_the_blocks(192)):
            assert drawn(gen.trial_streams(seed, salt, MEMO + 2), outputs,
                         TRIALS) == \
                reference_streams(seed, salt, TRIALS, outputs)
        assert gen._memo.trials == MEMO


@pytest.mark.parametrize("seed", SEEDS)
def test_a_stream_resumes_after_drawn_outputs_of_every_length(seed):
    """``SplitMix64(seed, drawn)`` reads ``drawn`` and then the stream from
    where it ends, past every block boundary after it, and leaves ``drawn``
    holding a longer prefix of the stream."""
    longest = 130
    want = scalar_stream(seed, past_the_blocks(longest))
    for length in range(longest + 1):
        prefix = array("Q", want[:length])
        rng = SplitMix64(seed, prefix)
        outputs = past_the_blocks(length)
        assert [rng.next_u64() for _ in range(outputs)] == want[:outputs]
        assert outputs <= len(prefix)
        assert list(prefix) == scalar_stream(seed, len(prefix))


# Two readers of one trial draw in turn, in these runs: the first finalizes a
# block of its own, the second passes it in the memo and appends the next
# block, and the first then finalizes a block that the memo already holds.
# Each reader crosses the block boundaries at 32 and 64 outputs.
TURNS = [(33, 65, 40, 8), (1, 33, 34, 40, 100, 130, 200, 132)]


@pytest.mark.parametrize("turns", TURNS)
def test_interleaved_streams_of_a_trial_read_the_reference(turns):
    """Two passes over the trials at one seed and salt, their streams of one
    trial drawing alternately past block boundaries: both read the
    reference stream, the outputs in the memo before are unchanged, and a
    third pass reads the reference from the memo."""
    seed, salt, trials = 31, gen.stable_hash("CD.1"), 3
    empty_the_memo(seed)
    drawn(gen.trial_streams(seed, salt, trials), 5)
    memo = gen._memo.salts[salt][1]
    before = [list(outputs) for outputs in memo]
    assert [len(outputs) for outputs in before] == [gen._BLOCK] * trials
    total = sum(turns[0::2])
    assert sum(turns[1::2]) == total
    for k, ((seed_a, a), (seed_b, b)) in enumerate(zip(
            gen.trial_streams(seed, salt, trials),
            gen.trial_streams(seed, salt, trials))):
        reads = {a: [], b: []}
        for turn, run in enumerate(turns):
            rng = (a, b)[turn % 2]
            reads[rng] += [rng.next_u64() for _ in range(run)]
        want = scalar_stream(gen.mix(seed, salt, k), total)
        assert seed_a == seed_b == gen.mix(seed, salt, k)
        assert reads[a] == reads[b] == want
        assert list(memo[k][:gen._BLOCK]) == before[k]
        assert list(memo[k]) == scalar_stream(seed_a, len(memo[k]))
    assert drawn(gen.trial_streams(seed, salt, trials), total + 1) == \
        reference_streams(seed, salt, range(trials), total + 1)


def verdicts(reports) -> list:
    """The reports without their wall times."""
    return [(r.axiom, r.trials, r.failures) for r in reports]


def test_a_second_run_at_a_seed_finalizes_nothing(monkeypatch):
    """Once the acceptance theories have run at a seed, every one of them
    runs again, each after another, and finalizes no output and no trial
    seed: the memo holds all that their trials drew."""
    cfg = GenConfig(seed=2718)
    first = [verdicts(dm.check_all(t, cfg, 20)) for t in THEORIES]

    def finalized(*args):
        raise AssertionError("an output was finalized again")

    monkeypatch.setattr(gen, "_blocks", finalized)
    monkeypatch.setattr(gen, "_finalize", finalized)
    assert [verdicts(dm.check_all(t, cfg, 20)) for t in THEORIES[::-1]] == \
        first[::-1]


def test_the_memo_changes_no_verdict():
    """``check_all`` of a theory after another at the same seed reads the
    memo the other filled, and equals ``check_all`` of it on an empty memo.
    The mutants fail, so their failures' seeds and inputs are compared."""
    cfg = GenConfig(seed=1618)
    theories = [THEORIES[0],
                dm.MutatedTheory("zinbiel-last-letter", Q),
                dm.MutatedTheory("powerseries-drop-first-partial", F5, 4),
                THEORIES[6],
                dm.MutatedTheory("dividedpower-binomial-factor", F3),
                THEORIES[8]]
    alone = []
    for theory in theories:
        empty_the_memo(cfg.seed)
        alone.append(verdicts(dm.check_all(theory, cfg, 20)))
    empty_the_memo(cfg.seed)
    after = [verdicts(dm.check_all(theory, cfg, 20)) for theory in theories]
    assert gen._memo.seed == cfg.seed
    assert after == alone
    assert all(any(failures for _, _, failures in alone[k])
               for k in (1, 2, 4))


def test_memo_rows_are_whole_blocks():
    """After the acceptance theories run at a seed, what each trial drew is
    whole blocks from the start of its stream."""
    cfg = GenConfig(seed=4242)
    empty_the_memo(cfg.seed)
    for theory in THEORIES:
        dm.check_all(theory, cfg, 20)
    rows = [len(row) for _, drawn in gen._memo.salts.values()
            for row in drawn]
    assert rows and all(length % gen._BLOCK == 0 for length in rows)
    assert max(rows) > gen._BLOCK


def test_the_memo_holds_at_most_memo_trials():
    empty_the_memo(7)
    half = MEMO // 2 + 1
    for salt in range(3):
        for _ in gen.trial_streams(7, salt, half):
            pass
        held = gen._memo.salts.values()
        assert gen._memo.trials == sum(len(s) for s, _ in held) == \
            sum(len(d) for _, d in held) == min(MEMO, (salt + 1) * half)
    assert [len(s) for s, _ in gen._memo.salts.values()] == \
        [half, MEMO - half, 0]
    # a trial past the memo reads the reference, and the memo is unchanged
    assert drawn(gen.trial_streams(7, 1, half), 9, {half - 1}) == \
        reference_streams(7, 1, [half - 1], 9)
    assert gen._memo.trials == MEMO
    # a new seed empties it
    assert drawn(gen.trial_streams(8, 5, 2), 9) == \
        reference_streams(8, 5, range(2), 9)
    assert (gen._memo.seed, gen._memo.trials, list(gen._memo.salts)) == \
        (8, 2, [5])


def test_a_full_acceptance_run_fits_the_memo():
    """200 trials of every axiom at one seed: the acceptance configs after
    the first read back every output an earlier one drew."""
    assert 200 * len(dm.cdc.axiom_ids()) <= MEMO


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
    """The memo of trial streams holds ``MEMO_TRIALS`` trials, and the
    trials past them draw from streams of their own, whatever the trial
    count."""
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
    runs with another's field, cap or element class.  The theories are
    interned, so earlier draws may have left samplers on them: what counts
    is that no sampler belongs to two of them."""
    theories = [dm.make_theory("power", Q, 4), dm.make_theory("power", F5, 4),
                dm.make_theory("power", Q, 2), dm.make_theory("poly", Q),
                dm.make_theory("divided", Q), dm.make_theory("divided", F3)]
    assert len({id(t) for t in theories}) == len(theories)
    cfg = GenConfig(coeff_min=-7, coeff_max=7)
    for seed in range(40):
        for theory in theories:
            got, want, after, expected = both(
                theory, cfg, seed, arity=3, max_degree=4, max_terms=4)
            assert same_terms(got, want)
            assert after == expected
    assert all((-7, 7, 4, 4) in t.samplers for t in theories)
    samplers = [s for t in theories for s in t.samplers.values()]
    assert len({id(s) for s in samplers}) == len(samplers)


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
    f = SeriesElement(3, 12, F5, {
        key([(0, 5), (1, 1)]): 2, key([(0, 10)]): 1, key([(2, 5)]): 3,
        key([(0, 2), (2, 5)]): 4, key([(1, 3)]): 1})
    got = f.partial_combinator()
    assert same_terms(got, reference_combinator(f))
    # left: x2 of x1^5*x2, x1 of x1^2*x3^5 and x2 of x2^3
    assert len(got.coeffs) == 3
    assert all(type(c) is int and 0 < c < 5 for c in got.coeffs.values())
    poly = SeriesElement(2, None, F5, {key([(0, 5)]): 1})
    assert poly.partial_combinator().is_zero()


def test_series_combinator_makes_integral_rationals_ints():
    key = MultiIndex.make
    f = SeriesElement(2, None, Q, {
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
    for cls_args in ((half + 1, None, Q), (half + 1, Q)):
        cls = SeriesElement if len(cls_args) == 3 else DPElement
        f = cls(*cls_args, {MultiIndex.single(half): 1})
        with pytest.raises(TooLarge):
            f.partial_combinator()
    f = SeriesElement(half, None, Q, {MultiIndex.single(half - 1): 1})
    assert f.partial_combinator().arity == MAX_ARITY


# -- the arity limit ---------------------------------------------------------------


def test_packed_keys_are_bounded_in_arity():
    big = MultiIndex.single(MAX_ARITY)  # variable MAX_ARITY + 1
    with pytest.raises(TooLarge):
        MultiIndex.check(big)
    with pytest.raises(TooLarge):
        MultiIndex.bound(MAX_ARITY + 1)
    with pytest.raises(TooLarge):
        SeriesElement(MAX_ARITY + 1, None, Q, {})
    with pytest.raises(TooLarge):
        DPElement(MAX_ARITY + 1, Q, {MultiIndex.single(0): 1})
    top = MultiIndex.single(MAX_ARITY - 1)
    assert MultiIndex.check(top) == top
    assert SeriesElement(MAX_ARITY, None, Q, {top: 1}).arity == \
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
