import pytest

import diffmonads as dm
from brute_force import (half_shuffle_oracle, interleavings,
                         naive_substitute_oracle, symmetrized_expand_oracle)
from diffmonads import (GenConfig, SplitMix64, TooLarge, enumerate_basis, mix,
                        prime_field, rationals, stable_hash)

Q = rationals()

PW = dm.make_theory("power", Q, 4)
DP = dm.make_theory("divided", Q)
ZN = dm.make_theory("zinbiel", Q)
PL = dm.make_theory("poly", Q)
TR = dm.make_theory("trivial", Q)


def test_splitmix64_reference_vectors():
    # the canonical stream from seed 0
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    r = SplitMix64(1234567)
    assert r.next_u64() == 0x599ED017FB08FC85


def test_randint_reduces_the_reference_stream():
    r = SplitMix64(0)
    assert [r.randint(0, (1 << 64) - 1) for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    r, s = SplitMix64(99), SplitMix64(99)
    for lo, hi in ((0, 0), (1, 3), (-3, 3), (0, 7)):
        assert r.randint(lo, hi) == lo + s.next_u64() % (hi - lo + 1)


def test_fnv1a_reference_vectors():
    assert stable_hash("") == 0xCBF29CE484222325
    assert stable_hash("a") == 0xAF63DC4C8601EC8C


def test_mix_is_deterministic_and_spreads():
    assert mix(1, 2, 3) == mix(1, 2, 3)
    assert mix(1, 2, 3) != mix(3, 2, 1)
    assert mix(0) != mix(1)


def test_same_seed_same_element():
    cfg = GenConfig(seed=77)
    for theory in (PW, DP, ZN, PL, TR):
        a = dm.random_element(theory, cfg, SplitMix64(123), arity=3)
        b = dm.random_element(theory, cfg, SplitMix64(123), arity=3)
        assert a == b


def test_draws_respect_bounds():
    cfg = GenConfig(seed=78, max_degree=3, max_terms=2)
    rng = SplitMix64(78)
    for theory in (PW, DP, ZN, PL):
        for _ in range(250):
            e = dm.random_element(theory, cfg, rng, arity=3)
            assert len(e.coeffs) <= 2
            assert all(d <= 3 for d in e.degrees())
            if theory.kind != "poly":
                assert all(d >= 1 for d in e.degrees())


def test_nonzero_over_q_when_zero_excluded():
    cfg = GenConfig(seed=79, coeff_min=-3, coeff_max=3)
    rng = SplitMix64(79)
    for _ in range(250):
        assert not dm.random_element(PW, cfg, rng, arity=2).is_zero()


def test_enumerate_basis_counts():
    words = enumerate_basis(ZN, 2, 2)
    assert len(words) == 6
    keys = {next(iter(w.coeffs)) for w in words}
    assert keys == {(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)}
    assert len(enumerate_basis(DP, 1, 3)) == 3
    assert len(enumerate_basis(PW, 2, 2)) == 5
    assert len(enumerate_basis(PL, 2, 2)) == 6  # constants included
    assert len(enumerate_basis(TR, 3, 5)) == 3


def test_enumerate_basis_too_large():
    with pytest.raises(TooLarge):
        enumerate_basis(ZN, 10, 6)


def test_interleavings_oracle_counts():
    out = interleavings((0, 1), (2,))
    assert out == {(0, 1, 2): 1, (0, 2, 1): 1, (2, 0, 1): 1}
    out = interleavings((0,), (0,))
    assert out == {(0, 0): 2}


def test_half_shuffle_matches_oracle():
    cfg = GenConfig(seed=81)
    rng = SplitMix64(81)
    for _ in range(100):
        a = dm.random_element(ZN, cfg, rng, arity=2, max_degree=4, max_terms=2)
        b = dm.random_element(ZN, cfg, rng, arity=2, max_degree=4, max_terms=2)
        assert a.half_shuffle(b) == half_shuffle_oracle(a, b)


def test_symmetrized_expand_matches_embedding():
    cfg = GenConfig(seed=83)
    rng = SplitMix64(83)
    for _ in range(100):
        f = dm.random_element(DP, cfg, rng, arity=2, max_degree=4, max_terms=3)
        assert dm.divided_to_zinbiel(f) == symmetrized_expand_oracle(f)


def test_naive_substitution_matches():
    cfg = GenConfig(seed=85)
    rng = SplitMix64(85)
    for _ in range(100):
        f = dm.random_element(PW, cfg, rng, arity=2, max_degree=4, max_terms=3)
        args = [dm.random_element(PW, cfg, rng, arity=2, max_degree=3,
                                  max_terms=2) for _ in range(2)]
        assert f.substitute(args) == naive_substitute_oracle(f, args)


def test_random_morphism_shape():
    cfg = GenConfig(seed=87)
    m = dm.random_morphism(ZN, cfg, 2, 3)
    assert m.source == 2 and m.target == 3
    assert all(c.arity == 2 for c in m.components)
