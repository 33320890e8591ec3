import pytest
from hypothesis import given, settings, strategies as st

import diffmonads as dm
from diffmonads import (MultiIndex, NonReducedArgument, SeriesElement,
                        ShapeMismatch, parse_element, prime_field, rationals)

Q = rationals()
F3 = prime_field(3)


def series(text, arity, cap=6, field=Q):
    theory = dm.make_theory("power", field, cap)
    return parse_element(text, theory, arity)


def poly(text, arity, field=Q):
    theory = dm.make_theory("poly", field)
    return parse_element(text, theory, arity)


def test_linear_structure():
    x = series("x1", 1)
    assert x + x == series("2*x1", 1)
    assert (x + (-x)).is_zero()
    halved = (series("x1", 1) + series("x1^2", 1)).scale(Q.from_fraction(1, 2))
    assert halved == series("1/2*x1 + 1/2*x1^2", 1)


def test_multiplication_examples():
    assert series("x1", 2) * series("x2", 2) == series("x1*x2", 2)
    # truncation: (x + x^2) * x at cap 2 keeps only x^2
    f = series("x1 + x1^2", 1, cap=2)
    assert f * series("x1", 1, cap=2) == series("x1^2", 1, cap=2)
    # frozen from the binomial expansion oracle
    s = series("x1 + x2", 2)
    assert s * s == series("x1^2 + 2*x1*x2 + x2^2", 2)


def test_substitution_examples():
    f = series("x1 + x1^2", 1, cap=3)
    g = series("x1 + x1^2", 1, cap=3)
    assert f.substitute([g]) == series("x1 + 2*x1^2 + 2*x1^3", 1, cap=3)
    # unit law
    h = series("x1 + 3*x1^2*x2", 2)
    assert series("x1", 1, cap=6).substitute([h]) == h
    # frozen from the expansion oracle
    f2 = series("x1*x2", 2)
    x = series("x1", 1)
    assert f2.substitute([x, x]) == series("x1^2", 1)


def test_substitution_rejects_bad_shapes():
    f = series("x1", 1, cap=3)
    with pytest.raises(ShapeMismatch):
        f.substitute([series("x1", 1, cap=4)])
    raw = SeriesElement(1, 3, False, Q,
                        {dm.EMPTY_INDEX: Q.one(), MultiIndex.single(0): Q.one()})
    with pytest.raises(NonReducedArgument):
        f.substitute([raw])
    with pytest.raises(ShapeMismatch):
        f.substitute([series("x1", 1, cap=3), series("x1", 1, cap=3)])


def test_polynomial_regime_allows_constants():
    f = poly("x1^2 + 2*x1 + 3", 1)
    g = poly("x1 + 1", 1)
    assert f.substitute([g]) == poly("x1^2 + 4*x1 + 6", 1)


def test_partial_derivative():
    assert series("x1^2", 1).partial(0) == \
        SeriesElement(1, 5, False, Q, {MultiIndex.single(0): Q.embed(2)})
    xy = series("x1*x2", 2)
    dxy = xy.partial(1)
    assert dxy.coeffs == {MultiIndex.single(0): Q.one()}
    # coefficient 3 vanishes mod 3
    f = series("x1^3 + x1", 1, field=F3)
    d = f.partial(0)
    assert d.coeffs == {dm.EMPTY_INDEX: F3.one()}


def test_partials_commute():
    rng = dm.SplitMix64(5)
    theory = dm.make_theory("power", Q, 6)
    cfg = dm.GenConfig(seed=5)
    for _ in range(30):
        f = dm.random_element(theory, cfg, rng, arity=3)
        assert f.partial(0).partial(1) == f.partial(1).partial(0)


def test_leibniz_rule():
    rng = dm.SplitMix64(6)
    theory = dm.make_theory("poly", Q)
    cfg = dm.GenConfig(seed=6)
    for _ in range(30):
        f = dm.random_element(theory, cfg, rng, arity=2, max_degree=3)
        g = dm.random_element(theory, cfg, rng, arity=2, max_degree=3)
        lhs = (f * g).partial(0)
        rhs = f.partial(0) * g + f * g.partial(0)
        assert lhs == rhs


def test_partial_combinator_examples():
    theory = dm.make_theory("power", Q, 6)
    # variables of the doubled block: x1 x2 dx1 dx2 -> indices 0 1 2 3
    xy = series("x1*x2", 2)
    assert xy.partial_combinator() == \
        parse_element("x2*dx1 + x1*dx2", theory, 4, base_arity=2)
    x = series("x1", 1)
    assert x.partial_combinator().coeffs == {MultiIndex.single(1): Q.one()}
    sq = series("x1^2", 1)
    assert sq.partial_combinator().coeffs == \
        {MultiIndex.make([(0, 1), (1, 1)]): Q.embed(2)}


def test_partial_combinator_dual_degree_is_one():
    rng = dm.SplitMix64(7)
    theory = dm.make_theory("power", Q, 5)
    cfg = dm.GenConfig(seed=7)
    for _ in range(40):
        f = dm.random_element(theory, cfg, rng, arity=3)
        df = f.partial_combinator()
        for mi in df.coeffs:
            dual = sum(e for v, e in MultiIndex.pairs(mi) if v >= 3)
            assert dual == 1
        # every output term keeps the total degree of some source term
        assert set(df.degrees()) <= set(f.degrees())


def test_unit_and_counit():
    theory = dm.make_theory("power", Q, 6)
    e2 = theory.eta(2, 3)
    assert e2.counit() == (Q.zero(), Q.zero(), Q.one())
    f = series("2*x1 + 5*x1*x2", 2)
    assert f.counit() == (Q.embed(2), Q.zero())
    assert series("x1^2", 1).counit() == (Q.zero(),)


def test_monad_laws_random():
    theory = dm.make_theory("power", Q, 4)
    cfg = dm.GenConfig(seed=11)
    rng = dm.SplitMix64(11)
    for _ in range(15):
        f = dm.random_element(theory, cfg, rng, arity=2)
        gs = [dm.random_element(theory, cfg, rng, arity=2) for _ in range(2)]
        hs = [dm.random_element(theory, cfg, rng, arity=2) for _ in range(2)]
        lhs = f.substitute(gs).substitute(hs)
        rhs = f.substitute([g.substitute(hs) for g in gs])
        assert lhs == rhs
        assert f.substitute(theory.eta_tuple(2)) == f


def test_truncation_congruence_quick():
    theory = dm.make_theory("power", Q, 6)
    cfg = dm.GenConfig(seed=12)
    rng = dm.SplitMix64(12)
    for _ in range(10):
        f = dm.random_element(theory, cfg, rng, arity=2, max_degree=5)
        gs = [dm.random_element(theory, cfg, rng, arity=2, max_degree=5)
              for _ in range(2)]
        full = f.substitute(gs)
        for n in (3, 4, 5):
            lhs = full.truncate(n)
            rhs = f.truncate(n).substitute([g.truncate(n) for g in gs])
            assert lhs == rhs


def test_cap_cannot_be_raised():
    f = series("x1", 1, cap=3)
    with pytest.raises(ShapeMismatch):
        f.truncate(4)


def test_packed_keys_round_trip_and_guard_the_degree():
    key = MultiIndex.make([(2, 3), (0, 1), (2, 1)])
    assert MultiIndex.pairs(key) == ((0, 1), (2, 4))
    assert MultiIndex.degree(key) == 5
    assert MultiIndex.exponent(key, 2) == 4 and MultiIndex.exponent(key, 1) == 0
    assert MultiIndex.mul(key, MultiIndex.single(1)) == \
        MultiIndex.make([(0, 1), (1, 1), (2, 4)])
    assert MultiIndex.shift(key, 2) == MultiIndex.make([(2, 1), (4, 4)])
    top = dm.powerseries.MAX_DEGREE
    with pytest.raises(dm.TooLarge):
        MultiIndex.make([(0, top), (1, 1)])
    # a product past the degree limit raises instead of carrying into the
    # next exponent field
    big = poly(f"x1^{top // 2 + 1}", 2)
    with pytest.raises(dm.TooLarge):
        big * big


def test_cap_above_the_degree_limit_still_guards_the_degree():
    top = dm.powerseries.MAX_DEGREE
    cap = top + 10
    half = series(f"x1^{top // 2 + 1}", 2, cap=cap)
    with pytest.raises(dm.TooLarge):
        half * (half * series("x2", 2, cap=cap))
    with pytest.raises(dm.TooLarge):
        series("x1^2", 1, cap=cap).substitute([series(f"x1^{top // 2 + 1}", 1,
                                                      cap=cap)])
    # a product past the cap itself is still discarded
    full = series(f"x1^{top}", 2, cap=cap)
    assert (full * full).is_zero()
    assert half * series("x2", 2, cap=cap) == \
        series(f"x1^{top // 2 + 1}*x2", 2, cap=cap)


def test_public_constructor_rejects_bad_keys():
    with pytest.raises(ShapeMismatch):
        SeriesElement(2, 4, True, Q, {(0, 1): Q.one()})
    with pytest.raises(ShapeMismatch):
        SeriesElement(2, 4, True, Q, {MultiIndex.single(0) + 1: Q.one()})
    with pytest.raises(ShapeMismatch):
        SeriesElement(2, 4, True, Q, {MultiIndex.single(2): Q.one()})
    with pytest.raises(dm.MixedFields):
        SeriesElement(1, 4, True, Q, {MultiIndex.single(0): F3.one()})


def test_product_counts_its_term_pairs_up_front():
    text = " + ".join(f"x1^{i}*x2^{j}" for i in range(1, 22)
                      for j in range(1, 20))
    f = poly(text, 2)
    assert len(f.coeffs) == 399
    with pytest.raises(dm.TooLarge, match="term products"):
        f * f
    # 315 * 315 = 99,225 pairs stay within the budget
    g = poly(" + ".join(f"x1^{i}*x2^{j}" for i in range(1, 22)
                        for j in range(1, 16)), 2)
    assert not (g * g).is_zero()
