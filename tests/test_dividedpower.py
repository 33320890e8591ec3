from fractions import Fraction
from math import factorial

import pytest

import diffmonads as dm
from brute_force import int_power
from diffmonads import (DPElement, MultiIndex, SeriesElement, dp_power_coeff,
                        parse_element, prime_field, rationals)

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)


def dp(text, arity, field=Q):
    return parse_element(text, dm.make_theory("divided", field), arity)


def test_linear_structure():
    x = dp("x1^[1]", 1)
    assert x + x == dp("2*x1^[1]", 1)
    assert dp("x1^[2]", 1).scale(Q.zero()).is_zero()
    assert dp("x1^[2]", 2) + dp("x2^[1]", 2) == dp("x1^[2] + x2^[1]", 2)


def test_product_examples():
    assert dp("x1^[2]", 1) * dp("x1^[3]", 1) == dp("10*x1^[5]", 1)
    assert dp("x1^[1]", 2) * dp("x2^[1]", 2) == dp("x1^[1]*x2^[1]", 2)
    # over F2 the product vanishes while x^[2] itself is a nonzero basis element
    prod = dp("x1^[1]", 1, F2) * dp("x1^[1]", 1, F2)
    assert prod.is_zero()
    assert not dp("x1^[2]", 1, F2).is_zero()


def test_product_commutative_associative_random():
    for field in (Q, F5):
        theory = dm.make_theory("divided", field)
        cfg = dm.GenConfig(seed=21)
        rng = dm.SplitMix64(21)
        for _ in range(20):
            a = dm.random_element(theory, cfg, rng, arity=2, max_degree=3)
            b = dm.random_element(theory, cfg, rng, arity=2, max_degree=3)
            c = dm.random_element(theory, cfg, rng, arity=2, max_degree=3)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


def test_divided_power_examples():
    assert dp("x1^[2]", 1).divided_power(3) == dp("15*x1^[6]", 1)
    assert dp("x1^[1] + x2^[1]", 2).divided_power(2) == \
        dp("x1^[2] + x1^[1]*x2^[1] + x2^[2]", 2)
    # frozen from the a^{*n} * b^[n] route; cross-checked against n! a^[n] b^[n]
    got = dp("x1^[1]*x2^[1]", 2).divided_power(2)
    assert got == dp("2*x1^[2]*x2^[2]", 2)
    alt = dp("x1^[1]", 2).divided_power(2) * dp("x2^[1]", 2).divided_power(2)
    assert got == alt.scale(Q.embed(factorial(2)))


def test_substitution_examples():
    for field, expect in ((Q, "6*x1^[4]*x2^[2]"), (F5, "x1^[4]*x2^[2]")):
        outer = dp("x1^[2]", 1, field)
        inner = dp("x1^[2]*x2^[1]", 2, field)
        assert outer.substitute([inner]) == dp(expect, 2, field)
    outer = dp("x1^[2]", 1, F2)
    inner = dp("x1^[2]*x2^[1]", 2, F2)
    assert outer.substitute([inner]).is_zero()
    # unit law
    g = dp("x1^[3] + 2*x1^[1]*x2^[1]", 2)
    assert dp("x1^[1]", 1).substitute([g]) == g


def test_iterated_power_coefficient_closed_form():
    # substituting v^[q] into x^[r] multiplies by (qr)!/(r!(q!)^r); the two
    # closed forms agree for q, r <= 4
    for q in range(1, 5):
        for r in range(1, 5):
            expected_coeff = Fraction(factorial(q * r),
                                      factorial(r) * factorial(q) ** r)
            assert expected_coeff == dp_power_coeff(r, q)
            inner = dp(f"x1^[{q}]", 1)
            got = dp(f"x1^[{r}]", 1).substitute([inner])
            assert got == DPElement(
                1, Q, {MultiIndex.single(0, q * r): Q.embed(dp_power_coeff(r, q))})


def test_partial_examples():
    reduced, const = dp("x1^[3]", 1).partial(0)
    assert reduced == dp("x1^[2]", 1)
    assert const == Q.zero()
    reduced, const = dp("x1^[1]*x2^[2]", 2).partial(0)
    assert reduced == dp("x2^[2]", 2)
    assert const == Q.zero()
    reduced, const = dp("x1^[1]", 1).partial(0)
    assert reduced.is_zero()
    assert const == Q.one()
    reduced, const = dp("x1^[2]", 2).partial(1)
    assert reduced.is_zero() and const == Q.zero()


def test_partial_combinator_examples():
    theory = dm.make_theory("divided", Q)
    assert dp("x1^[1]", 1).partial_combinator() == \
        parse_element("dx1^[1]", theory, 2, base_arity=1)
    assert dp("x1^[2]", 1).partial_combinator() == \
        parse_element("x1^[1]*dx1^[1]", theory, 2, base_arity=1)
    assert dp("x1^[1]*x2^[1]", 2).partial_combinator() == \
        parse_element("x2^[1]*dx1^[1] + x1^[1]*dx2^[1]", theory, 4, base_arity=2)


@pytest.mark.parametrize("kind,times", [
    ("divided", lambda yi, g: g * yi),
    ("zinbiel", lambda yi, g: yi.half_shuffle(g)),
])
def test_partial_combinator_agrees_with_composed_derivative(kind, times):
    # the combinator is defined directly on keys; it must match the sum over
    # i of (d f/d x_i) * y_i (y_i < d f/d x_i for words) plus the constant
    # part times y_i
    cfg = dm.GenConfig(seed=23)
    rng = dm.SplitMix64(23)
    for field in (Q, F2, F3):
        th = dm.make_theory(kind, field)
        for _ in range(25):
            f = dm.random_element(th, cfg, rng, arity=3, max_degree=4)
            n = f.arity
            built = th.zero(2 * n)
            for i in range(n):
                reduced, const = f.partial(i)
                yi = th.eta(n + i, 2 * n)
                built = built + times(yi, reduced.extend_arity(2 * n))
                built = built + yi.scale(const)
            assert built == f.partial_combinator()


def test_unit_and_counit():
    assert dp("x1^[1]", 1).counit() == (Q.one(),)
    assert dp("x1^[2] + 3*x1^[1]", 1).counit() == (Q.embed(3),)
    assert dp("x1^[1]*x2^[1]", 2).counit() == (Q.zero(), Q.zero())


def _dp_axioms_hold(field, a, b, n, m):
    from diffmonads.scalars import binomial

    one = field.one()
    lam = field.embed(2)
    # dp.1
    assert a.scale(lam).divided_power(n) == a.divided_power(n).scale(lam ** n)
    # dp.2
    lhs = a.divided_power(m) * a.divided_power(n)
    assert lhs == a.divided_power(m + n).scale(field.embed(binomial(m + n, m)))
    # dp.3
    lhs = (a + b).divided_power(n)
    rhs = a.divided_power(n) + b.divided_power(n)
    for l in range(1, n):
        rhs = rhs + a.divided_power(l) * b.divided_power(n - l)
    assert lhs == rhs
    # dp.4
    assert a.divided_power(1) == a
    # dp.5, in all three stated forms
    ab = a * b
    lhs = ab.divided_power(n)
    assert lhs == int_power(a, n) * b.divided_power(n)
    assert lhs == a.divided_power(n) * int_power(b, n)
    assert lhs == (a.divided_power(n) * b.divided_power(n)).scale(
        field.embed(factorial(n)))
    # dp.6
    assert a.divided_power(n).divided_power(m) == \
        a.divided_power(m * n).scale(field.embed(dp_power_coeff(m, n)))
    del one


def test_dp_axioms_random():
    cfg = dm.GenConfig(seed=31)
    for field in (Q, F2, F3):
        theory = dm.make_theory("divided", field)
        rng = dm.SplitMix64(31)
        for _ in range(6):
            a = dm.random_element(theory, cfg, rng, arity=2, max_degree=2,
                                  max_terms=2)
            b = dm.random_element(theory, cfg, rng, arity=2, max_degree=2,
                                  max_terms=2)
            for n in (1, 2, 3):
                for m in (1, 2):
                    _dp_axioms_hold(field, a, b, n, m)


def test_characteristic_zero_collapse():
    # over Q: n! * f^[n] equals the plain n-fold product
    theory = dm.make_theory("divided", Q)
    cfg = dm.GenConfig(seed=33)
    rng = dm.SplitMix64(33)
    for _ in range(15):
        f = dm.random_element(theory, cfg, rng, arity=2, max_degree=3,
                              max_terms=3)
        for n in (2, 3):
            assert f.divided_power(n).scale(Q.embed(factorial(n))) == \
                int_power(f, n)


def _to_series(f: DPElement) -> SeriesElement:
    """x^[k] -> x^k / k!, an isomorphism onto polynomials over Q only."""
    terms = {}
    for mi, c in f.coeffs.items():
        den = 1
        for _, e in MultiIndex.pairs(mi):
            den *= factorial(e)
        terms[mi] = c * Q.from_fraction(1, den)
    return SeriesElement(f.arity, None, False, Q, terms)


def test_embedding_into_polynomials_over_q():
    theory = dm.make_theory("divided", Q)
    cfg = dm.GenConfig(seed=35)
    rng = dm.SplitMix64(35)
    for _ in range(15):
        f = dm.random_element(theory, cfg, rng, arity=2, max_degree=4,
                              max_terms=3)
        g = dm.random_element(theory, cfg, rng, arity=2, max_degree=4,
                              max_terms=3)
        assert _to_series(f * g) == _to_series(f) * _to_series(g)
        assert _to_series(f.partial_combinator()) == \
            _to_series(f).partial_combinator()
        args = [dm.random_element(theory, cfg, rng, arity=2, max_degree=2,
                                  max_terms=2) for _ in range(2)]
        assert _to_series(f.substitute(args)) == \
            _to_series(f).substitute([_to_series(a) for a in args])


def test_substitution_monad_laws_random():
    theory = dm.make_theory("divided", F3)
    cfg = dm.GenConfig(seed=37)
    rng = dm.SplitMix64(37)
    for _ in range(8):
        f = dm.random_element(theory, cfg, rng, arity=2, max_degree=2,
                              max_terms=2)
        gs = [dm.random_element(theory, cfg, rng, arity=2, max_degree=2,
                                max_terms=2) for _ in range(2)]
        hs = [dm.random_element(theory, cfg, rng, arity=2, max_degree=2,
                                max_terms=2) for _ in range(2)]
        assert f.substitute(gs).substitute(hs) == \
            f.substitute([g.substitute(hs) for g in gs])
        assert f.substitute(theory.eta_tuple(2)) == f


def test_divided_power_rejects_bad_input():
    with pytest.raises(ValueError):
        dp("x1^[1]", 1).divided_power(0)


def test_divided_power_expansion_is_bounded():
    f = dp("x1 + x2 + x3 + x4 + x5 + x6", 6)
    with pytest.raises(dm.TooLarge):
        f.divided_power(40)
    # a small expansion still runs: C(21, 1) compositions
    assert not dp("x1 + x2", 2).divided_power(20).is_zero()


def test_product_counts_its_term_pairs_up_front():
    f = dp(" + ".join(f"x1^[{i}]*x2^[{j}]" for i in range(1, 22)
                      for j in range(1, 20)), 2)
    assert len(f.coeffs) == 399
    with pytest.raises(dm.TooLarge, match="term products"):
        f * f


def test_substitution_charges_its_products_to_one_budget():
    # 250 terms times 250 terms: 62,500 term products for each key of the
    # outer element; two keys pass ENUMERATION_LIMIT together
    g = dp(" + ".join(f"x1^[{i}]*x2^[{j}]" for i in range(1, 26)
                      for j in range(1, 11)), 3)
    assert len(g.coeffs) == 250
    assert len(dp("x1^[1]*x2^[1]", 3).substitute([g, g, g]).coeffs) == 49 * 19
    with pytest.raises(dm.TooLarge, match="term products"):
        dp("x1^[1]*x2^[1] + x1^[1]*x3^[1]", 3).substitute([g, g, g])
