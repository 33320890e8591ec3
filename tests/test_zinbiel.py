import pytest
from hypothesis import given, settings, strategies as st

import diffmonads as dm
from diffmonads import (ZinElement, binomial, divided_to_zinbiel,
                        integral_candidate, parse_element, prime_field,
                        rationals, right_nested)

Q = rationals()
F2 = prime_field(2)

ZQ = dm.make_theory("zinbiel", Q)


def zin(text, arity, theory=ZQ, base=None):
    return parse_element(text, theory, arity, base_arity=base)


def test_half_shuffle_examples():
    x, y, z = (ZQ.eta(i, 3) for i in range(3))
    assert x.half_shuffle(y) == zin("x1.x2", 3)
    # frozen from enumerating the two shuffles of (y) with (z)
    assert x.half_shuffle(y).half_shuffle(z) == zin("x1.x2.x3 + x1.x3.x2", 3)
    assert x.half_shuffle(y.half_shuffle(z)) == zin("x1.x2.x3", 3)


def test_shuffle_product_examples():
    x, y = (ZQ.eta(i, 2) for i in range(2))
    assert x * x == zin("2*x1.x1", 2)
    assert x * y == zin("x1.x2 + x2.x1", 2)


def test_shuffle_commutative_associative():
    cfg = dm.GenConfig(seed=41)
    rng = dm.SplitMix64(41)
    for _ in range(25):
        a = dm.random_element(ZQ, cfg, rng, arity=2, max_degree=3, max_terms=2)
        b = dm.random_element(ZQ, cfg, rng, arity=2, max_degree=3, max_terms=2)
        c = dm.random_element(ZQ, cfg, rng, arity=2, max_degree=2, max_terms=2)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


@st.composite
def zin_elements(draw, arity=3, max_len=4, max_terms=2):
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        length = draw(st.integers(1, max_len))
        word = tuple(draw(st.integers(0, arity - 1)) for _ in range(length))
        coeff = Q.embed(draw(st.integers(-3, 3).filter(bool)))
        terms.append((word, coeff))
    return ZinElement.from_terms(arity, Q, terms)


@settings(max_examples=40, deadline=None)
@given(zin_elements(), zin_elements(max_len=3), zin_elements(max_len=3))
def test_zinbiel_identity(a, b, c):
    lhs = a.half_shuffle(b).half_shuffle(c)
    rhs = a.half_shuffle(b.half_shuffle(c)) + a.half_shuffle(c.half_shuffle(b))
    assert lhs == rhs


def test_right_nested_examples():
    x, y, z = (ZQ.eta(i, 3) for i in range(3))
    g = zin("x1.x2 + 2*x3", 3)
    assert right_nested([g]) == g
    assert right_nested([x, y, z]) == zin("x1.x2.x3", 3)
    assert right_nested([x.half_shuffle(y), z]) == zin("x1.x2.x3 + x1.x3.x2", 3)


def test_substitution_display_example():
    q = zin("x1.x2.x1", 2)
    got = q.substitute([zin("x1.x2", 3), zin("x3", 3)])
    assert got == zin("x1.x2.x3.x1.x2 + x1.x3.x2.x1.x2 + 2*x1.x3.x1.x2.x2", 3)


def test_substitution_unit_and_square():
    g = zin("x1.x2 + 3*x2", 2)
    assert zin("x1", 1).substitute([g]) == g
    assert zin("x1.x1", 1).substitute([ZQ.eta(0, 1)]) == zin("x1.x1", 1)


def test_substituting_zero_annihilates():
    f = zin("x1.x2 + x1", 2)
    zero = ZQ.zero(1)
    got = f.substitute([ZQ.eta(0, 1), zero])
    assert got == zin("x1", 1)


def test_partial_examples():
    reduced, const = zin("x1.x2.x1", 2).partial(0)
    assert reduced == zin("x2.x1", 2)
    assert const == Q.zero()
    reduced, const = zin("x1.x2.x1", 2).partial(1)
    assert reduced.is_zero() and const == Q.zero()
    reduced, const = zin("x1", 1).partial(0)
    assert reduced.is_zero() and const == Q.one()


def test_partial_combinator_examples():
    assert zin("x1.x2", 2).partial_combinator() == \
        zin("dx1.x2", 4, base=2)
    assert zin("x1", 1).partial_combinator() == zin("dx1", 2, base=1)
    assert zin("x1.x2 + x2.x1", 2).partial_combinator() == \
        zin("dx1.x2 + dx2.x1", 4, base=2)


def test_derivative_of_half_shuffle_identity():
    # d(v < w) = d(v) < (w injected into the source block)
    cfg = dm.GenConfig(seed=45)
    rng = dm.SplitMix64(45)
    for _ in range(30):
        v = dm.random_element(ZQ, cfg, rng, arity=2, max_degree=3, max_terms=2)
        w = dm.random_element(ZQ, cfg, rng, arity=2, max_degree=3, max_terms=2)
        lhs = v.half_shuffle(w).partial_combinator()
        rhs = v.partial_combinator().half_shuffle(w.extend_arity(4))
        assert lhs == rhs


def test_unit_and_counit():
    assert ZQ.eta(0, 1).counit() == (Q.one(),)
    assert zin("x1.x2", 2).counit() == (Q.zero(), Q.zero())
    assert zin("3*x1 + x1.x1", 1).counit() == (Q.embed(3),)
    # fixed points of eta-after-counit are exactly the length-one parts
    assert ZQ.eta_counit(zin("3*x1 + x1.x1", 1)) == zin("3*x1", 1)


def test_monad_laws_random():
    cfg = dm.GenConfig(seed=47)
    rng = dm.SplitMix64(47)
    for _ in range(8):
        f = dm.random_element(ZQ, cfg, rng, arity=2, max_degree=2, max_terms=2)
        gs = [dm.random_element(ZQ, cfg, rng, arity=2, max_degree=2,
                                max_terms=2) for _ in range(2)]
        hs = [dm.random_element(ZQ, cfg, rng, arity=2, max_degree=2,
                                max_terms=2) for _ in range(2)]
        assert f.substitute(gs).substitute(hs) == \
            f.substitute([g.substitute(hs) for g in gs])
        assert f.substitute(ZQ.eta_tuple(2)) == f


def test_divided_power_embedding_examples():
    DQ = dm.make_theory("divided", Q)
    assert divided_to_zinbiel(parse_element("x1^[2]", DQ, 1)) == zin("x1.x1", 1)
    assert divided_to_zinbiel(parse_element("x1^[1]*x2^[1]", DQ, 2)) == \
        zin("x1.x2 + x2.x1", 2)


def test_divided_power_embedding_is_an_algebra_map():
    DQ = dm.make_theory("divided", Q)
    cfg = dm.GenConfig(seed=49)
    rng = dm.SplitMix64(49)
    for _ in range(20):
        a = dm.random_element(DQ, cfg, rng, arity=2, max_degree=3, max_terms=2)
        b = dm.random_element(DQ, cfg, rng, arity=2, max_degree=2, max_terms=2)
        assert divided_to_zinbiel(a * b) == \
            divided_to_zinbiel(a) * divided_to_zinbiel(b)


def test_embedding_does_not_commute_with_derivatives():
    # the witness: for f = x^[1]*y^[1] the two routes differ exactly as stated
    DQ = dm.make_theory("divided", Q)
    f = parse_element("x1^[1]*x2^[1]", DQ, 2)
    via_divided = divided_to_zinbiel(f.partial_combinator())
    via_words = divided_to_zinbiel(f).partial_combinator()
    assert via_divided == \
        zin("dx1.x2 + x2.dx1 + dx2.x1 + x1.dx2", 4, base=2)
    assert via_words == zin("dx1.x2 + dx2.x1", 4, base=2)
    assert via_divided != via_words


def test_half_shuffle_coefficient_total():
    # the number of words with multiplicity in (v_1..v_n) < (w_1..w_m)
    # is binom(n+m-1, m); checked against the enumeration oracle
    for n in range(1, 5):
        for m in range(1, 5):
            if n + m > 8:
                continue
            arity = n + m
            v = ZinElement(arity, Q, {tuple(range(n)): Q.one()})
            w = ZinElement(arity, Q, {tuple(range(n, n + m)): Q.one()})
            prod = v.half_shuffle(w)
            total = sum(c.value for _, c in prod.terms())
            assert total == binomial(n + m - 1, m)
            assert prod == dm.half_shuffle_oracle(v, w)


def test_integral_candidate_examples():
    assert integral_candidate(zin("dx1.x2", 4, base=2)) == zin("x1.x2", 2)
    assert integral_candidate(zin("x1.x2", 4, base=2)) == zin("x1.x2", 2)
    d = zin("x1.x2", 2).partial_combinator()
    assert integral_candidate(d) == zin("x1.x2", 2)


def test_integral_candidate_observed_behaviour():
    # exploratory, not an axiom: folding after deriving is the identity,
    # because the combinator only re-tags the first letter
    cfg = dm.GenConfig(seed=51)
    rng = dm.SplitMix64(51)
    for _ in range(25):
        f = dm.random_element(ZQ, cfg, rng, arity=2, max_degree=4, max_terms=3)
        assert integral_candidate(f.partial_combinator()) == f
    # the reverse composite is not the identity: a star-free word survives
    # folding unchanged but then gains a star under the combinator
    g = zin("x1.x2", 4, base=2)
    assert ZQ.partial(integral_candidate(g)) != g


def test_integral_candidate_needs_even_arity():
    with pytest.raises(dm.ShapeMismatch):
        integral_candidate(zin("x1", 3))


def test_word_budgets_cover_a_whole_call():
    # one half-shuffle of two 10-letter words has 92,378 interleavings, two
    # of them pass ENUMERATION_LIMIT together
    a = zin(".".join(["x1"] * 10), 2)
    b = zin(".".join(["x2"] * 10), 2)
    assert len(a.half_shuffle(b).coeffs) == 92378
    with pytest.raises(dm.TooLarge, match="interleavings"):
        a * b
    with pytest.raises(dm.TooLarge, match="interleavings"):
        zin("x1.x2 + x2.x1", 2).substitute([a, b])
    with pytest.raises(dm.TooLarge, match="interleavings"):
        right_nested([zin("x1", 2), a, b])  # 92,378 in each of two steps
