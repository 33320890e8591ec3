from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import diffmonads as dm
from brute_force import half_shuffle_oracle
from diffmonads import (ZinElement, binomial, divided_to_zinbiel,
                        parse_element, prime_field, rationals, right_nested,
                        zinbiel)

Q = rationals()
F2, F3, F5 = prime_field(2), prime_field(3), prime_field(5)

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
            assert prod == half_shuffle_oracle(v, w)


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


# -- the shuffle tables -----------------------------------------------------------


def canonical_terms(e) -> bool:
    """Nonzero residues over F_p; over Q, ints or non-integral Fractions."""
    p = e.field.p
    if p:
        return all(type(c) is int and 0 < c < p for c in e.coeffs.values())
    return all(type(c) is int and c or
               type(c) is Fraction and c.denominator != 1
               for c in e.coeffs.values())


def two_words(rng, length, coeffs, field):
    """An element of up to two words of ``length`` letters over 2 variables,
    whose coefficients are drawn from ``coeffs``."""
    terms = [(tuple(rng.randint(0, 1) for _ in range(length)),
              rng.choice(coeffs)) for _ in range(2)]
    return ZinElement.from_terms(2, field, terms)


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=repr)
def test_half_shuffle_tables_equal_the_oracle(field):
    coeffs = [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), 2, -1] \
        if field is Q else [1, 2, 3, 4]
    rng = dm.SplitMix64(8)
    for n in range(1, 9):
        for m in range(1, 9):
            for _ in range(2):
                a = two_words(rng, n, coeffs, field)
                b = two_words(rng, m, coeffs, field)
                got = a.half_shuffle(b)
                assert got == half_shuffle_oracle(a, b)
                assert canonical_terms(got)
    assert zinbiel._shuffle_table(4, 5) is not None
    assert zinbiel._shuffle_table(8, 8) is None


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=repr)
def test_half_shuffle_sums_that_cancel(field):
    # (x1.x2 - x1.x3) < (x2 + x3): the words with both x2 and x3 cancel
    theory = dm.make_theory("zinbiel", field)
    a, b = zin("x1.x2 - x1.x3", 3, theory), zin("x2 + x3", 3, theory)
    got = a.half_shuffle(b)
    assert got == half_shuffle_oracle(a, b)
    assert got == zin("2*x1.x2.x2 - 2*x1.x3.x3", 3, theory)
    assert got.is_zero() == (field is F2)
    assert canonical_terms(got)
    # coefficients that add up to an integer
    a = ZinElement(2, Q, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    b = ZinElement(2, Q, {(0,): 1, (1,): 1})
    got = a.half_shuffle(b) + b.half_shuffle(a)
    assert got == a * b == zin("x1.x1 + x1.x2 + x2.x1 + x2.x2", 2)
    assert canonical_terms(got)


def test_pairs_past_the_table_limits_take_the_walk(monkeypatch):
    walked = []
    walk = zinbiel._shuffles

    def counting(u, w):
        walked.append((len(u), len(w)))
        return walk(u, w)

    monkeypatch.setattr(zinbiel, "_shuffles", counting)
    rng = dm.SplitMix64(9)
    # too many interleavings, and too many letters
    for n, m in ((8, 8), (1, 16), (3, 14)):
        assert zinbiel._shuffle_table(n, m) is None
        for field in (Q, F3):
            a = two_words(rng, n, [1], field)
            b = two_words(rng, m, [1], field)
            walked.clear()
            assert a.half_shuffle(b) == half_shuffle_oracle(a, b)
            assert walked and set(walked) == {(n - 1, m)}


def test_half_shuffle_is_too_large_before_it_enumerates(monkeypatch):
    def enumerated(*args):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(zinbiel, "_half_shuffle", enumerated)
    monkeypatch.setattr(zinbiel, "_shuffle_table", enumerated)
    # C(21, 11) interleavings, past ENUMERATION_LIMIT
    a = zin(".".join(["x1"] * 11), 2)
    b = zin(".".join(["x2"] * 11), 2)
    with pytest.raises(dm.TooLarge, match="interleavings"):
        a.half_shuffle(b)


def test_shuffle_table_cache_is_bounded():
    maxsize = zinbiel._shuffle_table.cache_info().maxsize
    assert maxsize is not None
    x = zin("x1", 2)
    for m in range(1, 2 * maxsize):
        assert len(x.half_shuffle(ZinElement(2, Q, {(1,) * m: 1})).coeffs) == 1
    for n in range(1, 12):
        for m in range(1, 12):
            zinbiel._shuffle_table(n, m)
    assert zinbiel._shuffle_table.cache_info().currsize <= maxsize


@pytest.mark.parametrize("key", [(-1,), (2,), (0.5,), (True,), ("a",), (),
                                 (0, None), 5],
                         ids=["negative", "past-arity", "float", "bool", "str",
                              "empty", "none-letter", "int"])
def test_public_constructor_rejects_keys_that_are_not_words(key):
    with pytest.raises(dm.ShapeMismatch):
        ZinElement(2, Q, {(0,): 1, key: 1})
