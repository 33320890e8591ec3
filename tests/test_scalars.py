from math import factorial

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

import diffmonads as dm
from diffmonads import (DivisionByZero, MixedFields, Scalar, binomial,
                        dp_power_coeff, multinomial, prime_field, rationals)

Q = rationals()
F2 = prime_field(2)
F5 = prime_field(5)
F7 = prime_field(7)


def test_rational_addition():
    assert Q.from_fraction(1, 2) + Q.from_fraction(1, 3) == Q.from_fraction(5, 6)


def test_prime_field_inverse_against_exhaustive_search():
    a = F7.embed(3)
    inv = a.inv()
    matches = [b for b in range(7) if (3 * b) % 7 == 1]
    assert matches == [5]
    assert inv == F7.embed(5)


def test_multiplicative_identity_on_random_scalars():
    rng = dm.SplitMix64(99)
    for _ in range(100):
        s = Q.from_fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert s * Q.one() == s
        t = F7.embed(rng.randint(0, 6))
        assert t * F7.one() == t


def test_integer_embedding():
    assert F2.embed(2) == F2.zero()
    assert F5.embed(-1) == F5.embed(4)
    assert Q.embed(6).value == Fraction(6)


def test_primality_validation():
    with pytest.raises(ValueError):
        prime_field(4)
    with pytest.raises(ValueError):
        prime_field(1)
    with pytest.raises(ValueError):
        prime_field(1 << 20)  # cap, even though 2^20 is composite anyway
    with pytest.raises(ValueError):
        prime_field((1 << 20) + 7)
    assert prime_field(65537).characteristic == 65537


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        Q.one() + F5.one()


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZero):
        Q.zero().inv()
    with pytest.raises(DivisionByZero):
        F5.zero().inv()


@st.composite
def rational_scalars(draw):
    num = draw(st.integers(-40, 40))
    den = draw(st.integers(1, 40))
    return Q.from_fraction(num, den)


@st.composite
def f7_scalars(draw):
    return F7.embed(draw(st.integers(0, 6)))


@settings(max_examples=60, deadline=None)
@given(rational_scalars(), rational_scalars(), rational_scalars())
def test_field_axioms_rationals(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Q.zero()
    if a:
        assert a * a.inv() == Q.one()


@settings(max_examples=60, deadline=None)
@given(f7_scalars(), f7_scalars(), f7_scalars())
def test_field_axioms_prime_field(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == F7.zero()
    if a:
        assert a * a.inv() == F7.one()


def _naive_factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_combinatorics_against_naive_oracles():
    for n in range(13):
        for k in range(n + 1):
            assert binomial(n, k) == _naive_factorial(n) // (
                _naive_factorial(k) * _naive_factorial(n - k))
    assert binomial(5, 2) == 10
    assert binomial(3, 7) == 0


def test_multinomial_against_arrangement_count():
    import itertools

    assert multinomial([2, 1, 1]) == 12
    assert len(set(itertools.permutations("aabc"))) == 12
    for parts in [(1, 1), (2, 2), (3, 1, 2), (0, 4)]:
        letters = []
        for i, p in enumerate(parts):
            letters += [i] * p
        assert multinomial(parts) == len(set(itertools.permutations(letters)))


def test_dp_power_coeff_values():
    # frozen from the characteristic-0 oracle a^[n] = a^n / n!:
    # ((a^n/n!)^m)/m! has coefficient (mn)!/(m!(n!)^m) against a^[mn]
    def oracle(m, n):
        return Fraction(1, factorial(n)) ** m / factorial(m) * factorial(m * n)

    assert dp_power_coeff(2, 2) == oracle(2, 2) == 3
    assert dp_power_coeff(3, 2) == oracle(3, 2) == 15
    assert dp_power_coeff(1, 5) == 1
    assert dp_power_coeff(4, 1) == 1


def test_dp_power_coeff_integrality_identity():
    # divided powers are indexed by strictly positive integers, so the
    # meaningful domain is m, n >= 1 (m = 0 and n = 0 with m <= 1 are
    # degenerate but still integral)
    for m in range(1, 7):
        for n in range(1, 7):
            c = dp_power_coeff(m, n)
            assert c * factorial(m) * factorial(n) ** m == factorial(m * n)
    assert dp_power_coeff(0, 3) == 1
    assert dp_power_coeff(1, 0) == 1
    with pytest.raises(dm.NonIntegralQuotient):
        dp_power_coeff(2, 0)  # 1/2 is not an integer; never reachable from
        # the algebra layer, where exponents are positive


def test_scalar_power_and_division():
    s = Q.from_fraction(2, 3)
    assert s ** 3 == Q.from_fraction(8, 27)
    assert s ** 0 == Q.one()
    assert (s / s) == Q.one()
    t = F5.embed(3)
    assert t ** 4 == F5.one()  # Fermat


@pytest.mark.parametrize("field", [Q, F5])
def test_bool_is_not_a_scalar(field):
    with pytest.raises(TypeError):
        field.raw(True)
    with pytest.raises(TypeError):
        field.raw(False)
    assert field.raw(1) == 1
    # the scalar operations take what the field takes, and no bool
    with pytest.raises(TypeError):
        field.one() + True
    with pytest.raises(TypeError):
        field.one() * False
    assert field.one() != True  # noqa: E712
