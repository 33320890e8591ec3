"""Products and substitutions of series checked against sympy expansion.

sympy shares no code with the library: elements are rendered as sympy
expressions term by term, expanded there, reduced mod p and truncated at the
cap, and compared with the library's result as {exponent vector: value}.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from diffmonads import MultiIndex, SeriesElement, prime_field, rationals

PRIMES = (2, 3, 5, 7)


@st.composite
def regimes(draw):
    """(field, cap, reduced): polynomials over Q or F_p, or capped series."""
    p = draw(st.sampled_from((None,) + PRIMES))
    field = rationals() if p is None else prime_field(p)
    if draw(st.booleans()):
        return field, None, False
    return field, draw(st.integers(2, 5)), True


@st.composite
def elements(draw, field, cap, reduced, arity, max_degree=3):
    low = 1 if reduced else 0
    high = max_degree if cap is None else min(max_degree, cap)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(low, high))
        exps = [0] * arity
        for _ in range(degree):
            exps[draw(st.integers(0, arity - 1))] += 1
        if field.p is None:
            c = field.from_fraction(draw(st.integers(-4, 4)),
                                    draw(st.integers(1, 3)))
        else:
            c = field.embed(draw(st.integers(-4, 4)))
        terms.append((MultiIndex.make(enumerate(exps)), c))
    return SeriesElement.from_terms(arity, cap, reduced, field, terms)


def to_sympy(elem, syms):
    expr = sympy.Integer(0)
    for key, c in elem.terms():
        mono = sympy.Integer(1)
        for v, e in MultiIndex.pairs(key):
            mono *= syms[v] ** e
        value = Fraction(c.value)
        expr += sympy.Rational(value.numerator, value.denominator) * mono
    return expr


def expanded(expr, syms, p, cap) -> dict:
    """{exponent vector: Fraction} of expr, reduced mod p and truncated."""
    out = {}
    for exps, c in sympy.Poly(sympy.expand(expr), *syms).terms():
        if cap is not None and sum(exps) > cap:
            continue
        value = Fraction(int(c.p), int(c.q))
        if p is not None:
            value = Fraction(int(value) % p)
        if value:
            out[tuple(exps)] = value
    return out


def library(elem) -> dict:
    out = {}
    for key, c in elem.terms():
        exps = [0] * elem.arity
        for v, e in MultiIndex.pairs(key):
            exps[v] = e
        out[tuple(exps)] = Fraction(c.value)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_matches_sympy(data):
    field, cap, reduced = data.draw(regimes())
    arity = data.draw(st.integers(1, 3))
    a = data.draw(elements(field, cap, reduced, arity))
    b = data.draw(elements(field, cap, reduced, arity))
    xs = sympy.symbols(f"x0:{arity}")
    want = expanded(to_sympy(a, xs) * to_sympy(b, xs), xs, field.p, cap)
    assert library(a * b) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitution_matches_sympy(data):
    field, cap, reduced = data.draw(regimes())
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    f = data.draw(elements(field, cap, reduced, m))
    args = [data.draw(elements(field, cap, reduced, n, max_degree=2))
            for _ in range(m)]
    xs = sympy.symbols(f"x0:{m}")
    ys = sympy.symbols(f"y0:{n}")
    composite = to_sympy(f, xs).xreplace(
        {x: to_sympy(g, ys) for x, g in zip(xs, args)})
    want = expanded(composite, ys, field.p, cap)
    assert library(f.substitute(args)) == want
