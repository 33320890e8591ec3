"""The functorial derivative as an oracle of the differential combinator.

For f over n variables, substitute x_i + y_i for x_i, with y_i = x_{n+i}
the dual variable, and keep the terms of dual degree exactly 1: that part
of f(x + y) is the derivative of f at x along y (Ehrhard & Regnier, *The
differential lambda-calculus*, TCS 2003).  It is computed by the generic
``Element.substitute`` of the sums ``eta(i, 2n) + eta(n + i, 2n)``, which
shares no code with ``_combinator_coeffs`` or the divided-power walk.

For poly, power, divided and trivial it equals the combinator over Q, F2,
F3 and F5.  For words it is the Leibniz combinator, which retags each letter
in turn; the library's combinator retags only the first, so the two agree
exactly on elements whose words all have one letter.
"""

import pytest

import diffmonads as dm
from diffmonads.generators import GenConfig, SplitMix64, random_element
from diffmonads.scalars import accumulate

FIELDS = {"Q": dm.rationals(), "F2": dm.prime_field(2),
          "F3": dm.prime_field(3), "F5": dm.prime_field(5)}
THEORIES = {"poly": None, "power": 4, "divided": None, "trivial": None}
ELEMENTS = 50
_CFG = GenConfig(seed=0)


def _elements(theory, seed: str):
    rng = SplitMix64(dm.stable_hash(seed))
    for k in range(ELEMENTS):
        yield random_element(theory, _CFG, rng, arity=1 + k % 3,
                             max_degree=4, max_terms=4)


def functorial_derivative(theory, f):
    """The part of f(x + y) of dual degree exactly 1, over 2n variables."""
    n = f.arity
    shifted = f.substitute([theory.eta(i, 2 * n) + theory.eta(n + i, 2 * n)
                            for i in range(n)])
    pairs = f._pairs
    return shifted._like({key: c for key, c in shifted.coeffs.items()
                          if sum(e for v, e in pairs(key) if v >= n) == 1})


@pytest.mark.parametrize("field_name", list(FIELDS))
@pytest.mark.parametrize("kind", list(THEORIES))
def test_combinator_is_the_functorial_derivative(kind, field_name):
    theory = dm.make_theory(kind, FIELDS[field_name], THEORIES[kind])
    for f in _elements(theory, f"{kind}-{field_name}"):
        assert f.partial_combinator() == functorial_derivative(theory, f), \
            f.coeffs


def _leibniz(f) -> dict:
    """Each letter of each word retagged in turn into the dual block."""
    n, p = f.arity, f.field.p
    out: dict = {}
    for w, c in f.coeffs.items():
        for i, v in enumerate(w):
            accumulate(out, w[:i] + (n + v,) + w[i + 1:], c, p)
    return out


@pytest.mark.parametrize("field_name", list(FIELDS))
def test_first_letter_is_not_the_functorial_derivative(field_name):
    """For words the functorial derivative is Leibniz's; first-letter agrees
    with it only where every word has one letter."""
    theory = dm.make_theory("zinbiel", FIELDS[field_name])
    x0_x1 = dm.ZinElement(2, theory.field, {(0, 1): 1})
    assert functorial_derivative(theory, x0_x1).coeffs == {(2, 1): 1,
                                                           (0, 3): 1}
    assert x0_x1.partial_combinator().coeffs == {(2, 1): 1}
    differ = 0
    for f in _elements(theory, f"zinbiel-{field_name}"):
        oracle = functorial_derivative(theory, f)
        assert oracle.coeffs == _leibniz(f)
        letters = all(len(w) == 1 for w in f.coeffs)
        assert (f.partial_combinator() == oracle) == letters, f.coeffs
        differ += not letters
    assert differ
