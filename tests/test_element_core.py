"""The element core compares element classes, not only shapes.

Packed monomial keys are ints and words are tuples, so an operation that
took an element of another theory would build a result with keys of the
wrong kind.  Sums, products and substitution raise ShapeMismatch instead,
for every ordered pair of theories.  And the single derivative of every
non-unital theory follows one constant rule.
"""

import itertools

import pytest

import diffmonads as dm

Q = dm.rationals()
THEORIES = {kind: dm.make_theory(kind, Q, 4)
            for kind in ("poly", "power", "divided", "zinbiel", "trivial")}
PAIRS = list(itertools.permutations(THEORIES.values(), 2))


def _x1_plus_x2(theory):
    return theory.eta(0, 2) + theory.eta(1, 2)


@pytest.mark.parametrize("a_theory, b_theory", PAIRS,
                         ids=[f"{a!r}-{b!r}" for a, b in PAIRS])
def test_operations_across_theories_raise_shape_mismatch(a_theory, b_theory):
    a, b = _x1_plus_x2(a_theory), _x1_plus_x2(b_theory)
    with pytest.raises(dm.ShapeMismatch):
        a + b
    with pytest.raises(dm.ShapeMismatch):
        a * b
    with pytest.raises(dm.ShapeMismatch):
        a.substitute([b, b])
    with pytest.raises(dm.ShapeMismatch):
        a.substitute([a, b])


def test_right_nested_takes_words_only():
    word = _x1_plus_x2(THEORIES["zinbiel"])
    with pytest.raises(dm.ShapeMismatch):
        dm.right_nested([word, _x1_plus_x2(THEORIES["divided"])])


@pytest.mark.parametrize("theory", THEORIES.values(), ids=repr)
def test_a_nullary_substitution_needs_a_target_arity(theory):
    nullary = theory.zero(0)
    with pytest.raises(dm.ShapeMismatch, match="target arity required"):
        nullary.substitute([])
    assert nullary.substitute([], arity=2) == theory.zero(2)


NON_UNITAL = [(kind, field) for kind in ("power", "divided", "zinbiel")
              for field in (Q, dm.prime_field(2), dm.prime_field(3),
                            dm.prime_field(5))]


@pytest.mark.parametrize("kind, field", NON_UNITAL,
                         ids=[f"{k}-{f!r}" for k, f in NON_UNITAL])
def test_the_constant_of_a_derivative_is_the_counit(kind, field):
    """d/dx_i f is (an element, a constant), and the constant is the
    coefficient of x_i in f: the i-th entry of the counit."""
    theory = dm.make_theory(kind, field, 4)
    cfg = dm.GenConfig(seed=17)
    rng = dm.SplitMix64(17)
    for _ in range(20):
        f = dm.random_element(theory, cfg, rng, arity=3)
        counit = f.counit()
        for i in range(3):
            assert f.partial(i)[1] == counit[i]
