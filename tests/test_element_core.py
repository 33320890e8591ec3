"""The element core compares element classes, not only shapes.

Packed monomial keys are ints and words are tuples, so an operation that
took an element of another theory would build a result with keys of the
wrong kind.  Sums, products and substitution raise ShapeMismatch instead,
for every ordered pair of theories.
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
