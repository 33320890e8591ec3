import re

import pytest
from hypothesis import given, settings, strategies as st

import diffmonads as dm
from diffmonads import (ArityError, ParseError, TooLarge, format_element,
                        parse_element, prime_field, rationals, variable_name)
from diffmonads.syntax import parse_elements

Q = rationals()
F7 = prime_field(7)

THEORIES = [dm.make_theory("power", Q, 5),
            dm.make_theory("poly", Q),
            dm.make_theory("divided", Q),
            dm.make_theory("zinbiel", Q),
            dm.make_theory("trivial", Q),
            dm.make_theory("divided", F7),
            dm.make_theory("zinbiel", F7)]


def test_basic_parses():
    t = dm.make_theory("power", Q, 5)
    e = parse_element("3*x1^2*x2", t, 2)
    assert e.coeffs == {dm.MultiIndex.make([(0, 2), (1, 1)]): Q.embed(3)}
    td = dm.make_theory("divided", Q)
    e = parse_element("x1^[2]*x2^[1] + 2*x1^[1]", td, 2)
    assert len(e.coeffs) == 2
    tz = dm.make_theory("zinbiel", Q)
    e = parse_element("x1.x2.x1 - x2.x1.x1", tz, 2)
    assert e.coeffs == {(0, 1, 0): Q.one(), (1, 0, 0): Q.embed(-1)}


def test_plain_variable_means_first_divided_power():
    td = dm.make_theory("divided", Q)
    assert parse_element("x1", td, 1) == parse_element("x1^[1]", td, 1)


def test_fraction_and_sign_parsing():
    t = dm.make_theory("power", Q, 5)
    e = parse_element("-1/2*x1 + x1^2 - 3*x2", t, 2)
    assert e.coeffs[dm.MultiIndex.single(0)] == Q.from_fraction(-1, 2)
    assert e.coeffs[dm.MultiIndex.single(1)] == Q.embed(-3)
    tf = dm.make_theory("power", F7, 5)
    e = parse_element("1/2*x1", tf, 1)
    assert e.coeffs[dm.MultiIndex.single(0)] == F7.embed(4)  # 2*4 = 8 = 1


def test_round_trip_on_enumerated_basis():
    for theory in THEORIES:
        for e in dm.enumerate_basis(theory, 2, 3):
            assert parse_element(format_element(e), theory, 2) == e


def test_round_trip_on_random_elements():
    cfg = dm.GenConfig(seed=91)
    for theory in THEORIES:
        rng = dm.SplitMix64(91)
        for _ in range(500):
            e = dm.random_element(theory, cfg, rng, arity=3)
            assert parse_element(format_element(e), theory, 3) == e


def test_round_trip_with_dual_blocks():
    tz = dm.make_theory("zinbiel", Q)
    e = dm.parse_element("x1.x2", tz, 2).partial_combinator()
    text = format_element(e, base_arity=2)
    assert text == "dx1.x2"
    assert parse_element(text, tz, 4, base_arity=2) == e


def test_variable_names():
    assert variable_name(0, 2) == "x1"
    assert variable_name(3, 2) == "dx2"
    assert variable_name(4, 2) == "ddx1"
    assert variable_name(1, 1) == "dx1"


def test_zero_renders_and_reparses():
    t = dm.make_theory("power", Q, 5)
    z = t.zero(2)
    assert format_element(z) == "0"
    tp = dm.make_theory("poly", Q)
    assert parse_element("0", tp, 2).is_zero()


@pytest.mark.parametrize("field", [Q, prime_field(2), prime_field(3),
                                   prime_field(5)], ids=repr)
@pytest.mark.parametrize("kind", list(dm.THEORIES))
def test_zero_reads_back_in_every_theory(kind, field):
    """A constant part that is zero in the field is no constant term."""
    theory = dm.make_theory(kind, field)
    for n in (0, 1, 3):
        zero = theory.zero(n)
        assert parse_element(format_element(zero), theory, n) == zero
        assert parse_element("3 - 3", theory, n) == zero
        assert parse_element(f"{field.characteristic}", theory, n) == zero
    assert parse_element("2 + x1 - 2", theory, 1) == theory.eta(0, 1)


@pytest.mark.parametrize("kind", ["power", "divided", "zinbiel", "trivial"])
def test_a_nonzero_constant_keeps_its_error(kind):
    """In F5, 5 is zero and 6 is not; in Q neither is."""
    for field, text in ((prime_field(5), "x1 + 6"), (Q, "x1 + 5"),
                        (prime_field(5), "3 - 3 + 1 + x1")):
        with pytest.raises(ParseError) as err:
            parse_element(text, dm.make_theory(kind, field), 1)
        assert str(err.value) == ("constant terms are only allowed in the "
                                  "polynomial theory (at position 0)")
        assert err.value.position == 0


def test_parse_errors_carry_position():
    t = dm.make_theory("power", Q, 5)
    with pytest.raises(ParseError) as err:
        parse_element("x1 + ?", t, 1)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_element("x1 +", t, 1)
    with pytest.raises(ParseError):
        parse_element("3 4", t, 1)


def test_arity_errors():
    t = dm.make_theory("power", Q, 5)
    with pytest.raises(ArityError):
        parse_element("x3", t, 2)
    with pytest.raises(ArityError):
        parse_element("dx1", t, 2)  # no dual block declared
    tz = dm.make_theory("zinbiel", Q)
    with pytest.raises(ArityError):
        parse_element("x1.x9", tz, 2)


def test_constants_rejected_outside_polynomials():
    for kind in ("power", "divided", "zinbiel", "trivial"):
        t = dm.make_theory(kind, Q, 5)
        with pytest.raises(ParseError):
            parse_element("x1 + 3", t, 1)


def test_exponent_validation():
    t = dm.make_theory("power", Q, 5)
    with pytest.raises(ParseError):
        parse_element("x1^0", t, 1)
    td = dm.make_theory("divided", Q)
    with pytest.raises(ParseError):
        parse_element("x1^[0]", td, 1)
    with pytest.raises(ParseError):
        parse_element("x1^2", td, 1)  # divided powers need brackets


# -- parse_elements: one tokenization per operand, the arity from its tokens --

# (theory, exponent suffixes, factor separator) of each notation
_NOTATIONS = [(dm.make_theory("poly", Q), ("", "^2", "^13"), "*"),
              (dm.make_theory("divided", Q), ("", "^[1]", "^[3]"), "*"),
              (dm.make_theory("zinbiel", Q), ("",), ".")]


def _old_arity(texts):
    """The arity rule the CLI once kept beside the grammar: the highest
    number after an ``x``, read with its own pattern; None without one."""
    return max((int(n) for text in texts
                for n in re.findall(r"x(\d+)", text, re.ASCII)), default=None)


@st.composite
def _operands(draw):
    """(theory, operand texts) in the theory's notation; constants, spaces
    and high variable numbers included."""
    theory, exponents, sep = draw(st.sampled_from(_NOTATIONS))
    factor = st.builds("x{}{}".format, st.integers(1, 1100),
                       st.sampled_from(exponents))
    term = st.builds("{}{}".format, st.sampled_from(("", "3*", "2/5*")),
                     st.lists(factor, min_size=1, max_size=3).map(sep.join))
    if theory.kind == "poly":
        term = term | st.sampled_from(("7", "1/2"))
    sign = st.sampled_from(("", "-", " "))
    text = st.builds("{}{}{}".format, sign, term,
                     st.lists(st.builds("{} {}".format,
                                        st.sampled_from(("+", "-")), term),
                              max_size=2).map(" ".join))
    return theory, draw(st.lists(text, min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(_operands())
def test_the_inferred_arity_is_the_old_rule(case):
    theory, texts = case
    expected = _old_arity(texts)
    if expected is None:
        with pytest.raises(ArityError, match="no variables found"):
            parse_elements(texts, theory)
        return
    if expected > theory.element.ARITY_LIMIT:
        with pytest.raises(TooLarge, match=f"^{expected} variables exceed"):
            parse_elements(texts, theory)
        return
    elements, arity = parse_elements(texts, theory)
    assert arity == expected
    assert elements == [parse_element(t, theory, arity) for t in texts]


def test_parse_elements_takes_a_declared_arity():
    t = dm.make_theory("poly", Q)
    elements, arity = parse_elements(["x1", "3"], t, 4)
    assert arity == 4
    assert elements == [parse_element("x1", t, 4), parse_element("3", t, 4)]
    with pytest.raises(ArityError, match="no variables found"):
        parse_elements(["3", "1/2"], t)
