"""The errors of malformed operands, pinned: for each, the exception class,
the message and the position that ``parse_elements`` reports, over every
theory and over Q, F2 and F5.  The order of the checks shows too: every
operand is tokenized before any is parsed, a syntax error anywhere in an
operand comes before the constant-term rule, and that rule comes before the
key checks of the element's constructor."""

import pytest

import diffmonads as dm
from diffmonads import ArityError, ParseError, ShapeMismatch, TooLarge
from diffmonads.syntax import parse_elements

FIELDS = {"Q": dm.rationals(), "F2": dm.prime_field(2),
          "F5": dm.prime_field(5)}

_CONSTANT = "constant terms are only allowed in the polynomial theory"
_LONG = "1" * 5000 + "*x1"

# (theory, field, operands, declared arity, error class, message, position)
CORPUS = [
    # tokens
    ("power", "Q", ["x1 $ x2"], None, ParseError,
     "unexpected character '$' (at position 3)", 3),
    ("power", "Q", ["x１"], None, ParseError,  # a fullwidth digit
     "unexpected character '１' (at position 1)", 1),
    ("power", "Q", ["x1 + x٣"], None, ParseError,  # an Arabic-Indic digit
     "unexpected character '٣' (at position 6)", 6),
    ("power", "Q", ["x"], None, ParseError,
     "missing variable number (at position 1)", 1),
    ("divided", "F5", ["dx"], None, ParseError,
     "missing variable number (at position 2)", 2),
    ("power", "Q", [_LONG], None, ParseError,
     "number too long (at position 0)", 0),
    # the grammar
    ("power", "Q", ["3 x1"], None, ParseError,
     "trailing input (at position 2)", 2),
    ("power", "Q", ["3 + x1 x2"], None, ParseError,
     "trailing input (at position 7)", 7),
    ("power", "Q", ["x1^"], None, ParseError,
     "expected 'num', found 'end' (at position 3)", 3),
    ("power", "Q", ["x1^-1"], None, ParseError,
     "expected 'num', found '-' (at position 3)", 3),
    ("power", "Q", ["x1 +"], None, ParseError,
     "expected 'var', found 'end' (at position 4)", 4),
    ("power", "Q", ["x1 - - x2"], None, ParseError,
     "expected 'var', found '-' (at position 5)", 5),
    ("power", "Q", ["x1**x2"], None, ParseError,
     "trailing input (at position 2)", 2),
    ("power", "Q", ["2/x1"], None, ParseError,
     "expected 'num', found 'var' (at position 2)", 2),
    ("poly", "Q", ["3 x1"], None, ParseError,
     "trailing input (at position 2)", 2),
    ("poly", "Q", ["x1 + 3 3"], None, ParseError,
     "trailing input (at position 7)", 7),
    ("divided", "Q", ["x1^2"], None, ParseError,
     "expected '[', found 'num' (at position 3)", 3),
    ("divided", "Q", ["x1^[2"], None, ParseError,
     "expected ']', found 'end' (at position 5)", 5),
    ("divided", "Q", ["x1.x2"], None, ParseError,
     "trailing input (at position 2)", 2),
    ("zinbiel", "Q", ["x1..x2"], None, ParseError,
     "expected 'var', found '.' (at position 3)", 3),
    ("zinbiel", "Q", ["x1. + x2"], None, ParseError,
     "expected 'var', found '+' (at position 4)", 4),
    ("zinbiel", "Q", ["x1^2"], None, ParseError,
     "trailing input (at position 2)", 2),
    ("zinbiel", "Q", ["x1*x2"], None, ParseError,
     "trailing input (at position 2)", 2),
    # exponents and denominators
    ("power", "Q", ["x1^0"], None, ParseError,
     "exponents must be positive (at position 3)", 3),
    ("divided", "Q", ["x1^[0]"], None, ParseError,
     "exponents must be positive (at position 4)", 4),
    ("power", "Q", ["1/0*x1"], None, ParseError,
     "zero denominator (at position 2)", 2),
    ("poly", "Q", ["1/0"], 1, ParseError,
     "zero denominator (at position 2)", 2),
    ("trivial", "F5", ["x1 - 3/0*x2"], None, ParseError,
     "zero denominator (at position 7)", 7),
    ("divided", "F2", ["1/2*x1"], None, ParseError,
     "denominator 2 is zero in F2 (at position 2)", 2),
    ("zinbiel", "F2", ["x1 + 3/4*x2"], None, ParseError,
     "denominator 4 is zero in F2 (at position 7)", 7),
    ("poly", "F5", ["2/5*x1"], None, ParseError,
     "denominator 5 is zero in F5 (at position 2)", 2),
    ("power", "F5", ["x1 - 1/10*x2"], None, ParseError,
     "denominator 10 is zero in F5 (at position 7)", 7),
    # variables and arity
    ("power", "Q", ["x0"], None, ArityError,
     "variable number 0 outside base block of size 0 (at position 0)", None),
    ("power", "Q", ["dx1"], None, ArityError,
     "variable block 1 exceeds arity 1 (at position 0)", None),
    ("power", "Q", ["x3"], 2, ArityError,
     "variable number 3 outside base block of size 2 (at position 0)", None),
    ("power", "Q", ["3"], None, ArityError,
     "no variables found; cannot infer the arity", None),
    ("power", "Q", ["x1025"], None, TooLarge,
     "1025 variables exceed the limit 1024 of packed monomials", None),
    # the constant-term rule, after every syntax error of the operand
    ("power", "Q", ["x1 + 3"], None, ParseError,
     f"{_CONSTANT} (at position 0)", 0),
    ("divided", "Q", ["3*x1 + 1"], None, ParseError,
     f"{_CONSTANT} (at position 0)", 0),
    ("trivial", "Q", ["x1 + 2"], None, ParseError,
     f"{_CONSTANT} (at position 0)", 0),
    ("power", "Q", ["3 + x1^0"], None, ParseError,
     "exponents must be positive (at position 7)", 7),
    ("power", "Q", ["3 + x9"], 2, ArityError,
     "variable number 9 outside base block of size 2 (at position 4)", None),
    # the constructor's key checks, after the constant-term rule
    ("power", "Q", ["3 + x1^7"], None, ParseError,
     f"{_CONSTANT} (at position 0)", 0),
    ("power", "Q", ["x1^7"], None, ShapeMismatch, "degree 7 exceeds cap 6",
     None),
    ("trivial", "Q", ["x1*x2"], None, ShapeMismatch, "degree 2 exceeds cap 1",
     None),
    # every operand is tokenized first, then each is parsed in turn
    ("power", "Q", ["x1^0", "x1 $"], None, ParseError,
     "unexpected character '$' (at position 3)", 3),
    ("power", "Q", ["x1 + 3", "x1^0"], None, ParseError,
     f"{_CONSTANT} (at position 0)", 0),
]


def _case_id(case):
    kind, field, texts, *_ = case
    shown = ["<5000 digits>*x1" if t == _LONG else t for t in texts]
    return f"{kind}-{field}-{'|'.join(shown)}"


@pytest.mark.parametrize("case", CORPUS, ids=map(_case_id, CORPUS))
def test_a_malformed_operand_raises_its_error(case):
    kind, field, texts, arity, error, message, position = case
    theory = dm.make_theory(kind, FIELDS[field])
    with pytest.raises(error) as raised:
        parse_elements(texts, theory, arity)
    assert type(raised.value) is error
    assert str(raised.value) == message
    assert getattr(raised.value, "position", None) == position


def test_the_corpus_covers_every_theory_and_field():
    assert {case[0] for case in CORPUS} == set(dm.THEORIES)
    assert {case[1] for case in CORPUS} == set(FIELDS)
