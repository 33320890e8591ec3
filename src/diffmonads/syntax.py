"""Expression grammar shared by the CLI, reports, and tests.

Variables are ``x1..xn`` (1-based).  When an element lives over a doubled
variable block, the dual block renders with a ``d`` prefix: sources
``x1..xn``, duals ``dx1..dxn``.  Further doublings stack prefixes by block
position (``ddx1`` for the third block of size n, and so on); parsing maps a
token with q ``d`` prefixes and number k to index q*base + (k-1) for the
declared base block size.

Terms:

* power series / polynomials: ``3*x1^2*x2``, exponent 1 written bare;
* divided powers: ``x1^[2]*x2^[1]`` (plain ``x1`` parses as ``x1^[1]``);
* words: ``x1.x2.x1``;
* scalars: integers ``-3`` or fractions ``2/5`` (reduced mod p over F_p);

joined with ``+`` and ``-``.  The zero element prints as ``0``.  The
grammar is ASCII: digits are ``0-9`` and blanks are ASCII whitespace, so
any other digit or space is an unexpected character.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .element import Element
from .errors import (ArityError, ParseError, ShapeMismatch, TooLarge,
                     too_many_variables)
from .powerseries import EMPTY_INDEX
from .scalars import FieldSpec, Scalar

_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<num>\d+)|(?P<var>d*x\d+)|(?P<sym>[+\-*/^\[\].])",
                    re.ASCII)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        try:
            if m.lastgroup == "num":
                tokens.append(("num", int(m.group()), pos))
            elif m.lastgroup == "var":
                name = m.group()
                q = len(name) - len(name.lstrip("d"))
                tokens.append(("var", (q, int(name[q + 1:])), pos))
            elif m.lastgroup == "sym":
                tokens.append((m.group(), None, pos))
        except ValueError:  # past the interpreter's digit limit
            raise ParseError("number too long", pos) from None
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, element: type, field: FieldSpec,
                 arity: int, base_arity: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.element = element
        self.field = field
        self.arity = arity
        self.base = base_arity

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def take(self, expect: str | None = None):
        tag, value, pos = self.tokens[self.i]
        if expect is not None and tag != expect:
            raise ParseError(f"expected {expect!r}, found {tag!r}", pos)
        self.i += 1
        return value, pos

    def var_index(self) -> int:
        (q, k), pos = self.take("var")
        if k < 1 or k > self.base:
            raise ArityError(f"variable number {k} outside base block of "
                             f"size {self.base} (at position {pos})")
        idx = q * self.base + (k - 1)
        if idx >= self.arity:
            raise ArityError(f"variable block {q} exceeds arity {self.arity} "
                             f"(at position {pos})")
        return idx

    def coefficient(self) -> Scalar:
        num, _ = self.take("num")
        if self.peek() == "/":
            self.take()
            den, pos = self.take("num")
            if den == 0:
                raise ParseError("zero denominator", pos)
            return self.field.from_fraction(num, den)
        return self.field.embed(num)

    def basis(self):
        """One monomial or word, as a key.

        Factors are joined by the element's separator; a monomial's factor
        may carry an exponent in the element's brackets, and its separator
        joins only when a variable follows.
        """
        sep, opening, closing = self.element.notation
        pairs = []
        while True:
            v = self.var_index()
            e = 1
            if opening is not None and self.peek() == "^":
                self.take()
                if opening:
                    self.take(opening)
                e, pos = self.take("num")
                if closing:
                    self.take(closing)
                if e < 1:
                    raise ParseError("exponents must be positive", pos)
            pairs.append((v, e))
            if self.peek() != sep or (opening is not None and
                                      self.tokens[self.i + 1][0] != "var"):
                return self.element._key(pairs)
            self.take()

    def term(self):
        if self.peek() == "num":
            c = self.coefficient()
            if self.peek() == "*":
                self.take()
                return self.basis(), c
            return None, c  # bare scalar: a constant term
        return self.basis(), self.field.one()

    def expression(self):
        terms = []
        op = "+"
        if self.peek() in ("+", "-"):
            op = self.peek()
            self.take()
        key, c = self.term()
        terms.append((key, -c if op == "-" else c))
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.take()
            key, c = self.term()
            terms.append((key, -c if op == "-" else c))
        if self.peek() != "end":
            raise ParseError("trailing input", self.tokens[self.i][2])
        return terms


def parse_element(text: str, theory, arity: int, base_arity: int | None = None):
    """Parse an expression into the theory's element type over ``arity``."""
    if arity > theory.element.ARITY_LIMIT:  # checked before a key is built
        raise too_many_variables(arity, theory.element.ARITY_LIMIT)
    base = base_arity if base_arity is not None else arity
    parser = _Parser(text, theory.element, theory.field, arity, base)
    terms = parser.expression()
    if theory.reduced and any(k is None for k, _ in terms):
        raise ParseError("constant terms are only allowed in the polynomial "
                         "theory", 0)
    return theory.element.from_terms(
        *theory.shapes[arity],
        [(EMPTY_INDEX if k is None else k, c) for k, c in terms])


# -- printing ---------------------------------------------------------------


@lru_cache(maxsize=1 << 12)  # printing asks for the same few names again
def variable_name(i: int, base: int) -> str:
    q, r = divmod(i, base)
    return "d" * q + f"x{r + 1}"


def _scalar_sign_split(value, p: int | None) -> tuple[bool, str]:
    """(is_negative, magnitude) of a raw coefficient for joining with + and -
    (Q only has signs)."""
    try:
        if p is None and value < 0:
            return True, str(-value)
        return False, str(value)
    except ValueError:  # past the interpreter's digit limit
        raise TooLarge("a coefficient has too many digits to print") \
            from None


def format_element(elem, base_arity: int | None = None) -> str:
    """Terms by degree, then by their (variable, exponent) pairs; exponents
    in brackets always, bare ones only above 1."""
    if not isinstance(elem, Element):
        raise ShapeMismatch(f"cannot format {type(elem).__name__}")
    base = base_arity if base_arity is not None else elem.arity
    sep, opening, closing = elem.notation
    pairs, degree = elem._pairs, elem._degree
    keys = sorted(elem.coeffs, key=lambda key: (degree(key), pairs(key)))

    def render(key):
        return sep.join(variable_name(v, base) +
                        (f"^{opening}{e}{closing}" if e > 1 or opening else "")
                        for v, e in pairs(key))
    if not keys:
        return "0"
    pieces = []
    for k, key in enumerate(keys):
        neg, mag = _scalar_sign_split(elem.coeffs[key], elem.field.p)
        body = render(key)
        if body == "":
            piece = mag
        elif mag == "1":
            piece = body
        else:
            piece = f"{mag}*{body}"
        if k == 0:
            pieces.append(("-" if neg else "") + piece)
        else:
            pieces.append(("- " if neg else "+ ") + piece)
    return " ".join(pieces)
