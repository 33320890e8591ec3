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

joined with ``+`` and ``-``.  Bare scalars add up to the constant term,
which only polynomials have; one zero in the field (``0``, ``3 - 3``, ``5``
over F5) is none, so the zero element, printed ``0``, reads back.  The
grammar is ASCII: digits are ``0-9`` and blanks are ASCII whitespace, so
any other digit or space is an unexpected character.  A variable with no
digit after its ``x`` reports the character there when it is one the
grammar lacks (``x１``), else a missing variable number at that position.
``parse_elements`` reads a command's operands.  Each is tokenized in one
pass of ``_TOKEN.finditer``, whose last alternative takes any character the
grammar lacks; an omitted arity is the highest variable number in the
tokens; then one loop over each operand's tokens reads its terms.  Errors
come in this order: every operand's tokens, then each operand in turn: its
syntax, variables, exponents and denominators where they occur, then the
constant-term rule, then the key checks of the element's constructor.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .element import Element
from .errors import (ArityError, ParseError, ShapeMismatch, TooLarge,
                     too_many_variables)
from .powerseries import EMPTY_INDEX

_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<num>\d+)|(?P<var>d*x\d*)"
                    r"|(?P<sym>[+\-*/^\[\].])|(?P<bad>.)", re.ASCII)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(tag, value, position) per token, then ("end", None, len(text)); a
    variable's value is (d prefixes, number), a symbol is its own tag."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        pos = m.start()
        try:
            if kind == "num":
                tokens.append(("num", int(m.group()), pos))
            elif kind == "var":
                name = m.group()
                q = name.index("x")
                if q + 1 == len(name):  # no digit: blame what follows
                    end = m.end()
                    after = _TOKEN.match(text, end)
                    if after is not None and after.lastgroup == "bad":
                        raise ParseError("unexpected character "
                                         f"{after.group()!r}", end)
                    raise ParseError("missing variable number", end)
                tokens.append(("var", (q, int(name[q + 1:])), pos))
            elif kind == "sym":
                tokens.append((m.group(), None, pos))
            else:
                raise ParseError(f"unexpected character {m.group()!r}", pos)
        except ValueError:  # past the interpreter's digit limit
            raise ParseError("number too long", pos) from None
    tokens.append(("end", None, len(text)))
    return tokens


def _expected(expect: str, token: tuple) -> ParseError:
    return ParseError(f"expected {expect!r}, found {token[0]!r}", token[2])


def _parse(tokens: list, theory, arity: int, base: int):
    """The element of the theory that ``tokens`` spell over ``arity``, with
    variable numbers in blocks of ``base``: one loop reads the terms, and a
    monomial's separator joins only when a variable follows.  The
    constant-term rule waits for the last term (see the module docstring)."""
    element, field = theory.element, theory.field
    if arity > element.ARITY_LIMIT:  # checked before a key is built
        raise too_many_variables(arity, element.ARITY_LIMIT)
    sep, opening, closing = element.notation
    exponent = tuple(filter(None, (opening, "num", closing)))  # after a ^
    key_of = element._key
    terms = []
    constant = 0  # the raw sum of the bare scalars
    i = 0
    tag = tokens[0][0]
    while True:
        negative = tag == "-"
        if negative or tag == "+":
            i += 1
            tag = tokens[i][0]
        elif terms:
            break
        if tag == "num":
            num = tokens[i][1]
            i += 1
            tag = tokens[i][0]
            if tag == "/":
                token = tokens[i + 1]
                if token[0] != "num":
                    raise _expected("num", token)
                den = token[1]
                if not field.raw(den):  # 0, or a multiple of p in F_p
                    raise ParseError(f"denominator {den} is zero in {field}"
                                     if den else "zero denominator", token[2])
                c = field.from_fraction(num, den)
                i += 2
                tag = tokens[i][0]
            else:
                c = field.embed(num)
            if tag != "*":  # a bare scalar: part of the constant term
                c = -c if negative else c
                terms.append((EMPTY_INDEX, c))
                constant += c.value
                continue
            i += 1
        else:
            c = field.one()
        pairs = []
        while True:
            token = tokens[i]
            if token[0] != "var":
                raise _expected("var", token)
            (q, k), pos = token[1], token[2]
            if k < 1 or k > base:
                raise ArityError(f"variable number {k} outside base block of "
                                 f"size {base} (at position {pos})")
            v = q * base + (k - 1)
            if v >= arity:
                raise ArityError(f"variable block {q} exceeds arity {arity} "
                                 f"(at position {pos})")
            i += 1
            e = 1
            if opening is not None and tokens[i][0] == "^":
                for want in exponent:
                    i += 1
                    if tokens[i][0] != want:
                        raise _expected(want, tokens[i])
                _, e, pos = tokens[i - len(closing)]
                i += 1
                if e < 1:
                    raise ParseError("exponents must be positive", pos)
            pairs.append((v, e))
            tag = tokens[i][0]
            if tag != sep or (opening is not None and
                              tokens[i + 1][0] != "var"):
                break
            i += 1
        terms.append((key_of(pairs), -c if negative else c))
    if tag != "end":
        raise ParseError("trailing input", tokens[i][2])
    if theory.reduced and field.raw(constant):
        raise ParseError("constant terms are only allowed in the polynomial "
                         "theory", 0)
    return element.from_terms(*theory.shapes[arity], terms)


def parse_elements(texts, theory, arity: int | None = None):
    """(elements, arity) of the expressions ``texts`` over ``arity``; when it
    is None, the arity is the highest variable number in them."""
    tokens = [_tokenize(text) for text in texts]
    if arity is None:
        numbers = [value[1] for toks in tokens
                   for tag, value, _ in toks if tag == "var"]
        if not numbers:
            raise ArityError("no variables found; cannot infer the arity")
        arity = max(numbers)
    return [_parse(toks, theory, arity, arity) for toks in tokens], arity


def parse_element(text: str, theory, arity: int, base_arity: int | None = None):
    """Parse an expression into the theory's element type over ``arity``."""
    return _parse(_tokenize(text), theory, arity,
                  arity if base_arity is None else base_arity)


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
    """Terms by degree, then by their (variable, exponent) pairs, each
    computed once per key; exponents in brackets always, bare ones only
    above 1."""
    if not isinstance(elem, Element):
        raise ShapeMismatch(f"cannot format {type(elem).__name__}")
    base = base_arity if base_arity is not None else elem.arity
    sep, opening, closing = elem.notation
    pairs, degree = elem._pairs, elem._degree
    rows = sorted([(degree(key), pairs(key), c)
                   for key, c in elem.coeffs.items()])
    if not rows:
        return "0"
    p = elem.field.p
    pieces = []
    for k, (_, factors, c) in enumerate(rows):
        neg, mag = _scalar_sign_split(c, p)
        body = sep.join(variable_name(v, base) +
                        (f"^{opening}{e}{closing}" if e > 1 or opening else "")
                        for v, e in factors)
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
