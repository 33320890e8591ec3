"""Independent checks of `diffmonads` CLI results.

Nothing here imports the library.  Expressions are read with a small parser
of the printed grammar, and results are recomputed by other means:

* series (poly, power, trivial) with `sympy` polynomials over Q, truncated
  at the cap and, over F_p, reduced mod p;
* divided powers through x^[k] -> x^k/k!, which is injective over Q.  The
  structure constants are integers, so integer inputs give integral results
  that are then reduced mod p as well;
* words and the divided-to-words conversion by brute-force enumeration of
  interleavings and permutations.

Each ``check_*`` function returns None when the program's output matches, or
a one-line description of the first difference.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from sympy import QQ, Poly, Symbol

_PIECE = re.compile(r"(\d+(?:/\d+)?)(?:\*(.+))?|(.+)")
_DIVIDED = re.compile(r"(d*x\d+)\^\[(\d+)\]")
_POWER = re.compile(r"(d*x\d+)(?:\^(\d+))?")


def parse_terms(text: str, kind: str) -> dict:
    """Printed expression -> {key: Fraction}.

    Keys are tuples of (name, exponent) pairs for series and divided powers
    (sorted by name) and tuples of names for words; () is the constant.
    """
    text = text.strip()
    if text == "0":
        return {}
    parts = re.split(r"\s*([+-])\s*", text)
    if parts[0] == "":
        parts = parts[1:]
    else:
        parts = ["+"] + parts
    out: dict = {}
    for sign, piece in zip(parts[0::2], parts[1::2]):
        m = _PIECE.fullmatch(piece)
        coeff, body = (Fraction(m.group(1)), m.group(2)) if m.group(1) \
            else (Fraction(1), m.group(3))
        if sign == "-":
            coeff = -coeff
        key = _parse_key(body, kind) if body else ()
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def _parse_key(body: str, kind: str) -> tuple:
    if kind == "zinbiel":
        return tuple(body.split("."))
    exps: dict = {}
    for factor in body.split("*"):
        m = (_DIVIDED if kind == "divided" else _POWER).fullmatch(factor)
        if m is None and kind == "divided":
            m = _POWER.fullmatch(factor)  # a bare x1 reads as x1^[1]
        if m is None:
            raise ValueError(f"cannot read factor {factor!r}")
        exps[m.group(1)] = exps.get(m.group(1), 0) + int(m.group(2) or 1)
    return tuple(sorted(exps.items()))


def reduce_mod(terms: dict, p: int | None) -> dict:
    if p is None:
        return {k: Fraction(v) for k, v in terms.items() if v}
    out = {}
    for k, v in terms.items():
        v = Fraction(v)
        r = v.numerator * pow(v.denominator, -1, p) % p
        if r:
            out[k] = r
    return out


def _diff(expected: dict, got: dict) -> str | None:
    if expected == got:
        return None
    for key in sorted(set(expected) | set(got), key=repr):
        if expected.get(key) != got.get(key):
            return (f"term {key}: expected {expected.get(key, 0)}, "
                    f"got {got.get(key, 0)}")
    return None


# -- series and divided powers through sympy -----------------------------------


class _PolyRing:
    """sympy polynomials over Q in named variables."""

    def __init__(self, names):
        self.names = sorted(set(names)) or ["x1"]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.gens = [Symbol(n) for n in self.names]

    def poly(self, terms: dict, divided: bool = False) -> Poly:
        width = len(self.names)
        rep = {}
        for key, c in terms.items():
            exps = [0] * width
            scale = 1
            for name, e in key:
                exps[self.index[name]] += e
                if divided:
                    scale *= math.factorial(e)
            value = Fraction(c) / scale
            rep[tuple(exps)] = QQ(value.numerator, value.denominator)
        return Poly.from_dict(rep, *self.gens, domain=QQ)

    def terms(self, poly: Poly, cap: int | None, divided: bool = False) -> dict:
        out = {}
        for exps, c in poly.terms():
            if cap is not None and sum(exps) > cap:
                continue
            key = tuple((self.names[i], e) for i, e in enumerate(exps) if e)
            scale = 1
            if divided:
                for _, e in key:
                    scale *= math.factorial(e)
            value = Fraction(int(c.numerator), int(c.denominator)) * scale
            if value:
                out[key] = value
        return out

    def var(self, name: str) -> Poly:
        return self.poly({((name, 1),): 1})


def _names(*term_dicts) -> set:
    return {name for terms in term_dicts for key in terms for name, _ in key}


def _substitute(ring: _PolyRing, outer: dict, inner: list, divided: bool):
    """outer(inner_1, ..., inner_m); outer names x1..xm pick inner polys."""
    total = ring.poly({})
    for key, c in outer.items():
        term = ring.poly({(): c})
        for name, e in key:
            factor = inner[int(name[1:]) - 1] ** e
            if divided:
                factor = factor.mul_ground(QQ(1, math.factorial(e)))
            term = term * factor
        total = total + term
    return total


def check_algebra(command: str, kind: str, p: int | None, cap: int | None,
                  inputs: list, output: str, n: int | None = None) -> str | None:
    """Check one derive/mul/compose/dpow result in a commutative theory.

    ``kind`` is "series" or "divided"; ``inputs`` are the expression strings
    (for compose: the outer components, then the inner ones, split by the
    caller into two lists); ``n`` is the divided power exponent.
    """
    divided = kind == "divided"
    parse_kind = "divided" if divided else "series"
    if command == "compose":
        outer_texts, inner_texts = inputs
        outer = [parse_terms(t, parse_kind) for t in outer_texts]
        inner = [parse_terms(t, parse_kind) for t in inner_texts]
        got = [parse_terms(t, parse_kind) for t in output.splitlines()]
        ring = _PolyRing(_names(*inner, *got))
        inner_polys = [ring.poly(t, divided) for t in inner]
        expected = [ring.terms(_substitute(ring, o, inner_polys, divided),
                               cap, divided) for o in outer]
        if len(got) != len(expected):
            return f"{len(got)} components, expected {len(expected)}"
        for e, g in zip(expected, got):
            problem = _diff(reduce_mod(e, p), reduce_mod(g, p))
            if problem:
                return problem
        return None
    args = [parse_terms(t, parse_kind) for t in inputs]
    got = parse_terms(output, parse_kind)
    names = _names(*args, got)
    if command == "derive":
        names |= {"d" + name for name in _names(*args)}
    ring = _PolyRing(names)
    polys = [ring.poly(t, divided) for t in args]
    if command == "derive":
        f = polys[0]
        result = ring.poly({})
        for name in sorted(_names(args[0])):
            result = result + f.diff(ring.gens[ring.index[name]]) * \
                ring.var("d" + name)
    elif command == "mul":
        result = polys[0] * polys[1]
    elif command == "dpow":
        result = (polys[0] ** n).mul_ground(QQ(1, math.factorial(n)))
    else:
        raise ValueError(command)
    expected = ring.terms(result, cap, divided)
    return _diff(reduce_mod(expected, p), reduce_mod(got, p))


# -- words -------------------------------------------------------------------------


def _interleavings(u: tuple, w: tuple):
    n = len(u) + len(w)
    for positions in itertools.combinations(range(n), len(u)):
        chosen = set(positions)
        left, right = iter(u), iter(w)
        yield tuple(next(left) if i in chosen else next(right)
                    for i in range(n))


def _shuffle(a: dict, b: dict) -> dict:
    out: dict = {}
    for u, cu in a.items():
        for w, cw in b.items():
            for word in _interleavings(u, w):
                out[word] = out.get(word, 0) + cu * cw
    return out


def _half_shuffle(a: dict, b: dict) -> dict:
    out: dict = {}
    for u, cu in a.items():
        for w, cw in b.items():
            for word in _interleavings(u[1:], w):
                key = (u[0],) + word
                out[key] = out.get(key, 0) + cu * cw
    return out


def _add(dst: dict, src: dict, scale) -> None:
    for k, v in src.items():
        dst[k] = dst.get(k, 0) + v * scale


def check_words(command: str, p: int | None, inputs, output: str) -> str | None:
    """derive/mul/compose in the Zinbiel theory, and divided -> words."""
    if command == "convert":
        expected: dict = {}
        for key, c in parse_terms(inputs[0], "divided").items():
            letters = [name for name, e in key for _ in range(e)]
            for word in set(itertools.permutations(letters)):
                expected[word] = expected.get(word, 0) + c
        return _diff(reduce_mod(expected, p),
                     reduce_mod(parse_terms(output, "zinbiel"), p))
    if command == "compose":
        outer_texts, inner_texts = inputs
        inner = [parse_terms(t, "zinbiel") for t in inner_texts]
        got_lines = output.splitlines()
        if len(got_lines) != len(outer_texts):
            return f"{len(got_lines)} components, expected {len(outer_texts)}"
        for text, line in zip(outer_texts, got_lines):
            expected = {}
            for word, c in parse_terms(text, "zinbiel").items():
                args = [inner[int(name[1:]) - 1] for name in word]
                nested = args[-1]
                for arg in reversed(args[:-1]):
                    nested = _half_shuffle(arg, nested)
                _add(expected, nested, c)
            problem = _diff(reduce_mod(expected, p),
                            reduce_mod(parse_terms(line, "zinbiel"), p))
            if problem:
                return problem
        return None
    args = [parse_terms(t, "zinbiel") for t in inputs]
    if command == "derive":
        expected = {("d" + w[0],) + w[1:]: c for w, c in args[0].items()}
    elif command == "mul":
        expected = _shuffle(args[0], args[1])
    else:
        raise ValueError(command)
    return _diff(reduce_mod(expected, p),
                 reduce_mod(parse_terms(output, "zinbiel"), p))
