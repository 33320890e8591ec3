"""The near-miss combinators of ``cdc.MUTATIONS`` and the theories that carry
them.

A mutant replaces the ``_combinator(coeffs, n, p)`` hook of its element
class: the elements of the mutated theory are instances of a subclass whose
hook is the mutant.  Each mutant, and the ``partial_combinator`` of the
mutated theory's elements, is checked against an independent recomputation:
the key map written with ``MultiIndex.pairs`` and sums of
``MultiIndex.single`` keys, summed with ``accumulate`` and built through the
public constructors.  Inputs are random elements of the mutated theory with
Fraction coefficients over Q, and with coefficients over F2, F3 and F5,
where a product c * e that vanishes must drop out.
"""

import random
from fractions import Fraction

import pytest

import diffmonads as dm
from diffmonads import cdc
from diffmonads.dividedpower import DPElement
from diffmonads.element import Element
from diffmonads.errors import ShapeMismatch
from diffmonads.powerseries import MultiIndex, SeriesElement
from diffmonads.scalars import accumulate
from diffmonads.zinbiel import ZinElement

FIELDS = {"Q": dm.rationals(), "F2": dm.prime_field(2),
          "F3": dm.prime_field(3), "F5": dm.prime_field(5)}
CAP = 6


def _coefficient(rng: random.Random, field):
    if field.p is None:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                        rng.randint(1, 4))
    return rng.randint(1, field.p - 1)


def _random_coeffs(rng: random.Random, field, arity: int, key) -> dict:
    coeffs: dict = {}
    for _ in range(rng.randint(1, 6)):
        coeffs[key(rng, arity)] = _coefficient(rng, field)
    return coeffs


def _monomial(rng: random.Random, arity: int) -> int:
    degree = rng.randint(1, CAP)
    return MultiIndex.make((rng.randrange(arity), 1) for _ in range(degree))


def _word(rng: random.Random, arity: int) -> tuple:
    return tuple(rng.randrange(arity) for _ in range(rng.randint(1, 5)))


def _inputs(theory, count: int = 40):
    """Random elements of the mutated theory, from a fixed seed."""
    kind, field, element = theory.kind, theory.field, theory.element
    rng = random.Random(f"{kind}-{field!r}")
    for _ in range(count):
        n = rng.randint(1, 4)
        if kind == "zinbiel":
            yield element(n, field, _random_coeffs(rng, field, n, _word))
        elif kind == "power":
            yield element(n, CAP, field,
                          _random_coeffs(rng, field, n, _monomial))
        else:
            yield element(n, field, _random_coeffs(rng, field, n, _monomial))


def _retag_last_letter(f: ZinElement) -> ZinElement:
    n = f.arity
    out: dict = {}
    for w, c in f.coeffs.items():
        accumulate(out, w[:-1] + (n + w[-1],), c, f.field.p)
    return type(f)(2 * n, f.field, out)


def _moved_terms(f, skip: tuple = ()) -> dict:
    """Per term c * x^k and variable v of k with exponent e (v not in
    ``skip``): c * e on k with one unit of v moved to its dual."""
    n = f.arity
    out: dict = {}
    for key, c in f.coeffs.items():
        for v, e in MultiIndex.pairs(key):
            if v not in skip:
                moved = key - MultiIndex.single(v) + MultiIndex.single(n + v)
                accumulate(out, moved, c * e, f.field.p)
    return out


def _drop_first_partial(f: SeriesElement) -> SeriesElement:
    return type(f)(2 * f.arity, f.cap, f.field, _moved_terms(f, skip=(0,)))


def _binomial_factor(f: DPElement) -> DPElement:
    return type(f)(2 * f.arity, f.field, _moved_terms(f))


ORACLES = {
    "zinbiel-last-letter": _retag_last_letter,
    "powerseries-drop-first-partial": _drop_first_partial,
    "dividedpower-binomial-factor": _binomial_factor,
}


def _assert_same_coeffs(got: dict, want: dict) -> None:
    """Equal coefficient dicts whose values are also canonical: ints over Q
    where the value is integral, as the public constructor leaves them."""
    assert got == want
    for key, c in want.items():
        assert type(got[key]) is type(c), (key, got[key], c)


def _assert_same(got, want) -> None:
    """Equal elements whose coefficients are also canonical."""
    assert type(got) is type(want)
    assert got == want
    _assert_same_coeffs(got.coeffs, want.coeffs)


def _hook(mutation: str, f) -> dict:
    """The mutant's coefficients of the combinator of ``f``."""
    return cdc.MUTATIONS[mutation][1](f.coeffs, f.arity, f.field.p)


@pytest.mark.parametrize("field_name", list(FIELDS))
@pytest.mark.parametrize("mutation", list(cdc.MUTATIONS))
def test_mutant_matches_independent_recomputation(mutation, field_name):
    theory = cdc.MutatedTheory(mutation, FIELDS[field_name])
    for f in _inputs(theory):
        want = ORACLES[mutation](f)
        _assert_same_coeffs(_hook(mutation, f), want.coeffs)
        _assert_same(f.partial_combinator(), want)


def test_binomial_mutant_drops_products_that_vanish_mod_p():
    """x1^[5] + 3*x1^[2]*x2^[1] over F5: the factor 5 of x1^[5] is zero."""
    field = FIELDS["F5"]
    element = cdc.MutatedTheory("dividedpower-binomial-factor", field).element
    x1_5 = MultiIndex.single(0, 5)
    x1_2_x2 = MultiIndex.make(((0, 2), (1, 1)))
    f = element(2, field, {x1_5: 1, x1_2_x2: 3})
    want = element(4, field, {
        MultiIndex.make(((0, 1), (1, 1), (2, 1))): 1,  # 3 * 2 mod 5
        MultiIndex.make(((0, 2), (3, 1))): 3,
    })
    assert _hook("dividedpower-binomial-factor", f) == want.coeffs
    assert f.partial_combinator() == want
    g = element(1, field, {x1_5: 2})
    assert _hook("dividedpower-binomial-factor", g) == {}
    assert g.partial_combinator() == element(2, field, {})


def test_drop_first_mutant_makes_fraction_coefficients_integral():
    field = FIELDS["Q"]
    theory = cdc.MutatedTheory("powerseries-drop-first-partial", field)
    f = theory.element(2, CAP, field,
                       {MultiIndex.make(((0, 1), (1, 2))): Fraction(1, 2)})
    for got in (_hook("powerseries-drop-first-partial", f),
                f.partial_combinator().coeffs):
        assert got == {MultiIndex.make(((0, 1), (1, 1), (3, 1))): 1}
        assert type(got[next(iter(got))]) is int


def test_mutants_call_no_public_constructor(monkeypatch):
    field = FIELDS["F3"]
    inputs = {m: list(_inputs(cdc.MutatedTheory(m, field), 5))
              for m in cdc.MUTATIONS}

    def refuse(self, shape, coeffs):
        raise AssertionError("public constructor called")

    monkeypatch.setattr(Element, "_build", refuse)
    for mutation, elements in inputs.items():
        for f in elements:
            _hook(mutation, f)
            f.partial_combinator()


# -- the theories that carry them ---------------------------------------------


def test_mutated_theory_differs_from_its_unmutated_theory():
    Q = FIELDS["Q"]
    broken = cdc.MutatedTheory("zinbiel-last-letter", Q)
    real = dm.make_theory("zinbiel", Q)
    assert broken != real and real != broken
    assert not broken == real and not real == broken
    assert hash(broken) != hash(real)
    assert len({broken, real}) == 2
    again = cdc.MutatedTheory("zinbiel-last-letter", Q)
    assert broken == again and hash(broken) == hash(again)
    assert repr(broken) == \
        "Theory(Zinbiel, Q, mutation='zinbiel-last-letter')"
    assert repr(real) == "Theory(Zinbiel, Q)"


@pytest.mark.parametrize("mutation", list(cdc.MUTATIONS))
def test_a_mutated_theory_swaps_in_an_element_class_with_the_mutant(mutation):
    """One subclass of the real element class per mutation, whose only own
    hook is the mutant; its elements equal no element of the real theory."""
    kind, combinator = cdc.MUTATIONS[mutation]
    theory = cdc.MutatedTheory(mutation, FIELDS["Q"])
    real = dm.make_theory(kind, FIELDS["Q"])
    element = theory.element
    assert element.__bases__ == (real.element,)
    assert element.__dict__["_combinator"].__func__ is combinator
    assert {name for name in vars(element) if not name.startswith("__")} == \
        {"_combinator"}
    assert cdc.MutatedTheory(mutation, FIELDS["F5"], 4).element is element
    x, y = theory.eta(0, 1), real.eta(0, 1)
    assert type(x) is element and x.coeffs == y.coeffs
    assert x != y and y != x
    with pytest.raises(ShapeMismatch):
        x + y
    assert not hasattr(theory, "partial") and not hasattr(theory, "combinator")


def test_compose_across_a_mutated_and_a_real_theory_raises():
    Q = FIELDS["Q"]
    broken = cdc.MutatedTheory("powerseries-drop-first-partial", Q)
    real = dm.make_theory("power", Q, 6)
    assert broken.cap == real.cap
    cfg = dm.GenConfig(seed=3)
    p = dm.random_morphism(broken, cfg, 2, 2, max_degree=2, max_terms=2)
    q = dm.random_morphism(real, cfg, 2, 2, max_degree=2, max_terms=2)
    with pytest.raises(ShapeMismatch):
        dm.compose(p, q)
    with pytest.raises(ShapeMismatch):
        dm.compose(q, p)
    with pytest.raises(ShapeMismatch):
        dm.pairing(p, q)
    with pytest.raises(ShapeMismatch):
        dm.Morphism(real, 2, 2, p.components)


def test_unknown_mutation_raises_shape_mismatch():
    with pytest.raises(ShapeMismatch, match="unknown mutation"):
        cdc.MutatedTheory("no-such-mutation", FIELDS["Q"])
    with pytest.raises(ShapeMismatch, match="unknown mutation"):
        dm.mutation_is_caught("no-such-mutation", FIELDS["Q"],
                              dm.GenConfig(seed=1), trials=1)


@pytest.mark.parametrize("trials", [0, -1])
def test_fewer_than_one_trial_raises(trials):
    Q = FIELDS["Q"]
    cfg = dm.GenConfig(seed=1)
    theory = dm.make_theory("trivial", Q)
    with pytest.raises(ValueError, match="at least 1"):
        cdc.run_axiom("CD.1", theory, cfg, trials)
    with pytest.raises(ValueError, match="at least 1"):
        cdc.check_all(theory, cfg, trials)
    for mutation in cdc.MUTATIONS:
        with pytest.raises(ValueError, match="at least 1"):
            dm.mutation_is_caught(mutation, Q, cfg, trials=trials)
