"""Every axiom check can fail: coverage witnesses pinned by their failures.

Each combinator witness is a polynomial element class over Q whose
``partial_combinator`` is the real one, df, plus a term that breaks some
axioms and keeps others.  None of them is natural, so the theorem's dc/CD
correspondence predicts nothing about them.  At seed 42 and 100 trials each
fails exactly the axioms pinned here; a check miswritten to compare a side
with itself would drop out of a set.

The witnesses are not rows of ``cdc.MUTATIONS``, whose rows are near misses
that the checker must kill.  Between them they fail 13 of the 18 axioms.
The planted substitution defect of ``tests/test_golden.py`` fails the three
monad laws, which never call the combinator, and so does a divided-power
product whose merge binomials are off by one.  CD.4 holds for every
combinator, since ``differentiate`` is componentwise, so its witness
replaces ``differentiate`` itself; du.1 calls only ``eta`` and ``counit``,
so its witness doubles the unit.

A near miss replaces one hook of an element class, and a theory takes it by
swapping in the subclass (:func:`witness_theory`).  The Leibniz word
combinator is not a near miss but a second structure: a control row, which
must pass every axiom.
"""

import pytest

import diffmonads as dm
from diffmonads import cdc
from diffmonads.category import Morphism, Theory
from diffmonads.dividedpower import DPElement
from diffmonads.powerseries import MultiIndex, SeriesElement
from diffmonads.scalars import accumulate, binomial
from diffmonads.zinbiel import ZinElement

FIELDS = {"Q": dm.rationals(), "F2": dm.prime_field(2),
          "F3": dm.prime_field(3), "F5": dm.prime_field(5)}


def witness_theory(element: type, kind: str = "poly",
                   field=FIELDS["Q"]) -> Theory:
    """The theory ``kind`` over ``field`` whose elements are instances of
    ``element``, a subclass of the kind's element class."""
    theory = Theory(kind, field)
    theory.element = element
    return theory


def _unit(f, v: int, arity: int):
    """x_v over ``arity`` variables, of f's class and cap."""
    return f._make((arity,) + f.shape[1:], {f._key(((v, 1),)): 1})


def _linear_part(f):
    """f's degree-1 part, eta after counit."""
    degree = f._degree
    return f._like({key: c for key, c in f.coeffs.items()
                    if degree(key) == 1})


class SquarePlus(SeriesElement):
    """df + (df)^2."""

    __slots__ = ()
    label = "df+(df)^2"

    def partial_combinator(self):
        d = super().partial_combinator()
        return d + d * d


class FirstDualPlus(SeriesElement):
    """df + y_0."""

    __slots__ = ()
    label = "df+y0"

    def partial_combinator(self):
        n = self.arity
        return super().partial_combinator() + _unit(self, n, 2 * n)


class CurvedDual(SeriesElement):
    """df along y -> y + y^2: each dual variable replaced by y_i + y_i^2."""

    __slots__ = ()
    label = "df(y+y^2)"

    def partial_combinator(self):
        n = self.arity
        args = [_unit(self, i, 2 * n) for i in range(n)]
        args += [y + y * y for y in
                 (_unit(self, n + i, 2 * n) for i in range(n))]
        return super().partial_combinator().substitute(args)


class LinearCombinatorPlus(SeriesElement):
    """df plus the real combinator of f's degree-1 part."""

    __slots__ = ()
    label = "df+d(linear)"

    def partial_combinator(self):
        linear = _linear_part(self)
        return super().partial_combinator() + \
            SeriesElement.partial_combinator(linear)


class LinearPlus(SeriesElement):
    """df plus f's degree-1 part, over the doubled arity."""

    __slots__ = ()
    label = "df+linear"

    def partial_combinator(self):
        linear = _linear_part(self).extend_arity(2 * self.arity)
        return super().partial_combinator() + linear


WITNESSES = {
    SquarePlus: {"CD.1", "CD.2", "CD.3", "CD.5", "CD.7",
                 "dc.2", "dc.3", "dc.4", "dc.6", "du.2"},
    FirstDualPlus: {"CD.1", "CD.3", "CD.5", "CD.7",
                    "dc.3", "dc.4", "dc.6", "du.2"},
    CurvedDual: {"CD.2", "CD.3", "CD.5", "CD.7",
                 "dc.2", "dc.3", "dc.4", "dc.6", "du.2"},
    LinearCombinatorPlus: {"CD.3", "CD.5", "CD.6",
                           "dc.3", "dc.4", "dc.5", "du.2"},
    LinearPlus: {"CD.2", "CD.3", "CD.5", "dc.1", "dc.2", "dc.3", "dc.4"},
}


def failing_axioms(theory, trials: int = 100) -> set:
    reports = cdc.check_all(theory, dm.GenConfig(seed=42), trials=trials)
    return {r.axiom for r in reports if not r.passed}


@pytest.mark.parametrize("witness", list(WITNESSES),
                         ids=[w.label for w in WITNESSES])
def test_witness_fails_exactly_its_axioms(witness):
    assert failing_axioms(witness_theory(witness)) == WITNESSES[witness]


def test_witnesses_leave_only_the_axioms_the_combinator_cannot_reach():
    covered = set().union(*WITNESSES.values())
    assert set(cdc.axiom_ids()) - covered == {
        "CD.4", "monad.assoc", "monad.unit-left", "monad.unit-right", "du.1"}


class DoubledUnit(Theory):
    """The polynomial theory over Q with the real combinator and the monad
    unit x_i doubled to 2*x_i."""

    __slots__ = ()

    def __init__(self):
        super().__init__("poly", FIELDS["Q"])

    def eta(self, i, arity):
        return super().eta(i, arity).scale(2)


def test_a_doubled_unit_fails_du1():
    assert failing_axioms(DoubledUnit()) == {"du.1", "monad.unit-left"}


def test_a_differentiate_that_reverses_its_components_fails_cd4(monkeypatch):
    differentiate = cdc.differentiate

    def reversed_differentiate(p):
        d = differentiate(p)
        return Morphism._make(d.theory, d.source, d.target,
                              d.components[::-1])

    monkeypatch.setattr(cdc, "differentiate", reversed_differentiate)
    assert failing_axioms(dm.make_theory("poly", dm.rationals())) == {
        "CD.3", "CD.4", "CD.5", "CD.6"}


class MergePlusOne(DPElement):
    """Divided powers whose product takes C(e+f, e) + 1 in place of the
    merge binomial C(e+f, e) of each shared variable.  The divided power
    ``_power`` is the real one, so only products of two factors change."""

    __slots__ = ()

    def _times(self, a: dict, b: dict) -> dict:
        p = self.field.p
        out: dict = {}
        for ka, ca in a.items():
            pairs = MultiIndex.pairs(ka)
            for kb, cb in b.items():
                c = ca * cb
                for v, e in pairs:
                    f = MultiIndex.exponent(kb, v)
                    if f:
                        c *= binomial(e + f, e) + 1
                accumulate(out, ka + kb, c, p)
        return out


@pytest.mark.parametrize("field", list(FIELDS))
def test_a_near_miss_of_the_product_fails_the_substitution_axioms(field):
    """A near miss that is not a combinator: CD.5 and dc.4 substitute
    random elements, and monad.assoc substitutes twice."""
    theory = witness_theory(MergePlusOne, "divided", FIELDS[field])
    assert failing_axioms(theory) == {"CD.5", "dc.4", "monad.assoc"}


class Leibniz(ZinElement):
    """The Leibniz word combinator: each letter retagged in turn into the
    dual block, where the library's retags only the first letter."""

    __slots__ = ()

    @staticmethod
    def _combinator(coeffs: dict, n: int, p: int | None) -> dict:
        out: dict = {}
        for w, c in coeffs.items():
            for i, v in enumerate(w):
                accumulate(out, w[:i] + (n + v,) + w[i + 1:], c, p)
        return out


@pytest.mark.parametrize("field", list(FIELDS))
def test_the_leibniz_control_passes_every_axiom(field):
    """A second structure, not a near miss: a change that makes any axiom
    reject it has made the checker wrong, not stronger."""
    theory = witness_theory(Leibniz, "zinbiel", FIELDS[field])
    x0_x1 = theory.element(2, theory.field, {(0, 1): 1})
    assert x0_x1.partial_combinator().coeffs == {(2, 1): 1, (0, 3): 1}
    assert failing_axioms(theory, trials=200) == set()


def test_a_theory_equals_no_theory_of_another_element_class():
    """A theory whose elements have a combinator of their own is another
    theory: its morphisms do not compose with the real theory's.  So is a
    theory of another class with the same elements."""

    class Doubled(SeriesElement):
        __slots__ = ()

        def partial_combinator(self):
            return super().partial_combinator().scale(2)

    Q = FIELDS["Q"]
    real, doubled = dm.make_theory("poly", Q), witness_theory(Doubled)
    assert doubled != real and real != doubled
    assert len({real, doubled}) == 2
    assert doubled == witness_theory(Doubled)
    assert hash(doubled) == hash(witness_theory(Doubled))
    assert DoubledUnit() != real and DoubledUnit().element is real.element
    f = dm.Morphism(real, 1, 1, [dm.parse_element("x1^2", real, 1)])
    g = dm.Morphism(doubled, 1, 1, [dm.parse_element("x1^2", doubled, 1)])
    assert f.components != g.components
    for outer, inner in ((f, g), (g, f), (f, dm.identity(doubled, 1))):
        with pytest.raises(dm.ShapeMismatch):
            dm.compose(outer, inner)


def test_the_real_combinator_passes_where_the_witnesses_run():
    assert failing_axioms(dm.make_theory("poly", dm.rationals())) == set()
