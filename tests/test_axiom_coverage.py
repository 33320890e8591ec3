"""Every axiom check can fail: coverage witnesses pinned by their failures.

Each witness is a polynomial theory over Q whose combinator is the real one,
df = ``partial_combinator``, plus a term that breaks some axioms and keeps
others.  None of them is natural, so the theorem's dc/CD correspondence
predicts nothing about them.  At seed 42 and 100 trials each fails exactly
the axioms pinned here; a check miswritten to compare a side with itself
would drop out of a set.

The witnesses are not rows of ``cdc.MUTATIONS``, whose rows are near misses
that the checker must kill.  Between them they fail 13 of the 18 axioms.
The planted substitution defect of ``tests/test_golden.py`` fails the three
monad laws, which never call the combinator.  CD.4 holds for every
combinator, since ``differentiate`` is componentwise, and du.1 calls only
``eta`` and ``counit``.
"""

import pytest

import diffmonads as dm
from diffmonads import cdc
from diffmonads.category import Theory


class _Witness(Theory):
    """The polynomial theory over Q with a witness combinator; its name
    takes part in equality, as a mutation's does."""

    __slots__ = ()

    def __init__(self):
        super().__init__("poly", dm.rationals())


class SquarePlus(_Witness):
    """df + (df)^2."""

    __slots__ = ()
    mutation = "df+(df)^2"

    def partial(self, f):
        d = f.partial_combinator()
        return d + d * d


class FirstDualPlus(_Witness):
    """df + y_0."""

    __slots__ = ()
    mutation = "df+y0"

    def partial(self, f):
        n = f.arity
        return f.partial_combinator() + self.eta(n, 2 * n)


class CurvedDual(_Witness):
    """df along y -> y + y^2: each dual variable replaced by y_i + y_i^2."""

    __slots__ = ()
    mutation = "df(y+y^2)"

    def partial(self, f):
        n = f.arity
        args = [self.eta(i, 2 * n) for i in range(n)]
        args += [y + y * y for y in
                 (self.eta(n + i, 2 * n) for i in range(n))]
        return f.partial_combinator().substitute(args)


class LinearCombinatorPlus(_Witness):
    """df plus the combinator of f's degree-1 part."""

    __slots__ = ()
    mutation = "df+d(linear)"

    def partial(self, f):
        linear = self.eta_counit(f)
        return f.partial_combinator() + linear.partial_combinator()


class LinearPlus(_Witness):
    """df plus f's degree-1 part, over the doubled arity."""

    __slots__ = ()
    mutation = "df+linear"

    def partial(self, f):
        linear = self.eta_counit(f).extend_arity(2 * f.arity)
        return f.partial_combinator() + linear


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


def failing_axioms(theory) -> set:
    reports = cdc.check_all(theory, dm.GenConfig(seed=42), trials=100)
    return {r.axiom for r in reports if not r.passed}


@pytest.mark.parametrize("witness", list(WITNESSES),
                         ids=[w.mutation for w in WITNESSES])
def test_witness_fails_exactly_its_axioms(witness):
    assert failing_axioms(witness()) == WITNESSES[witness]


def test_witnesses_leave_only_the_axioms_the_combinator_cannot_reach():
    covered = set().union(*WITNESSES.values())
    assert set(cdc.axiom_ids()) - covered == {
        "CD.4", "monad.assoc", "monad.unit-left", "monad.unit-right", "du.1"}


def test_the_real_combinator_passes_where_the_witnesses_run():
    assert failing_axioms(dm.make_theory("poly", dm.rationals())) == set()
