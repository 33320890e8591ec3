"""The theorem's hypothesis as a test: the differential combinator is a
natural transformation, and a derivation of each theory's product.

Naturality: for f over n variables and a linear map A: m -> n with
arbitrary coefficients, d(f o A) = df o (A x A).  The axioms compose only
along structural maps, whose coefficients are 0 and 1, and along random
morphisms of the theory, so none of them tests this.

Product rule: for poly, power and divided, d(fg) = df.g + f.dg, with f and
g extended to the doubled arity; for words, d(a < b) = da < b, a left
derivation of the half-shuffle.  The trivial theory has no product.  The
combinator and the products share no code, so each checks the other.

Every theory passes both over Q, F2, F3 and F5.  Each near-miss combinator
of ``cdc.MUTATIONS`` fails at least one of them.
"""

import pytest

import diffmonads as dm
from diffmonads import category, cdc
from diffmonads.category import Morphism, compose, differentiate, product_map
from diffmonads.generators import GenConfig, SplitMix64, random_element

FIELDS = {"Q": dm.rationals(), "F2": dm.prime_field(2),
          "F3": dm.prime_field(3), "F5": dm.prime_field(5)}
PAIRS = 200
_CFG = GenConfig(seed=0)


def _random(theory, rng, arity: int, max_degree: int):
    return random_element(theory, _CFG, rng, arity=arity,
                          max_degree=max_degree, max_terms=3)


def _linear_map(theory, rng, source: int, target: int) -> Morphism:
    """A: source -> target, each component a linear form with coefficients
    in -2..2 (possibly zero)."""
    comps = []
    for _ in range(target):
        form = theory.zero(source)
        for v in range(source):
            form = form + theory.eta(v, source).scale(rng.randint(-2, 2))
        comps.append(form)
    return Morphism(theory, source, target, comps)


def naturality_holds(theory, rng) -> bool:
    """d(f o A) = df o (A x A) for a random f: n -> 1 and A: m -> n."""
    n, m = rng.randint(1, 2), rng.randint(1, 2)
    f = Morphism(theory, n, 1, (_random(theory, rng, n, 3),))
    a = _linear_map(theory, rng, m, n)
    return differentiate(compose(f, a)) == \
        compose(differentiate(f), product_map(a, a))


def _leibniz(theory, f, g, lift) -> bool:
    """d(fg) = df.g + f.dg."""
    d, mul = theory.partial, theory.spec.product
    return d(mul(f, g)) == mul(d(f), lift(g)) + mul(lift(f), d(g))


def _left_leibniz(theory, a, b, lift) -> bool:
    """d(a < b) = da < b."""
    d, mul = theory.partial, theory.spec.product
    return d(mul(a, b)) == mul(d(a), lift(b))


PRODUCT_RULES = {"poly": _leibniz, "power": _leibniz, "divided": _leibniz,
                 "zinbiel": _left_leibniz}


def product_rule_holds(theory, rng) -> bool:
    """The theory's product rule for random f and g of degree at most 2."""
    n = rng.randint(1, 2)
    f, g = _random(theory, rng, n, 2), _random(theory, rng, n, 2)
    return PRODUCT_RULES[theory.kind](
        theory, f, g, lambda h: h.extend_arity(2 * n))


def failures(prop, theory) -> int:
    """How many of PAIRS seeded draws break ``prop``."""
    return sum(not prop(theory, SplitMix64(seed)) for seed in range(PAIRS))


def test_every_product_has_a_rule():
    assert set(PRODUCT_RULES) == {kind for kind, spec in
                                  category.THEORIES.items()
                                  if spec.product is not None}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", category.THEORIES)
def test_the_combinator_is_natural(kind, field):
    assert failures(naturality_holds,
                    category.make_theory(kind, FIELDS[field])) == 0


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", PRODUCT_RULES)
def test_the_combinator_is_a_derivation(kind, field):
    assert failures(product_rule_holds,
                    category.make_theory(kind, FIELDS[field])) == 0


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("mutation", cdc.MUTATIONS)
def test_each_mutant_breaks_a_hypothesis(mutation, field):
    theory = cdc.MutatedTheory(mutation, FIELDS[field])
    assert failures(naturality_holds, theory) + \
        failures(product_rule_holds, theory) > 0
