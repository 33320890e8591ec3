"""Substitution along linear maps against the generic substitution.

``substitute_linear(spec, m)`` rewrites keys directly, or gives None where
the keys cannot follow the spec (packed monomials follow a spec whose
targets are pairwise distinct, at summed exponents up to 1, and decline one
with a repeated target or an element with a summed exponent above 1);
substituting the materialized sums of variables is its oracle.  Both run on
random elements of the 9 acceptance configurations, for fixed specs that
cover zero entries, sums of two and three variables, shared targets and a
variable repeated in one sum, and for specs drawn at random.  Composing with
a structural map, which falls back to the generic substitution where the
rewrite gives None, is checked against composing with its components.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import diffmonads as dm
from diffmonads import cdc
from diffmonads import (Morphism, ShapeMismatch, TooLarge, ZinElement,
                        codiagonal, compose, diagonal, identity, injection,
                        interchange_map, lift_map, pairing, prime_field,
                        product_map, projection, rationals)
from diffmonads.powerseries import MultiIndex

CONFIGS = [("poly", None, None), ("power", None, 4), ("power", 5, 4),
           ("divided", None, None), ("divided", 2, None),
           ("divided", 3, None), ("zinbiel", None, None),
           ("zinbiel", 2, None), ("trivial", None, None)]

THEORIES = [dm.make_theory(kind, rationals() if p is None else prime_field(p),
                           cap or 6) for kind, p, cap in CONFIGS]
IDS = [repr(t) for t in THEORIES]

# (arity of the element, target arity, spec)
SPECS = [
    (2, 2, ((0,), ())),                 # a zero entry
    (2, 3, ((0, 1), (1, 2, 0))),        # sums of two and three variables
    (3, 2, ((0,), (0,), (1,))),         # two variables land on one
    (3, 3, ((1,), (0, 2), (2, 1))),     # shared targets inside sums
    (2, 2, ((0, 0), (1,))),             # a variable repeated in one sum
    (3, 4, ((3,), (), (0, 1, 2))),
    (2, 4, ((1,), (2,))),               # a renaming into a wider block
    (3, 3, ((2,), (0,), (1,))),         # a permutation
]


def is_renaming(spec):
    """Every variable goes to one variable or to zero, no two to one."""
    targets = [v for v in spec if v]
    return all(len(v) == 1 for v in targets) and \
        len(set(targets)) == len(targets)


def unit(theory, v, arity):
    """x_v through the public constructor, which checks its key; ``eta``
    reads the memoized components of the identity instead."""
    key = theory.element._key(((v, 1),))
    return theory.element.from_terms(*theory.shapes[arity], [(key, 1)])


def images(theory, spec, arity):
    """The materialized arguments: each entry's sum of unit variables."""
    out = []
    for variables in spec:
        elem = theory.zero(arity)
        for v in variables:
            elem = elem + unit(theory, v, arity)
        out.append(elem)
    return out


def random_element(theory, seed, arity):
    cfg = dm.GenConfig(seed=seed)
    return dm.random_element(theory, cfg, dm.SplitMix64(seed), arity=arity,
                             max_degree=4, max_terms=4)


def assert_agrees(theory, f, spec, arity):
    """The rewrite equals the oracle, and so does composing with the
    structural map; only packed monomials may decline the rewrite, and only
    for a spec that is not a renaming."""
    expected = f.substitute(images(theory, spec, arity), arity=arity)
    got = f.substitute_linear(spec, arity)
    if got is None:
        assert not isinstance(f, ZinElement) and not is_renaming(spec)
    else:
        assert got == expected
    outer = Morphism(theory, len(spec), 1, (f,))
    assert compose(outer, theory.linear_map(arity, spec)).components == \
        (expected,)


@pytest.mark.parametrize("theory", THEORIES, ids=IDS)
@pytest.mark.parametrize("n,m,spec", SPECS)
def test_fixed_specs_agree_with_generic_substitution(theory, n, m, spec):
    for seed in range(25):
        assert_agrees(theory, random_element(theory, seed, n), spec, m)


@st.composite
def _case(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    sums = st.lists(st.integers(0, m - 1), max_size=3).map(tuple)
    spec = tuple(draw(sums) for _ in range(n))
    return n, m, spec, draw(st.integers(0, 2 ** 32))


@pytest.mark.parametrize("theory", THEORIES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(_case())
def test_random_specs_agree_with_generic_substitution(theory, case):
    n, m, spec, seed = case
    assert_agrees(theory, random_element(theory, seed, n), spec, m)


def test_divided_merge_binomial_along_the_diagonal():
    # x1^[2]*x2^[1] with both variables sent to x1 is C(3, 1) x1^[3]
    td = dm.make_theory("divided", rationals())
    f = Morphism(td, 2, 1, (dm.parse_element("x1^[2]*x2^[1]", td, 2),))
    got = compose(f, diagonal(td, 1))
    assert got.components == (dm.parse_element("3*x1^[3]", td, 1),)


def test_linear_specs_are_checked():
    f = random_element(THEORIES[0], 1, 2)
    with pytest.raises(ShapeMismatch):
        f.substitute_linear(((0,),), 2)
    with pytest.raises(ShapeMismatch):
        f.substitute_linear(((0,), (2,)), 2)
    with pytest.raises(ShapeMismatch):
        f.substitute_linear(((0,), (-1,)), 2)


@pytest.mark.parametrize("kind,text,source,spec", [
    ("poly", "x1^3000", 3, ((0, 1, 2),)),
    ("power", "x1^3000", 3, ((0, 1, 2),)),
    ("divided", "x1^[3000]", 3, ((0, 1, 2),)),
    ("zinbiel", ".".join(["x1"] * 24), 3, ((0, 1, 2),)),
    ("poly", "x1^3000", 2, ((0, 1),)),      # the sum map 1 x 1 -> 1
    ("power", "x1^3000", 2, ((0, 1),)),
])
def test_large_linear_substitution_raises_too_large(kind, text, source, spec):
    theory = dm.make_theory(kind, rationals(), 5000)
    f = Morphism(theory, 1, 1, (dm.parse_element(text, theory, 1),))
    with pytest.raises(TooLarge):
        compose(f, theory.linear_map(source, spec))


def _structural_maps(theory, n, m):
    p0, p1 = projection(theory, n, n, 0), projection(theory, n, n, 1)
    return [identity(theory, n), projection(theory, n, m, 0),
            projection(theory, n, m, 1), injection(theory, n, m, 0),
            injection(theory, n, m, 1), diagonal(theory, n),
            codiagonal(theory, n), lift_map(theory, n),
            interchange_map(theory, n), Morphism.zero(theory, n, m),
            product_map(identity(theory, n), codiagonal(theory, n)),
            pairing(p0, p1), product_map(p0, injection(theory, m, n, 1))]


@pytest.mark.parametrize("theory", THEORIES, ids=IDS)
def test_compose_with_structural_maps_agrees_with_components(theory):
    cfg = dm.GenConfig(seed=5)
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 3)):
        for k, s in enumerate(_structural_maps(theory, n, m)):
            assert s.linear is not None
            materialized = Morphism(theory, s.source, s.target, s.components)
            assert materialized.linear is None
            assert s.components == tuple(images(theory, s.linear, s.source))
            f = dm.random_morphism(theory, cfg, s.target, 2,
                                   dm.SplitMix64(100 * n + 10 * m + k),
                                   max_degree=3, max_terms=3)
            assert compose(f, s) == compose(f, materialized)


@pytest.mark.parametrize("theory", THEORIES, ids=IDS)
def test_lift_and_interchange_specs_match_their_definitions(theory):
    for n in (1, 2, 3):
        p0, p1 = projection(theory, n, n, 0), projection(theory, n, n, 1)
        assert lift_map(theory, n).linear == product_map(
            injection(theory, n, n, 0), injection(theory, n, n, 1)).linear
        assert interchange_map(theory, n).linear == pairing(
            product_map(p0, p0), product_map(p1, p1)).linear


def test_structural_maps_are_memoized_per_theory():
    """make_theory interns: equal arguments give the same theory, and so the
    same structural morphism; another field, cap or kind gives another
    theory.  A theory built directly has memos of its own."""
    theory = dm.make_theory("divided", rationals())
    assert dm.make_theory("divided", rationals()) is theory
    assert dm.make_theory("divided", rationals(), 4) is theory  # no cap
    first = lift_map(theory, 2)
    assert lift_map(dm.make_theory("divided", rationals()), 2) is first
    power = dm.make_theory("power", rationals(), 4)
    assert dm.make_theory("power", rationals(), 4) is power
    others = [dm.make_theory("divided", prime_field(3)),
              dm.make_theory("power", rationals(), 5),
              dm.make_theory("zinbiel", rationals())]
    assert len({id(t) for t in [theory, power] + others}) == 5
    assert all(lift_map(t, 2) is not lift_map(theory, 2) for t in others)
    private = cdc.Theory("divided", rationals())
    assert private == theory and private is not theory
    assert private.units == private.structural == private.samplers == {}
    assert lift_map(private, 2).components is not first.components
    assert lift_map(private, 2) == first
    assert dm.make_theory("divided", rationals()) is theory


# -- structural components against sums of units ------------------------------------

ORACLE_FIELDS = [rationals(), prime_field(2), prime_field(3), prime_field(5)]
ORACLE_THEORIES = [dm.make_theory(kind, field, 4)
                   for kind in ("poly", "power", "divided", "zinbiel",
                                "trivial")
                   for field in ORACLE_FIELDS]
ORACLE_IDS = [repr(t) for t in ORACLE_THEORIES]


def axiom_specs(theory):
    """(source, spec) of every structural map that the axioms build from
    arities 1..3: the maps of the CD axioms, which the dc axioms compose
    along too, and the units of the monad laws and of dc.3 (at arity 2n),
    which are the identity's components."""
    out = set()
    for n in (1, 2, 3):
        one = identity(theory, n)
        maps = [one, identity(theory, 2 * n), lift_map(theory, n),
                interchange_map(theory, n), injection(theory, n, n, 0),
                injection(theory, n, n, 1), codiagonal(theory, n),
                product_map(one, codiagonal(theory, n))]
        for m in (1, 2, 3):
            maps += [projection(theory, n, m, 0), projection(theory, n, m, 1),
                     projection(theory, n + m, n + m, 1),
                     product_map(one, projection(theory, n, n, m % 2)),
                     Morphism.zero(theory, n, m),
                     Morphism.zero(theory, 2 * n, m)]
        out |= {(s.source, s.linear) for s in maps}
    return out


def test_axiom_specs_cover_what_the_axioms_build(monkeypatch):
    theory = dm.make_theory("divided", prime_field(3))
    built = set()
    linear_map = cdc.Theory.linear_map

    def spy(self, source, spec):
        built.add((source, spec))
        return linear_map(self, source, spec)

    monkeypatch.setattr(cdc.Theory, "linear_map", spy)
    cdc.check_all(theory, dm.GenConfig(seed=3), trials=30)
    assert built and built <= axiom_specs(theory)


@pytest.mark.parametrize("theory", ORACLE_THEORIES, ids=ORACLE_IDS)
def test_structural_components_are_sums_of_units(theory):
    for source, spec in sorted(axiom_specs(theory)):
        assert theory.linear_map(source, spec).components == \
            tuple(images(theory, spec, source))


@pytest.mark.parametrize("theory", ORACLE_THEORIES, ids=ORACLE_IDS)
def test_eta_reads_the_units_of_the_identity(theory):
    for arity in (1, 2, 4):
        units = identity(theory, arity).components
        for i in range(arity):
            assert theory.eta(i, arity) is units[i]
            assert units[i] == unit(theory, i, arity)
    for i, arity in ((2, 1), (-1, 2), (0, 0)):
        with pytest.raises(ShapeMismatch, match=f"^variable {i} out of range "
                                                f"for arity {arity}$"):
            theory.eta(i, arity)


@pytest.mark.parametrize("theory", ORACLE_THEORIES, ids=ORACLE_IDS)
def test_repeated_variables_add_up(theory):
    got, = theory.linear_map(2, ((0, 0),)).components
    assert [got] == images(theory, ((0, 0),), 2)
    if theory.field.p == 2:
        assert got.is_zero()
    else:
        assert got == theory.eta(0, 2).scale(theory.field.embed(2))
        assert got.coeffs == {theory.element._key(((0, 1),)): 2}
    for spec in (((2,),), ((0, 2),), ((-1,),), ((), (0, 5))):
        with pytest.raises(ShapeMismatch):
            theory.linear_map(2, spec).components


def has_repeated_target(spec):
    """Some variable is a target twice: of two variables, or twice in one
    sum."""
    targets = [t for variables in spec for t in variables]
    return len(set(targets)) != len(targets)


def is_summed_power(key, spec):
    """The packed ``key`` has an exponent above 1 on a variable that
    ``spec`` sends to a sum."""
    return any(MultiIndex.exponent(key, v) > 1
               for v, variables in enumerate(spec) if len(variables) > 1)


def has_summed_power(f, spec):
    return any(is_summed_power(key, spec) for key in f.coeffs)


def without_summed_powers(f, spec):
    """``f`` without its keys of a summed power: the part that the key
    rewrite follows."""
    return f._like({key: c for key, c in f.coeffs.items()
                    if not is_summed_power(key, spec)})


def past_p(theory, arity):
    """Monomials x_v^e with e at and past p (2 and 3 over Q) on each
    variable v, and their product with x_0, within the theory's cap; over Q
    with coefficient 1/2, so that a rewrite that multiplied coefficients
    could make it integral."""
    p = theory.field.p or 2
    cap = theory.cap or 2 * p + 2
    c = Fraction(1, 2) if theory.field.p is None else 1
    key = theory.element._key
    terms = [(key(((v, e),)), c) for v in range(arity) for e in (p, p + 1)
             if e <= cap]
    terms += [(key(((v, e), (0, 1))), c) for v in range(arity)
              for e in (p, p + 1) if e + 1 <= cap]
    return theory.element.from_terms(*theory.shapes[arity], terms)


@pytest.mark.parametrize("theory", ORACLE_THEORIES, ids=ORACLE_IDS)
def test_axiom_specs_rewrite_like_the_generic_substitution(theory):
    """Along every structural map of the axioms, and the diagonal, the key
    rewrite equals the substitution of the map's components, with canonical
    coefficients.  It declines only for packed monomials: a spec with a
    repeated target (the diagonal), or an element with a summed exponent
    above 1, such as one at and past p.  The random elements run both
    whole and without their summed powers, so that the sums are rewritten."""
    packed = theory.element is not ZinElement
    specs = axiom_specs(theory) | {(n, diagonal(theory, n).linear)
                                   for n in (1, 2, 3)}
    for arity, spec in sorted(specs):
        comps = theory.linear_map(arity, spec).components
        elements = []
        for seed in range(6):
            f = random_element(theory, seed, len(spec))
            elements += [f, without_summed_powers(f, spec)] if packed else [f]
        if theory.cap != 1:
            elements.append(past_p(theory, len(spec)))
        for f in elements:
            got = f.substitute_linear(spec, arity)
            declines = packed and (has_repeated_target(spec)
                                   or has_summed_power(f, spec))
            assert (got is None) == declines
            if got is not None:
                assert got == f.substitute(comps, arity=arity)
                assert all(c and (type(c) is int or c.denominator != 1)
                           for c in got.coeffs.values())


@pytest.mark.parametrize("kind,cap", [("poly", None), ("power", 20000),
                                      ("divided", None)])
def test_a_high_power_of_a_renamed_variable_composes_along_a_sum(kind, cap):
    """x1^10 * x2^10000 along (x1 + x2, x3): the rewrite declines the summed
    power and the generic substitution composes its 11 terms, as the
    exponent of the renamed x2 costs nothing to expand."""
    theory = dm.make_theory(kind, rationals(), cap or 6)
    text = "x1^[10]*x2^[10000]" if kind == "divided" else "x1^10*x2^10000"
    f = dm.parse_element(text, theory, 2)
    sum_then_rename = product_map(codiagonal(theory, 1), identity(theory, 1))
    assert sum_then_rename.linear == ((0, 1), (2,))
    assert f.substitute_linear(sum_then_rename.linear, 3) is None
    got = compose(Morphism(theory, 2, 1, (f,)), sum_then_rename)
    assert len(got.components[0].coeffs) == 11
