import gc

import pytest

import diffmonads as dm
from diffmonads import (Morphism, ShapeMismatch, codiagonal, compose,
                        diagonal, differentiate, identity, injection,
                        interchange_map, is_dlinear, lift_map, linearize,
                        pairing, parse_element, prime_field, product_map,
                        projection, rationals)

Q = rationals()
F5 = prime_field(5)

PW = dm.make_theory("power", Q, 4)
DP = dm.make_theory("divided", Q)
ZN = dm.make_theory("zinbiel", Q)
PL = dm.make_theory("poly", Q)
TR = dm.make_theory("trivial", Q)

ALL_THEORIES = [PW, DP, ZN, PL, TR]


def morph(theory, source, exprs):
    comps = [parse_element(e, theory, source) for e in exprs]
    return Morphism(theory, source, len(comps), comps)


UNIT_LAW_THEORIES = [dm.make_theory(kind, field, cap) for kind in dm.THEORIES
                     for field in (Q, prime_field(2), prime_field(3), F5)
                     for cap in ((1, 2, 6) if kind == "power" else (6,))]


@pytest.mark.parametrize("theory", UNIT_LAW_THEORIES, ids=repr)
def test_unit_tuple_substitutes_as_the_identity(theory):
    x1, x2 = theory.eta(0, 2), theory.eta(1, 2)
    sample = x1 + x2.scale(theory.field.embed(2))
    if theory.spec.product is not None:
        sample = sample + theory.spec.product(x1, x2)
    assert sample.substitute(theory.eta_tuple(2)) == sample


def test_compose_unit_laws():
    for theory in ALL_THEORIES:
        cfg = dm.GenConfig(seed=61)
        p = dm.random_morphism(theory, cfg, 2, 3, max_degree=2, max_terms=2)
        assert compose(identity(theory, 3), p) == p
        assert compose(p, identity(theory, 2)) == p


def test_compose_associative_random():
    cfg = dm.GenConfig(seed=63)
    for theory in ALL_THEORIES:
        rng = dm.SplitMix64(63)
        for _ in range(5):
            f = dm.random_morphism(theory, cfg, 2, 2, rng, max_degree=2,
                                   max_terms=2)
            g = dm.random_morphism(theory, cfg, 2, 2, rng, max_degree=2,
                                   max_terms=2)
            h = dm.random_morphism(theory, cfg, 2, 2, rng, max_degree=2,
                                   max_terms=2)
            assert compose(compose(h, g), f) == compose(h, compose(g, f))


def test_compose_reproduces_worked_examples():
    # words, with the coefficient-2 expansion
    outer = morph(ZN, 2, ["x1.x2.x1"])
    inner = morph(ZN, 3, ["x1.x2", "x3"])
    got = compose(outer, inner)
    assert got == morph(ZN, 3, ["x1.x2.x3.x1.x2 + x1.x3.x2.x1.x2 + 2*x1.x3.x1.x2.x2"])
    # divided powers, with the structure constant 6
    outer = morph(DP, 1, ["x1^[2]"])
    inner = morph(DP, 2, ["x1^[2]*x2^[1]"])
    assert compose(outer, inner) == morph(DP, 2, ["6*x1^[4]*x2^[2]"])


def test_structural_shapes():
    p0 = projection(PW, 1, 1, 0)
    assert p0 == morph(PW, 2, ["x1"])
    nabla = codiagonal(PW, 1)
    assert nabla == morph(PW, 2, ["x1 + x2"])
    i0 = injection(PW, 1, 1, 0)
    assert i0.components[0] == parse_element("x1", PW, 1)
    assert i0.components[1].is_zero()
    d = diagonal(PW, 2)
    assert d == morph(PW, 2, ["x1", "x2", "x1", "x2"])
    ell = lift_map(PW, 1)
    assert ell.components[0] == parse_element("x1", PW, 2)
    assert ell.components[1].is_zero()
    assert ell.components[2].is_zero()
    assert ell.components[3] == parse_element("x2", PW, 2)
    c = interchange_map(PW, 1)
    assert c == morph(PW, 4, ["x1", "x3", "x2", "x4"])


def test_differentiate_examples():
    assert differentiate(identity(PW, 1)) == projection(PW, 1, 1, 1)
    df = differentiate(morph(PW, 2, ["x1*x2"]))
    assert df == Morphism(PW, 4, 1,
                          [parse_element("x2*dx1 + x1*dx2", PW, 4, base_arity=2)])
    dz = differentiate(morph(ZN, 2, ["x1.x2"]))
    assert dz == Morphism(ZN, 4, 1,
                          [parse_element("dx1.x2", ZN, 4, base_arity=2)])


def test_linearize_examples():
    p = morph(PW, 1, ["x1 + x1^2"])
    assert linearize(p) == morph(PW, 1, ["x1"])
    assert is_dlinear(morph(PW, 2, ["2*x1 + 3*x2"]))
    assert not is_dlinear(morph(DP, 1, ["x1^[2]"]))
    assert not is_dlinear(morph(PL, 1, ["x1 + 2"]))  # constants are not linear


def structural_maps(theory):
    return [identity(theory, 2), projection(theory, 2, 1, 0),
            projection(theory, 2, 1, 1), injection(theory, 2, 2, 0),
            injection(theory, 2, 2, 1), codiagonal(theory, 2),
            lift_map(theory, 1), interchange_map(theory, 1),
            diagonal(theory, 2), Morphism.zero(theory, 2, 2)]


def test_structural_maps_are_dlinear():
    for theory in ALL_THEORIES:
        for p in structural_maps(theory):
            assert is_dlinear(p)


@pytest.mark.parametrize("theory", ALL_THEORIES, ids=repr)
def test_dlinear_exactly_when_eta_counit_fixes_every_component(theory):
    # the linearization and the counit characterizations of D-linearity agree
    cfg = dm.GenConfig(seed=67)
    rng = dm.SplitMix64(67)
    maps = structural_maps(theory)
    for _ in range(20):
        p = dm.random_morphism(theory, cfg, 2, 2, rng, max_degree=3,
                               max_terms=3)
        maps += [p, linearize(p)]
    verdicts = set()
    for p in maps:
        by_counit = all(theory.eta_counit(c) == c for c in p.components)
        assert is_dlinear(p) == by_counit
        verdicts.add(by_counit)
    # both sides are reached, but every linear form of the trivial theory is
    # D-linear
    assert verdicts == ({True} if theory.kind == "trivial" else {True, False})


def test_dlinear_maps_compose():
    # linearizations are always D-linear, and D-linear maps are closed
    # under composition
    cfg = dm.GenConfig(seed=65)
    for theory in ALL_THEORIES:
        rng = dm.SplitMix64(65)
        for _ in range(5):
            f = linearize(dm.random_morphism(theory, cfg, 2, 2, rng,
                                             max_degree=2, max_terms=2))
            g = linearize(dm.random_morphism(theory, cfg, 2, 2, rng,
                                             max_degree=2, max_terms=2))
            assert is_dlinear(f) and is_dlinear(g)
            assert is_dlinear(compose(g, f))


def test_dlinear_iff_eta_combination_quick():
    # both directions on a handful of hand-picked morphisms
    positives = [morph(PW, 2, ["x1 + x2", "3*x2"]),
                 morph(ZN, 2, ["2*x1"]),
                 morph(DP, 2, ["x1^[1] + 4*x2^[1]"])]
    negatives = [morph(PW, 2, ["x1^2"]), morph(ZN, 2, ["x1.x2 + x1"]),
                 morph(DP, 2, ["x1^[1]*x2^[1]"])]
    for p in positives:
        assert is_dlinear(p)
        assert all(all(d == 1 for d in c.degrees()) for c in p.components)
    for p in negatives:
        assert not is_dlinear(p)
        assert not all(all(d == 1 for d in c.degrees()) for c in p.components)


def test_pairing_and_product_shapes():
    f = morph(PW, 2, ["x1", "x2"])
    g = morph(PW, 2, ["x1*x2"])
    fg = pairing(f, g)
    assert fg.target == 3 and fg.source == 2
    with pytest.raises(ShapeMismatch):
        pairing(f, morph(PW, 1, ["x1"]))


@pytest.mark.parametrize("theory", ALL_THEORIES, ids=repr)
def test_product_map_projects_onto_its_factors(theory):
    rng = dm.SplitMix64(67)
    cfg = dm.GenConfig(seed=67)
    for n, m, k, l in [(1, 1, 1, 1), (2, 1, 1, 3), (3, 2, 2, 1)]:
        p = dm.random_morphism(theory, cfg, n, m, rng, max_degree=2,
                               max_terms=3)
        q = dm.random_morphism(theory, cfg, k, l, rng, max_degree=2,
                               max_terms=3)
        pq = product_map(p, q)
        assert (pq.source, pq.target, pq.linear) == (n + k, m + l, None)
        assert compose(projection(theory, m, l, 0), pq) == \
            compose(p, projection(theory, n, k, 0))
        assert compose(projection(theory, m, l, 1), pq) == \
            compose(q, projection(theory, n, k, 1))


@pytest.mark.parametrize("theory", ALL_THEORIES, ids=repr)
def test_product_of_structural_maps_takes_the_general_path_alike(theory):
    def general(f):  # the same map, without its linear spec
        return Morphism(theory, f.source, f.target, f.components)

    maps = [identity(theory, 2), projection(theory, 2, 1, 1),
            injection(theory, 1, 2, 0), codiagonal(theory, 2),
            lift_map(theory, 1), Morphism.zero(theory, 2, 1)]
    for f in maps:
        for g in maps:
            fast = product_map(f, g)
            assert fast.linear is not None
            for pair in ((general(f), general(g)), (f, general(g)),
                         (general(f), g)):
                slow = product_map(*pair)
                assert slow.linear is None and slow == fast


def test_compose_shape_errors():
    f = morph(PW, 2, ["x1"])
    with pytest.raises(ShapeMismatch):
        compose(f, f)  # source 2 fed by target 1
    with pytest.raises(ShapeMismatch):
        compose(f, morph(DP, 2, ["x1^[1]"]))  # different theories


def test_trivial_theory_is_linear_only():
    t = TR.eta(0, 2) + TR.eta(1, 2).scale(Q.embed(3))
    assert t.partial_combinator() == parse_element("dx1 + 3*dx2", TR, 4,
                                                   base_arity=2)
    assert is_dlinear(Morphism(TR, 2, 1, [t]))
    with pytest.raises(Exception):
        parse_element("x1^2", TR, 1)  # degree 2 cannot live at cap 1


# -- replay ---------------------------------------------------------------------

# The 9 acceptance configurations: (kind, field, cap).
ACCEPTANCE = [("poly", Q, None), ("power", Q, 4), ("power", F5, 4),
              ("divided", Q, None), ("divided", prime_field(2), None),
              ("divided", prime_field(3), None), ("zinbiel", Q, None),
              ("zinbiel", prime_field(2), None), ("trivial", Q, None)]


def test_failing_trials_replay_alone_from_their_seeds():
    """``run_axiom`` takes its streams in chunks; ``run_trial`` replays one
    trial from ``SplitMix64(seed)`` and must record the same failure."""
    cfg = dm.GenConfig(seed=42)
    replayed = 0
    for mutation in dm.cdc.MUTATIONS:
        for field in (Q, F5):
            theory = dm.MutatedTheory(mutation, field)
            for report in dm.check_all(theory, cfg, 20):
                salt = dm.stable_hash(report.axiom)
                seeds = [dm.mix(42, salt, k) for k in range(20)]
                for failure in report.failures:
                    assert failure.seed in seeds
                    again = dm.cdc.run_trial(report.axiom, theory, cfg,
                                             failure.seed)
                    assert again.to_json() == failure.to_json()
                    replayed += 1
                failed = {f.seed for f in report.failures}
                for seed in seeds[:5]:
                    if seed not in failed:
                        assert dm.cdc.run_trial(report.axiom, theory, cfg,
                                                seed) is None
    assert replayed > 0


@pytest.mark.parametrize("kind,field,cap", ACCEPTANCE)
def test_passing_trials_replay_alone_from_their_seeds(kind, field, cap):
    theory = dm.make_theory(kind, field, cap or 6)
    cfg = dm.GenConfig(seed=42)
    for axiom in dm.cdc.axiom_ids():
        assert dm.cdc.run_axiom(axiom, theory, cfg, 20).passed
        salt = dm.stable_hash(axiom)
        for k in (0, 7, 19):
            assert dm.cdc.run_trial(axiom, theory, cfg,
                                    dm.mix(42, salt, k)) is None


def test_a_check_leaves_no_cyclic_garbage():
    """A check frees what it makes by reference counting: a theory's memos
    hold no morphism that refers back to it, and a trial's draws and
    streams form no cycle.  Cyclic garbage would raise the peak memory of
    every run until a collection."""
    cfg = dm.GenConfig(seed=5)
    gc.collect()
    gc.disable()
    try:
        for kind in dm.THEORIES:
            for field in (Q, F5):
                dm.check_all(dm.make_theory(kind, field), cfg, 20)
                assert gc.collect() == 0, (kind, field)
        for mutation in dm.cdc.MUTATIONS:
            assert any(dm.mutation_is_caught(mutation, F5, cfg,
                                             trials=10).values())
            assert gc.collect() == 0, mutation
    finally:
        gc.enable()
