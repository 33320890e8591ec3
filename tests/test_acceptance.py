"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact equality; the only tolerances are wall-clock
budgets.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import itertools
import json
import time
from math import factorial

import diffmonads as dm
from brute_force import (half_shuffle_oracle, int_power,
                         naive_substitute_oracle, symmetrized_expand_oracle)
from diffmonads import (GenConfig, Morphism, compose, dp_power_coeff,
                        is_dlinear, parse_element, prime_field, rationals)

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)


def _report(cid: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid} failed: {detail}"


def test_criterion_1_zinbiel_substitution_expansion():
    started = time.perf_counter()
    tz = dm.make_theory("zinbiel", Q)
    q = parse_element("x1.x2.x1", tz, 2)
    got = q.substitute([parse_element("x1.x2", tz, 3),
                        parse_element("x3", tz, 3)])
    expected = parse_element(
        "x1.x2.x3.x1.x2 + x1.x3.x2.x1.x2 + 2*x1.x3.x1.x2.x2", tz, 3)
    elapsed = time.perf_counter() - started
    _report("1 (word substitution expansion)",
            got == expected and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_divided_composition_structure_constant():
    started = time.perf_counter()
    ok = True
    for field, expected_text in ((Q, "6*x1^[4]*x2^[2]"),
                                 (F5, "x1^[4]*x2^[2]")):
        td = dm.make_theory("divided", field)
        got = parse_element("x1^[2]", td, 1).substitute(
            [parse_element("x1^[2]*x2^[1]", td, 2)])
        ok = ok and got == parse_element(expected_text, td, 2)
    td = dm.make_theory("divided", F2)
    got = parse_element("x1^[2]", td, 1).substitute(
        [parse_element("x1^[2]*x2^[1]", td, 2)])
    ok = ok and got.is_zero()
    elapsed = time.perf_counter() - started
    _report("2 (divided power structure constant 6)",
            ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_3_embedding_incompatibility_witness():
    started = time.perf_counter()
    td = dm.make_theory("divided", Q)
    tz = dm.make_theory("zinbiel", Q)
    f = parse_element("x1^[1]*x2^[1]", td, 2)
    via_divided = dm.divided_to_zinbiel(f.partial_combinator())
    via_words = dm.divided_to_zinbiel(f).partial_combinator()
    expected_divided = parse_element("dx1.x2 + x2.dx1 + dx2.x1 + x1.dx2",
                                     tz, 4, base_arity=2)
    expected_words = parse_element("dx1.x2 + dx2.x1", tz, 4, base_arity=2)
    ok = (via_divided == expected_divided and via_words == expected_words
          and via_divided != via_words)
    elapsed = time.perf_counter() - started
    _report("3 (derivative incompatibility witness)",
            ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_4_full_axiom_suites():
    started = time.perf_counter()
    configs = [
        ("poly", Q, None), ("power", Q, 4), ("power", F5, 4),
        ("divided", Q, None), ("divided", F2, None), ("divided", F3, None),
        ("zinbiel", Q, None), ("zinbiel", F2, None), ("trivial", Q, None),
    ]
    cfg = GenConfig(seed=42)
    failures = []
    for kind, field, cap in configs:
        theory = dm.make_theory(kind, field, cap or 6)
        for report in dm.check_all(theory, cfg, trials=200):
            if not report.passed:
                failures.append((repr(theory), report.axiom,
                                 len(report.failures)))
    elapsed = time.perf_counter() - started
    _report("4 (9 configurations x 200 trials, all axioms)",
            not failures and elapsed < 300.0,
            f"{elapsed:.1f}s {failures if failures else ''}")


def test_criterion_5_mutation_sensitivity():
    cfg = GenConfig(seed=7)
    results = {}
    for mutation, field in [("zinbiel-last-letter", Q),
                            ("powerseries-drop-first-partial", Q),
                            ("dividedpower-binomial-factor", Q)]:
        counts = dm.mutation_is_caught(mutation, field, cfg, trials=200)
        caught_by = [a for a, c in counts.items() if c]
        results[mutation] = caught_by
    ok = all(results.values())
    _report("5 (mutation sensitivity)", ok,
            "; ".join(f"{m}: {v[:3]}" for m, v in results.items()))


def _dp_axioms(field, a, b, n, m) -> bool:
    from diffmonads.scalars import binomial

    lam = field.embed(2)
    checks = [
        a.scale(lam).divided_power(n) == a.divided_power(n).scale(lam ** n),
        a.divided_power(m) * a.divided_power(n) ==
        a.divided_power(m + n).scale(field.embed(binomial(m + n, m))),
        a.divided_power(1) == a,
        (a * b).divided_power(n) == int_power(a, n) * b.divided_power(n),
        (a * b).divided_power(n) == a.divided_power(n) * int_power(b, n),
        (a * b).divided_power(n) ==
        (a.divided_power(n) * b.divided_power(n)).scale(
            field.embed(factorial(n))),
        a.divided_power(n).divided_power(m) ==
        a.divided_power(m * n).scale(field.embed(dp_power_coeff(m, n))),
    ]
    total = a.divided_power(n) + b.divided_power(n)
    for l in range(1, n):
        total = total + a.divided_power(l) * b.divided_power(n - l)
    checks.append((a + b).divided_power(n) == total)
    return all(checks)


def test_criterion_6_divided_power_axioms_exhaustive():
    started = time.perf_counter()
    ok = True
    for field in (Q, F2, F3):
        theory = dm.make_theory("divided", field)
        basis = dm.enumerate_basis(theory, 2, 3)
        for a, b in itertools.product(basis, repeat=2):
            for n in (1, 2, 3):
                for m in (1, 2, 3):
                    ok = ok and _dp_axioms(field, a, b, n, m)
        if field is Q:
            for a in basis:
                for n in (1, 2, 3):
                    ok = ok and a.divided_power(n).scale(
                        Q.embed(factorial(n))) == int_power(a, n)
    elapsed = time.perf_counter() - started
    _report("6 (divided power axioms, exhaustive basis)",
            ok and elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_7_oracle_equivalence():
    ZN = dm.make_theory("zinbiel", Q)
    DP = dm.make_theory("divided", Q)
    PW = dm.make_theory("power", Q, 4)
    ok = True
    # half-shuffle vs interleaving enumeration: all word pairs, length <= 4
    words = dm.enumerate_basis(ZN, 2, 4)
    for a, b in itertools.product(words, repeat=2):
        ok = ok and a.half_shuffle(b) == half_shuffle_oracle(a, b)
    # embedding vs symmetrized expansion: all monomials, degree <= 4
    for f in dm.enumerate_basis(DP, 2, 4):
        ok = ok and dm.divided_to_zinbiel(f) == symmetrized_expand_oracle(f)
    # substitution vs naive expansion: basis against basis pairs
    args_pool = dm.enumerate_basis(PW, 2, 2)
    for f in dm.enumerate_basis(PW, 2, 4):
        for g1, g2 in itertools.product(args_pool, repeat=2):
            ok = ok and f.substitute([g1, g2]) == \
                naive_substitute_oracle(f, [g1, g2])
    # plus 100 random instances each
    cfg = GenConfig(seed=11)
    rng = dm.SplitMix64(11)
    for _ in range(100):
        a = dm.random_element(ZN, cfg, rng, arity=2, max_degree=4, max_terms=2)
        b = dm.random_element(ZN, cfg, rng, arity=2, max_degree=4, max_terms=2)
        ok = ok and a.half_shuffle(b) == half_shuffle_oracle(a, b)
        f = dm.random_element(DP, cfg, rng, arity=2, max_degree=4, max_terms=3)
        ok = ok and dm.divided_to_zinbiel(f) == symmetrized_expand_oracle(f)
        p = dm.random_element(PW, cfg, rng, arity=2, max_degree=4, max_terms=3)
        args = [dm.random_element(PW, cfg, rng, arity=2, max_degree=3,
                                  max_terms=2) for _ in range(2)]
        ok = ok and p.substitute(args) == naive_substitute_oracle(p, args)
    _report("7 (oracle equivalence)", ok)


def test_criterion_8_dlinearity_characterization():
    ok = True
    for kind, cap in (("power", 4), ("poly", None), ("divided", None),
                      ("zinbiel", None), ("trivial", None)):
        theory = dm.make_theory(kind, Q, cap or 6)
        basis = dm.enumerate_basis(theory, 2, 2)
        coeffs = [Q.one(), Q.embed(2)]
        elements = [theory.zero(2)]
        for e in basis:
            for c in coeffs:
                elements.append(e.scale(c))
        for e1, e2 in itertools.combinations(basis, 2):
            for c1 in coeffs:
                for c2 in coeffs:
                    elements.append(e1.scale(c1) + e2.scale(c2))
        for elem in elements:
            p = Morphism(theory, 2, 1, [elem])
            expected = all(d == 1 for d in elem.degrees())
            if is_dlinear(p) != expected:
                ok = False
    _report("8 (D-linear iff combination of unit variables)", ok)


def test_criterion_9_truncation_congruence():
    ok = True
    cfg = GenConfig(seed=13)
    rng = dm.SplitMix64(13)
    for cap in (3, 4, 5, 6):
        theory = dm.make_theory("power", Q, 6)
        for _ in range(25):
            f = dm.random_element(theory, cfg, rng, arity=2, max_degree=6,
                                  max_terms=4)
            gs = [dm.random_element(theory, cfg, rng, arity=2, max_degree=6,
                                    max_terms=3) for _ in range(2)]
            lhs = f.substitute(gs).truncate(cap)
            rhs = f.truncate(cap).substitute([g.truncate(cap) for g in gs])
            ok = ok and lhs == rhs
    _report("9 (truncation congruence)", ok)


def test_criterion_10_cli_determinism():
    import contextlib
    import io

    from diffmonads.cli import main

    def run(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue()

    args = ("check", "--theory", "power", "--field", "F5", "--cap", "4",
            "--seed", "42", "--trials", "25", "--json")
    c1, out1 = run(*args)
    c2, out2 = run(*args)
    c3, out3 = run(*args, "--jobs", "2")
    c4, out4 = run(*args, "--jobs", "8")
    ok = (c1 == c2 == c3 == c4 == 0 and out1 == out2 == out3 == out4
          and json.loads(out1)["passed"])
    _report("10 (CLI byte determinism)", ok)
