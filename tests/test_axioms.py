import json
import sys
import types
from pathlib import Path

import diffmonads as dm
from diffmonads import GenConfig, prime_field, rationals

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)

CONFIGS = [
    ("poly", Q, None),
    ("power", Q, 4),
    ("power", F5, 4),
    ("divided", Q, None),
    ("divided", F2, None),
    ("divided", F3, None),
    ("zinbiel", Q, None),
    ("zinbiel", F2, None),
    ("trivial", Q, None),
]


def test_axiom_suites_quick_pass():
    cfg = GenConfig(seed=42)
    for kind, field, cap in CONFIGS:
        theory = dm.make_theory(kind, field, cap or 6)
        reports = dm.check_all(theory, cfg, trials=15)
        failing = [r.axiom for r in reports if not r.passed]
        assert not failing, f"{theory}: {failing}"
        assert len(reports) == 18


def test_report_families():
    theory = dm.make_theory("trivial", Q)
    reports = dm.check_all(theory, GenConfig(seed=1), trials=3)
    assert [r.axiom for r in reports] == (
        [f"CD.{i}" for i in range(1, 8)] + [f"dc.{i}" for i in range(1, 7)] +
        ["monad.assoc", "monad.unit-left", "monad.unit-right", "du.1", "du.2"])


def test_mutations_are_caught():
    cfg = GenConfig(seed=7)
    for mutation, field in [("zinbiel-last-letter", Q),
                            ("powerseries-drop-first-partial", Q),
                            ("dividedpower-binomial-factor", Q),
                            ("dividedpower-binomial-factor", F2)]:
        counts = dm.mutation_is_caught(mutation, field, cfg, trials=60)
        assert any(counts.values()), f"{mutation} over {field} went unnoticed"


def test_failures_carry_replayable_seeds():
    cfg = GenConfig(seed=7)
    broken = dm.MutatedTheory("zinbiel-last-letter", Q)
    first = dm.cdc.run_axiom("dc.4", broken, cfg, 60)
    second = dm.cdc.run_axiom("dc.4", broken, cfg, 60)
    assert first.failures and len(first.failures) == len(second.failures)
    for a, b in zip(first.failures, second.failures):
        assert (a.seed, a.inputs, a.lhs, a.rhs) == (b.seed, b.inputs, b.lhs, b.rhs)


def test_failures_keep_objects_and_format_when_written():
    broken = dm.MutatedTheory("zinbiel-last-letter", Q)
    report = dm.cdc.run_axiom("dc.4", broken, GenConfig(seed=7), 60)
    failure = report.failures[0]
    for value in (failure.inputs["f"], failure.lhs, failure.rhs):
        assert isinstance(value, dm.ZinElement)
    base = failure.inputs["g1"].arity  # the trial's n; the sides are over 2n
    assert failure.lhs.arity == 2 * base
    assert failure.to_json() == {
        "seed": failure.seed,
        "inputs": {name: dm.format_element(value, base_arity=value.arity)
                   for name, value in failure.inputs.items()},
        "lhs": dm.format_element(failure.lhs, base_arity=base),
        "rhs": dm.format_element(failure.rhs, base_arity=base)}


def test_bench_traces_every_axiom(monkeypatch):
    # bench/tracing.py names one cdc.axiom.<id>.total_s metric per axiom
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    module = types.ModuleType("_bench_tracing")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    assert module.AXIOMS == tuple(dm.cdc.axiom_ids())


def test_report_json_schema():
    theory = dm.make_theory("trivial", Q)
    report = dm.cdc.run_axiom("CD.1", theory, GenConfig(seed=3), 5)
    data = report.to_json()
    assert set(data) == {"axiom", "trials", "failures"}
    timed = report.to_json(include_millis=True)
    assert set(timed) == {"axiom", "trials", "failures", "millis"}
    json.dumps(data)  # serializable
    broken = dm.MutatedTheory("powerseries-drop-first-partial", Q, 4)
    failing = dm.cdc.run_axiom("dc.3", broken, GenConfig(seed=3), 5)
    blob = failing.to_json()
    assert blob["failures"], "mutation should fail dc.3"
    entry = blob["failures"][0]
    assert set(entry) == {"seed", "inputs", "lhs", "rhs"}


def test_mutated_theory_keeps_monad_structure():
    # mutations only replace the combinator; the monad laws still pass
    cfg = GenConfig(seed=9)
    broken = dm.MutatedTheory("zinbiel-last-letter", Q)
    for axiom in ("monad.assoc", "monad.unit-left", "monad.unit-right", "du.1"):
        assert dm.cdc.run_axiom(axiom, broken, cfg, 10).passed
