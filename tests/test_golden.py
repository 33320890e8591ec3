"""Golden failure output: the formatted counterexamples of the mutants and of
a defect planted in substitution.

The mutation tests only count failures.  This pins the full text of every
failure report (inputs, lhs, rhs, and so term order and coefficient text) for
the three near-miss combinators over Q and F5, and for a substitution that
drops a term, so that a change of key or coefficient representation, or of
how a report writes its elements and morphisms, cannot alter what a failure
prints.
"""

import hashlib
import json

import diffmonads as dm
from diffmonads import cdc

GOLDEN_SHA256 = "942dab6150aaefd8b1c38c0b0d438acedf4a8ae07cd881dc3948e2392c1a0034"


def _golden_payload() -> list:
    cfg = dm.GenConfig(seed=42)
    payload = []
    for mutation in cdc.MUTATIONS:
        for field in (dm.rationals(), dm.prime_field(5)):
            reports = cdc.check_all(cdc.MutatedTheory(mutation, field), cfg,
                                    trials=10)
            payload.append({"mutation": mutation, "field": repr(field),
                            "reports": [r.to_json() for r in reports]})
    return payload


def test_mutant_failure_reports_are_unchanged():
    payload = _golden_payload()
    assert sum(len(r["failures"]) for p in payload for r in p["reports"]) > 0
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256


# The 9 acceptance configurations of tests/test_acceptance.py, in that order.
ACCEPTANCE_CONFIGS = [
    ("poly", "Q", None), ("power", "Q", 4), ("power", "F5", 4),
    ("divided", "Q", None), ("divided", "F2", None), ("divided", "F3", None),
    ("zinbiel", "Q", None), ("zinbiel", "F2", None), ("trivial", "Q", None),
]

ACCEPTANCE_SHA256 = \
    "132c5ca4c7b58529de7db48c12e2120edd011e64d33e2370b50f9cb8b1cbf8a9"


def test_acceptance_check_json_is_unchanged():
    """The concatenated ``check --json`` of the passing acceptance run at
    seed 42 with 50 trials; per-trial seeds make it a prefix of the 200-trial
    run, trial by trial."""
    import contextlib
    import io

    from diffmonads.cli import main

    text = ""
    for kind, field, cap in ACCEPTANCE_CONFIGS:
        argv = ["check", "--theory", kind, "--field", field, "--seed", "42",
                "--trials", "50", "--json"]
        if cap is not None:
            argv += ["--cap", str(cap)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        text += out.getvalue()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        ACCEPTANCE_SHA256


# Failure text that no mutant of cdc.MUTATIONS produces: a defect planted in
# substitution makes the monad laws fail, and CD.2, CD.5, dc.2 and dc.4 too.
PLANTED_CONFIGS = [("poly", "Q", 6), ("power", "F5", 4), ("divided", "F3", None),
                   ("zinbiel", "Q", None)]

PLANTED_SHA256 = \
    "8e6b56c72dd1b57e0d378a06518ddc973fb52f1b60dff1b03d39c4050888bed2"


def _drop_smallest_key(substitute):
    """``substitute`` with the smallest key of a result of more than one term
    dropped."""
    def planted(self, *args, **kwargs):
        got = substitute(self, *args, **kwargs)
        if len(got.coeffs) > 1:
            smallest = min(got.coeffs)
            got = got._like({key: c for key, c in got.coeffs.items()
                             if key != smallest})
        return got
    return planted


def test_planted_substitution_defect_reports_are_unchanged(monkeypatch):
    fields = {"Q": dm.rationals(), "F3": dm.prime_field(3),
              "F5": dm.prime_field(5)}
    # built before the defect: make_theory's registration check substitutes
    theories = [dm.make_theory(kind, fields[field], cap)
                for kind, field, cap in PLANTED_CONFIGS]
    for cls in (dm.SeriesElement, dm.DPElement, dm.ZinElement):
        monkeypatch.setattr(cls, "substitute",
                            _drop_smallest_key(cls.substitute))
    cfg = dm.GenConfig(seed=42)
    payload = [[r.to_json() for r in cdc.check_all(t, cfg, trials=30)]
               for t in theories]
    failing = {r["axiom"] for reports in payload for r in reports
               if r["failures"]}
    assert {"CD.2", "CD.5", "dc.2", "dc.4", "monad.assoc", "monad.unit-left",
            "monad.unit-right"} <= failing
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PLANTED_SHA256
