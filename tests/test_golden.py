"""Golden failure output: the formatted counterexamples of the mutants.

The mutation tests only count failures.  This pins the full text of every
failure report (inputs, lhs, rhs, and so term order and coefficient text) for
the three near-miss combinators over Q and F5, so that a change of key or
coefficient representation cannot alter what a failure prints.
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
