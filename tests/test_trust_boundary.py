"""Internal results pass the checks of the public constructors.

Elements and morphisms that the library builds itself skip the per-key and
per-component checks: ``Element._make`` compares only the arity with the
class limit, and ``Morphism._make`` checks nothing.  Here both are patched
to run the public checks on every internal result (the keys against the
shape, canonical nonzero coefficients, the component count and every
component's shape), and the axiom checks run under the patch on the 9
acceptance configurations and the 3 near-miss combinators.  Nothing may
raise, and the reports must equal those of an unpatched run.
"""

import pytest

import diffmonads as dm
from diffmonads import cdc
from diffmonads.element import Element
from diffmonads.scalars import canonical

ACCEPTANCE_CONFIGS = [
    ("poly", "Q", None), ("power", "Q", 4), ("power", "F5", 4),
    ("divided", "Q", None), ("divided", "F2", None), ("divided", "F3", None),
    ("zinbiel", "Q", None), ("zinbiel", "F2", None), ("trivial", "Q", None),
]
FIELDS = {"Q": dm.rationals(), "F2": dm.prime_field(2),
          "F3": dm.prime_field(3), "F5": dm.prime_field(5)}
TRIALS = 20


def _theories():
    """Fresh theories, so that no structural map is memoized from before
    the patch."""
    out = [(f"{kind}-{field}", cdc.make_theory(kind, FIELDS[field], cap or 6))
           for kind, field, cap in ACCEPTANCE_CONFIGS]
    for mutation in cdc.MUTATIONS:
        for field in ("Q", "F5"):
            out.append((f"{mutation}-{field}",
                        cdc.MutatedTheory(mutation, FIELDS[field])))
    return out


def _reports() -> dict:
    cfg = dm.GenConfig(seed=42)
    return {name: [r.to_json() for r in cdc.check_all(theory, cfg, TRIALS)]
            for name, theory in _theories()}


def _install_checks(monkeypatch) -> dict:
    """Patch both internal constructors to run the public checks; the
    returned dict counts the elements and morphisms they build."""
    calls = {"elements": 0, "morphisms": 0}
    make = Element.__dict__["_make"].__func__

    def checked_element(cls, shape, coeffs):
        calls["elements"] += 1
        got = make(cls, shape, coeffs)
        got._check_keys()
        p = got.field.p
        for key, c in coeffs.items():
            assert c and canonical(c, p) == c and \
                type(canonical(c, p)) is type(c), (key, c)
        return got

    def checked_morphism(cls, theory, source, target, components,
                         linear=None):
        calls["morphisms"] += 1
        assert type(components) is tuple
        got = cls(theory, source, target, components)
        got.linear = linear
        return got

    monkeypatch.setattr(Element, "_make", classmethod(checked_element))
    monkeypatch.setattr(cdc.Morphism, "_make", classmethod(checked_morphism))
    return calls


def test_internal_results_pass_the_public_checks(monkeypatch):
    calls = _install_checks(monkeypatch)
    patched = _reports()
    assert calls["elements"] > 10_000 and calls["morphisms"] > 1_000
    monkeypatch.undo()
    assert patched == _reports()
    assert any(r["failures"] for name, reports in patched.items()
               if name.startswith(tuple(cdc.MUTATIONS)) for r in reports)


@pytest.mark.parametrize("bad", [
    lambda f: f._make(f.shape, {**f.coeffs, dm.MultiIndex.single(2): 1}),
    lambda f: f._make(f.shape, {**f.coeffs, 0: 1}),
    lambda f: f._make(f.shape, {**f.coeffs, dm.MultiIndex.single(0): 0}),
    lambda f: f._make(f.shape, {**f.coeffs, dm.MultiIndex.single(0): -1}),
    lambda f: cdc.Morphism._make(cdc.make_theory("divided", dm.prime_field(5)),
                                 2, 2, (f,)),
    lambda f: cdc.Morphism._make(cdc.make_theory("divided", dm.prime_field(5)),
                                 3, 1, (f,)),
], ids=["key-past-arity", "constant-key", "zero-coefficient",
        "residue-out-of-range", "component-count", "component-shape"])
def test_the_checks_catch_bad_internal_results(monkeypatch, bad):
    _install_checks(monkeypatch)
    f = dm.DPElement(2, dm.prime_field(5), {dm.MultiIndex.single(1): 3})
    with pytest.raises((dm.ShapeMismatch, dm.NotReduced, AssertionError)):
        bad(f)
