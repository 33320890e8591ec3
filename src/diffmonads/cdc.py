"""Exact checks of the Cartesian differential axioms on ``category``.

Two axiom families are checked by exact equality on randomly generated
instances:

* the seven differential-combinator axioms CD.1..CD.7, stated on morphisms;
* the six combinator-transformation axioms dc.1..dc.6 in their monad form,
  stated on single elements, together with the monad laws and the two
  counit laws du.1/du.2.

An axiom only states equations.  Given the theory and the draws of one trial,
it is a generator of ``(inputs, lhs, rhs, base)``: the drawn inputs by name,
the two sides, and the size of the base variable block that the sides are
written against (inputs are written at their own arity).  :func:`run_axiom`
compares each pair and records the first unequal one as a :class:`Failure`,
which keeps the objects and formats them only when a report is written.  The
generator is lazy, so nothing after a failing equation is computed.

Trial seeds derive deterministically from (master seed, axiom id, trial
index), so a failure report replays exactly.  Composition-heavy axioms use
smaller element bounds than the linear ones: without a degree cap, word
lengths and degrees multiply under substitution, and the uncapped theories
would otherwise blow up combinatorially.  The draws are bounded by
construction, not by what a user gives, so the trials run under a size
budget of their own (``CHECK_LIMIT``).

This module loads on first use, and ``generators`` with it; a report
imports ``syntax`` when it writes an element (:func:`_text`).
"""

from __future__ import annotations

import time

from . import generators
# What the checker uses, and make_theory, which it does not: bench/tracing.py
# wraps cdc.compose, cdc.differentiate, cdc.make_theory and cdc.run_axiom,
# found in vars(cdc), and bench/workloads.py reads cdc.MUTATIONS.
from .category import (Morphism, Theory, along, codiagonal, compose,
                       differentiate, identity, injection, interchange_map,
                       interned_theory, lift_map, make_theory, pairing,
                       product_map, projection)
from .dividedpower import DPElement
from .element import Element
from .errors import ShapeMismatch, TooLarge
from .powerseries import MAX_DEGREE, WIDTH, SeriesElement, _combinator_coeffs
from .scalars import FieldSpec, size_budget
from .zinbiel import ZinElement


# -- axiom reports ------------------------------------------------------------


def _text(value, base: int | None = None) -> str:
    """How a report writes a value: an element through :func:`format_element`
    and a morphism as ``[c1; c2]`` of its components, both with ``base``
    variables in the base block (their own arity by default); a tuple of
    scalars as the list of their texts; anything else through ``str``."""
    if isinstance(value, Morphism):
        return "[" + "; ".join(_text(c, base) for c in value.components) + "]"
    if isinstance(value, Element):
        from .syntax import format_element

        return format_element(value, base_arity=base)
    if isinstance(value, tuple):
        return str([str(v) for v in value])
    return str(value)


class _Record:
    """The repr and the equality of a record over its ``__slots__``, written
    as a dataclass writes them: ``Name(field=value, ...)``, and equal to a
    record of the same class with equal fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()


class Failure(_Record):
    """The first unequal equation of a trial: the trial's seed, the inputs it
    drew by name, the two sides, and the base block size of the sides.

    Inputs and sides are kept as the objects the axiom stated (elements,
    morphisms, scalar tuples, numbers or text), so a failure can be replayed
    or shrunk.  Only :meth:`to_json` writes them: inputs at their own arity,
    the sides with ``base`` variables in the base block.
    """

    __slots__ = ("seed", "inputs", "lhs", "rhs", "base")

    def __init__(self, seed: int, inputs: dict, lhs, rhs,
                 base: int | None = None):
        self.seed = seed
        self.inputs = inputs
        self.lhs = lhs
        self.rhs = rhs
        self.base = base

    def to_json(self) -> dict:
        return {"seed": self.seed,
                "inputs": {k: _text(v) for k, v in self.inputs.items()},
                "lhs": _text(self.lhs, self.base),
                "rhs": _text(self.rhs, self.base)}


class AxiomReport(_Record):
    """The trials of one axiom, its failures (a fresh list by default) and
    its wall time in milliseconds."""

    __slots__ = ("axiom", "trials", "failures", "millis")

    def __init__(self, axiom: str, trials: int, failures: list | None = None,
                 millis: int = 0):
        self.axiom = axiom
        self.trials = trials
        self.failures = [] if failures is None else failures
        self.millis = millis

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self, include_millis: bool = False) -> dict:
        out = {"axiom": self.axiom, "trials": self.trials,
               "failures": [f.to_json() for f in self.failures]}
        if include_millis:
            out["millis"] = self.millis
        return out


# -- the draws of a trial -----------------------------------------------------


class _Draw:
    """The random draws of an axiom's trials: arities up to the configured
    one, and elements and morphisms from the theory's sampler for the
    (degree, terms) bounds of the axiom's composition depth.  It is made once
    per run of the axiom, and each trial points ``next`` at the output
    function of its own stream (:func:`_trial`)."""

    __slots__ = ("theory", "arities", "sample", "next")

    def __init__(self, theory: Theory, arities: int, sample):
        self.theory, self.arities, self.sample = theory, arities, sample

    def arity(self) -> int:
        return 1 + self.next() % self.arities

    def index(self, m: int) -> int:
        return self.next() % m

    def element(self, arity: int):
        return self.sample(self.next, arity)

    def morphism(self, source: int, target: int) -> Morphism:
        sample, draw = self.sample, self.next
        return Morphism._make(self.theory, source, target,
                              tuple([sample(draw, source)
                                     for _ in range(target)]))


# -- the CD axioms on morphisms ---------------------------------------------------


def _cd1(theory, draw):
    n, m = draw.arity(), draw.arity()
    f, g = draw.morphism(n, m), draw.morphism(n, m)
    yield ({"f": f, "g": g}, differentiate(f + g),
           differentiate(f) + differentiate(g), n)
    yield ({"f": "0"}, differentiate(Morphism.zero(theory, n, m)),
           Morphism.zero(theory, 2 * n, m), n)


def _cd2(theory, draw):
    n, m = draw.arity(), draw.arity()
    f = draw.morphism(n, m)
    df = differentiate(f)
    one = identity(theory, n)
    yield ({"f": f}, compose(df, product_map(one, codiagonal(theory, n))),
           compose(df, product_map(one, projection(theory, n, n, 0))) +
           compose(df, product_map(one, projection(theory, n, n, 1))), n)
    yield ({"f": f}, compose(df, injection(theory, n, n, 0)),
           Morphism.zero(theory, n, m), n)


def _cd3(theory, draw):
    n, m = draw.arity(), draw.arity()
    yield ({"n": n}, differentiate(identity(theory, n)),
           projection(theory, n, n, 1), n)
    pi_second = projection(theory, n + m, n + m, 1)
    for j in (0, 1):
        pj = projection(theory, n, m, j)
        yield ({"n": n, "m": m, "j": j}, differentiate(pj),
               compose(pj, pi_second), n + m)


def _cd4(theory, draw):
    k, n, m = draw.arity(), draw.arity(), draw.arity()
    f, g = draw.morphism(k, n), draw.morphism(k, m)
    yield ({"f": f, "g": g}, differentiate(pairing(f, g)),
           pairing(differentiate(f), differentiate(g)), k)


def _cd5(theory, draw):
    n, m, k = draw.arity(), draw.arity(), draw.arity()
    f, g = draw.morphism(n, m), draw.morphism(m, k)
    mid = pairing(compose(f, projection(theory, n, n, 0)), differentiate(f))
    yield ({"f": f, "g": g}, differentiate(compose(g, f)),
           compose(differentiate(g), mid), n)


def _cd6(theory, draw):
    n, m = draw.arity(), draw.arity()
    f = draw.morphism(n, m)
    df = differentiate(f)
    yield {"f": f}, compose(differentiate(df), lift_map(theory, n)), df, n


def _cd7(theory, draw):
    n, m = draw.arity(), draw.arity()
    f = draw.morphism(n, m)
    ddf = differentiate(differentiate(f))
    yield {"f": f}, compose(ddf, interchange_map(theory, n)), ddf, n


# -- the dc axioms on elements -------------------------------------------------


def _dc1(theory, draw):
    n = draw.arity()
    t = draw.element(n)
    yield ({"t": t}, along(theory.partial(t), injection(theory, n, n, 0)),
           theory.zero(n), n)


def _dc2(theory, draw):
    n = draw.arity()
    t = draw.element(n)
    dt = theory.partial(t)
    one = identity(theory, n)
    yield ({"t": t}, along(dt, product_map(one, codiagonal(theory, n))),
           along(dt, product_map(one, projection(theory, n, n, 0))) +
           along(dt, product_map(one, projection(theory, n, n, 1))), n)


def _dc3(theory, draw):
    n = draw.arity()
    for i in range(n):
        yield ({"i": i, "n": n}, theory.partial(theory.eta(i, n)),
               theory.eta(n + i, 2 * n), n)


def _dc4(theory, draw):
    n, m = draw.arity(), draw.arity()
    f = draw.element(m)
    gs = [draw.element(n) for _ in range(m)]
    args = [g.extend_arity(2 * n) for g in gs] + [theory.partial(g) for g in gs]
    inputs = {"f": f} | {f"g{j + 1}": g for j, g in enumerate(gs)}
    yield (inputs, theory.partial(f.substitute(gs, arity=n)),
           theory.partial(f).substitute(args, arity=2 * n), n)


def _dc5(theory, draw):
    n = draw.arity()
    t = draw.element(n)
    dt = theory.partial(t)
    yield {"t": t}, along(theory.partial(dt), lift_map(theory, n)), dt, n


def _dc6(theory, draw):
    n = draw.arity()
    t = draw.element(n)
    ddt = theory.partial(theory.partial(t))
    yield {"t": t}, along(ddt, interchange_map(theory, n)), ddt, n


# -- monad and counit laws ---------------------------------------------------


def _monad_assoc(theory, draw):
    a, b, c = draw.arity(), draw.arity(), draw.arity()
    f = draw.element(a)
    gs = [draw.element(b) for _ in range(a)]
    hs = [draw.element(c) for _ in range(b)]
    inputs = {"f": f} | {f"g{j + 1}": g for j, g in enumerate(gs)} | \
        {f"h{j + 1}": h for j, h in enumerate(hs)}
    yield (inputs, f.substitute(gs, arity=b).substitute(hs, arity=c),
           f.substitute([g.substitute(hs, arity=c) for g in gs], arity=c), c)


def _monad_unit_left(theory, draw):
    m, n = draw.arity(), draw.arity()
    i = draw.index(m)
    gs = [draw.element(n) for _ in range(m)]
    inputs = {f"g{j + 1}": g for j, g in enumerate(gs)} | {"i": i}
    yield inputs, theory.eta(i, m).substitute(gs, arity=n), gs[i], n


def _monad_unit_right(theory, draw):
    n = draw.arity()
    f = draw.element(n)
    yield {"f": f}, f.substitute(theory.eta_tuple(n)), f, n


def _du1(theory, draw):
    n = draw.arity()
    one, zero = theory.field.one(), theory.field.zero()
    for i in range(n):
        yield ({"i": i, "n": n}, theory.eta(i, n).counit(),
               tuple(one if j == i else zero for j in range(n)), n)


def _du2(theory, draw):
    n = draw.arity()
    t = draw.element(n)
    yield ({"t": t}, along(theory.partial(t), injection(theory, n, n, 1)),
           theory.eta_counit(t), n)


# Each axiom: the generator of its equations, and its composition depth, the
# number of times random elements are substituted into random elements.
# Degrees multiply under substitution in the uncapped theories, so deeper
# axioms draw smaller instances: the theory's row caps the degree and terms
# of draws per depth.  The power theory's row has none: truncation bounds the
# degree of a product, not its cost, which is why the checker runs under a
# size budget of its own (CHECK_LIMIT).
_AXIOMS = {
    "CD.1": (_cd1, 0), "CD.2": (_cd2, 0), "CD.3": (_cd3, 0), "CD.4": (_cd4, 0),
    "CD.5": (_cd5, 1), "CD.6": (_cd6, 0), "CD.7": (_cd7, 0),
    "dc.1": (_dc1, 0), "dc.2": (_dc2, 0), "dc.3": (_dc3, 0), "dc.4": (_dc4, 1),
    "dc.5": (_dc5, 0), "dc.6": (_dc6, 0),
    "monad.assoc": (_monad_assoc, 2), "monad.unit-left": (_monad_unit_left, 0),
    "monad.unit-right": (_monad_unit_right, 0),
    "du.1": (_du1, 0), "du.2": (_du2, 0),
}

# The size bound of the checker's expansions (scalars.size_budget), in place
# of ENUMERATION_LIMIT, which bounds what a user gives.  The draws are
# bounded by GenConfig and the rows' draw bounds: composites of depth-2
# draws of degree at most 4 have degree at most 64, so a power cap past 64
# truncates nothing and costs no more than 64.  At this bound the power
# theory passes at every cap from 1 to 64 over Q, F2 and F5 at seeds 1-30.
CHECK_LIMIT = 10 ** 7


def axiom_ids() -> list[str]:
    return list(_AXIOMS)


def _plan(axiom: str, theory: Theory, cfg) -> tuple:
    """The equations of ``axiom`` and the draws of its trials
    (:class:`_Draw`), within the configured bounds and the caps of its
    composition depth.  ValueError("empty range") for an arity below 1."""
    equations, depth = _AXIOMS[axiom]
    d, t = cfg.max_degree, cfg.max_terms
    caps = theory.spec.bounds.get(depth, (d, t))
    if cfg.arity < 1:
        raise ValueError("empty range")
    sample = generators.sampler(theory, cfg, min(d, caps[0]), min(t, caps[1]))
    return equations, _Draw(theory, cfg.arity, sample)


def _trial(plan: tuple, seed: int, next_u64) -> Failure | None:
    """One trial from the output function ``next_u64`` of the stream of
    ``seed``: the first unequal equation as a Failure, or None when every
    equation holds."""
    equations, draw = plan
    draw.next = next_u64
    for inputs, lhs, rhs, base in equations(draw.theory, draw):
        if lhs != rhs:
            return Failure(seed, inputs, lhs, rhs, base)
    return None


def run_trial(axiom: str, theory: Theory, cfg, seed: int) -> Failure | None:
    """Replay one trial of ``axiom`` from its seed, as :func:`run_axiom`
    runs it: the Failure it records, or None when the trial passes."""
    with size_budget(CHECK_LIMIT):
        return _trial(_plan(axiom, theory, cfg), seed,
                      generators.SplitMix64(seed).next_u64)


def run_axiom(axiom: str, theory: Theory, cfg, trials: int) -> AxiomReport:
    """Run one axiom's trials: compare the equations each trial yields and
    record the first unequal one.  Trial k runs from the seed
    ``mix(cfg.seed, stable_hash(axiom), k)``; its stream comes from
    ``generators.trial_streams``, which reads back what the trials of other
    theories at this seed drew, and :func:`run_trial` replays any one trial
    from its seed alone.  The trials run under the checker's size budget,
    ``CHECK_LIMIT``.  ValueError for fewer than one trial; a TooLarge from a
    trial is raised again with the axiom and the seed."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    plan = _plan(axiom, theory, cfg)
    started = time.perf_counter()
    failures = []
    with size_budget(CHECK_LIMIT):
        for seed, rng in generators.trial_streams(
                cfg.seed, generators.stable_hash(axiom), trials):
            try:
                failure = _trial(plan, seed, rng.next_u64)
            except TooLarge as exc:
                raise TooLarge(f"{axiom} trial seed {seed}: {exc}") from exc
            if failure is not None:
                failures.append(failure)
    millis = int((time.perf_counter() - started) * 1000)
    return AxiomReport(axiom, trials, failures, millis)


def check_all(theory: Theory, cfg,
              trials: int = 200) -> list[AxiomReport]:
    return [run_axiom(a, theory, cfg, trials) for a in axiom_ids()]


# -- documented combinator mutations ------------------------------------------
#
# Each mutation replaces the differential combinator with a near miss; the
# checkers must catch every one of them.  Single-variable single-term inputs
# can slip past the chain rule by numerical coincidence, so the catch rates
# rely on multi-term draws.
#
# A mutant is built like the combinator it misses: on the internal path
# (``_make``, ``_like``), from the kernels of the real combinators.  Its keys
# are valid by construction, and tests/test_trust_boundary.py checks them.
# Their key maps are injective, so each output key takes one canonical value
# and nothing is summed.


def _mutant_zin_last_letter(f: ZinElement) -> ZinElement:
    """The word combinator, re-tagging the last letter instead of the first."""
    n = f.arity
    return ZinElement._make((2 * n, f.field),
                            {w[:-1] + (n + w[-1],): c
                             for w, c in f.coeffs.items()})


def _mutant_ps_drop_first(f: SeriesElement) -> SeriesElement:
    """The series combinator without the terms of the first dual variable."""
    full = f.partial_combinator()
    first_dual = MAX_DEGREE << WIDTH * (f.arity + 1)
    return full._like({key: c for key, c in full.coeffs.items()
                       if not key & first_dual})


def _mutant_dp_binomial(f: DPElement) -> DPElement:
    """The series combinator on divided-power keys: x^[e] goes to
    e * x^[e-1] y instead of x^[e-1] y."""
    return DPElement._make((2 * f.arity, f.field),
                           _combinator_coeffs(f.coeffs, f.arity, f.field.p))


MUTATIONS = {
    "zinbiel-last-letter": ("zinbiel", _mutant_zin_last_letter),
    "powerseries-drop-first-partial": ("power", _mutant_ps_drop_first),
    "dividedpower-binomial-factor": ("divided", _mutant_dp_binomial),
}


class MutatedTheory(Theory):
    """A theory with the differential combinator replaced by a near miss.

    The mutant is bound once, in the slot that shadows :meth:`Theory.partial`;
    the mutation's name takes part in equality, so a mutated theory equals
    no theory with another combinator.
    """

    __slots__ = ("mutation", "partial")

    def __init__(self, mutation: str, field: FieldSpec, cap: int | None = 6):
        row = MUTATIONS.get(mutation)
        if row is None:
            raise ShapeMismatch(f"unknown mutation {mutation!r}")
        super().__init__(row[0], field, cap)
        self.mutation = mutation
        self.partial = row[1]


def mutation_is_caught(mutation: str, field: FieldSpec, cfg,
                       trials: int = 200, cap: int = 6) -> dict:
    """Run every checker against a mutated combinator.

    Returns {axiom: failure-count}; the mutation counts as caught when at
    least one axiom reports a failure.  The mutated theory is interned, as
    ``make_theory`` interns theories: one per mutation, field and cap, whose
    structural maps and samplers last across calls.
    """
    broken = interned_theory(MutatedTheory, mutation, field, cap)
    return {r.axiom: len(r.failures) for r in check_all(broken, cfg, trials)}
