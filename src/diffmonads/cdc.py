"""Lawvere-style category layer and the exact axiom checkers.

Morphisms n -> m are m-tuples of elements over n variables; composition is
substitution.  Products of objects are sums of arities, which makes the
structural maps (identities, projections, injections, the sum map, the lift
map ell and the interchange map c) linear: each component is a sum of
variables or zero.  A structural map carries that *linear spec*, the tuple of
variables that each component sums, and its components are built once per
theory and spec.  Composing along it rewrites the keys of the outer
components directly (``substitute_linear``) where the theory's keys can follow
the spec; packed monomials follow renamings, and a spec with sums (the sum
map) takes the generic substitution of the memoized components.  The generic
substitution, which the monad laws, CD.5, dc.4 and the registration check
still exercise, is the oracle of the key rewrites.
Differentiation applies the theory's combinator componentwise and doubles the
source arity.

Two axiom families are checked by exact equality on randomly generated
instances:

* the seven differential-combinator axioms CD.1..CD.7, stated on morphisms;
* the six combinator-transformation axioms dc.1..dc.6 in their monad form,
  stated on single elements, together with the monad laws and the two
  counit laws du.1/du.2.

Trial seeds derive deterministically from (master seed, axiom id, trial
index), so a failure report replays exactly.  Composition-heavy axioms use
smaller element bounds than the linear ones: without a degree cap, word
lengths and degrees multiply under substitution, and the uncapped theories
would otherwise blow up combinatorially.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field as dataclass_field

from . import generators as gen
from .dividedpower import DPElement
from .errors import ShapeMismatch
from .powerseries import MultiIndex, SeriesElement
from .scalars import FieldSpec, accumulate
from .syntax import format_element
from .zinbiel import ZinElement


@dataclass(frozen=True)
class TheorySpec:
    """One row of :data:`THEORIES`: everything that tells theories apart
    outside their element classes."""

    name: str            # display name in reports
    cli: str             # the --theory choice
    element: type        # the element class
    cap: int | None      # the degree cap, unless cap_option
    cap_option: bool     # the cap comes from the caller and must be >= 1
    reduced: bool        # elements have no constant term
    bounds: dict         # composition depth -> (degree, terms) caps of draws
    product: object      # (a, b) -> the algebra's product; None: linear forms


_UNCAPPED_BOUNDS = {1: (3, 2), 2: (2, 2)}

THEORIES = {
    "polynomial": TheorySpec("Polynomial", "poly", SeriesElement, None, False,
                             False, {1: (4, 3), 2: (3, 2)}, operator.mul),
    "powerseries": TheorySpec("PowerSeries", "power", SeriesElement, None,
                              True, True, {}, operator.mul),
    "dividedpower": TheorySpec("DividedPower", "divided", DPElement, None,
                               False, True, _UNCAPPED_BOUNDS, operator.mul),
    "zinbiel": TheorySpec("Zinbiel", "zinbiel", ZinElement, None, False, True,
                          _UNCAPPED_BOUNDS, lambda a, b: a.half_shuffle(b)),
    "trivial": TheorySpec("Trivial", "trivial", SeriesElement, 1, False, True,
                          {}, None),
}

_BY_CLI_NAME = {spec.cli: kind for kind, spec in THEORIES.items()}


class _Shapes(dict):
    """arity -> the shape of a theory's elements, one tuple per arity: the
    arity followed by the theory's values of the element's ``SHAPE`` names."""

    def __init__(self, tail: tuple):
        super().__init__()
        self.tail = tail

    def __missing__(self, arity: int) -> tuple:
        shape = self[arity] = (arity,) + self.tail
        return shape


class Theory:
    """A differential theory: its row of :data:`THEORIES`, a field and a cap.

    The trivial theory is the identity monad; its elements are the linear
    forms, realized here as cap-1 reduced series (degree exactly one), for
    which substitution is linear substitution and the combinator relabels
    into the dual block.  It has no product, and its random elements draw no
    degree.
    """

    __slots__ = ("kind", "spec", "element", "field", "cap", "shapes",
                 "structural")

    def __init__(self, kind: str, field: FieldSpec, cap: int | None = None):
        spec = THEORIES.get(kind)
        if spec is None:
            raise ShapeMismatch(f"unknown theory kind {kind!r}")
        if not spec.cap_option:
            cap = spec.cap
        elif cap is None or cap < 1:
            raise ShapeMismatch("power series need a degree cap >= 1")
        self.kind = kind
        self.spec = spec
        self.element = spec.element
        self.field = field
        self.cap = cap
        self.shapes = _Shapes(tuple(getattr(self, name)
                                    for name in self.element.SHAPE[1:]))
        self.structural: dict = {}  # (source, spec) -> the components

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def reduced(self) -> bool:
        return self.spec.reduced

    # -- element constructors ----------------------------------------------

    def zero(self, arity: int):
        return self.element._make(self.shapes[arity], {})

    def eta(self, i: int, arity: int):
        """The monad unit on the i-th basis vector: the degree-1 element x_i."""
        if not 0 <= i < arity:
            raise ShapeMismatch(f"variable {i} out of range for arity {arity}")
        element = self.element
        return element._make(self.shapes[arity],
                             {element._key_of_letters((i,)): 1})

    def eta_tuple(self, arity: int) -> tuple:
        return self.linear_components(arity, _block(0, arity))

    def linear_components(self, source: int, spec: tuple) -> tuple:
        """The components of the structural map source -> len(spec): the i-th
        is the sum of the variables in ``spec[i]`` (zero when it is empty).

        Structural maps are immutable, so the components are built once per
        theory and spec; ``spec`` is a tuple of tuples of variable indices.
        The memo holds no morphism, which would refer back to the theory and
        keep it alive until a garbage collection.
        """
        comps = self.structural.get((source, spec))
        if comps is None:
            comps = self.structural[source, spec] = tuple(
                sum((self.eta(i, source) for i in variables), self.zero(source))
                for variables in spec)
        return comps

    def linear_map(self, source: int, spec: tuple) -> "Morphism":
        """The structural map source -> len(spec) of linear spec ``spec``."""
        got = Morphism(self, source, len(spec),
                       self.linear_components(source, spec))
        got.linear = spec
        return got

    # -- the differential structure ------------------------------------------

    def partial(self, f):
        """The differential combinator transformation on elements."""
        return f.partial_combinator()

    def eta_counit(self, f):
        """eta after counit: the degree-1 part of an element."""
        out = self.zero(f.arity)
        for i, c in enumerate(f.counit()):
            if c:
                out = out + self.eta(i, f.arity).scale(c)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Theory):
            return NotImplemented
        return (self.kind, self.field, self.cap) == \
               (other.kind, other.field, other.cap)

    def __hash__(self) -> int:
        return hash((self.kind, self.field, self.cap))

    def __repr__(self) -> str:
        cap = f", cap={self.cap}" if self.spec.cap_option else ""
        return f"Theory({self.name}, {self.field!r}{cap})"


def make_theory(kind: str, field: FieldSpec, cap: int | None = 6) -> Theory:
    """Build a theory from its kind or CLI name, and smoke-check that the unit
    tuple is the identity."""
    t = Theory(_BY_CLI_NAME.get(kind, kind), field, cap)
    n = 2
    sample = t.eta(0, n) + t.eta(1, n).scale(field.embed(2))
    if t.spec.product is not None:
        sample = sample + t.spec.product(t.eta(0, n), t.eta(1, n))
    if sample.substitute(t.eta_tuple(n)) != sample:
        raise ShapeMismatch("registration check failed: substitution along "
                            "the unit tuple is not the identity")
    return t


# -- morphisms ----------------------------------------------------------------


class Morphism:
    """An m-tuple of elements over n variables: a map n -> m.

    ``linear`` is the linear spec of a structural map (see
    :meth:`Theory.linear_map`) and None for every other morphism.
    """

    __slots__ = ("theory", "source", "target", "components", "linear")

    def __init__(self, theory: Theory, source: int, target: int, components):
        components = tuple(components)
        if len(components) != target:
            raise ShapeMismatch(f"expected {target} components, "
                                f"got {len(components)}")
        shape = theory.shapes[source]
        for c in components:
            if c.shape != shape:
                raise ShapeMismatch("component shape disagrees with morphism")
        self.theory = theory
        self.source = source
        self.target = target
        self.components = components
        self.linear = None

    @staticmethod
    def zero(theory: Theory, source: int, target: int) -> "Morphism":
        return theory.linear_map(source, ((),) * target)

    def __add__(self, other: "Morphism") -> "Morphism":
        if (self.theory, self.source, self.target) != \
           (other.theory, other.source, other.target):
            raise ShapeMismatch("morphism shapes differ")
        return Morphism(self.theory, self.source, self.target,
                        tuple(a + b for a, b in
                              zip(self.components, other.components)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.theory, self.source, self.target) == \
               (other.theory, other.source, other.target) and \
               self.components == other.components

    def __repr__(self) -> str:
        return f"<morphism {self.source}->{self.target} {self.theory.name}>"


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner: substitute inner's components into outer's, or,
    when inner is a structural map, compose each along its spec (``_along``)."""
    if outer.theory != inner.theory:
        raise ShapeMismatch("morphisms from different theories")
    if outer.source != inner.target:
        raise ShapeMismatch(f"cannot compose {inner.target} -> with "
                            f"source {outer.source}")
    spec = inner.linear
    if spec is None:
        comps = tuple(c.substitute(inner.components, arity=inner.source)
                      for c in outer.components)
    else:
        comps = tuple(_along(inner.theory, c, inner.source, spec)
                      for c in outer.components)
    return Morphism(outer.theory, inner.source, outer.target, comps)


def _along(theory: Theory, f, source: int, spec: tuple):
    """The element f composed with the structural map source -> len(spec) of
    linear spec ``spec``: its keys rewritten where the theory can follow the
    spec, else the generic substitution of the map's memoized components."""
    got = f.substitute_linear(spec, source)
    if got is None:
        got = f.substitute(theory.linear_components(source, spec),
                           arity=source)
    return got


def pairing(p: Morphism, q: Morphism) -> Morphism:
    if p.theory != q.theory or p.source != q.source:
        raise ShapeMismatch("pairing needs a common source")
    if p.linear is not None and q.linear is not None:
        return p.theory.linear_map(p.source, p.linear + q.linear)
    return Morphism(p.theory, p.source, p.target + q.target,
                    p.components + q.components)


def product_map(p: Morphism, q: Morphism) -> Morphism:
    """p x q, realized by relabeling each factor into its block."""
    if p.theory != q.theory:
        raise ShapeMismatch("morphisms from different theories")
    src = p.source + q.source
    if p.linear is not None and q.linear is not None:
        shifted = tuple(tuple(p.source + i for i in variables)
                        for variables in q.linear)
        return p.theory.linear_map(src, p.linear + shifted)
    left = tuple(c.extend_arity(src, 0) for c in p.components)
    right = tuple(c.extend_arity(src, p.source) for c in q.components)
    return Morphism(p.theory, src, p.target + q.target, left + right)


def _block(start: int, count: int) -> tuple:
    """The spec of the variables start, ..., start + count - 1, one each."""
    return tuple((i,) for i in range(start, start + count))


def _injection_spec(n: int, m: int, which: int) -> tuple:
    """The spec of iota_0 : n -> n + m or of iota_1 : m -> n + m."""
    if which == 0:
        return _block(0, n) + ((),) * m
    return ((),) * n + _block(0, m)


def _lift_spec(n: int) -> tuple:
    """The spec of ell = iota_0 x iota_1 : n x n -> (n x n) x (n x n)."""
    return _block(0, n) + ((),) * (2 * n) + _block(n, n)


def _interchange_spec(n: int) -> tuple:
    """The spec of c = <pi_0 x pi_0, pi_1 x pi_1>, which swaps the middle
    blocks of (n x n) x (n x n)."""
    return _block(0, n) + _block(2 * n, n) + _block(n, n) + _block(3 * n, n)


def identity(theory: Theory, n: int) -> Morphism:
    return theory.linear_map(n, _block(0, n))


def projection(theory: Theory, n: int, m: int, which: int) -> Morphism:
    """pi_0 or pi_1 out of the product n x m = n + m."""
    if which == 0:
        return theory.linear_map(n + m, _block(0, n))
    return theory.linear_map(n + m, _block(n, m))


def injection(theory: Theory, n: int, m: int, which: int) -> Morphism:
    """iota_0 = <1, 0> : n -> n + m or iota_1 = <0, 1> : m -> n + m."""
    return theory.linear_map(n if which == 0 else m,
                             _injection_spec(n, m, which))


def diagonal(theory: Theory, n: int) -> Morphism:
    return theory.linear_map(n, _block(0, n) * 2)


def codiagonal(theory: Theory, n: int) -> Morphism:
    """The sum map pi_0 + pi_1 : n x n -> n."""
    return theory.linear_map(2 * n, tuple((i, n + i) for i in range(n)))


def lift_map(theory: Theory, n: int) -> Morphism:
    """ell = iota_0 x iota_1 : n x n -> (n x n) x (n x n)."""
    return theory.linear_map(2 * n, _lift_spec(n))


def interchange_map(theory: Theory, n: int) -> Morphism:
    """c = <pi_0 x pi_0, pi_1 x pi_1>, swapping the middle blocks."""
    return theory.linear_map(4 * n, _interchange_spec(n))


def differentiate(p: Morphism) -> Morphism:
    """Componentwise differential combinator; the source arity doubles."""
    comps = tuple(p.theory.partial(c) for c in p.components)
    return Morphism(p.theory, 2 * p.source, p.target, comps)


def linearize(p: Morphism) -> Morphism:
    """D[p] restricted to the dual block: compose with iota_1."""
    return compose(differentiate(p), injection(p.theory, p.source, p.source, 1))


def is_dlinear(p: Morphism) -> bool:
    """Whether p equals its own linearization.

    Cross-checked against the counit characterization: a component is fixed
    by eta-after-counit exactly when it is a combination of unit variables.
    """
    by_linearization = linearize(p) == p
    by_counit = all(p.theory.eta_counit(c) == c for c in p.components)
    if by_linearization != by_counit:
        raise AssertionError("linearization and counit characterizations "
                             "of D-linearity disagree")
    return by_linearization


# -- axiom reports ------------------------------------------------------------


@dataclass
class Failure:
    seed: int
    inputs: dict
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {"seed": self.seed, "inputs": self.inputs,
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class AxiomReport:
    axiom: str
    trials: int
    failures: list = dataclass_field(default_factory=list)
    millis: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self, include_millis: bool = False) -> dict:
        out = {"axiom": self.axiom, "trials": self.trials,
               "failures": [f.to_json() for f in self.failures]}
        if include_millis:
            out["millis"] = self.millis
        return out


def _fmt(elem, base: int) -> str:
    return format_element(elem, base_arity=base)


def _fmtm(p: Morphism, base: int) -> str:
    return "[" + "; ".join(format_element(c, base_arity=base)
                           for c in p.components) + "]"


# -- generation profiles --------------------------------------------------------

# Composition depth of each axiom: how many times random elements are
# substituted into random elements.  Degrees multiply under substitution in
# the uncapped theories, so deeper axioms draw smaller instances.
_DEPTH = {
    "CD.1": 0, "CD.2": 0, "CD.3": 0, "CD.4": 0, "CD.5": 1, "CD.6": 0,
    "CD.7": 0,
    "dc.1": 0, "dc.2": 0, "dc.3": 0, "dc.4": 1, "dc.5": 0, "dc.6": 0,
    "monad.assoc": 2, "monad.unit-left": 0, "monad.unit-right": 0,
    "du.1": 0, "du.2": 0,
}


def _bounds(theory: Theory, cfg: gen.GenConfig, axiom: str) -> tuple[int, int]:
    """(max degree, max terms) of the axiom's draws; a capped theory has no
    caps in its row, because truncation bounds the blowup."""
    d, t = cfg.max_degree, cfg.max_terms
    caps = theory.spec.bounds.get(_DEPTH[axiom])
    if caps is None:
        return d, t
    return min(d, caps[0]), min(t, caps[1])


def _rand_elem(theory, cfg, rng, arity, axiom):
    d, t = _bounds(theory, cfg, axiom)
    return gen.random_element(theory, cfg, rng, arity=arity,
                              max_degree=d, max_terms=t)


def _rand_morphism(theory, cfg, rng, source, target, axiom):
    d, t = _bounds(theory, cfg, axiom)
    return gen.random_morphism(theory, cfg, source, target, rng,
                               max_degree=d, max_terms=t)


# -- the CD axioms on morphisms ---------------------------------------------------


def _cd1(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    m = rng.randint(1, cfg.arity)
    f = _rand_morphism(theory, cfg, rng, n, m, "CD.1")
    g = _rand_morphism(theory, cfg, rng, n, m, "CD.1")
    lhs = differentiate(f + g)
    rhs = differentiate(f) + differentiate(g)
    if lhs != rhs:
        return {"f": _fmtm(f, n), "g": _fmtm(g, n)}, _fmtm(lhs, n), _fmtm(rhs, n)
    dz = differentiate(Morphism.zero(theory, n, m))
    zz = Morphism.zero(theory, 2 * n, m)
    if dz != zz:
        return {"f": "0"}, _fmtm(dz, n), _fmtm(zz, n)
    return None


def _cd2(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    m = rng.randint(1, cfg.arity)
    f = _rand_morphism(theory, cfg, rng, n, m, "CD.2")
    df = differentiate(f)
    one_nabla = product_map(identity(theory, n), codiagonal(theory, n))
    one_pi0 = product_map(identity(theory, n), projection(theory, n, n, 0))
    one_pi1 = product_map(identity(theory, n), projection(theory, n, n, 1))
    lhs = compose(df, one_nabla)
    rhs = compose(df, one_pi0) + compose(df, one_pi1)
    if lhs != rhs:
        return {"f": _fmtm(f, n)}, _fmtm(lhs, n), _fmtm(rhs, n)
    zeroed = compose(df, injection(theory, n, n, 0))
    zero = Morphism.zero(theory, n, m)
    if zeroed != zero:
        return {"f": _fmtm(f, n)}, _fmtm(zeroed, n), _fmtm(zero, n)
    return None


def _cd3(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    m = rng.randint(1, cfg.arity)
    lhs = differentiate(identity(theory, n))
    rhs = projection(theory, n, n, 1)
    if lhs != rhs:
        return {"n": str(n)}, _fmtm(lhs, n), _fmtm(rhs, n)
    pi_second = projection(theory, n + m, n + m, 1)
    for which in (0, 1):
        pj = projection(theory, n, m, which)
        lhs = differentiate(pj)
        rhs = compose(pj, pi_second)
        if lhs != rhs:
            return ({"n": str(n), "m": str(m), "j": str(which)},
                    _fmtm(lhs, n + m), _fmtm(rhs, n + m))
    return None


def _cd4(theory, cfg, rng):
    k = rng.randint(1, cfg.arity)
    n = rng.randint(1, cfg.arity)
    m = rng.randint(1, cfg.arity)
    f = _rand_morphism(theory, cfg, rng, k, n, "CD.4")
    g = _rand_morphism(theory, cfg, rng, k, m, "CD.4")
    lhs = differentiate(pairing(f, g))
    rhs = pairing(differentiate(f), differentiate(g))
    if lhs != rhs:
        return {"f": _fmtm(f, k), "g": _fmtm(g, k)}, _fmtm(lhs, k), _fmtm(rhs, k)
    return None


def _cd5(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    m = rng.randint(1, cfg.arity)
    k = rng.randint(1, cfg.arity)
    f = _rand_morphism(theory, cfg, rng, n, m, "CD.5")
    g = _rand_morphism(theory, cfg, rng, m, k, "CD.5")
    lhs = differentiate(compose(g, f))
    mid = pairing(compose(f, projection(theory, n, n, 0)), differentiate(f))
    rhs = compose(differentiate(g), mid)
    if lhs != rhs:
        return {"f": _fmtm(f, n), "g": _fmtm(g, m)}, _fmtm(lhs, n), _fmtm(rhs, n)
    return None


def _cd6(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    m = rng.randint(1, cfg.arity)
    f = _rand_morphism(theory, cfg, rng, n, m, "CD.6")
    lhs = compose(differentiate(differentiate(f)), lift_map(theory, n))
    rhs = differentiate(f)
    if lhs != rhs:
        return {"f": _fmtm(f, n)}, _fmtm(lhs, n), _fmtm(rhs, n)
    return None


def _cd7(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    m = rng.randint(1, cfg.arity)
    f = _rand_morphism(theory, cfg, rng, n, m, "CD.7")
    ddf = differentiate(differentiate(f))
    lhs = compose(ddf, interchange_map(theory, n))
    if lhs != ddf:
        return {"f": _fmtm(f, n)}, _fmtm(lhs, n), _fmtm(ddf, n)
    return None


# -- the dc axioms on elements -------------------------------------------------


def _dc1(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    t = _rand_elem(theory, cfg, rng, n, "dc.1")
    dt = theory.partial(t)
    lhs = _along(theory, dt, n, _injection_spec(n, n, 0))
    zero = theory.zero(n)
    if lhs != zero:
        return {"t": _fmt(t, n)}, _fmt(lhs, n), "0"
    return None


def _dc2(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    t = _rand_elem(theory, cfg, rng, n, "dc.2")
    dt = theory.partial(t)
    first = _block(0, n)
    nabla = tuple((n + i, 2 * n + i) for i in range(n))
    lhs = _along(theory, dt, 3 * n, first + nabla)
    rhs = _along(theory, dt, 3 * n, first + _block(n, n)) + \
        _along(theory, dt, 3 * n, first + _block(2 * n, n))
    if lhs != rhs:
        return {"t": _fmt(t, n)}, _fmt(lhs, n), _fmt(rhs, n)
    return None


def _dc3(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    for i in range(n):
        lhs = theory.partial(theory.eta(i, n))
        rhs = theory.eta(n + i, 2 * n)
        if lhs != rhs:
            return {"i": str(i), "n": str(n)}, _fmt(lhs, n), _fmt(rhs, n)
    return None


def _dc4(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    m = rng.randint(1, cfg.arity)
    f = _rand_elem(theory, cfg, rng, m, "dc.4")
    gs = [_rand_elem(theory, cfg, rng, n, "dc.4") for _ in range(m)]
    lhs = theory.partial(f.substitute(gs, arity=n))
    args = [g.extend_arity(2 * n) for g in gs] + [theory.partial(g) for g in gs]
    rhs = theory.partial(f).substitute(args, arity=2 * n)
    if lhs != rhs:
        inputs = {"f": _fmt(f, m)}
        for j, g in enumerate(gs):
            inputs[f"g{j + 1}"] = _fmt(g, n)
        return inputs, _fmt(lhs, n), _fmt(rhs, n)
    return None


def _dc5(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    t = _rand_elem(theory, cfg, rng, n, "dc.5")
    ddt = theory.partial(theory.partial(t))
    lhs = _along(theory, ddt, 2 * n, _lift_spec(n))
    rhs = theory.partial(t)
    if lhs != rhs:
        return {"t": _fmt(t, n)}, _fmt(lhs, n), _fmt(rhs, n)
    return None


def _dc6(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    t = _rand_elem(theory, cfg, rng, n, "dc.6")
    ddt = theory.partial(theory.partial(t))
    lhs = _along(theory, ddt, 4 * n, _interchange_spec(n))
    if lhs != ddt:
        return {"t": _fmt(t, n)}, _fmt(lhs, n), _fmt(ddt, n)
    return None


# -- monad and counit laws ---------------------------------------------------


def _monad_assoc(theory, cfg, rng):
    a = rng.randint(1, cfg.arity)
    b = rng.randint(1, cfg.arity)
    c = rng.randint(1, cfg.arity)
    f = _rand_elem(theory, cfg, rng, a, "monad.assoc")
    gs = [_rand_elem(theory, cfg, rng, b, "monad.assoc") for _ in range(a)]
    hs = [_rand_elem(theory, cfg, rng, c, "monad.assoc") for _ in range(b)]
    lhs = f.substitute(gs, arity=b).substitute(hs, arity=c)
    rhs = f.substitute([g.substitute(hs, arity=c) for g in gs], arity=c)
    if lhs != rhs:
        inputs = {"f": _fmt(f, a)}
        for j, g in enumerate(gs):
            inputs[f"g{j + 1}"] = _fmt(g, b)
        for j, h in enumerate(hs):
            inputs[f"h{j + 1}"] = _fmt(h, c)
        return inputs, _fmt(lhs, c), _fmt(rhs, c)
    return None


def _monad_unit_left(theory, cfg, rng):
    m = rng.randint(1, cfg.arity)
    n = rng.randint(1, cfg.arity)
    i = rng.randint(0, m - 1)
    gs = [_rand_elem(theory, cfg, rng, n, "monad.unit-left") for _ in range(m)]
    lhs = theory.eta(i, m).substitute(gs, arity=n)
    if lhs != gs[i]:
        inputs = {f"g{j + 1}": _fmt(g, n) for j, g in enumerate(gs)}
        inputs["i"] = str(i)
        return inputs, _fmt(lhs, n), _fmt(gs[i], n)
    return None


def _monad_unit_right(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    f = _rand_elem(theory, cfg, rng, n, "monad.unit-right")
    lhs = f.substitute(theory.eta_tuple(n))
    if lhs != f:
        return {"f": _fmt(f, n)}, _fmt(lhs, n), _fmt(f, n)
    return None


def _du1(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    for i in range(n):
        vec = theory.eta(i, n).counit()
        expected = tuple(theory.field.one() if j == i else theory.field.zero()
                         for j in range(n))
        if vec != expected:
            return ({"i": str(i), "n": str(n)},
                    str([str(v) for v in vec]),
                    str([str(v) for v in expected]))
    return None


def _du2(theory, cfg, rng):
    n = rng.randint(1, cfg.arity)
    t = _rand_elem(theory, cfg, rng, n, "du.2")
    dt = theory.partial(t)
    lhs = _along(theory, dt, n, _injection_spec(n, n, 1))
    rhs = theory.eta_counit(t)
    if lhs != rhs:
        return {"t": _fmt(t, n)}, _fmt(lhs, n), _fmt(rhs, n)
    return None


_AXIOMS: list[tuple[str, object]] = [
    ("CD.1", _cd1), ("CD.2", _cd2), ("CD.3", _cd3), ("CD.4", _cd4),
    ("CD.5", _cd5), ("CD.6", _cd6), ("CD.7", _cd7),
    ("dc.1", _dc1), ("dc.2", _dc2), ("dc.3", _dc3), ("dc.4", _dc4),
    ("dc.5", _dc5), ("dc.6", _dc6),
    ("monad.assoc", _monad_assoc), ("monad.unit-left", _monad_unit_left),
    ("monad.unit-right", _monad_unit_right),
    ("du.1", _du1), ("du.2", _du2),
]

_AXIOM_FNS = dict(_AXIOMS)


def axiom_ids() -> list[str]:
    return [a for a, _ in _AXIOMS]


def run_axiom(axiom: str, theory: Theory, cfg: gen.GenConfig,
              trials: int) -> AxiomReport:
    """Run one axiom's trials; per-trial seeds replay failures exactly."""
    fn = _AXIOM_FNS[axiom]
    started = time.perf_counter()
    failures = []
    salt = gen.stable_hash(axiom)
    for k in range(trials):
        seed = gen.mix(cfg.seed, salt, k)
        res = fn(theory, cfg, gen.SplitMix64(seed))
        if res is not None:
            inputs, lhs, rhs = res
            failures.append(Failure(seed, inputs, lhs, rhs))
    millis = int((time.perf_counter() - started) * 1000)
    return AxiomReport(axiom, trials, failures, millis)


def check_cd_axioms(theory: Theory, cfg: gen.GenConfig,
                    trials: int = 200) -> list[AxiomReport]:
    return [run_axiom(a, theory, cfg, trials)
            for a in axiom_ids() if a.startswith("CD.")]


def check_dc_axioms(theory: Theory, cfg: gen.GenConfig,
                    trials: int = 200) -> list[AxiomReport]:
    return [run_axiom(a, theory, cfg, trials)
            for a in axiom_ids() if a.startswith("dc.")]


def check_monad_and_unit_laws(theory: Theory, cfg: gen.GenConfig,
                              trials: int = 200) -> list[AxiomReport]:
    return [run_axiom(a, theory, cfg, trials)
            for a in axiom_ids()
            if a.startswith("monad.") or a.startswith("du.")]


def check_all(theory: Theory, cfg: gen.GenConfig,
              trials: int = 200) -> list[AxiomReport]:
    return [run_axiom(a, theory, cfg, trials) for a in axiom_ids()]


# -- documented combinator mutations ------------------------------------------
#
# Each mutation replaces the differential combinator with a near miss; the
# checkers must catch every one of them.  Single-variable single-term inputs
# can slip past the chain rule by numerical coincidence, so the catch rates
# rely on multi-term draws.


def _mutant_zin_last_letter(f: ZinElement) -> ZinElement:
    n = f.arity
    out: dict = {}
    for w, c in f.coeffs.items():
        accumulate(out, w[:-1] + (n + w[-1],), c, f.field.p)
    return ZinElement(2 * n, f.field, out)


def _mutant_ps_drop_first(f: SeriesElement) -> SeriesElement:
    full = f.partial_combinator()
    n = f.arity
    kept = {mi: c for mi, c in full.coeffs.items()
            if MultiIndex.exponent(mi, n) == 0}
    return SeriesElement(2 * n, full.cap, full.reduced, f.field, kept)


def _mutant_dp_binomial(f: DPElement) -> DPElement:
    n = f.arity
    out: dict = {}
    for mi, c in f.coeffs.items():
        for v, e in MultiIndex.pairs(mi):
            accumulate(out, MultiIndex.move(mi, v, n + v), c * e, f.field.p)
    return DPElement(2 * n, f.field, out)


MUTATIONS = {
    "zinbiel-last-letter": ("zinbiel", _mutant_zin_last_letter),
    "powerseries-drop-first-partial": ("powerseries", _mutant_ps_drop_first),
    "dividedpower-binomial-factor": ("dividedpower", _mutant_dp_binomial),
}


class MutatedTheory(Theory):
    """A theory with the differential combinator replaced by a near miss."""

    __slots__ = ("mutation",)

    def __init__(self, mutation: str, field: FieldSpec, cap: int | None = 6):
        kind, _ = MUTATIONS[mutation]
        super().__init__(kind, field, cap)
        self.mutation = mutation

    def partial(self, f):
        return MUTATIONS[self.mutation][1](f)


def mutation_is_caught(mutation: str, field: FieldSpec, cfg: gen.GenConfig,
                       trials: int = 200, cap: int = 6) -> dict:
    """Run every checker against a mutated combinator.

    Returns {axiom: failure-count}; the mutation counts as caught when at
    least one axiom reports a failure.
    """
    broken = MutatedTheory(mutation, field, cap)
    counts = {}
    for report in check_all(broken, cfg, trials):
        counts[report.axiom] = len(report.failures)
    return counts
