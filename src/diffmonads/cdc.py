"""Lawvere-style category layer and the exact axiom checkers.

Morphisms n -> m are m-tuples of elements over n variables; composition is
substitution.  Products of objects are sums of arities, which makes the
structural maps (identities, projections, injections, the sum map, the lift
map ell and the interchange map c) linear: each component is a sum of
variables or zero.  A structural map carries that *linear spec*, the tuple of
variables that each component sums, and its components are built once per
theory and spec, each as one coefficient dict of unit keys; the specs of the
named maps are cached per process.  Composing along a structural map rewrites
the keys of the outer components directly (``substitute_linear``) where the
theory's keys can follow the spec; packed monomials follow renamings, and a
spec with sums (the sum map) takes the generic substitution of the memoized
components.  The generic substitution, which the monad laws, CD.5, dc.4 and
the registration check still exercise, is the oracle of the key rewrites.
Differentiation applies the theory's combinator componentwise and doubles the
source arity.

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
would otherwise blow up combinatorially.

Importing this module loads the element core, and neither ``generators`` nor
``syntax``: building a theory with :func:`make_theory` and computing in it
calls neither.  :func:`run_axiom` and :func:`run_trial` import
``generators`` once per call and hand it to the draws of their trials, and a
report imports ``syntax`` when it writes an element (:func:`_text`).  Both
look their functions up in the module at call time.
"""

from __future__ import annotations

import operator
import time
from collections import namedtuple
from functools import lru_cache

from .dividedpower import DPElement
from .element import Element
from .errors import ShapeMismatch
from .powerseries import MAX_DEGREE, WIDTH, SeriesElement, _combinator_coeffs
from .scalars import FieldSpec, accumulate
from .zinbiel import ZinElement


class TheorySpec(namedtuple("TheorySpec", "name element cap cap_option "
                                          "reduced bounds product")):
    """One row of :data:`THEORIES`: everything that tells theories apart
    outside their element classes.

    ``name`` is the display name in reports and ``element`` the element
    class.  ``cap`` is the degree cap, unless ``cap_option``: then the cap
    comes from the caller and must be >= 1.  ``reduced`` elements have no
    constant term.  ``bounds`` maps a composition depth to the (degree,
    terms) caps of draws.  ``product`` is (a, b) -> the algebra's product,
    None for linear forms.
    """

    __slots__ = ()


_UNCAPPED_BOUNDS = {1: (3, 2), 2: (2, 2)}

THEORIES = {  # keyed by the --theory choice
    "poly": TheorySpec("Polynomial", SeriesElement, None, False, False,
                       {1: (4, 3), 2: (3, 2)}, operator.mul),
    "power": TheorySpec("PowerSeries", SeriesElement, None, True, True, {},
                        operator.mul),
    "divided": TheorySpec("DividedPower", DPElement, None, False, True,
                          _UNCAPPED_BOUNDS, operator.mul),
    "zinbiel": TheorySpec("Zinbiel", ZinElement, None, False, True,
                          _UNCAPPED_BOUNDS, lambda a, b: a.half_shuffle(b)),
    "trivial": TheorySpec("Trivial", SeriesElement, 1, False, True, {}, None),
}


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
                 "structural", "samplers")

    mutation = None  # in a MutatedTheory, the name of its near-miss combinator

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
        # (coeff_min, coeff_max, max_degree, max_terms) -> the sampler of
        # generators.random_element
        self.samplers: dict = {}

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
        Each component is one coefficient dict of unit keys, so a variable
        repeated in a sum adds up (and vanishes in characteristic 2).  The
        memo holds no morphism, which would refer back to the theory and
        keep it alive until a garbage collection.
        """
        comps = self.structural.get((source, spec))
        if comps is None:
            element = self.element
            unit = element._key_of_letters
            shape = self.shapes[source]
            p = self.field.p
            built = []
            for variables in spec:
                coeffs: dict = {}
                for v in variables:
                    if not 0 <= v < source:
                        raise ShapeMismatch(f"variable {v} out of range for "
                                            f"arity {source}")
                    accumulate(coeffs, unit((v,)), 1, p)
                built.append(element._make(shape, coeffs))
            comps = self.structural[source, spec] = tuple(built)
        return comps

    def linear_map(self, source: int, spec: tuple) -> "Morphism":
        """The structural map source -> len(spec) of linear spec ``spec``."""
        return Morphism._make(self, source, len(spec),
                              self.linear_components(source, spec), spec)

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
        if other is self:
            return True
        if not isinstance(other, Theory):
            return NotImplemented
        return (self.kind, self.field, self.cap, self.mutation) == \
               (other.kind, other.field, other.cap, other.mutation)

    def __hash__(self) -> int:
        return hash((self.kind, self.field, self.cap, self.mutation))

    def __repr__(self) -> str:
        cap = f", cap={self.cap}" if self.spec.cap_option else ""
        mutation = f", mutation={self.mutation!r}" if self.mutation else ""
        return f"Theory({self.name}, {self.field!r}{cap}{mutation})"


def make_theory(kind: str, field: FieldSpec, cap: int | None = 6) -> Theory:
    """Build a theory from its name in :data:`THEORIES`, and smoke-check that
    the unit tuple is the identity."""
    t = Theory(kind, field, cap)
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

    The public constructor checks the component count and every component's
    shape.  The operations on morphisms, here and in ``random_morphism``,
    check their operands and build their results with the unchecked
    :meth:`_make`, whose components have the right count and shape by
    construction.
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

    @classmethod
    def _make(cls, theory: Theory, source: int, target: int,
              components: tuple, linear: tuple | None = None) -> "Morphism":
        """Internal constructor: ``components`` is a tuple of ``target``
        elements of the theory's shape at ``source``."""
        self = cls.__new__(cls)
        self.theory = theory
        self.source = source
        self.target = target
        self.components = components
        self.linear = linear
        return self

    @staticmethod
    def zero(theory: Theory, source: int, target: int) -> "Morphism":
        return theory.linear_map(source, ((),) * target)

    def __add__(self, other: "Morphism") -> "Morphism":
        if (self.theory, self.source, self.target) != \
           (other.theory, other.source, other.target):
            raise ShapeMismatch("morphism shapes differ")
        return Morphism._make(self.theory, self.source, self.target,
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
    return Morphism._make(outer.theory, inner.source, outer.target, comps)


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
    return Morphism._make(p.theory, p.source, p.target + q.target,
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
    return Morphism._make(p.theory, src, p.target + q.target, left + right)


@lru_cache(maxsize=1024)
def _block(start: int, count: int) -> tuple:
    """The spec of the variables start, ..., start + count - 1, one each."""
    return tuple((i,) for i in range(start, start + count))


@lru_cache(maxsize=1024)
def _injection_spec(n: int, m: int, which: int) -> tuple:
    """The spec of iota_0 : n -> n + m or of iota_1 : m -> n + m."""
    if which == 0:
        return _block(0, n) + ((),) * m
    return ((),) * n + _block(0, m)


@lru_cache(maxsize=1024)
def _lift_spec(n: int) -> tuple:
    """The spec of ell = iota_0 x iota_1 : n x n -> (n x n) x (n x n)."""
    return _block(0, n) + ((),) * (2 * n) + _block(n, n)


@lru_cache(maxsize=1024)
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
    return Morphism._make(p.theory, 2 * p.source, p.target, comps)


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
    """The random draws of one trial, from its own stream: arities up to the
    configured one, and elements and morphisms within the (degree, terms)
    bounds of the axiom's composition depth, made by the ``generators``
    module ``gen``."""

    __slots__ = ("theory", "cfg", "rng", "degree", "terms", "gen")

    def __init__(self, theory: Theory, cfg, rng, bounds: tuple, gen):
        self.theory, self.cfg, self.rng = theory, cfg, rng
        self.degree, self.terms = bounds
        self.gen = gen

    def arity(self) -> int:
        return self.rng.randint(1, self.cfg.arity)

    def index(self, m: int) -> int:
        return self.rng.randint(0, m - 1)

    def element(self, arity: int):
        return self.gen.random_element(self.theory, self.cfg, self.rng,
                                       arity=arity, max_degree=self.degree,
                                       max_terms=self.terms)

    def morphism(self, source: int, target: int) -> Morphism:
        return self.gen.random_morphism(self.theory, self.cfg, source, target,
                                        self.rng, max_degree=self.degree,
                                        max_terms=self.terms)


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
    yield ({"f": f}, compose(differentiate(differentiate(f)),
                             lift_map(theory, n)), differentiate(f), n)


def _cd7(theory, draw):
    n, m = draw.arity(), draw.arity()
    f = draw.morphism(n, m)
    ddf = differentiate(differentiate(f))
    yield {"f": f}, compose(ddf, interchange_map(theory, n)), ddf, n


# -- the dc axioms on elements -------------------------------------------------


def _dc1(theory, draw):
    n = draw.arity()
    t = draw.element(n)
    yield ({"t": t}, _along(theory, theory.partial(t), n,
                            _injection_spec(n, n, 0)), theory.zero(n), n)


def _dc2(theory, draw):
    n = draw.arity()
    t = draw.element(n)
    dt = theory.partial(t)
    first = _block(0, n)
    nabla = tuple((n + i, 2 * n + i) for i in range(n))
    yield ({"t": t}, _along(theory, dt, 3 * n, first + nabla),
           _along(theory, dt, 3 * n, first + _block(n, n)) +
           _along(theory, dt, 3 * n, first + _block(2 * n, n)), n)


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
    ddt = theory.partial(theory.partial(t))
    yield {"t": t}, _along(theory, ddt, 2 * n, _lift_spec(n)), \
        theory.partial(t), n


def _dc6(theory, draw):
    n = draw.arity()
    t = draw.element(n)
    ddt = theory.partial(theory.partial(t))
    yield {"t": t}, _along(theory, ddt, 4 * n, _interchange_spec(n)), ddt, n


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
    yield ({"t": t}, _along(theory, theory.partial(t), n,
                            _injection_spec(n, n, 1)), theory.eta_counit(t), n)


# Each axiom: the generator of its equations, and its composition depth, the
# number of times random elements are substituted into random elements.
# Degrees multiply under substitution in the uncapped theories, so deeper
# axioms draw smaller instances: the theory's row caps the degree and terms
# of draws per depth.  A capped theory has no caps in its row, because
# truncation bounds the blowup.
_AXIOMS = {
    "CD.1": (_cd1, 0), "CD.2": (_cd2, 0), "CD.3": (_cd3, 0),
    "CD.4": (_cd4, 0), "CD.5": (_cd5, 1), "CD.6": (_cd6, 0),
    "CD.7": (_cd7, 0),
    "dc.1": (_dc1, 0), "dc.2": (_dc2, 0), "dc.3": (_dc3, 0),
    "dc.4": (_dc4, 1), "dc.5": (_dc5, 0), "dc.6": (_dc6, 0),
    "monad.assoc": (_monad_assoc, 2), "monad.unit-left": (_monad_unit_left, 0),
    "monad.unit-right": (_monad_unit_right, 0),
    "du.1": (_du1, 0), "du.2": (_du2, 0),
}


def axiom_ids() -> list[str]:
    return list(_AXIOMS)


def _plan(axiom: str, theory: Theory, cfg) -> tuple:
    """The equations of ``axiom`` and the (degree, terms) bounds of its
    draws: the configured ones, within the caps of its composition depth."""
    equations, depth = _AXIOMS[axiom]
    d, t = cfg.max_degree, cfg.max_terms
    caps = theory.spec.bounds.get(depth, (d, t))
    return equations, (min(d, caps[0]), min(t, caps[1]))


def _trial(theory: Theory, cfg, plan: tuple, seed: int, rng,
           gen) -> Failure | None:
    """One trial from the stream ``rng`` of ``seed``, drawn by the
    ``generators`` module ``gen``: the first unequal equation as a Failure,
    or None when every equation holds."""
    equations, bounds = plan
    for inputs, lhs, rhs, base in equations(
            theory, _Draw(theory, cfg, rng, bounds, gen)):
        if lhs != rhs:
            return Failure(seed, inputs, lhs, rhs, base)
    return None


def run_trial(axiom: str, theory: Theory, cfg,
              seed: int) -> Failure | None:
    """Replay one trial of ``axiom`` from its seed, as :func:`run_axiom`
    runs it: the Failure it records, or None when the trial passes."""
    from . import generators as gen

    return _trial(theory, cfg, _plan(axiom, theory, cfg), seed,
                  gen.SplitMix64(seed), gen)


def run_axiom(axiom: str, theory: Theory, cfg,
              trials: int) -> AxiomReport:
    """Run one axiom's trials: compare the equations each trial yields and
    record the first unequal one.  Trial k runs from the seed
    ``mix(cfg.seed, stable_hash(axiom), k)``; the seeds and the opening
    outputs of the trials' streams come in chunks from
    ``generators.trial_streams``, and :func:`run_trial` replays any one of
    them from its seed alone.  ValueError for fewer than one trial."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    from . import generators as gen

    plan = _plan(axiom, theory, cfg)
    started = time.perf_counter()
    failures = []
    for seed, rng in gen.trial_streams(cfg.seed, gen.stable_hash(axiom),
                                       trials):
        failure = _trial(theory, cfg, plan, seed, rng, gen)
        if failure is not None:
            failures.append(failure)
    millis = int((time.perf_counter() - started) * 1000)
    return AxiomReport(axiom, trials, failures, millis)


def check_cd_axioms(theory: Theory, cfg,
                    trials: int = 200) -> list[AxiomReport]:
    return [run_axiom(a, theory, cfg, trials)
            for a in axiom_ids() if a.startswith("CD.")]


def check_dc_axioms(theory: Theory, cfg,
                    trials: int = 200) -> list[AxiomReport]:
    return [run_axiom(a, theory, cfg, trials)
            for a in axiom_ids() if a.startswith("dc.")]


def check_monad_and_unit_laws(theory: Theory, cfg,
                              trials: int = 200) -> list[AxiomReport]:
    return [run_axiom(a, theory, cfg, trials)
            for a in axiom_ids()
            if a.startswith("monad.") or a.startswith("du.")]


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
    least one axiom reports a failure.
    """
    broken = MutatedTheory(mutation, field, cap)
    return {r.axiom: len(r.failures) for r in check_all(broken, cfg, trials)}
