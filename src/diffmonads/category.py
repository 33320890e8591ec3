"""The Lawvere-style category of a differential theory.

Morphisms n -> m are m-tuples of elements over n variables; composition is
substitution.  Products of objects are sums of arities, which makes the
structural maps (identities, projections, injections, the sum map, the lift
map ell and the interchange map c) linear: each component is a sum of
variables or zero.  A structural map carries that *linear spec*, the tuple of
variables that each component sums, and is built once per theory and spec.
Its components share elements: a single variable is the source's unit
x_v, an empty sum the source's one zero, and only a sum of two or more
variables is a coefficient dict of its own.  The specs of the named maps, and
of the product of two structural maps, are cached per process; the monad's
units are the identity's.  Composing an element along a structural map
(:func:`along`) rewrites its keys directly (``substitute_linear``) where the
theory's keys can follow the spec: words follow every spec, and packed
monomials every spec whose targets are pairwise distinct, renamings alike
and sums (the sum map) at exponents up to 1, as in the derivatives that CD.2
and dc.2 compose.  A spec with a repeated target (the diagonal), or a summed
exponent above 1, takes the generic substitution of the memoized
components.  The generic substitution, which the monad laws, CD.5 and dc.4
still exercise, is the oracle of the key rewrites.  Differentiation applies
the theory's combinator componentwise and doubles the source arity.

Theories are interned: :func:`make_theory` returns one theory per kind,
field and effective cap while :func:`interned_theory` keeps it, so the memos
of its structural maps and samplers last across checks.  Build a
``Theory(...)`` directly for a theory, and memos, of your own.

This module loads with the package and needs only the element core.  The
checks that this category is Cartesian differential are in ``cdc``.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache

from .dividedpower import DPElement
from .errors import ShapeMismatch
from .powerseries import SeriesElement
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
                 "units", "structural", "samplers")

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
        self.units: dict = {}  # source -> (x_0, ..., x_{source-1}, zero)
        self.structural: dict = {}  # (source, spec) -> the Morphism
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
        """The monad unit x_i, the i-th component of the memoized identity."""
        if not 0 <= i < arity:
            raise ShapeMismatch(f"variable {i} out of range for arity {arity}")
        return self.eta_tuple(arity)[i]

    def eta_tuple(self, arity: int) -> tuple:
        return self.linear_map(arity, _block(0, arity)).components

    def linear_map(self, source: int, spec: tuple) -> "Morphism":
        """The structural map source -> len(spec) of linear spec ``spec``, a
        tuple of tuples of variable indices.

        Structural maps are immutable, so each is built once per theory and
        spec, and an interned theory (:func:`make_theory`) keeps it for the
        process.  A component of one variable is the source's unit x_v and
        an empty one the source's zero, shared by every map out of
        ``source``; a sum is one coefficient dict of unit keys, so a variable
        repeated in it adds up (and vanishes in characteristic 2).
        """
        got = self.structural.get((source, spec))
        if got is None:
            for variables in spec:
                for v in variables:
                    if not 0 <= v < source:
                        raise ShapeMismatch(f"variable {v} out of range for "
                                            f"arity {source}")
            element, p = self.element, self.field.p
            units = self.units.get(source)
            if units is None and spec:
                shape = self.shapes[source]
                units = self.units[source] = tuple(
                    element._make(shape, {element._key(((v, 1),)): 1})
                    for v in range(source)) + (element._make(shape, {}),)
            comps = []
            for variables in spec:
                if len(variables) < 2:
                    comps.append(units[variables[0] if variables else -1])
                else:
                    coeffs: dict = {}
                    for v in variables:
                        accumulate(coeffs, element._key(((v, 1),)), 1, p)
                    comps.append(element._make(self.shapes[source], coeffs))
            got = self.structural[source, spec] = Morphism._make(
                self, source, len(spec), tuple(comps), spec)
        return got

    # -- the differential structure ------------------------------------------

    def partial(self, f):
        """The differential combinator transformation on elements."""
        return f.partial_combinator()

    def eta_counit(self, f):
        """eta after counit: the degree-1 part of an element."""
        degree = self.element._degree
        return self.element._make(self.shapes[f.arity],
                                  {key: c for key, c in f.coeffs.items()
                                   if degree(key) == 1})

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


# Interned theories, at most this many: the 9 acceptance configurations and
# the 3 mutated theories over Q and F5 fit, with room to spare.
INTERNED_THEORIES = 32


@lru_cache(maxsize=INTERNED_THEORIES)
def interned_theory(cls: type, name: str, field: FieldSpec,
                    cap: int | None) -> Theory:
    """The process's one ``cls(name, field, cap)``, while the cache keeps it:
    a :class:`Theory`, or a subclass that takes the same arguments.  A call
    that raises caches nothing."""
    return cls(name, field, cap)


def make_theory(kind: str, field: FieldSpec, cap: int | None = 6) -> Theory:
    """The interned theory of the row ``kind`` of :data:`THEORIES`, over
    ``field``; ``cap`` acts only where the row has ``cap_option``.

    Equal arguments, and caps that the row ignores, give the same theory,
    with the memos of its structural maps and samplers, for as long as
    :func:`interned_theory` keeps it; build ``Theory(kind, field, cap)`` for
    a private theory with memos of its own.  A bad kind or cap raises on
    every call."""
    row = THEORIES.get(kind)
    if row is not None and not row.cap_option:
        cap = None
    return interned_theory(Theory, kind, field, cap)


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
    when inner is a structural map, compose each along it (:func:`along`)."""
    if outer.theory != inner.theory:
        raise ShapeMismatch("morphisms from different theories")
    if outer.source != inner.target:
        raise ShapeMismatch(f"cannot compose {inner.target} -> with "
                            f"source {outer.source}")
    if inner.linear is None:
        args, arity = inner.components, inner.source
        comps = tuple([c.substitute(args, arity=arity)
                       for c in outer.components])
    else:
        comps = tuple([along(c, inner) for c in outer.components])
    return Morphism._make(outer.theory, inner.source, outer.target, comps)


def along(f, m: Morphism):
    """The element f composed with the structural map m: f's keys rewritten
    along ``m.linear`` where the theory can follow it, else the generic
    substitution of m's memoized components."""
    got = f.substitute_linear(m.linear, m.source)
    if got is None:
        got = f.substitute(m.components, arity=m.source)
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
        return p.theory.linear_map(src, _product_spec(p.linear, p.source,
                                                      q.linear))
    left = tuple(c.extend_arity(src, 0) for c in p.components)
    right = tuple(c.extend_arity(src, p.source) for c in q.components)
    return Morphism._make(p.theory, src, p.target + q.target, left + right)


@lru_cache(maxsize=1024)
def _block(start: int, count: int) -> tuple:
    """The spec of the variables start, ..., start + count - 1, one each."""
    return tuple((i,) for i in range(start, start + count))


@lru_cache(maxsize=1024)
def _product_spec(left: tuple, source: int, right: tuple) -> tuple:
    """The spec of p x q, for p of spec ``left`` out of ``source`` variables
    and q of spec ``right``: q's variables shifted past p's block."""
    return left + tuple(tuple(source + i for i in variables)
                        for variables in right)


@lru_cache(maxsize=1024)
def _sum_spec(n: int) -> tuple:
    """The spec of the sum map n x n -> n: x_i goes to x_i + x_{n+i}."""
    return tuple((i, n + i) for i in range(n))


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
    return theory.linear_map(2 * n, _sum_spec(n))


def lift_map(theory: Theory, n: int) -> Morphism:
    """ell = iota_0 x iota_1 : n x n -> (n x n) x (n x n)."""
    return theory.linear_map(2 * n, _lift_spec(n))


def interchange_map(theory: Theory, n: int) -> Morphism:
    """c = <pi_0 x pi_0, pi_1 x pi_1>, swapping the middle blocks."""
    return theory.linear_map(4 * n, _interchange_spec(n))


def differentiate(p: Morphism) -> Morphism:
    """Componentwise differential combinator; the source arity doubles."""
    theory = p.theory
    return Morphism._make(theory, 2 * p.source, p.target,
                          tuple(map(theory.partial, p.components)))


def linearize(p: Morphism) -> Morphism:
    """D[p] restricted to the dual block: compose with iota_1."""
    return compose(differentiate(p), injection(p.theory, p.source, p.source, 1))


def is_dlinear(p: Morphism) -> bool:
    """Whether p equals its own linearization; equivalently, whether
    eta-after-counit fixes every component."""
    return linearize(p) == p
