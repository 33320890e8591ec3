"""Exact computer algebra for three differential theories and their axioms.

The library implements reduced power series (with a polynomial baseline),
reduced divided power polynomials, and the free Zinbiel algebra on words,
each with its substitution monad and differential combinator, a generic
Lawvere-style morphism layer, and exact checkers for the Cartesian
differential category axioms.

``import diffmonads`` loads what building a theory and computing in it
needs: the scalars, the element core and its three element modules, the
errors, and ``category``, the theories, morphisms and structural maps.
Three modules load on first use instead, because building a theory never
calls them:

* ``cdc``, the axiom checks and the near-miss combinators, on ``check``;
* ``generators``, the random draws and trial streams, with ``cdc``;
* ``syntax``, the parser and printer of expressions, on the first failure
  report written and on ``import diffmonads.cli``.

Each also loads on the first access to one of its names here, such as
``diffmonads.check_all`` or ``diffmonads.parse_element`` (PEP 562).  Such a
name is looked up in its module on every access, never copied here.
"""

from .category import (THEORIES, Morphism, Theory, codiagonal, compose,
                       diagonal, differentiate, identity, injection,
                       interchange_map, is_dlinear, lift_map, linearize,
                       make_theory, pairing, product_map, projection)
from .dividedpower import DPElement
from .element import Element
from .errors import (ArityError, DiffmonadError, DivisionByZero, MixedFields,
                     NonIntegralQuotient, NotReduced, ParseError,
                     ShapeMismatch, TooLarge)
from .powerseries import EMPTY_INDEX, MultiIndex, SeriesElement
from .scalars import (FieldSpec, Scalar, binomial, dp_power_coeff, multinomial,
                      prime_field, rationals)
from .zinbiel import ZinElement, divided_to_zinbiel, right_nested

__version__ = "0.1.0"

# name -> the module, loaded on first use, that defines it
_LAZY = dict.fromkeys(
    ("cdc", "AxiomReport", "MutatedTheory", "check_all",
     "mutation_is_caught"), "cdc") | dict.fromkeys(
    ("generators", "GenConfig", "SplitMix64", "enumerate_basis", "mix",
     "random_element", "random_morphism", "stable_hash"),
    "generators") | dict.fromkeys(
    ("syntax", "format_element", "parse_element", "variable_name"), "syntax")

# every public name, submodules included, as a star import bound them when
# all of them were loaded here
__all__ = sorted([name for name in globals() if not name.startswith("_")] +
                 list(_LAZY))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
