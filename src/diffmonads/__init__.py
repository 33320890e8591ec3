"""Exact computer algebra for three differential theories and their axioms.

The library implements reduced power series (with a polynomial baseline),
reduced divided power polynomials, and the free Zinbiel algebra on words,
each with its substitution monad and differential combinator, a generic
Lawvere-style morphism layer, and exact checkers for the Cartesian
differential category axioms.
"""

from .cdc import (THEORIES, AxiomReport, Morphism, MutatedTheory, Theory,
                  check_all, check_cd_axioms, check_dc_axioms,
                  check_monad_and_unit_laws, codiagonal, compose,
                  diagonal, differentiate, identity, injection,
                  interchange_map, is_dlinear, lift_map, linearize,
                  make_theory, mutation_is_caught, pairing, product_map,
                  projection)
from .dividedpower import DPElement
from .element import Element
from .errors import (ArityError, DiffmonadError, DivisionByZero, MixedFields,
                     NonIntegralQuotient, NonReducedArgument, NotReduced,
                     ParseError, ShapeMismatch, TooLarge)
from .generators import (GenConfig, SplitMix64, enumerate_basis,
                         half_shuffle_oracle, interleavings, mix,
                         naive_substitute_oracle, random_element,
                         random_morphism, stable_hash,
                         symmetrized_expand_oracle)
from .powerseries import EMPTY_INDEX, MultiIndex, SeriesElement
from .scalars import (FieldSpec, Scalar, binomial, dp_power_coeff, multinomial,
                      prime_field, rationals)
from .syntax import format_element, parse_element, variable_name
from .zinbiel import ZinElement, divided_to_zinbiel, right_nested

__version__ = "0.1.0"
