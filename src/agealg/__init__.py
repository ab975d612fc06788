"""Exact-arithmetic profiles, age algebras and Hilbert series of relational
structures presented by finite block templates, plus the plane-tree shuffle
structure as a worked infinite-dimensional contrast."""

__version__ = "0.1.0"

from .algebra import (OrbitSum, TypeRegistry, e_orbit, kernel_elements_bounded,
                      mult_by_e_rank, orbit_product, profile, profile_series,
                      structure_constant, unit_orbit)
from .decomposition import (is_F_monomorphic_up_to, is_monomorphic_part,
                            fatness_threshold, minimal_decomposition,
                            pair_mergeable, partition_lower_bound,
                            profile_floor_params, template_components)
from .errors import (AgeAlgError, ConsistencyError, InputError,
                     NotRationalError, UndeterminedError)
from .hilbert import (HilbertForm, IntSeries, QuasiPolynomial,
                      WeightedMonomialIdeal, check_addlayer, compare_monomials,
                      fit_rational, hilbert_via_leading, ideal_hilbert, layers,
                      nonnegative_form, quasi_polynomial, two_path_hilbert)
from .structures import (FiniteRelStruct, Signature, canonical_code,
                         find_isomorphism, restrict)
from .templates import (BlockTemplate, TuplePattern, c3_chains,
                        clique_plus_coclique, clique_sum, coclique,
                        compositions, groupoid_example, instantiate, lex_sum,
                        present, qsym, rqsym, sym, validate,
                        wheel_plus_coclique)

__all__ = [name for name in dir() if not name.startswith("_")]
