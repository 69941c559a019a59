"""Cyclic codes over the chain ring Z_p + uZ_p + ... + u^(k-1)Z_p (u^k = 0)."""

from .chainring import RkElem, RkPoly
from .code import (CyclicCode, TorsionTower, code_from_generators,
                   code_from_json, code_to_json, load_code_file)
from .distance import (PAdicExpansion, classify_p_adic, distance_power_length,
                       closed_form_distance, product_law_check)
from .gfp import (BudgetError, FpPoly, PrimeParams, divisors_xn_minus_1,
                  factor_xn_minus_1, fp_cyclic_min_weight, is_prime,
                  poly_gcd, poly_xgcd)
from .linalg import InvariantError
from .structure import (CanonicalForm, SpanningSet, canonical_form,
                        cardinality_formula_check, collapse_coprime,
                        enumerate_coprime, is_free, minimal_spanning_set,
                        rank, verify_constraints)

__version__ = "0.1.0"
