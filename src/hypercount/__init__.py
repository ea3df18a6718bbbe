"""Frobenius characteristic polynomials and Jacobian orders for the
hyperelliptic family y^2 = x^(2g+1) + a x^(g+1) + b x over F_q, q odd.

The family's extra automorphism splits the Jacobian over a small
extension; everything here exploits that: Cartier-Manin matrices in
closed form, chi mod p from a factored table, full chi by counting on
the quotient curves and descending, plus the Legendre-polynomial
congruences that fall out along the way.  A brute-force zeta oracle
cross-checks all of it at desk scale.
"""

from .cartier import (CMMatrix, ChiModP, chi_mod_p, chi_mod_p_table,
                      cm_matrix_formula, cm_matrix_naive, wp_product)
from .config import DEFAULT_BUDGET, DEFAULT_SEED, DEFAULT_TRIALS
from .counting import (SKIPPED, chi_generic, chi_genus3, count,
                       frobenius_trace, legendre_octic_congruence,
                       legendre_trace_congruence)
from .curves import (CurveSpec, LPoly, count_points, curve_from_ab,
                     curve_from_f, jac_add, jac_identity, jac_neg,
                     jac_scalar_mul, jacobian_order_check,
                     jacobian_order_screen, lpoly_from_counts, random_divisor,
                     zeta_oracle)
from .decomp import (QuotientPair, decomposition_check, elliptic_quotient,
                     quotients_family, quotients_normalized, split_quotients,
                     splitting_field_degree, twist_curves)
from .descent import (CandidateSet, a1_elimination_coeffs, extend_lpoly,
                      generic_descend, genus4_descend, weil_filter)
from .errors import (AmbiguousResult, BadGenus, BudgetExceeded,
                     CharacteristicDividesGenus, HypercountError,
                     MismatchDetected, NoCandidateSurvives, NotPrime,
                     NotPrimeField, RowNotApplicable, SingularCurve,
                     SingularSpecialization)
from .fields import (embed, is_prime, make_extension, make_prime_field,
                     next_prime, nth_root, nth_root_field_degree,
                     prime_factors, project)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
