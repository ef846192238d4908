"""Computational toolkit and verification harness for quadratic primes n^2 + d."""

from .arith import (Factorization, factorize, is_prime_power, is_prime_u64,
                    von_mangoldt)
from .congruence import ValueSieve, rho, roots_mod, sqrt_mod_prime
from .lcmpsi import B_constant, PsiTrace, psi_f, psi_residual_trend
from .nagell import consecutive_powers, lebesgue_nagell_solve
from .primes import (ConstantEstimate, fouvry_iwaniec_sum,
                     hardy_littlewood_constant, largest_prime_factor_records,
                     pi_f, prime_power_scan, quadratic_primes,
                     twin_quadratic_pairs)
from .stats import high_omega_mass, landau_ratio, pi_k
from .sums import (SumDecomposition, dirichlet_partial, dyadic_split, lhs_sum,
                   progression_sum, rhs_mobius_expansion)
from .verify import SuiteParams, run_suite

__version__ = "0.1.0"
