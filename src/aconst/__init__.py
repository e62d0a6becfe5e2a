"""Exact mod-p analogues of e and Euler's constant.

Core surface: prime windows and residue families (modular), exact
polynomials and Gregory machinery (polys), the Bell-side congruence family
(dobinski), the Euler-constant congruence family (euler), real-series
evaluators (analytic), and verification reports (report).  The `aconst`
command line drives all of it.
"""

from .analytic import (
    GAMMA_REF_DIGITS,
    asymptotic_sanity,
    bla101_partial,
    d_r_numeric,
    gamma_reference,
    gregory_value_float,
    mascheroni_partial,
)
from .dobinski import (
    CoeffFamily,
    bell,
    check_truncation_identity,
    coeff_family,
    d_r_A,
    d_r_A_range,
    g_seq,
    numeric_identity_check,
    partial_sum_exact,
    verify_dobinski,
)
from .euler import (
    G_A,
    L1,
    ell_A,
    fermat_quotient,
    gamma_K,
    gamma_M,
    verify_eisenstein,
    verify_interlude,
    verify_kluyver,
    verify_log_additivity,
    verify_mascheroni,
    wilson_gamma,
)
from .modular import (
    AElement,
    PrimeCtx,
    binom_rational_mod,
    rational_mod,
    rational_pow_mod_p2,
    sieve_primes,
)
from .polys import (
    N_nk,
    RationalPolynomial,
    StirlingTriangles,
    TruncatedSeries,
    binomial_polynomial,
    check_euler_operator_ode,
    check_shift_identity,
    gregory_explicit,
    gregory_polynomial,
    gregory_polynomials,
    gregory_residue_stream,
    gregory_values_exact,
    series_log1p,
    series_pow_binomial,
    stirling1_row_mod,
    stirling_rows,
)
from .report import CheckRecord, SkipRecord, VerificationReport

__version__ = "0.1.0"
