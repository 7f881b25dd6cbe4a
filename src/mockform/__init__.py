"""Hurwitz class numbers and Zagier's weight 3/2 mock modular form.

Library layout:

    arithmetic        Kronecker symbol and tables, Bernoulli numbers, zeta values
    characters        quadratic characters chi_d and their L-functions
    class_numbers     ClassNumberTable, one row of 6 H (reduced forms, certified
                      by the Kronecker-Hurwitz class number relations), served by
                      hurwitz_table and hurwitz_class_number; Cohen H(r, N)
    dirichlet_series  gamma_c Gauss sums and the series E_n(s)
    special_functions Gamma(+-1/2, x), the Omega integral, the rho kernel
    eisenstein        theta multiplier system, E / F / H series, two routes
    maass             the completed class number series, shadow, Laplacian
    verify            ReportRecord suites behind ``mockform verify``
    cache, cli        persistent table cache (certified on every load) and the
                      command line tool

The per-N reduced-form enumeration, the Gauss-sum weights lambda(a, c) and
the odd-modulus character sums live in the tests, as the definitions the
library's one-pass routes are checked against.
"""

from .arithmetic import (
    bernoulli_number,
    epsilon_factor,
    fundamental_discriminant,
    kronecker_symbol,
    moebius,
    sigma_divisor,
    zeta_exact_neg,
    zeta_numeric,
)
from .characters import (
    QuadraticCharacter,
    l_exact_neg,
    l_numeric,
)
from .class_numbers import (
    ClassNumberTable,
    build_table,
    cohen_class_number,
    hurwitz_class_number,
    hurwitz_table,
)
from .config import DEFAULT_CONFIG, BoundedValue, EvalConfig
from .dirichlet_series import (
    gauss_sum_gamma,
    series_closed,
    series_partial,
)
from .eisenstein import (
    Gamma04Matrix,
    automorphy_factor,
    eisenstein_direct,
    eisenstein_fourier,
    lattice_tail_estimate,
    modularity_residual,
    multiplier_identity_residual,
    theta_multiplier,
)
from .maass import (
    HarmonicFormValue,
    ShadowCoefficient,
    alpha_limit,
    completed_hurwitz_series,
    e2_star,
    fourier_coefficient,
    laplacian_fd,
    s_limit_check,
    theta_series,
    xi_shadow_analytic,
    xi_shadow_fd,
)
from .special_functions import (
    QuadratureError,
    omega,
    rho_kernel,
    upper_incomplete_gamma,
)

__version__ = "0.1.0"
