import cmath
from math import gcd, pi, sqrt

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mockform.arithmetic import (
    epsilon_factor,
    jacobi_row,
    kronecker_column,
    kronecker_symbol,
    zeta_numeric,
)
from mockform import dirichlet_series
from mockform.dirichlet_series import (
    gamma_row,
    gauss_sum_gamma,
    lambda_factor,
    series_closed,
    series_odd_even,
    series_partial,
    upsilon,
)


def gamma_by_definition(c, n):
    """Direct 2c-term summation, the independent route to gamma_c(n)."""
    return sum(lambda_factor(a, c) * cmath.exp(-1j * pi * n * a / c)
               for a in range(1, 2 * c + 1)) / sqrt(c)


def test_lambda_factor():
    assert lambda_factor(1, 1) == 0  # both odd
    assert lambda_factor(2, 1) == 1
    assert abs(lambda_factor(1, 2) - cmath.exp(1j * pi / 4)) < 1e-15
    assert lambda_factor(2, 4) == 0  # both even
    assert lambda_factor(4, 3) == 1j ** -1 * kronecker_symbol(4, 3)
    with pytest.raises(ValueError):
        lambda_factor(0, 3)


def test_gamma_trivial_modulus():
    for n in (-5, 0, 1, 7):
        assert abs(gauss_sum_gamma(1, n) - 1) < 1e-14


def test_gamma_golden_values():
    assert abs(gauss_sum_gamma(3, 1) - 1.0) < 1e-13
    assert abs(gauss_sum_gamma(5, 2) - (-1.0)) < 1e-13
    assert abs(gauss_sum_gamma(4, 1) - 2.0) < 1e-13
    assert abs(gauss_sum_gamma(6, 5) - (-1.0)) < 1e-13


def test_gamma_against_direct_summation():
    rng = np.random.default_rng(7)
    for _ in range(60):
        c = int(rng.integers(1, 60))
        n = int(rng.integers(-25, 26))
        assert abs(gauss_sum_gamma(c, n) - gamma_by_definition(c, n)) < 1e-11, (c, n)


def test_gamma_triangle_bound():
    rng = np.random.default_rng(11)
    for _ in range(200):
        c = int(rng.integers(1, 120))
        n = int(rng.integers(-40, 41))
        assert abs(gauss_sum_gamma(c, n)) <= 2 * sqrt(c) + 1e-9


def test_upsilon_equals_gamma():
    assert upsilon(1, 1, 3) == 1
    for m in range(1, 100, 2):
        for k in (1, 2):
            for h in (-20, -7, -1, 0, 1, 4, 13, 20):
                lhs = upsilon(m, k, h)
                rhs = gauss_sum_gamma(m, (-1) ** k * h)
                assert abs(lhs - rhs) < 1e-12, (m, k, h)
    with pytest.raises(ValueError):
        upsilon(4, 1, 1)


def test_eighth_root_prefactor_identities():
    for m in range(1, 100, 2):
        eps = epsilon_factor(m)
        i_pow = 1j ** (((1 - m) // 2) % 4)  # exact fourth root
        assert abs(i_pow * kronecker_symbol(2, m) - eps ** -3) < 1e-14
        assert abs(i_pow * kronecker_symbol(-2, m) - eps ** -5) < 1e-14
        half = cmath.exp(1j * pi * (m % 8) / 4)
        assert abs(sqrt(2) * kronecker_symbol(2, m) * 1j / eps - (1 + 1j) * half) < 1e-14
        assert abs(sqrt(2) * kronecker_symbol(2, m) / eps - (1 - 1j) * half) < 1e-14


def test_series_partial_matches_closed():
    for n in (0, 1, 4, 5, -3, -4, 8, -7):
        part = series_partial(n, 3.0, 600)
        closed = series_closed(n, 3.0)
        assert abs(part.value - closed) <= part.tail_bound, n
        assert part.terms_used == 900  # 300 odd moduli + 600 even moduli


def test_series_vanishing_classes():
    for n in (2, 3, 6, -1, -2, 7):
        assert series_closed(n, 3.0) == 0.0
        part = series_partial(n, 3.0, 400)
        assert abs(part.value) < 1e-12  # truncations vanish identically here


def test_series_zero_argument():
    # E_0(s) = zeta(2s-1) / zeta(2s)
    assert abs(series_closed(0, 2.0) - zeta_numeric(3.0) / zeta_numeric(4.0)) < 1e-12
    part = series_partial(0, 3.0, 600)
    assert abs(part.value - zeta_numeric(5.0) / zeta_numeric(6.0)) <= part.tail_bound


def test_series_square_argument_uses_zeta():
    # n = 4: d = 1, f = 2, T_s(2)/2^{2s-1} with the constant character
    s = 2.0
    t_factor = (1 + 2 ** (2 * s - 1) - 2 ** (s - 1)) / 2 ** (2 * s - 1)
    expect = zeta_numeric(s) / zeta_numeric(2 * s) * t_factor
    assert abs(series_closed(4, s) - expect) < 1e-12


def test_series_odd_even_split():
    odd, even = series_odd_even(1, 3.0, 500)
    assert abs(0.5 * (odd + even) - series_partial(1, 3.0, 500).value) < 1e-12
    odd0, _ = series_odd_even(0, 3.0, 300)
    direct = sum(gauss_sum_gamma(c, 0) * c ** -3.0 for c in range(1, 301, 2))
    assert abs(odd0 - direct) < 1e-12
    odd3, even3 = series_odd_even(-3, 3.0, 400)
    mean = 0.5 * (odd3 + even3)
    part = series_partial(-3, 3.0, 400)
    assert abs(mean - series_closed(-3, 3.0)) <= part.tail_bound


def test_series_domain_checks():
    with pytest.raises(ValueError):
        series_partial(1, 1.2, 100)
    with pytest.raises(ValueError):
        series_closed(1, 1.0)
    with pytest.raises(ValueError, match="M >= 1"):
        series_odd_even(1, 3.0, 0)


def test_tail_bound_formula():
    part = series_partial(1, 3.0, 2000)
    assert abs(part.tail_bound - 4.0 * 2000 ** -1.5 / 1.5) < 1e-15
    assert part.tail_bound <= 1e-2


def _gamma_by_complex_exp(c, n):
    """The full-period complex-exponential gamma_c(n), kept as an oracle for the real kernel.

    The phase exponent n a is reduced mod 2c before exp (a period of
    e^{-pi i x / c}); unreduced, the sum is off by up to 1.8e-11 at
    c ~ 4000, |n| ~ 10^4.
    """
    if c % 2 == 1:
        b = np.arange(c)
        phase = np.exp(-1j * pi * ((2 * n * b) % (2 * c)) / c)
        pref = 1j ** ((1 - c) // 2) * kronecker_symbol(2, c) / sqrt(c)
        return complex(pref * (jacobi_row(c) * phase).sum())
    a = np.arange(1, 2 * c, 2)
    roots = np.exp(1j * pi * (a % 16) / 4)
    phase = np.exp(-1j * pi * ((n * a) % (2 * c)) / c)
    return complex((roots * kronecker_column(c, a) * phase).sum() / sqrt(c))


def test_gamma_real_kernel_against_definition_small_moduli():
    # every c <= 64 covers each class of c mod 8, c = 0 and c = 2 (mod 4) alike
    for c in range(1, 65):
        for n in range(-40, 41):
            assert abs(gauss_sum_gamma(c, n) - gamma_by_definition(c, n)) < 1e-11, (c, n)


def test_gamma_real_kernel_against_complex_exp_large_moduli():
    rng = np.random.default_rng(2024)
    ns = [-10 ** 4, -9999, -1, 0, 1, 9999, 10 ** 4] + rng.integers(-10 ** 4, 10 ** 4 + 1, 40).tolist()
    for c in range(3990, 4001):
        for n in ns:
            assert abs(gauss_sum_gamma(c, n) - _gamma_by_complex_exp(c, n)) <= 1e-11, (c, n)


def _gamma_mpmath(c, n):
    """gamma_c(n) from its definition in 30-digit mpmath, phases as exact rationals."""
    with mpmath.workdps(30):
        terms = []
        for a in range(1, 2 * c + 1):
            if c % 2 == 1 and a % 2 == 0:
                root, symbol = mpmath.mpf(1 - c) / 4, kronecker_symbol(a, c)
            elif c % 2 == 0 and a % 2 == 1:
                root, symbol = mpmath.mpf(a) / 4, kronecker_symbol(c, a)
            else:
                continue
            terms.append(symbol * mpmath.expjpi(root - mpmath.mpf(n * a) / c))
        return complex(mpmath.fsum(terms) / mpmath.sqrt(c))


def test_gamma_real_kernel_against_mpmath_at_large_n():
    # |n| ~ 10^4; at the first three the unreduced complex-exp sum is off by 1.5e-11 to 1.8e-11
    for c, n in ((3996, -9999), (3993, -9681), (3993, 8471), (3998, 10 ** 4)):
        assert abs(gauss_sum_gamma(c, n) - _gamma_mpmath(c, n)) < 1e-13, (c, n)


def test_gamma_imaginary_part_is_exactly_zero():
    for c in (1, 2, 3, 4, 5, 6, 7, 8, 97, 98, 99, 100, 3999, 4000):
        for n in (-10 ** 5, -3, 0, 1, 2, 10 ** 5 + 1):
            value = gauss_sum_gamma(c, n)
            assert type(value) is complex and value.imag == 0.0, (c, n)


@settings(max_examples=300, deadline=None)
@given(c=st.integers(0, 249).map(lambda j: 2 * j + 1), n=st.integers(-10 ** 5, 10 ** 5),
       k=st.sampled_from((1, 2)))
@example(c=499, n=10 ** 5, k=1)
@example(c=495, n=-10 ** 5, k=2)
def test_gamma_real_kernel_matches_upsilon_property(c, n, k):
    # upsilon(c, k, h) = gamma_c((-1)^k h) and upsilon has period c in h; the
    # oracle gets the reduced h, where its phase error stays near 1e-12
    assert abs(gauss_sum_gamma(c, n) - upsilon(c, k, ((-1) ** k * n) % c)) < 1e-11


def test_gamma_multiplicative_on_coprime_moduli():
    # the Euler product gamma_row rests on, checked against the trig kernel itself
    for n in (0, 1, -3, 7, -12, 30):
        gamma = {c: gauss_sum_gamma(c, n).real for c in range(1, 80)}
        for c1 in range(2, 80):
            for c2 in range(c1 + 1, 80):
                if gcd(c1, c2) == 1:
                    product = gamma[c1] * gamma[c2]
                    assert abs(gauss_sum_gamma(c1 * c2, n).real - product) < 1e-9, (c1, c2, n)


def test_gamma_row_matches_kernel():
    for n in (0, -7, 10 ** 4 + 1):
        row = gamma_row(n, 4000)
        assert row.dtype == np.int64 and row[0] == 0
        for c in range(1, 4001):
            assert abs(row[c] - gauss_sum_gamma(c, n).real) < 1e-10, (c, n)
    with pytest.raises(ValueError):
        gamma_row(1, 0)


def test_gamma_row_refuses_non_integer_prime_power(monkeypatch):
    kernel = dirichlet_series.gauss_sum_gamma
    monkeypatch.setattr(dirichlet_series, "gauss_sum_gamma",
                        lambda c, n: kernel(c, n) + (1e-3 if c == 9 else 0))
    assert gamma_row(5, 8).tolist() == [0] + [round(kernel(c, 5).real) for c in range(1, 9)]
    with pytest.raises(ArithmeticError, match=r"gamma_9\(5\)"):
        gamma_row(5, 9)
