"""Each reference of oracles.py once against a closed form, at its full precision."""

import mpmath
import pytest

import oracles
from mockform.class_numbers import cohen_class_number

TOL = mpmath.mpf(10) ** -(oracles.DPS - 3)


def _close(x, y):
    return abs(x - y) <= TOL * max(1, abs(y))


def test_theta_at_i_over_2():
    with mpmath.workdps(oracles.DPS):
        closed = mpmath.pi ** 0.25 / mpmath.gamma(0.75)
    assert _close(oracles.theta(0.5j), closed)


def test_e2_star_vanishes_at_i():
    # the fixed point of E2*(-1/tau) = tau^2 E2*(tau)
    assert _close(oracles.e2_star(1j), 0)


def test_omega_at_alpha_one():
    # U(b, b + 1, y) = y^{-b}, so Omega(y, 1, beta) = 1
    for y in (0.3, 7.5, 120.0):
        for beta in (0.25, 1.0, 3.75):
            assert _close(oracles.omega(y, 1.0, beta), 1), (y, beta)


def test_incomplete_gamma_at_half_orders():
    with mpmath.workdps(oracles.DPS):
        for x in (0.01, 1.0, 30.0):
            erfc = mpmath.sqrt(mpmath.pi) * mpmath.erfc(mpmath.sqrt(x))
            assert _close(oracles.incomplete_gamma(0.5, x), erfc), x
            assert _close(oracles.incomplete_gamma(-0.5, x), 2 * mpmath.exp(-x) / mpmath.sqrt(x) - 2 * erfc), x


def test_hurwitz_zeta_at_one_half():
    for s in (1.5, 2.0, 9.0):
        with mpmath.workdps(oracles.DPS):
            closed = (2 ** mpmath.mpf(s) - 1) * mpmath.zeta(s)
        assert _close(oracles.hurwitz_zeta(s, 0.5), closed), s


def test_l_values_at_closed_forms():
    # Catalan's constant, and L(0, chi_d) = 2 h(d)/w(d) for d = -3, -4
    with mpmath.workdps(oracles.DPS):
        catalan, third = +mpmath.catalan, mpmath.mpf(1) / 3
    assert _close(oracles.l_value(-4, 2.0), catalan)
    assert _close(oracles.l_value(-3, 0.0), third)
    assert _close(oracles.l_value(-4, 0.0), 0.5)


@pytest.mark.parametrize("n", [0, 1, -3, 8, 12])
def test_dirichlet_series_is_its_definition(n):
    # E_n(s) = (sum_{c odd} gamma_c(n) c^{-s} + sum_j gamma_{2j}(n) j^{-s})/2; from
    # |gamma_c(n)| <= 2 sqrt(c) the moduli past c = M and 2j = 2M add at most
    # 4 M^{3/2-s}/(s - 3/2), 6e-18 here.  At n = 0 the oracle is the closed form
    # zeta(2s - 1)/zeta(2s).
    s, M = 12, 40
    with mpmath.workdps(oracles.DPS):
        partial = (mpmath.fsum(oracles.gauss_sum(c, n) * mpmath.mpf(c) ** -s for c in range(1, M + 1, 2))
                   + mpmath.fsum(oracles.gauss_sum(2 * j, n) * mpmath.mpf(j) ** -s
                                 for j in range(1, M + 1))) / 2
        assert abs(partial - oracles.dirichlet_series(n, s)) <= 4 * mpmath.mpf(M) ** (1.5 - s) / (s - 1.5)


def test_eisenstein_h_at_s_zero_is_the_cohen_series():
    # at k = 2, s = 0 the series is sum_n H(2, n) q^n; at tau = i the terms n > 30
    # are below 31^{3/2} e^{-62 pi}, about 10^-83
    with mpmath.workdps(oracles.DPS):
        q = mpmath.exp(-2 * mpmath.pi)
        series = mpmath.fsum(mpmath.mpf(h.numerator) / h.denominator * q ** n
                             for n, h in ((n, cohen_class_number(2, n)) for n in range(31)))
    assert _close(oracles.eisenstein_h(2, 0.0, 1j), series)
