import cmath
from fractions import Fraction
from math import exp, pi, sqrt

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as Gamma

from mockform.class_numbers import build_table
from mockform.config import EvalConfig
from mockform.eisenstein import Gamma04Matrix, modularity_residual
from mockform.maass import (
    alpha_limit,
    completed_hurwitz_series,
    e2_star,
    fourier_coefficient,
    laplacian_fd,
    s_limit_check,
    theta_series,
    theta_truncation,
    xi_shadow_analytic,
    xi_shadow_fd,
)
from mockform.special_functions import upper_incomplete_gamma

CFG = EvalConfig()

# frozen fixtures from the first verified build (quad_tol = 1e-14 evaluation)
THETA_AT_I = 1.003734885487739
COMPLETED_AT_I = -0.04353927711803409
E2STAR_AT_1_2I = 0.5224514736321328


def series_value(tau):
    return completed_hurwitz_series(tau, CFG).value


def test_theta_periodicity_and_values():
    tau = 0.3 + 0.7j
    assert abs(theta_series(tau + 1, CFG) - theta_series(tau, CFG)) < 1e-14
    assert abs(theta_series(10j, CFG) - (1 + 2 * exp(-20 * pi))) < 1e-8
    assert abs(theta_series(1j, CFG) - THETA_AT_I) < 1e-13
    # classical closed form at nome e^{-pi}
    assert abs(theta_series(0.5j, CFG) - pi ** 0.25 / Gamma(0.75)) < 1e-13


def test_theta_against_mpmath_jtheta():
    # Theta(tau) = jtheta(3, 0, q) with nome q = e^{2 pi i tau}; down to v = 4e-5
    # the series needs at most 400 terms at quad_tol = 1e-10
    for tau in (0.3 + 4e-5j, 1e-4j, 0.25 + 1e-3j, -0.4 + 0.01j, 0.1 + 0.3j, 0.7 + 2j):
        with mpmath.workdps(30):
            expected = complex(mpmath.jtheta(3, 0, mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))))
        _, tail = theta_truncation(tau.imag, CFG.quad_tol)
        assert tail <= CFG.quad_tol
        assert abs(theta_series(tau, CFG) - expected) <= tail + 1e-11, tau


def test_theta_refuses_beyond_400_terms():
    # at v = 1e-6 the capped series gave 597.02 where jtheta gives 707.107
    for v in (1e-6, 3e-5):
        with pytest.raises(ValueError, match="more than 400 terms"):
            theta_series(complex(0.0, v), CFG)
    assert theta_truncation(3.3e-5, CFG.quad_tol)[0] <= 400


def test_completed_series_values():
    val = completed_hurwitz_series(10j, CFG)
    dominant = -1 / 12 + 1 / (8 * pi * sqrt(10))
    assert abs(val.value - dominant) < 1e-15  # next terms are ~e^{-60 pi}
    assert abs(val.value - (val.holomorphic_part + val.nonholomorphic_part)) == 0
    assert abs(completed_hurwitz_series(1j, CFG).value - COMPLETED_AT_I) < 1e-12
    assert completed_hurwitz_series(1j, CFG).truncation_tail < 1e-9


def test_completed_series_guards():
    with pytest.raises(ValueError):
        completed_hurwitz_series(0.5 + 0.02j, CFG)
    small = build_table(5)
    with pytest.raises(ValueError, match=r"needs n <= \d+"):
        completed_hurwitz_series(0.3 + 0.2j, CFG, table=small)
    big = build_table(400)
    a = completed_hurwitz_series(0.3 + 0.6j, CFG, table=big)
    b = completed_hurwitz_series(0.3 + 0.6j, CFG)
    assert a == b


def test_alpha_limit_cases():
    assert abs(alpha_limit(0, 1.0) - (-1 / 12 + 1 / (8 * pi))) < 1e-15
    assert abs(alpha_limit(4, 1.0) - 0.5) == 0
    assert alpha_limit(-2, 1.0) == 0
    expect = (1 / (4 * sqrt(pi))) * upper_incomplete_gamma(-0.5, 4 * pi)
    assert abs(alpha_limit(-1, 1.0) - expect) == 0


def test_shadow_annihilates_holomorphic():
    for tau in (0.2 + 0.8j, 0.6 + 1.3j):
        assert abs(xi_shadow_fd(lambda t: theta_series(t, CFG), 0.5, tau, CFG)) < 1e-6


def test_shadow_of_completed_series_is_theta_over_16pi():
    # the measured shadow constant: xi_{3/2} applied to the completed series
    # returns -Theta/(16 pi), not -Theta/16
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        tau = complex(rng.uniform(0, 1), rng.uniform(0.3, 3.0))
        shadow = xi_shadow_fd(series_value, 1.5, tau, CFG)
        worst = max(worst, abs(shadow + theta_series(tau, CFG) / (16 * pi)))
    assert worst < 1e-5
    # and it cleanly rejects the pi-free constant
    tau = 0.25 + 0.9j
    shadow = xi_shadow_fd(series_value, 1.5, tau, CFG)
    assert abs(shadow + theta_series(tau, CFG) / 16) > 1e-2


def test_shadow_of_e2star_is_constant():
    vals = [xi_shadow_fd(lambda t: e2_star(t, CFG), 2.0, tau, CFG)
            for tau in (0.2 + 0.7j, 0.8 + 1.1j, 0.5 + 2.2j)]
    for v in vals:
        assert abs(v - 3 / pi) < 1e-6


def test_laplacian_annihilates_completed_series():
    rng = np.random.default_rng(31)
    for _ in range(10):
        tau = complex(rng.uniform(0, 1), rng.uniform(0.5, 2.0))
        assert abs(laplacian_fd(series_value, 1.5, tau, CFG)) < 1e-4


def test_laplacian_kernel_functions():
    tau = 0.2 + 0.8j
    assert abs(laplacian_fd(lambda t: t.imag ** -0.5, 1.5, tau, CFG)) < 1e-6
    for n in (1, 3):
        fn = lambda t: cmath.exp(2j * pi * n * t)
        assert abs(laplacian_fd(fn, 1.5, tau, CFG)) < 1e-6


def test_analytic_shadow_stream():
    stream = {c.exponent: c for c in xi_shadow_analytic(400)}
    squares = {n * n for n in range(1, 21)}
    assert set(stream) == {0} | squares
    assert stream[0].mantissa == Fraction(-1, 16) and stream[0].pi_power == -1
    for n in squares:
        assert stream[n].mantissa == Fraction(-1, 8) and stream[n].pi_power == -1
    # float cross-check against the finite-difference shadow at a point
    tau = 0.3 + 1.1j
    q = cmath.exp(2j * pi * tau)
    analytic = sum(float(c.mantissa) * pi ** float(c.pi_power) * q ** c.exponent
                   for c in stream.values())
    fd = xi_shadow_fd(series_value, 1.5, tau, CFG)
    assert abs(analytic - fd) < 1e-9


def test_completed_series_modularity():
    cases = (
        (Gamma04Matrix(1, 1, 0, 1), 0.4 + 0.9j),
        (Gamma04Matrix(1, 0, 4, 1), -0.25 + 0.45j),
        (Gamma04Matrix(-3, -1, 4, 1), -0.1 + 0.5j),
    )
    for g, tau in cases:
        assert min(tau.imag, g.apply(tau).imag) >= 0.08
        assert modularity_residual(series_value, 1, 0.0, g, tau) < 1e-6


def test_e2star():
    for tau in (1j, 1 + 1j, 0.5 + 0.5j):
        assert abs(e2_star(-1 / tau, CFG) - tau ** 2 * e2_star(tau, CFG)) < 1e-8
    assert abs(e2_star(1j, CFG)) < 1e-10  # fixed point of the inversion
    assert abs(e2_star(1 + 2j, CFG) - E2STAR_AT_1_2I) < 1e-10
    assert abs(e2_star(100j, CFG) - (1 - 3 / (100 * pi))) < 1e-10


def test_s_limit_check():
    for h, tol in ((3, 1e-3), (4, 1e-3), (-1, 1e-3), (-4, 1e-3), (-5, 1e-3)):
        lim = s_limit_check(h, 1.0, [1e-3, 1e-4], CFG)
        assert abs(lim - alpha_limit(h, 1.0)) < tol, h
    with pytest.raises(ValueError):
        s_limit_check(0, 1.0, [1e-3], CFG)
    with pytest.raises(ValueError):
        s_limit_check(3, 1.0, [0.5], CFG)


def test_fourier_coefficient_extraction():
    # coefficients of the completed series against the limit table; v = 0.25
    # keeps the e^{2 pi h v} amplification of rounding noise under control
    for h in range(-9, 10):
        got = fourier_coefficient(series_value, h, 0.25, 64)
        assert abs(got - alpha_limit(h, 0.25)) < 1e-8, h


def test_u_average_constant_term():
    mean = fourier_coefficient(series_value, 0, 1.0, 64)
    assert abs(mean - (-1 / 12 + 1 / (8 * pi))) < 1e-10
