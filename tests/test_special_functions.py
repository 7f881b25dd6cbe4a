import cmath
from math import exp, pi, sqrt

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc as scipy_erfc, gamma as Gamma, gammaincc, hyperu

from mockform import special_functions
from mockform.config import EvalConfig
from mockform.special_functions import (
    erfc_scalar,
    omega,
    rho_kernel,
    upper_incomplete_gamma,
    xi_fourier_kernel,
)

CFG = EvalConfig(quad_tol=1e-12)


def test_erfc_against_scipy():
    for x in np.concatenate([np.linspace(0.0, 6.0, 121),
                             np.linspace(1.40, 1.60, 41), [1e-8, 9.5, 15.0]]):
        ref = scipy_erfc(x)
        assert abs(erfc_scalar(float(x)) - ref) <= 1e-13 * max(ref, 1e-300), x
    assert abs(erfc_scalar(-1.0) - scipy_erfc(-1.0)) < 1e-13


def test_incomplete_gamma_half_orders():
    assert abs(upper_incomplete_gamma(0.5, 1e-12) - sqrt(pi)) < 1e-5
    # quadrature oracle for Gamma(-1/2, 1): the defining integral on [1, 60]
    oracle, err = quad(lambda t: exp(-t) * t ** -1.5, 1.0, 60.0,
                       epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    assert abs(upper_incomplete_gamma(-0.5, 1.0) - oracle) < 1e-12
    assert abs(upper_incomplete_gamma(-0.5, 1.0) - 0.17814771178156069) < 1e-13


def test_incomplete_gamma_recurrence():
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}
    for s, x in ((-0.5, 2.0), (0.5, 0.7), (1.5, 4.0), (-1.5, 1.3)):
        lhs = upper_incomplete_gamma(s + 1.0, x)
        rhs = s * upper_incomplete_gamma(s, x) + x ** s * exp(-x)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs)), (s, x)


def test_incomplete_gamma_positive_orders_against_scipy():
    for s in (0.25, 1.0, 2.5, 7.0):
        for x in (0.1, 1.0, 5.0, 20.0):
            ref = gammaincc(s, x) * Gamma(s)
            assert abs(upper_incomplete_gamma(s, x) - ref) <= 1e-12 * max(ref, 1e-300)


def test_incomplete_gamma_domain():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-0.5, 0.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(1.0, -1.0)


def test_omega_beta_zero_and_symmetry():
    assert omega(3.0, 2.5, 0.0) == 1.0
    for a in np.linspace(0.1, 0.9, 5):
        for b in np.linspace(0.1, 0.9, 5):
            lhs = omega(2.0, 1.0 - b, 1.0 - a, CFG)
            rhs = omega(2.0, a, b, CFG)
            assert abs(lhs - rhs) < 1e-9, (a, b)


def test_omega_against_hyperu():
    # Omega(y, a, b) = y^b U(b, a + b, y): independent special-function route.
    # Comparison at 1e-9 because scipy's hyperu itself is only good to ~1e-10.
    for (y, a, b) in ((4.0, 2.5, 1.0), (6.0, 1.501, 1e-3), (12.0, 1.5001, 1e-4),
                      (2.0, -0.5, 1.0), (9.0, 0.0, 2.5), (0.8, 3.5, 2.0)):
        ref = y ** b * hyperu(b, a + b, y)
        assert abs(omega(y, a, b, CFG) - ref) < 1e-9 * max(1.0, abs(ref)), (y, a, b)


def test_omega_incomplete_gamma_identity():
    # v^{-3/2} e^{4 pi h v} Omega(-4 pi h v, -1/2, 1) = (-4 pi h)^{3/2} Gamma(-1/2, -4 pi h v)
    for h, v in ((-1, 0.25), (-1, 0.5), (-4, 0.25), (-4, 1.0), (-9, 0.25), (-9, 1.0)):
        y = -4.0 * pi * h * v
        lhs = v ** -1.5 * exp(4 * pi * h * v) * omega(y, -0.5, 1.0, CFG)
        rhs = (-4.0 * pi * h) ** 1.5 * upper_incomplete_gamma(-0.5, y)
        assert abs(lhs - rhs) < 1e-8, (h, v)


def test_omega_looks_up_quad_at_call_time(monkeypatch):
    # the benchmark's quadrature counter replaces special_functions.quad
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(special_functions, "quad", counted)
    for y, a, b in ((4.0, 2.5, 1.0), (12.0, 1.5001, 1e-4), (0.8, 3.5, 2.0)):
        del calls[:]
        omega(y, a, b, CFG)
        assert calls == [(0.0, 1.0), (1.0, np.inf)], (y, a, b)
    del calls[:]
    assert omega(3.0, 2.5, 0.0) == 1.0
    assert calls == []


def test_omega_domain():
    with pytest.raises(ValueError):
        omega(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        omega(1.0, 1.0, -0.5)


def test_xi_kernel_zero_frequency():
    # direct substitution in the middle branch at y=1, alpha=2, beta=1
    val = xi_fourier_kernel(1.0, 2.0, 1.0, 0.0, CFG)
    expect = (1j ** -1) * (2 * pi) ** 3 / (Gamma(2.0) * Gamma(1.0)) * Gamma(2.0) * (4 * pi) ** -2
    assert abs(val - expect) < 1e-12


def test_xi_kernel_positive_t_against_fourier_integral():
    # beta = 0 branch collapses to an elementary form; oracle is the
    # oscillatory Fourier integral of (x + iy)^{-alpha} computed by QAWF
    y, alpha, t = 1.0, 2.5, 1.0

    def f(x, part):
        z = complex(x, y) ** -alpha
        return z.real if part == "re" else z.imag

    w = 2 * pi * t
    # int_-inf^inf e^{-iwx} f(x) dx assembled from cosine and sine halves
    re_cos_p, _ = quad(lambda x: f(x, "re"), 0, np.inf, weight="cos", wvar=w)
    re_cos_m, _ = quad(lambda x: f(-x, "re"), 0, np.inf, weight="cos", wvar=w)
    re_sin_p, _ = quad(lambda x: f(x, "re"), 0, np.inf, weight="sin", wvar=w)
    re_sin_m, _ = quad(lambda x: f(-x, "re"), 0, np.inf, weight="sin", wvar=w)
    im_cos_p, _ = quad(lambda x: f(x, "im"), 0, np.inf, weight="cos", wvar=w)
    im_cos_m, _ = quad(lambda x: f(-x, "im"), 0, np.inf, weight="cos", wvar=w)
    im_sin_p, _ = quad(lambda x: f(x, "im"), 0, np.inf, weight="sin", wvar=w)
    im_sin_m, _ = quad(lambda x: f(-x, "im"), 0, np.inf, weight="sin", wvar=w)
    cos_int = complex(re_cos_p + re_cos_m, im_cos_p + im_cos_m)
    sin_int = complex(re_sin_p - re_sin_m, im_sin_p - im_sin_m)
    oracle = cos_int - 1j * sin_int
    val = xi_fourier_kernel(y, alpha, 0.0, t, CFG)
    assert abs(val - oracle) < 1e-8
    # and the elementary closed form itself
    elementary = cmath.exp((0 - alpha) * cmath.log(1j)) * (2 * pi) ** alpha \
        / Gamma(alpha) * t ** (alpha - 1) * exp(-2 * pi * y * t)
    assert abs(val - elementary) < 1e-12


def test_xi_kernel_reciprocal_gamma_zeros():
    assert xi_fourier_kernel(1.0, 1.5, 0.0, -1.0, CFG) == 0
    assert xi_fourier_kernel(1.0, 0.0, 1.5, 2.0, CFG) == 0


def test_rho_elementary_at_s_zero():
    expect = 1j ** -1.5 * 8 * pi / sqrt(2)
    for v in (0.3, 0.7, 1.0, 2.5):
        assert abs(rho_kernel(1, 1, 0.0, v, CFG) - expect) < 1e-12
    assert rho_kernel(0, 1, 0.0, 1.0, CFG) == 0
    assert rho_kernel(-1, 1, 0.0, 1.0, CFG) == 0
    assert rho_kernel(-4, 2, 0.0, 0.5, CFG) == 0


def test_rho_zero_frequency_zeta_limit():
    # E_0(1+2s) rho_0^{3/2}(s, v) -> 6 i^{-3/2} / (pi sqrt(2) sqrt(v)) as s -> 0
    from mockform.dirichlet_series import series_closed
    v = 1.3
    target = 6 * 1j ** -1.5 / (pi * sqrt(2) * sqrt(v))
    s1, s2 = 1e-3, 1e-4
    g1 = series_closed(0, 1 + 2 * s1) * rho_kernel(0, 1, s1, v, CFG)
    g2 = series_closed(0, 1 + 2 * s2) * rho_kernel(0, 1, s2, v, CFG)
    extrap = (s1 * g2 - s2 * g1) / (s1 - s2)
    assert abs(extrap - target) < 1e-6


def test_rho_negative_h_gamma_factor_limit():
    # Gamma(s) rho_h^{3/2}(s, v) tends to an incomplete-gamma closed form
    from scipy.special import gamma as G
    h, v = -1, 1.0
    closed = (2j) ** -1.5 * (1.0 / (-h)) * ((-4 * pi * h) ** 1.5
                                            * upper_incomplete_gamma(-0.5, -4 * pi * h * v))
    s1, s2 = 1e-3, 1e-4
    g1 = G(s1) * rho_kernel(h, 1, s1, v, CFG)
    g2 = G(s2) * rho_kernel(h, 1, s2, v, CFG)
    extrap = (s1 * g2 - s2 * g1) / (s1 - s2)
    assert abs(extrap - closed) < 1e-6


def test_rho_poisson_summation():
    # sum_h rho_h^{5/2}(1, 1) e^{2 pi i h tau} equals the lattice sum
    # sum_h (tau + h)^{-5/2} |tau + h|^{-2}
    k, s, v = 2, 1.0, 1.0
    for u in (0.0, 0.3):
        tau = complex(u, v)
        lhs = sum(rho_kernel(h, k, s, v, CFG) * cmath.exp(2j * pi * h * tau)
                  for h in range(-40, 41))
        hs = np.arange(-200, 201)
        z = tau + hs
        rhs = complex((np.exp(-2.5 * np.log(z)) * np.abs(z) ** -2.0).sum())
        assert abs(lhs - rhs) < 1e-6, u
