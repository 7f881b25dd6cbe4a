"""Incomplete gamma, the Omega integral, and the Fourier kernel rho.

These feed the Fourier expansions of the half-integral weight Eisenstein
series and the nonholomorphic part of the completed class number series.
All complex powers are principal (exp of the principal logarithm);
the upper half plane maps to the first quadrant under the square root.
"""

from __future__ import annotations

from math import exp, pi, sqrt
import cmath

import numpy as np

from ._scipy import gamma as _gamma, quad, rgamma as _rgamma
from .config import DEFAULT_CONFIG, EvalConfig

_SQRT_PI = sqrt(pi)


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot certify the requested tolerance."""

    def __init__(self, message, estimate):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


def erfc_scalar(x: float) -> float:
    """Complementary error function, series below 1.5 and continued fraction above.

    Relative accuracy target 1e-13; the switch sits at 1.5 because the
    1 - erf subtraction in the series branch costs about 2e-16 absolute,
    which stays below 1e-13 relative only while erfc is not too small.
    """
    if x < 0:
        return 2.0 - erfc_scalar(-x)
    if x < 1.5:
        # erf series: (2/sqrt(pi)) sum (-1)^n x^{2n+1} / (n! (2n+1))
        term = x
        total = x
        n = 0
        xx = x * x
        while abs(term) > 1e-18 * abs(total) + 1e-300:
            n += 1
            term *= -xx / n
            total += term / (2 * n + 1)
        return 1.0 - 2.0 / _SQRT_PI * total
    # erfc(x) = e^{-x^2}/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    t = 0.0
    for k in range(120, 1, -1):
        t = ((k - 1) / 2.0) / (x + t)
    t = 1.0 / (x + t)
    return exp(-x * x) / _SQRT_PI * t


def _upper_gamma_positive(s: float, x: float) -> float:
    """Gamma(s, x) for s > 0, x >= 0, series/continued-fraction split at x = s+1."""
    if x == 0.0:
        return _gamma(s)
    if x < s + 1.0:
        # lower series: gamma(s,x) = x^s e^{-x} sum_n x^n / (s (s+1) ... (s+n))
        term = 1.0 / s
        total = term
        n = 0
        while abs(term) > 1e-17 * abs(total):
            n += 1
            term *= x / (s + n)
            total += term
        return _gamma(s) - exp(-x + s * np.log(x)) * total
    # Lentz continued fraction for the upper tail
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, 300):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return exp(-x + s * np.log(x)) * f
    raise QuadratureError("incomplete gamma continued fraction stalled", abs(delta - 1.0))


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) = int_x^inf e^{-t} t^{s-1} dt, real s.

    Half-integer orders go through erfc; other non-positive orders use the
    downward recurrence Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s.
    """
    if x < 0 or (x == 0 and s <= 0):
        raise ValueError(f"Gamma(s, x) needs x > 0 when s <= 0, got s={s}, x={x}")
    if s == 0.5:
        return _SQRT_PI * erfc_scalar(sqrt(x))
    if s == -0.5:
        return -2.0 * _SQRT_PI * erfc_scalar(sqrt(x)) + 2.0 * exp(-x) / sqrt(x)
    if s > 0:
        return _upper_gamma_positive(s, x)
    steps = int(np.floor(1.0 - s))
    base = s + steps  # in (0, 1]
    val = _upper_gamma_positive(base, x)
    sj = base
    for _ in range(steps):
        sj -= 1.0
        val = (val - x ** sj * exp(-x)) / sj
    return val


def omega(y: float, alpha: float, beta: float,
          cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Omega(y, alpha, beta) = y^beta / Gamma(beta) * int_0^inf e^{-yu} (u+1)^{alpha-1} u^{beta-1} du.

    Defined for real alpha, y > 0 and beta > 0; Omega(y, alpha, 0) = 1 by convention.
    Satisfies the symmetry Omega(y, 1-beta, 1-alpha) = Omega(y, alpha, beta).
    The endpoint singularity u^{beta-1} is removed by splitting off the first
    two Taylor terms of e^{-yu}(u+1)^{alpha-1}, which keeps the quadrature
    stable down to beta ~ 1e-4.
    """
    if y <= 0:
        raise ValueError("omega requires y > 0")
    # quad passes floats, so the integrands stay in float arithmetic
    y, alpha, beta = float(y), float(alpha), float(beta)
    if beta == 0:
        return 1.0
    if beta < 0:
        raise ValueError("omega requires beta > 0 (or beta = 0 exactly)")
    am1, bm1 = alpha - 1.0, beta - 1.0
    g1 = am1 - y  # d/du [e^{-yu}(u+1)^{alpha-1}] at u = 0

    def near(u):
        return (exp(-y * u) * (u + 1.0) ** am1 - 1.0 - g1 * u) * u ** bm1

    def far(u):
        return exp(-y * u) * (u + 1.0) ** am1 * u ** bm1

    i1, e1 = quad(near, 0.0, 1.0, epsabs=cfg.quad_tol, epsrel=cfg.quad_tol, limit=300)
    i2, e2 = quad(far, 1.0, np.inf, epsabs=cfg.quad_tol, epsrel=cfg.quad_tol, limit=300)
    total = 1.0 / beta + g1 / (beta + 1.0) + i1 + i2
    achieved = abs(e1) + abs(e2)
    if achieved > 1e3 * cfg.quad_tol * max(1.0, abs(total)):
        raise QuadratureError("omega quadrature did not converge", achieved)
    return float(y ** beta * total * _rgamma(beta))


def _principal_power(z: complex, w: complex) -> complex:
    """z^w = exp(w Log z) with the principal logarithm."""
    return cmath.exp(w * cmath.log(z))


def xi_fourier_kernel(y: float, alpha: float, beta: float, t: float,
                      cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The Fourier transform int e^{-2 pi i t x} (x+iy)^{-alpha} (x-iy)^{-beta} dx.

    Takes real alpha and beta.  Evaluated through its meromorphic continuation: three closed branches in
    the sign of t, built from Omega; reciprocal gamma prefactors give exact
    zeros where 1/Gamma vanishes.
    """
    if y <= 0:
        raise ValueError("xi_fourier_kernel requires y > 0")
    phase = _principal_power(1j, beta - alpha)
    if t > 0:
        ra = _rgamma(alpha)
        if ra == 0:
            return 0j
        return (phase * _principal_power(2 * pi, alpha) * ra
                * _principal_power(2 * y, -beta) * _principal_power(t, alpha - 1)
                * exp(-2 * pi * y * t) * omega(4 * pi * y * t, alpha, beta, cfg))
    if t == 0:
        ra, rb = _rgamma(alpha), _rgamma(beta)
        if ra == 0 or rb == 0:
            return 0j
        return (phase * _principal_power(2 * pi, alpha + beta) * ra * rb
                * _gamma(alpha + beta - 1)
                * _principal_power(4 * pi * y, 1 - alpha - beta))
    rb = _rgamma(beta)
    if rb == 0:
        return 0j
    return (phase * _principal_power(2 * pi, beta) * rb
            * _principal_power(2 * y, -alpha) * _principal_power(abs(t), beta - 1)
            * exp(-2 * pi * y * abs(t)) * omega(4 * pi * y * abs(t), beta, alpha, cfg))


def rho_kernel(h: int, k: int, s: float, v: float,
               cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Fourier kernel rho_h^{k+1/2}(s, v) of the weight k+1/2 Poisson summation.

    rho is v^{-k+1/2-2s} e^{2 pi h v} xi(1; k+1/2+s, s; h v) in closed form:

      h > 0:  (-2 i pi)^{k+1/2} pi^s Gamma(k+1/2+s)^{-1} h^{k-1/2+s} v^{-s}
              * Omega(4 pi h v, k+1/2+s, s)
      h = 0:  i^{-k-1/2} (2 pi) Gamma(k+1/2+s)^{-1} Gamma(s)^{-1}
              * Gamma(k-1/2+2s) (2v)^{-k+1/2-2s}
      h < 0:  (2i)^{-k-1/2} pi^s Gamma(s)^{-1} (-h)^{s-1} v^{-k-1/2-s}
              * e^{4 pi h v} Omega(-4 pi h v, s, k+1/2+s)

    At s = 0 the factor 1/Gamma(0) = 0 kills the h <= 0 branches and
    Omega(., ., 0) = 1 collapses the h > 0 branch to an elementary value.
    """
    if v <= 0:
        raise ValueError("rho_kernel requires v > 0")
    if s < 0:
        raise ValueError("rho_kernel requires s >= 0")
    a = k + 0.5 + s
    if h > 0:
        om = 1.0 if s == 0 else omega(4 * pi * h * v, a, s, cfg)
        return (_principal_power(-2j * pi, k + 0.5) * pi ** s * _rgamma(a)
                * h ** (k - 0.5 + s) * v ** (-s) * om)
    rs = _rgamma(s)
    if rs == 0:
        return 0j
    if h == 0:
        return (_principal_power(1j, -k - 0.5) * 2 * pi * _rgamma(a) * rs
                * _gamma(k - 0.5 + 2 * s) * (2 * v) ** (-k + 0.5 - 2 * s))
    om = omega(-4 * pi * h * v, s, a, cfg)
    return (_principal_power(2j, -k - 0.5) * pi ** s * rs
            * (-h) ** (s - 1.0) * v ** (-k - 0.5 - s) * exp(4 * pi * h * v) * om)
