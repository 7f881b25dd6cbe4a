"""The completed Hurwitz class number series and its harmonic structure.

The series

    -1/12 + sum_{n>=1} H(n) q^n
    + (1/(4 sqrt(pi))) sum_{n>=1} n Gamma(-1/2, 4 pi n^2 v) q^{-n^2}
    + 1/(8 pi sqrt(v))

transforms with the cube of the theta multiplier on Gamma_0(4), is
annihilated by the weight 3/2 hyperbolic Laplacian, and its image under the
shadow operator xi_{3/2} = 2 i v^{3/2} conj(d/dtaubar) is -Theta/(16 pi).
The analytic shadow below derives that constant exactly; the finite
difference operators measure it numerically.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import ceil, exp, expm1, log, pi, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .arithmetic import sigma_divisor
from .class_numbers import hurwitz_class_number, hurwitz_table
from .config import DEFAULT_CONFIG, EvalConfig, require_upper_half
from .dirichlet_series import series_closed
from .special_functions import rho_kernel, upper_incomplete_gamma

_QUARTER_ROOT = 1.0 / (4.0 * sqrt(pi))


class HarmonicFormValue(NamedTuple):
    value: complex
    holomorphic_part: complex
    nonholomorphic_part: complex
    truncation_tail: float


def _truncate(series: str, tail: Callable[[int], float], first: int, max_terms: int,
              v: float, tol: float, r: float, lead: float,
              terms_at: Callable[[float], float]) -> tuple[int, float]:
    """The first N >= first with tail(N) <= tol, and tail(N); ValueError past max_terms.

    Every tail(N) is at least lead r^{g(N)}, with g increasing and terms_at
    its inverse.  With lead r^e = tol, each N < terms_at(e) - 1 has
    g(N) < e - 1, so tail(N) > tol/r: the scan starts there and steps one
    term at a time.  It does not bisect, because a tail may rise before it
    falls.
    """
    if r == 0.0 or tol >= lead:
        N = first
    elif r == 1.0:
        N = max_terms
    else:
        N = ceil(terms_at(log(tol / lead) / log(r))) - 1
    N = max(first, min(N, max_terms))
    while tail(N) > tol:
        if N >= max_terms:
            raise ValueError(f"{series} needs more than {max_terms} terms "
                             f"at v = {v} for a tail below {tol}")
        N += 1
    return N, tail(N)


def _after_power(e: float) -> float:
    """The N with N + 1 = e: inverse of the leading power r^{N+1}."""
    return e - 1.0


_THETA_MAX_TERMS = 400


def theta_truncation(v: float, tol: float) -> tuple[int, float]:
    """Terms N and tail bound 2 r^{N^2}/(1 - r), r = e^{-2 pi v}, of Theta at height v.

    N >= 2 is the first whose bound is at most tol.  Raises ValueError when
    that takes more than 400 terms: the series is not truncated silently.
    """
    r = exp(-2 * pi * v)
    one_minus_r = -expm1(-2 * pi * v)
    return _truncate("theta_series", lambda N: 2 * r ** (N * N) / one_minus_r,
                     2, _THETA_MAX_TERMS, v, tol, r, 2 / one_minus_r, sqrt)


def theta_series(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Theta(tau) = sum_{n in Z} q^{n^2}, truncated where theta_truncation puts the tail below quad_tol."""
    tau = require_upper_half(tau)
    N, _ = theta_truncation(tau.imag, cfg.quad_tol)
    n = np.arange(1, N + 1)
    return complex(1.0 + 2.0 * np.exp(2j * pi * tau * n * n).sum())


def hurwitz_truncation(v: float, tol: float, max_terms: int) -> tuple[int, float]:
    """Terms N and tail bound (N+1) r^{N+1}/(1-r)^2, r = e^{-2 pi v}, of sum H(n) q^n.

    As H(n) <= n, sum_{n>N} H(n) r^n <= sum_{n>N} n r^n <= (N+1) r^{N+1}/(1-r)^2.
    N >= 4 is the first whose bound is at most tol.  Raises ValueError when
    that takes more than max_terms terms: the series is not truncated silently.
    """
    r = exp(-2 * pi * v)
    return _truncate("completed_hurwitz_series",
                     lambda N: (N + 1) * r ** (N + 1) / (1 - r) ** 2,
                     4, max_terms, v, tol, r, 1 / (1 - r) ** 2, _after_power)


def completed_hurwitz_series(tau: complex,
                             cfg: EvalConfig = DEFAULT_CONFIG) -> HarmonicFormValue:
    """Evaluate the completed class number series at tau (v >= 0.05).

    The holomorphic part reads the certified row of 6 H(1..N) once, from
    hurwitz_table(N), and adds 6 H(n) / 6 q^n as floats;
    the nonholomorphic part sums incomplete gamma terms that decay like
    e^{-2 pi n^2 v}.  Reported truncation_tail bounds everything dropped
    from both series.  Raises ValueError when the holomorphic part needs
    more than q_terms terms for a tail below quad_tol.
    """
    tau = require_upper_half(tau)
    v = tau.imag
    if v < 0.05:
        raise ValueError(f"truncation floor: require v >= 0.05, got v={v}")
    tol = cfg.quad_tol
    N, holo_tail = hurwitz_truncation(v, tol, cfg.q_terms)
    sixths = hurwitz_table(N).sixths[1:N + 1].tolist()

    q = cmath.exp(2j * pi * tau)
    holo = complex(-1.0 / 12.0)
    qn = 1.0 + 0j
    for six in sixths:
        qn *= q
        if six:
            holo += six / 6 * qn

    nonholo = complex(1.0 / (8.0 * pi * sqrt(v)))
    # |term n| < (n / (4 sqrt(pi))) x^{-3/2} e^{-2 pi n^2 v} with x = 4 pi n^2 v, from
    # Gamma(-1/2, x) < e^{-x} x^{-3/2} and |q^{-n^2}| = e^{2 pi n^2 v}.  Terms are
    # added while that bound reaches tol, which keeps e^{2 pi n^2 v} below about
    # 1/tol, in the float range as tol >= MIN_QUAD_TOL; at large v no term is
    # added at all.
    n = 1
    while True:
        x = 4.0 * pi * n * n * v
        if _QUARTER_ROOT * n * x ** -1.5 * exp(-2 * pi * n * n * v) < tol:
            break
        nonholo += (_QUARTER_ROOT * n * upper_incomplete_gamma(-0.5, x)
                    * cmath.exp(-2j * pi * n * n * tau))
        n += 1
    # dropped incomplete-gamma terms decay superexponentially; with v >= 0.05
    # the term ratio stays below e^{-0.3 pi}, so twice the next-term bound
    # covers the whole remainder
    return HarmonicFormValue(holo + nonholo, holo, nonholo, holo_tail + 2 * tol)


def alpha_limit(h: int, v: float) -> complex:
    """Fourier coefficient of the completed series at s = 0.

    -1/12 + 1/(8 pi sqrt(v)) at h = 0; H(h) for h > 0;
    (f / (4 sqrt(pi))) Gamma(-1/2, 4 pi f^2 v) at h = -f^2; zero otherwise.
    """
    if v <= 0:
        raise ValueError("alpha_limit requires v > 0")
    if h == 0:
        return complex(-1.0 / 12.0 + 1.0 / (8.0 * pi * sqrt(v)))
    if h > 0:
        return complex(float(hurwitz_class_number(h)))
    f = int(round(sqrt(-h)))
    if f * f != -h:
        return 0j
    return complex(f * _QUARTER_ROOT * upper_incomplete_gamma(-0.5, 4.0 * pi * f * f * v))


# ---------------------------------------------------------------------------
# Finite-difference shadow and Laplacian.


def xi_shadow_fd(f: Callable[[complex], complex], k_weight: float, tau: complex,
                 cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """xi_k f = 2 i v^k conj(d f / d taubar) by central differences."""
    tau = require_upper_half(tau)
    u, v = tau.real, tau.imag
    h = cfg.fd_step * v
    fu = (f(complex(u + h, v)) - f(complex(u - h, v))) / (2.0 * h)
    fv = (f(complex(u, v + h)) - f(complex(u, v - h))) / (2.0 * h)
    dbar = 0.5 * (fu + 1j * fv)
    return 2j * v ** k_weight * np.conj(dbar)


def _stencil_1d(f, x, h):
    """(value, first, second derivative) from a 5-point central stencil."""
    fm2, fm1, f0, fp1, fp2 = (f(x - 2 * h), f(x - h), f(x), f(x + h), f(x + 2 * h))
    d1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12.0 * h)
    d2 = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12.0 * h * h)
    return f0, d1, d2


# step, relative to v, of the second-derivative stencils
FD_STEP2 = 2e-3


def laplacian_fd(f: Callable[[complex], complex], k_weight: float, tau: complex) -> complex:
    """Weight-k hyperbolic Laplacian -v^2 (f_uu + f_vv) + i k v (f_u + i f_v).

    Second derivatives use 5-point stencils with step FD_STEP2 * v.
    """
    tau = require_upper_half(tau)
    u, v = tau.real, tau.imag
    h = FD_STEP2 * v
    _, fu, fuu = _stencil_1d(lambda x: f(complex(x, v)), u, h)
    _, fv, fvv = _stencil_1d(lambda y: f(complex(u, y)), v, h)
    return -v * v * (fuu + fvv) + 1j * k_weight * v * (fu + 1j * fv)


# ---------------------------------------------------------------------------
# Analytic shadow.


class ShadowCoefficient(NamedTuple):
    """q-expansion coefficient mantissa * pi^pi_power, both exact."""

    exponent: int
    mantissa: Fraction
    pi_power: Fraction


def xi_shadow_analytic(max_exponent: int = 400) -> list[ShadowCoefficient]:
    """Exact q-expansion of xi_{3/2} applied to the completed series.

    Applies the general rule for a weight 2-k harmonic form
    (here 2-k = 3/2, so k = 1/2)

        xi_{2-k}(f) = (k-1) conj(c(0)) - (4 pi)^{k-1} sum_n conj(c(-n)) n^{k-1} q^n

    to the nonholomorphic data c(0) = 1/(8 pi), c(-n^2) = n/(4 sqrt(pi)).
    All arithmetic is exact over rationals times half-integer powers of pi;
    the output is the stream (-1/16) pi^{-1},  (-1/8) pi^{-1} q^{n^2}:
    that is, -Theta/(16 pi).  Zero coefficients are omitted.
    """
    if max_exponent < 0:
        raise ValueError("max_exponent must be >= 0")
    k = Fraction(1, 2)
    # carriers: (mantissa, power of pi), exact. c(0) = 1/8 * pi^-1
    c0 = (Fraction(1, 8), Fraction(-1))
    out = [ShadowCoefficient(0, (k - 1) * c0[0], c0[1])]
    # prefactor (4 pi)^{k-1} = (1/2) pi^{-1/2}
    pref = (Fraction(1, 2), Fraction(-1, 2))
    n = 1
    while n * n <= max_exponent:
        # c(-n^2) = (n/4) pi^{-1/2};   (n^2)^{k-1} = 1/n exactly
        c = (Fraction(n, 4), Fraction(-1, 2))
        mantissa = -pref[0] * c[0] * Fraction(1, n)
        out.append(ShadowCoefficient(n * n, mantissa, pref[1] + c[1]))
        n += 1
    return out


# ---------------------------------------------------------------------------
# The weight-2 warm-up and the s -> 0 coefficient limits.


def e2_truncation(v: float, tol: float, max_terms: int) -> tuple[int, float]:
    """Terms N and tail bound 24 sum_{m>N} m^2 r^m, r = e^{-2 pi v}, of E2 at height v.

    sigma_1(m) <= m^2 makes this a bound on 24 sum_{m>N} sigma_1(m) |q|^m;
    in closed form it is 24 r^{N+1} ((N+1)^2/(1-r) + 2(N+1) r/(1-r)^2 + r(1+r)/(1-r)^3).
    N >= 1 is the first whose bound is at most tol.  Raises ValueError when
    that takes more than max_terms terms: the series is not truncated silently.
    """
    r = exp(-2 * pi * v)
    # w = 1/(1 - r): at tiny v its powers overflow to inf, where dividing by
    # powers of 1 - r would raise ZeroDivisionError
    w = 1.0 / -expm1(-2 * pi * v)

    def tail(N):
        M = N + 1
        return 24 * r ** M * w * (M * M + 2 * M * r * w + r * (1 + r) * w * w)

    # tail(N) >= 24 r^{N+1} w (N+1)^2 >= 24 w r^{N+1}
    return _truncate("e2_star", tail, 1, max_terms, v, tol, r, 24 * w, _after_power)


def e2_star(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Completed weight-2 Eisenstein series E2(tau) - 3/(pi v), truncated where e2_truncation puts the tail below quad_tol."""
    tau = require_upper_half(tau)
    v = tau.imag
    N, _ = e2_truncation(v, cfg.quad_tol, cfg.q_terms)
    n = np.arange(1, N + 1)
    sigma = np.array([sigma_divisor(1, m) for m in range(1, N + 1)], dtype=float)
    return complex(1.0 - 24.0 * (sigma * np.exp(2j * pi * tau * n)).sum()) - 3.0 / (pi * v)


def s_limit_check(h: int, v: float, s_samples: list[float],
                  cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Richardson limit of -(1-i)/48 E_{-h}(1+2s) rho_h^{3/2}(s, v) as s -> 0.

    Reproduces alpha_limit(h, v) for h != 0; the h = 0 coefficient needs the
    zeta-pole cancellation and is covered analytically by alpha_limit.
    """
    if h == 0:
        raise ValueError("h = 0 requires the analytic zeta-pole limit")
    if not s_samples or any(not 0 < s <= 0.01 for s in s_samples):
        raise ValueError("s_samples must lie in (0, 0.01]")
    samples = sorted(set(float(s) for s in s_samples), reverse=True)

    def g(s):
        return (-(1 - 1j) / 48.0 * series_closed(-h, 1.0 + 2.0 * s)
                * rho_kernel(h, 1, s, v, cfg))

    values = [g(s) for s in samples]
    if len(values) == 1:
        return values[0]
    # Neville extrapolation to s = 0 in the variable s
    xs = samples[:]
    table = values[:]
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            table[i] = ((xs[i + level] * table[i] - xs[i] * table[i + 1])
                        / (xs[i + level] - xs[i]))
    result = table[0]
    scale = max(abs(val) for val in values)
    if abs(result - values[-1]) > 0.5 * max(scale, 1e-12):
        raise ArithmeticError(
            f"extrapolation unstable for h={h}: samples {values}, limit {result}")
    return result


def fourier_coefficient(f: Callable[[complex], complex], h: int, v: float,
                        points: int = 64) -> complex:
    """Coefficient of q^h extracted by averaging f(u+iv) e^{-2 pi i h u} over u."""
    if points < 8:
        raise ValueError("need at least 8 sample points")
    us = np.arange(points) / points
    total = sum(f(complex(u, v)) * cmath.exp(-2j * pi * h * u) for u in us) / points
    return total * exp(2 * pi * h * v)
