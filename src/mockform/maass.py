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
import functools
from fractions import Fraction
from math import ceil, exp, expm1, log, pi, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .arithmetic import divisor_sums
from .class_numbers import hurwitz_class_number, hurwitz_table
from .config import DEFAULT_CONFIG, BoundedValue, EvalConfig, require_upper_half
from .dirichlet_series import series_closed
from .special_functions import rho_kernel, upper_incomplete_gamma

_QUARTER_ROOT = 1.0 / (4.0 * sqrt(pi))


class HarmonicFormValue(NamedTuple):
    value: BoundedValue
    holomorphic_part: complex
    nonholomorphic_part: complex


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
    while (bound := tail(N)) > tol:
        if N >= max_terms:
            raise ValueError(f"{series} needs more than {max_terms} terms "
                             f"at v = {v} for a tail below {tol}")
        N += 1
    return N, bound


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


def theta_series(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundedValue:
    """Theta(tau) = sum_{n in Z} q^{n^2} over |n| <= N, where theta_truncation puts the tail below quad_tol."""
    tau = require_upper_half(tau)
    N, tail = theta_truncation(tau.imag, cfg.quad_tol)
    n = np.arange(1, N + 1)
    return BoundedValue(1.0 + 2.0 * np.exp(2j * pi * tau * n * n).sum(), tail, N)


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


# keys (v, quad_tol, q_terms) whose height part is kept: a Laplacian stencil
# visits 5 heights, a shadow stencil 3
_HEIGHT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_HEIGHT_CACHE_SIZE)
def _height_part(v: float, tol: float, q_terms: int) -> tuple[int, float, int, complex,
                                                             tuple[tuple[float, complex], ...]]:
    """What the completed series at height v needs of v alone.

    N from hurwitz_truncation, the bound and the terms of the value, the
    constant 1/(8 pi sqrt(v)), and for each nonholomorphic term that is kept
    its real factor n Gamma(-1/2, 4 pi n^2 v)/(4 sqrt(pi)) and its phase
    -2 pi i n^2, so that the term is factor e^{phase tau}.  Raises ValueError,
    on every call, when the holomorphic part needs more than q_terms terms.
    """
    N, holo_tail = hurwitz_truncation(v, tol, q_terms)
    # |term n| < (n / (4 sqrt(pi))) x^{-3/2} e^{-2 pi n^2 v} with x = 4 pi n^2 v, from
    # Gamma(-1/2, x) < e^{-x} x^{-3/2} and |q^{-n^2}| = e^{2 pi n^2 v}.  Terms are
    # kept while that bound reaches tol, which keeps e^{2 pi n^2 v} below about
    # 1/tol, in the float range as tol >= MIN_QUAD_TOL; at large v no term is
    # kept at all.
    nonholo_terms = []
    n = 1
    while True:
        x = 4.0 * pi * n * n * v
        if _QUARTER_ROOT * n * x ** -1.5 * exp(-2 * pi * n * n * v) < tol:
            break
        nonholo_terms.append((_QUARTER_ROOT * n * upper_incomplete_gamma(-0.5, x), -2j * pi * n * n))
        n += 1
    # dropped incomplete-gamma terms decay superexponentially; with v >= 0.05
    # the term ratio stays below e^{-0.3 pi}, so twice the next-term bound
    # covers the whole remainder
    return (N, holo_tail + 2 * tol, N + n - 1, complex(1.0 / (8.0 * pi * sqrt(v))),
            tuple(nonholo_terms))


def completed_hurwitz_series(tau: complex,
                             cfg: EvalConfig = DEFAULT_CONFIG) -> HarmonicFormValue:
    """Evaluate the completed class number series at tau (v >= 0.05).

    The holomorphic part adds H(n) q^n for n = 1..N, reading H(n) as the
    floats of the certified hurwitz_table(N); the nonholomorphic part sums
    incomplete gamma terms that decay like e^{-2 pi n^2 v}.  value.bound
    bounds everything dropped from both series, and value.terms counts the
    terms of both.  Raises ValueError when the holomorphic part needs more
    than q_terms terms for a tail below quad_tol.

    Every coefficient depends on v alone, so the work splits in two.  The
    height part, _height_part(v, quad_tol, q_terms), runs the truncation
    scan and the Gamma(-1/2, .) loop; it is kept for the last
    _HEIGHT_CACHE_SIZE keys, so stencil points that share a height pay for
    it once.  The phase part, in each call, forms only q^n and e(-n^2 tau),
    in the order of a single pass, so the split changes no bit of the result.
    """
    tau = require_upper_half(tau)
    v = tau.imag
    if v < 0.05:
        raise ValueError(f"truncation floor: require v >= 0.05, got v={v}")
    N, bound, terms, nonholo, nonholo_terms = _height_part(v, cfg.quad_tol, cfg.q_terms)
    q = cmath.exp(2j * pi * tau)
    holo = complex(-1.0 / 12.0)
    qn = 1.0 + 0j
    for h in hurwitz_table(N).floats(N)[1:N + 1]:
        qn *= q
        if h:
            holo += h * qn

    for factor, phase in nonholo_terms:
        nonholo += factor * cmath.exp(phase * tau)
    return HarmonicFormValue(BoundedValue(holo + nonholo, bound, terms), holo, nonholo)


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


# steps, relative to v, of the first- and the second-derivative stencils
FD_STEP = 1e-5
FD_STEP2 = 2e-3


def xi_shadow_fd(f: Callable[[complex], complex], k_weight: float, tau: complex) -> complex:
    """xi_k f = 2 i v^k conj(d f / d taubar) by central differences with step FD_STEP * v."""
    tau = require_upper_half(tau)
    u, v = tau.real, tau.imag
    h = FD_STEP * v
    fu = (f(complex(u + h, v)) - f(complex(u - h, v))) / (2.0 * h)
    fv = (f(complex(u, v + h)) - f(complex(u, v - h))) / (2.0 * h)
    dbar = 0.5 * (fu + 1j * fv)
    return 2j * v ** k_weight * np.conj(dbar)


def _stencil_1d(f, x, h, f0):
    """(first, second derivative) from a 5-point central stencil around f0 = f(x)."""
    fm2, fm1, fp1, fp2 = (f(x - 2 * h), f(x - h), f(x + h), f(x + 2 * h))
    d1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12.0 * h)
    d2 = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12.0 * h * h)
    return d1, d2


def laplacian_fd(f: Callable[[complex], complex], k_weight: float, tau: complex) -> complex:
    """Weight-k hyperbolic Laplacian -v^2 (f_uu + f_vv) + i k v (f_u + i f_v).

    Both 5-point stencils, with step FD_STEP2 * v, share one value f(tau).
    """
    tau = require_upper_half(tau)
    u, v = tau.real, tau.imag
    h = FD_STEP2 * v
    f0 = f(tau)
    fu, fuu = _stencil_1d(lambda x: f(complex(x, v)), u, h, f0)
    fv, fvv = _stencil_1d(lambda y: f(complex(u, y)), v, h, f0)
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


def e2_star(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundedValue:
    """Completed weight-2 Eisenstein series E2(tau) - 3/(pi v), summed to q^N where e2_truncation puts the tail below quad_tol."""
    tau = require_upper_half(tau)
    v = tau.imag
    N, tail = e2_truncation(v, cfg.quad_tol, cfg.q_terms)
    q_n = np.exp(2j * pi * tau * np.arange(1, N + 1))
    return BoundedValue(complex(1.0 - 24.0 * (divisor_sums(N)[0][1:] * q_n).sum()) - 3.0 / (pi * v), tail, N)


def s_limit_check(h: int, v: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Richardson limit of g(s) = -(1-i)/48 E_{-h}(1+2s) rho_h^{3/2}(s, v) as s -> 0.

    The line through g at s = a = 1e-3 and s = b = 1e-4 meets s = 0 at
    (b g(a) - a g(b)) / (b - a).  Reproduces alpha_limit(h, v) for h != 0; the
    h = 0 coefficient needs the zeta-pole cancellation and is covered
    analytically by alpha_limit.  Raises ArithmeticError when the limit moves
    from g(b) by more than half the larger |g|.
    """
    if h == 0:
        raise ValueError("h = 0 requires the analytic zeta-pole limit")
    a, b = 1e-3, 1e-4
    ga, gb = (-(1 - 1j) / 48.0 * series_closed(-h, 1.0 + 2.0 * s) * rho_kernel(h, 1, s, v, cfg)
              for s in (a, b))
    result = (b * ga - a * gb) / (b - a)
    if abs(result - gb) > 0.5 * max(abs(ga), abs(gb), 1e-12):
        raise ArithmeticError(
            f"extrapolation unstable for h={h}: samples {[ga, gb]}, limit {result}")
    return result


def fourier_coefficient(f: Callable[[complex], complex], h: int, v: float,
                        points: int = 64) -> complex:
    """Coefficient of q^h extracted by averaging f(u+iv) e^{-2 pi i h u} over u."""
    if points < 8:
        raise ValueError("need at least 8 sample points")
    us = np.arange(points) / points
    total = sum(f(complex(u, v)) * cmath.exp(-2j * pi * h * u) for u in us) / points
    return total * exp(2 * pi * h * v)
