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
from math import e, exp, inf, log, log1p, pi, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .arithmetic import divisor_sums
from .class_numbers import hurwitz_class_number, hurwitz_table
from .config import DEFAULT_CONFIG, BoundedValue, EvalConfig, reduce_mod_one, require_upper_half
from .dirichlet_series import series_closed
from .special_functions import rho_kernel, upper_incomplete_gamma

_QUARTER_ROOT = 1.0 / (4.0 * sqrt(pi))
_TWO_PI_I = 2j * pi
_H0 = complex(-1.0 / 12.0)             # H(0), the constant term of sum H(n) q^n

# Rounding.  Each bound adds to its tail a bound on the rounding of its own sum,
# built on the standard model of binary64 arithmetic (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., ch. 3-4) with unit roundoff
# u = 2^-53: a real operation, and each part of a complex sum, is off by at most
# u relative; a complex product by at most sqrt(2) gamma_2 < 2.9u (Lemma 3.5);
# exp, cos, sin and erfc by at most 1, 1, 1 and 5 ulps (2u, 2u, 2u and 10u), so
# a complex exponential by at most 6u; and a sum of m terms, in any order, by at
# most (m - 1)u times the sum of their moduli (the bound (4.4), part by part).
# q = e^{2 pi i tau} is formed from x = -2 pi v and y = 2 pi Re(tau), each off
# by at most 1.4u relative (the product and pi's own rounding), and |y| <= pi
# after reduce_mod_one, so q is off by at most (6 + 1.4(a + pi))u < (11 + 2a)u
# relative, a = 2 pi v, and q^m by m times that.  The first-order constants
# below are rounded up, which covers the second-order terms: the relative error
# of a term stays below 1e-9 while it is a normal float, and a term that
# underflows adds at most 2^-1074 each time, far below the u |1/12| or u |1|
# that every value's bound holds.
_U = 2.0 ** -53
_TAIL_UP = 1.0 + 8 * _U                 # 4 ulps


class HarmonicFormValue(NamedTuple):
    value: BoundedValue
    holomorphic_part: complex
    nonholomorphic_part: complex


def _tail(a: float, b: float) -> float:
    """a/(1 - b/a), rounded up by 4 ulps: the bound on sum_{n>N} t(n) from a = t(N+1) and b = t(N+2).

    t is a term bound whose ratio t(n+1)/t(n) does not increase, so every
    dropped term is at most a (b/a)^j, j >= 0.  inf while b >= a; 0 once a
    underflows.  The 4 ulps cover the three operations here and the two that
    add the tail to a rounding bound.  A term bound must also stay above its
    terms once rounded: theta's, which is tight, rounds r up, and the others
    (H(n) <= n, sigma_1(n) <= n^2, Gamma(-1/2, x) < e^{-x} x^{-3/2}) exceed
    the dropped terms by far more than any rounding, also where the ratio is
    near 1 and the quotient magnifies it.
    """
    return a / (1.0 - b / a) * _TAIL_UP if b < a else inf if a else 0.0


def _truncate(series: str, term: Callable[[int], float], first: int, max_terms: int,
              v: float, tol: float, hint: float) -> tuple[int, float]:
    """The least N >= first with _tail(term(N+1), term(N+2)) <= tol, and that tail.

    term(n) bounds the modulus of term n.  Raises ValueError past max_terms:
    no series is truncated silently.  The tail is inf until its ratio falls
    below 1 and only falls from there on, so "tail <= tol" changes once as N
    grows: the walk starts at the hint, clamped to [first, max_terms], steps
    down or up to the least such N, and its result does not depend on the hint.
    """
    N = first if not hint > first else max_terms if hint >= max_terms else int(hint)
    a, b = term(N + 1), term(N + 2)
    if (bound := _tail(a, b)) <= tol:
        while N > first and (lower := _tail(prev := term(N), a)) <= tol:
            N, bound, a = N - 1, lower, prev
        return N, bound
    while bound > tol:
        if N >= max_terms:
            raise ValueError(f"{series} needs more than {max_terms} terms "
                             f"at v = {v} for a tail below {tol}")
        N += 1
        a, b = b, term(N + 2)
        bound = _tail(a, b)
    return N, bound


def _power_hint(c: float, p: int, a: float, r: float, tol: float) -> float:
    """About the N where c N^p r^N/(1 - r) reaches tol, r = e^{-a}: where _truncate starts."""
    L = log(c / tol)
    return (L + (p * log1p(L / a) if L > 0 else 0.0) - log1p(-r)) / a if r < 1.0 else inf


# the most terms theta, and sum H(n) q^n or E2, may sum before they are refused
_THETA_MAX_TERMS = 400
_Q_MAX_TERMS = 4000


def _gaussian_sums(a: float) -> tuple[float, float]:
    """P >= sum_{n>=1} e^{-a n^2}, and a Q with Q >= sum_{n>=1} n^2 e^{-a n^2}.

    The terms e^{-a n^2} fall, so their sum is at most int_0^inf e^{-a x^2} dx
    = sqrt(pi/a)/2; x^2 e^{-a x^2} rises to 1/(e a) and then falls, so the
    second sum is at most its integral sqrt(pi)/(4 a^{3/2}) plus 1/(e a).
    a Q is returned, not Q, as it stays finite at a = inf.
    """
    P = 0.5 * sqrt(pi / a)
    return P, 0.5 * P + 1 / e


def theta_truncation(v: float, tol: float) -> tuple[int, float]:
    """Terms N >= 2, at most 400, and tail of Theta at height v from the term bound 2 r^{n^2}, r = e^{-2 pi v}.

    Theta's tail is its first dropped term to within r^{2N+3}, so r is rounded
    up: the exponent and the exp are shrunk and grown by 4 ulps, which keeps
    r^{n^2} above the term at the exact height whatever n^2 multiplies.
    """
    r = exp(-2 * pi * v * (1.0 - 8 * _U)) * (1.0 + 8 * _U)
    return _truncate("theta_series", lambda n: 2 * r ** (n * n), 2, _THETA_MAX_TERMS, v, tol,
                     sqrt(max(log(2 / tol), 0.0) / (2 * pi * v)) - 1)


def theta_series(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundedValue:
    """Theta(tau) = sum_{n in Z} q^{n^2} over |n| <= N, where theta_truncation puts the tail below quad_tol.

    q^{n^2} = q^{(n-1)^2} s_n with s_n = q^{2n-1} = s_{n-1} q^2: two products a
    term, and as |q| < 1 nothing overflows; an underflowed term stays 0.

    The bound adds the rounding.  t_n takes n products and s_j carries 2(j - 1)
    (its own and those of q^2), so t_n is off by at most n^2 (2.9 + 11 + 2a)u
    relative; the N terms sum with (N - 1)u S and 1 + 2 T adds u(1 + 2S).  With
    S = sum r^{n^2} <= P and sum n^2 r^{n^2} <= Q from _gaussian_sums, the
    rounding is at most u (1 + 2 N P + (28/a + 4) a Q).
    """
    tau = reduce_mod_one(tau)
    N, tail = theta_truncation(tau.imag, cfg.quad_tol)
    q = cmath.exp(_TWO_PI_I * tau)
    q2, s, t, total = q * q, q, 1.0, 0j
    for _ in range(N):
        t *= s
        total += t
        s *= q2
    a = 2 * pi * tau.imag
    P, aQ = _gaussian_sums(a)
    return BoundedValue(1.0 + 2.0 * total, tail + _U * (1 + 2 * N * P + (28 / a + 4) * aQ), N)


def hurwitz_truncation(v: float, tol: float) -> tuple[int, float]:
    """Terms N >= 4, at most 4000, and tail of sum H(n) q^n from the term bound n r^n (H(n) <= n), r = e^{-2 pi v}."""
    a = 2 * pi * v
    r = exp(-a)
    return _truncate("completed_hurwitz_series", lambda n: n * r ** n, 4, _Q_MAX_TERMS, v, tol,
                     _power_hint(1.0, 1, a, r, tol))


def _nonholomorphic_term(n: int, v: float) -> float:
    """(n / (4 sqrt(pi))) x^{-3/2} e^{-x/2}, x = 4 pi n^2 v, above |term n| of the nonholomorphic part.

    Gamma(-1/2, x) < e^{-x} x^{-3/2} and |q^{-n^2}| = e^{x/2}; the ratio to n + 1 falls with n.
    """
    x = 4.0 * pi * v * n * n
    return _QUARTER_ROOT * n * x ** -1.5 * exp(-0.5 * x)


# keys (v, quad_tol) whose height part is kept: a Laplacian stencil
# visits 5 heights, a shadow stencil 3
_HEIGHT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_HEIGHT_CACHE_SIZE)
def _height_part(v: float, tol: float) -> tuple:
    """What the completed series at height v needs of v alone.

    The bound and the terms of the value, the floats H(1..N) of the
    certified hurwitz_table(N) with N from hurwitz_truncation, the constant
    1/(8 pi sqrt(v)), and for each nonholomorphic term that is kept its real
    factor n Gamma(-1/2, 4 pi n^2 v)/(4 sqrt(pi)) and its phase -2 pi i n^2,
    so that the term is factor e^{phase tau}.

    The bound adds the rounding of a call's sums, which depends on v alone.
    Holomorphic part: -1/12 and the floats H(n) are off by u relative, q^n
    (n - 1 products) by n (2.9 + 11 + 2a)u, h q^n by u more, and N + 1 terms
    sum with N u (1/12 + S0), where H(n) <= n gives S0 = sum H(n) r^n <=
    r/(1 - r)^2 and S1 = sum n H(n) r^n <= r(1 + r)/(1 - r)^3.
    Nonholomorphic part, x = 4 pi n^2 v = 2a n^2: as Gamma(-1/2, x) < B =
    2 e^{-x}/sqrt(x), every modulus is at most b_n = 2 c0 r^{n^2}, c0 =
    1/(8 pi sqrt(v)).  Gamma(-1/2, x) = B - 2 sqrt(pi) erfc(sqrt x) is off by at
    most (2x + 20)u B (erfc's 10u, 2x + 1 times sqrt's u, and x's own 3.4u),
    the factor by 5u more, the phase -2 pi n^2 tau by 3.4u in each part, so
    e^{phase tau} by (1.7x + 0.9x/v + 6)u, and their product by u: each term
    by at most (4x + x/v + 32)u b_n = (8 + 2/v) a n^2 u b_n + 32u b_n.  c0 is
    off by 4u, and the M kept terms sum with M u (c0 + sum b_n).  With P and
    Q of _gaussian_sums, sum b_n <= 2 c0 P and sum n^2 b_n <= 2 c0 Q.
    Adding the two parts rounds by u times their moduli.
    """
    N, holo_tail = hurwitz_truncation(v, tol)
    # keeping terms until _tail reaches tol keeps e^{x/2} below about 1/tol, in the
    # float range as tol >= MIN_QUAD_TOL; at large v no term is kept at all
    nonholo_terms = []
    n, a, b = 1, _nonholomorphic_term(1, v), _nonholomorphic_term(2, v)
    while (nonholo_tail := _tail(a, b)) > tol:
        nonholo_terms.append((_QUARTER_ROOT * n * upper_incomplete_gamma(-0.5, 4.0 * pi * n * n * v),
                              -2j * pi * n * n))
        n += 1
        a, b = b, _nonholomorphic_term(n + 1, v)
    r, c0 = exp(-2 * pi * v), 1.0 / (8.0 * pi * sqrt(v))
    S0 = r / (1.0 - r) ** 2
    S1 = S0 * (1.0 + r) / (1.0 - r)
    P, aQ = _gaussian_sums(2 * pi * v)
    rounding = _U * ((N + 2) / 12 + (N + 3) * S0 + ((14 + 4 * pi * v) * S1 if r else 0.0)
                     + (n + 4) * c0 + 2 * c0 * ((n + 32) * P + (8 + 2 / v) * aQ))
    return (holo_tail + nonholo_tail + rounding, N + n - 1, hurwitz_table(N).floats(N)[1:N + 1],
            complex(c0), tuple(nonholo_terms))


def completed_hurwitz_series(tau: complex,
                             cfg: EvalConfig = DEFAULT_CONFIG) -> HarmonicFormValue:
    """Evaluate the completed class number series at tau (v >= 0.05).

    value.bound bounds everything dropped from both series and the rounding
    of their sums, and value.terms counts the terms of both.

    Every coefficient depends on v alone.  The height part, _height_part(v,
    quad_tol), truncates both series, reads H(1..N) as floats of the
    certified hurwitz_table(N) and forms the Gamma(-1/2, .) factors; it is
    kept for the last _HEIGHT_CACHE_SIZE keys, so stencil points that share a
    height pay for it once.  Each call reduces tau mod 1 and forms only q^n
    and e(-n^2 tau), in the order of a single pass, so the split changes no
    bit of the result.
    """
    tau = reduce_mod_one(tau)
    v = tau.imag
    if v < 0.05:
        raise ValueError(f"truncation floor: require v >= 0.05, got v={v}")
    bound, terms, h_floats, nonholo, nonholo_terms = _height_part(v, cfg.quad_tol)
    q = cmath.exp(_TWO_PI_I * tau)
    holo = _H0
    qn = 1.0 + 0j
    for h in h_floats:
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


def e2_truncation(v: float, tol: float) -> tuple[int, float]:
    """Terms N >= 1, at most 4000, and tail of E2 at height v from the term bound 24 n^2 r^n (sigma_1(n) <= n^2), r = e^{-2 pi v}."""
    a = 2 * pi * v
    r = exp(-a)
    return _truncate("e2_star", lambda n: 24 * n * n * r ** n, 1, _Q_MAX_TERMS, v, tol,
                     _power_hint(24.0, 2, a, r, tol))


def e2_star(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundedValue:
    """Completed weight-2 Eisenstein series E2(tau) - 3/(pi v), summed to q^N where e2_truncation puts the tail below quad_tol.

    The bound adds the rounding.  q^n = e^{nz} takes n z, off by 2.4u in each
    part, so it is off by (6 + 2.4 n (a + pi))u relative, and sigma_1(n) q^n by
    u more; the N terms t_n sum with (N - 1)u S, S = sum |t_n|, and 24 X, 1 - 24 X,
    3/(pi v) (off by 2.4u) and the difference add u each: at most
    u (24 ((N + 10) S + (10 + 3a) S1) + 2 + 4 * 3/(pi v)), S1 = sum n |t_n|.
    """
    tau = reduce_mod_one(tau)
    v = tau.imag
    N, tail = e2_truncation(v, cfg.quad_tol)
    n, z = np.arange(1, N + 1), 2j * pi * tau
    q_n = np.exp(z.real * n + 1j * (z.imag * n))      # 0, not nan, once q^n underflows
    terms = divisor_sums(N)[0][1:] * q_n
    moduli = np.abs(terms)
    S, S1 = moduli.sum(), moduli @ n
    rounding = _U * (24 * ((N + 10) * S + ((10 + 3 * abs(z.real)) * S1 if S1 else 0.0))
                     + 2 + 4 * 3.0 / (pi * v))
    return BoundedValue(complex(1.0 - 24.0 * terms.sum()) - 3.0 / (pi * v), tail + rounding, N)


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
