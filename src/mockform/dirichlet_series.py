"""Quadratic Gauss sums gamma_c(n) and the Dirichlet series E_n(s) built on them.

The weight factor lambda(a, c) mixes the Jacobi symbol with eighth roots of
unity; gamma_c(n) is its twisted average over a mod 2c.  E_n(s) sums
gamma_c(n) over odd and even moduli with the even moduli rescaled by c/2.
For n = d f^2 the series collapses to L(s, chi_d) / zeta(2s) times an
elementary divisor factor, which is the closed form used by the Fourier
expansions; the truncated series with its rigorous tail bound provides the
independent cross-check.

gamma_c(n) is real, and its summand is even or odd under a -> -a, so it is
computed as a real trig sum over half a period.  gamma_1(n) = 1.

Odd c > 1: only a = 2b contributes, with lambda = i^{(1-c)/2} (2/c) (b/c), so
gamma_c(n) = i^{(1-c)/2} (2/c) c^{-1/2} sum_{b mod c} (b/c) e^{-2 pi i n b/c}.
As (-b/c) = (-1/c) (b/c), the terms b and c - b pair to 2 (b/c) cos(theta_b)
for c = 1 (mod 4) and to -2i (b/c) sin(theta_b) for c = 3 (mod 4), where
theta_b = 2 pi (n b mod c) / c.  The prefactor i^{(1-c)/2} (2/c) is 1 * 1,
-1 * -1, -i * -1, i * 1 = 1, 1, i, i for c = 1, 5, 3, 7 (mod 8); with the -i of
the sine case it is 1 throughout, so
gamma_c(n) = 2 c^{-1/2} sum_{b=1}^{(c-1)/2} (b/c) T(theta_b), T = cos or sin.

Even c: lambda(a, c) e^{-pi i n a/c} = (c/a) e^{i theta_a} for odd a with
theta_a = pi (a (c - 4n) mod 8c) / (4c).  The partner 2c - a has phase
i^c e^{-i theta_a} and symbol (c/(2c - a)) = +-(c/a), + for c = 0 (mod 4) and
- for c = 2 (mod 4), so the sign cancels i^c and the pair sums to
2 (c/a) cos(theta_a): gamma_c(n) = 2 c^{-1/2} sum_{a odd < c} (c/a) cos(theta_a).
The symbol sign: for c = 0 (mod 4), a -> (c/a) has period c and (c/-a) = (c/a);
for c = 2m, 2c - a = 4 - a (mod 8) flips (2/.), while (m/.) agrees at a and
2c - a by reciprocity.

Both angles are reduced as integer residues before the trig call, so the
error stays at the rounding level however large |n| is.

gamma_c(n) is an integer and multiplicative over coprime moduli,
gamma_{c1 c2}(n) = gamma_{c1}(n) gamma_{c2}(n): this Euler product is the step
that turns E_n(s) into L(s, chi_d)/zeta(2s) T_s(f).  gamma_row uses it to tabulate
a whole row: the trig kernel runs at prime powers only, and every other
modulus is a product of integers.
"""

from __future__ import annotations

import functools
from math import pi, sqrt
from typing import NamedTuple

import numpy as np

from .arithmetic import (
    epsilon_factor,
    fundamental_discriminant,
    jacobi_row,
    kronecker_column,
    kronecker_symbol,
    multiplicative_row,
    smallest_prime_factors,
    zeta_numeric,
)
from .characters import QuadraticCharacter, l_numeric
from .class_numbers import t_chi
from .config import DEFAULT_CONFIG, EvalConfig

_EIGHTH_ROOTS = np.exp(1j * pi * np.arange(16) / 4)  # i^{a/2} = e^{i pi a/4}, period 16 in a


def lambda_factor(a: int, c: int) -> complex:
    """lambda(a, c): i^{(1-c)/2} (a/c) for odd c / even a, i^{a/2} (c/a) for odd a / even c, else 0.

    Half-integral powers of i are principal: i^{a/2} = e^{i pi a / 4}.
    """
    if a < 1 or c < 1:
        raise ValueError("lambda_factor requires positive arguments")
    if c % 2 == 1 and a % 2 == 0:
        return 1j ** ((1 - c) // 2) * kronecker_symbol(a, c)
    if a % 2 == 1 and c % 2 == 0:
        return complex(_EIGHTH_ROOTS[a % 16]) * kronecker_symbol(c, a)
    return 0j


# gamma_c revisits every modulus c for each n, so its symbol rows are cached (bounded).
_odd_row = functools.lru_cache(maxsize=8192)(jacobi_row)


@functools.lru_cache(maxsize=8192)
def _even_row(c: int) -> np.ndarray:
    """(c/a) for odd a = 1, 3, ..., c-1, c even (the half row; see gauss_sum_gamma)."""
    return kronecker_column(c, np.arange(1, c, 2))


def gauss_sum_gamma(c: int, n: int) -> complex:
    """gamma_c(n) = c^{-1/2} sum_{a=1}^{2c} lambda(a, c) e^{-pi i n a / c}, a real number.

    Summed as a real trig sum over half a period (derivation in the module
    docstring); the angle is reduced as an integer residue before the trig call.
    """
    if c < 1:
        raise ValueError("gauss_sum_gamma requires c >= 1")
    if c == 1:
        return 1 + 0j
    if c % 2 == 1:
        half = (c + 1) // 2
        trig = np.cos if c % 4 == 1 else np.sin
        angle = (2 * pi / c) * (np.arange(1, half) * (n % c) % c)
        return complex(2 * (_odd_row(c)[1:half] @ trig(angle)) / sqrt(c))
    residue = np.arange(1, c, 2) * ((c - 4 * n) % (8 * c)) % (8 * c)
    return complex(2 * (_even_row(c) @ np.cos((pi / (4 * c)) * residue)) / sqrt(c))


def _exact_gamma(c: int, n: int) -> int:
    """gamma_c(n) from the trig kernel, rounded; ArithmeticError if it is not within 1e-6 of an integer."""
    value = gauss_sum_gamma(c, n).real
    rounded = round(value)
    if abs(value - rounded) > 1e-6:
        raise ArithmeticError(f"gamma_{c}({n}) = {value!r} is not within 1e-6 of an integer")
    return rounded


def gamma_row(n: int, L: int) -> np.ndarray:
    """gamma_c(n) for c = 0..L as an int64 array (entry 0 is 0), by the Euler product.

    Only the prime powers q <= L are summed (gauss_sum_gamma, checked to be
    integers); every other entry is the product of gamma_q(n) over the prime
    powers q that exactly divide c.
    """
    if L < 1:
        raise ValueError("gamma_row requires L >= 1")
    return multiplicative_row(L, lambda p, q: _exact_gamma(q, n), smallest_prime_factors(L))


def upsilon(m: int, k: int, h: int) -> complex:
    """Character sum eps_m^{-2k-1} m^{-1/2} sum_{n mod m} (n/m) e^{2 pi i n h / m}, m odd.

    Satisfies upsilon(m, k, h) = gamma_m((-1)^k h); for m = 1 the n = 0 term
    carries (0/1) = 1 so the value is 1.
    """
    if m % 2 == 0 or m < 1:
        raise ValueError("upsilon requires odd positive m")
    table = _odd_row(m)
    n = np.arange(m)
    phase = np.exp(2j * pi * (n * (h % m) % m) / m)   # the residue n h mod m, as in gauss_sum_gamma
    return complex(epsilon_factor(m) ** (-2 * k - 1) * (table * phase).sum() / sqrt(m))


class DirichletSeriesValue(NamedTuple):
    value: complex
    terms_used: int
    tail_bound: float


def _tail_bound(s_real: float, M: int) -> float:
    """Rigorous remainder bound from |gamma_c(n)| <= 2 sqrt(c), valid Re(s) > 3/2."""
    return 4.0 * M ** (1.5 - s_real) / (s_real - 1.5)


def series_partial(n: int, s: complex, M: int) -> DirichletSeriesValue:
    """Truncated E_n(s): odd moduli up to M plus even moduli up to 2M.

    Requires Re(s) > 3/2 so the reported tail bound is rigorous.
    """
    s = complex(s)
    if s.real <= 1.5:
        raise ValueError("series_partial requires Re(s) > 3/2 for a rigorous tail")
    if M < 1:
        raise ValueError("series_partial requires M >= 1")
    odd, even = series_odd_even(n, s, M)
    return DirichletSeriesValue(0.5 * (odd + even), (M + 1) // 2 + M, _tail_bound(s.real, M))


def series_odd_even(n: int, s: complex, M: int) -> tuple[complex, complex]:
    """Truncated (E_n^odd, E_n^even); their mean is the truncated E_n.

    Odd moduli c <= M weigh gamma_c(n) by c^{-s}, even moduli c <= 2M by
    (c/2)^{-s}: two dot products with one gamma_row.
    """
    s = complex(s)
    if s.real <= 1.5:
        raise ValueError("series_odd_even requires Re(s) > 3/2")
    if M < 1:
        raise ValueError("series_odd_even requires M >= 1")
    row = gamma_row(n, 2 * M)
    scale = np.arange(1, M + 1, dtype=float) ** -s   # k^{-s} at index k - 1
    odd = row[1:M + 1:2] @ scale[::2]
    even = row[2::2] @ scale
    return complex(odd), complex(even)


# A Fourier-route request calls series_closed for every |h| <= fourier_bound
# with one s: the characters (with their cached value tables) and zeta(2s)
# are kept between calls instead of rebuilt.
_character = functools.lru_cache(maxsize=1024)(QuadraticCharacter)
_zeta = functools.lru_cache(maxsize=256)(zeta_numeric)


def series_closed(n: int, s: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Closed form of E_n(s) for real s > 1.

    Zero for n = 2, 3 (mod 4); zeta(2s-1)/zeta(2s) at n = 0; otherwise
    L(s, chi_d) / zeta(2s) * T_s(f) / f^{2s-1} with n = d f^2.
    """
    if s <= 1:
        raise ValueError("series_closed requires s > 1")
    if n % 4 in (2, 3):
        return 0.0
    if n == 0:
        return _zeta(2 * s - 1, cfg) / _zeta(2 * s, cfg)
    d, f = fundamental_discriminant(n)
    chi = _character(d)
    lval = l_numeric(chi, s, cfg)
    return lval / _zeta(2 * s, cfg) * t_chi(float(s), chi, f) / f ** (2.0 * s - 1.0)
