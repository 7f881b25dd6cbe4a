"""Quadratic Gauss sums gamma_c(n) and the Dirichlet series E_n(s) built on them.

The weight factor lambda(a, c) mixes the Jacobi symbol with eighth roots of
unity; gamma_c(n) is its twisted average over a mod 2c.  E_n(s) sums
gamma_c(n) over odd and even moduli with the even moduli rescaled by c/2.
For n = d f^2 the series collapses to L(s, chi_d) / zeta(2s) times an
elementary divisor factor, which is the closed form used by the Fourier
expansions; the truncated series with its rigorous tail bound provides the
independent cross-check.
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
    """(c/a) for odd a = 1, 3, ..., 2c-1, c even."""
    return kronecker_column(c, np.arange(1, 2 * c, 2))


def gauss_sum_gamma(c: int, n: int) -> complex:
    """gamma_c(n) = c^{-1/2} sum_{a=1}^{2c} lambda(a, c) e^{-pi i n a / c}."""
    if c < 1:
        raise ValueError("gauss_sum_gamma requires c >= 1")
    if c % 2 == 1:
        # only even a = 2b contribute; the symbol (2b/c) splits off (2/c)
        table = _odd_row(c)
        b = np.arange(c)
        phase = np.exp(-2j * pi * n * b / c)
        pref = 1j ** ((1 - c) // 2) * kronecker_symbol(2, c) / sqrt(c)
        return complex(pref * (table * phase).sum())
    a = np.arange(1, 2 * c, 2)
    roots = _EIGHTH_ROOTS[a % 16]
    phase = np.exp(-1j * pi * n * a / c)
    return complex((roots * _even_row(c) * phase).sum() / sqrt(c))


def upsilon(m: int, k: int, h: int) -> complex:
    """Character sum eps_m^{-2k-1} m^{-1/2} sum_{n mod m} (n/m) e^{2 pi i n h / m}, m odd.

    Satisfies upsilon(m, k, h) = gamma_m((-1)^k h); for m = 1 the n = 0 term
    carries (0/1) = 1 so the value is 1.
    """
    if m % 2 == 0 or m < 1:
        raise ValueError("upsilon requires odd positive m")
    table = _odd_row(m)
    n = np.arange(m)
    phase = np.exp(2j * pi * n * h / m)
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
    """Truncated (E_n^odd, E_n^even); their mean is the truncated E_n."""
    s = complex(s)
    if s.real <= 1.5:
        raise ValueError("series_odd_even requires Re(s) > 3/2")
    odd = sum(gauss_sum_gamma(c, n) * c ** -s for c in range(1, M + 1, 2))
    even = sum(gauss_sum_gamma(c, n) * (c / 2) ** -s for c in range(2, 2 * M + 1, 2))
    return complex(odd), complex(even)


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
        return zeta_numeric(2 * s - 1, cfg) / zeta_numeric(2 * s, cfg)
    d, f = fundamental_discriminant(n)
    chi = QuadraticCharacter(d)
    lval = l_numeric(chi, s, cfg)
    return lval / zeta_numeric(2 * s, cfg) * t_chi(float(s), chi, f) / f ** (2.0 * s - 1.0)
