"""Real quadratic characters chi_d and their Dirichlet L-functions.

chi_d(a) = (d/a) (Kronecker symbol) for a fundamental discriminant d.  The
degenerate d = 1 gives the constant character, whose L-function is the
Riemann zeta function.  Negative-integer L-values are exact rationals via
generalized Bernoulli numbers; positive real arguments are evaluated
numerically with Euler-Maclaurin tails that stay stable through s = 1.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, exp, log

import numpy as np

from .arithmetic import (
    bernoulli_number,
    is_fundamental_discriminant,
    kronecker_column,
    kronecker_symbol,
    zeta_numeric,
    _em_tail_no_pole,
)


class QuadraticCharacter:
    """The real character chi_d(a) = (d/a) of a fundamental discriminant d."""

    def __init__(self, d: int):
        if not is_fundamental_discriminant(d):
            raise ValueError(f"{d} is not a fundamental discriminant")
        self.d = d
        self.modulus = abs(d)
        self.is_even = d > 0  # chi_d(-1) = sign(d)

    def __repr__(self):
        return f"QuadraticCharacter(d={self.d})"

    def __call__(self, a: int) -> int:
        return kronecker_symbol(self.d, a)

    @functools.cached_property
    def values(self) -> np.ndarray:
        """One period of chi_d as an int8 array indexed by a mod |d|."""
        # chi(a) for a = 1..|d|, rotated so that chi(|d|) = chi(0) lands at index 0
        return np.roll(kronecker_column(self.d, np.arange(1, self.modulus + 1)), 1)

    @property
    def is_principal(self) -> bool:
        return self.d == 1


def l_numeric(chi: QuadraticCharacter, s: float) -> float:
    """L(s, chi_d) for real s.

    Principal character: zeta(s), s > 1 only.  Non-principal: any s > 0; the
    conditionally convergent range s <= 1 is handled by summing full periods
    and bounding the remainder with partial summation against the bounded
    character sums, pushed through an Euler-Maclaurin tail whose pole parts
    cancel exactly because the character sums to zero over a period.
    """
    if chi.is_principal:
        return zeta_numeric(s)
    if s <= 0:
        raise ValueError("l_numeric requires s > 0 for non-principal characters")
    q = chi.modulus
    vals = chi.values
    periods = 40
    n0 = periods * q
    n = np.arange(1, n0, dtype=float)
    direct = float((vals[np.arange(1, n0) % q] * n ** -s).sum())

    # tail over arithmetic progressions: sum_j chi(j) q^{-s} zeta(s, periods + j/q)
    j = np.arange(1, q + 1)
    signs = vals[j % q]
    support = signs != 0
    signs = signs[support].astype(float)
    xs = periods + j[support] / q
    tail = float(signs @ _em_tail_no_pole(s, xs))
    # pole parts x^{1-s}/(s-1) summed against chi: subtract the first abscissa,
    # legitimate since sum_j chi(j) = 0 over the full period
    lref = log(xs[0])
    delta = np.log(xs) - lref
    if abs(s - 1.0) < 1e-13:
        phi = -delta
    else:
        phi = np.expm1((1.0 - s) * delta) / (s - 1.0)
    tail += exp((1.0 - s) * lref) * float(signs @ phi)
    return direct + q ** -s * tail


_INT64_LIMIT = 2 ** 63


def generalized_bernoulli(chi: QuadraticCharacter, r: int) -> Fraction:
    """B_{r,chi} = N^{r-1} sum_{a=1}^{N} chi(a) B_r(a/N), N = |d|, exact.

    Expanded through integer power sums so only O(r) Fraction operations occur.
    Every partial sum of chi(a) a^e, e <= r, is at most N^{r+1} in size, so the
    sums are int64 while N^{r+1} < 2^63 and object arrays of Python ints beyond.
    """
    if r < 0:
        raise ValueError("generalized_bernoulli requires r >= 0")
    N = chi.modulus
    dtype = np.int64 if N ** (r + 1) < _INT64_LIMIT else object
    a = np.arange(1, N + 1, dtype=dtype)
    chi_a = np.roll(chi.values, -1).astype(dtype)        # chi(a) for a = 1..N
    power_sums = [int((chi_a * a ** e).sum()) for e in range(r + 1)]
    acc = Fraction(0)
    for j in range(r + 1):
        acc += comb(r, j) * bernoulli_number(j) * power_sums[r - j] * Fraction(N) ** (j - 1)
    return acc


def l_exact_neg(chi: QuadraticCharacter, r: int) -> Fraction:
    """L(1 - r, chi) = -B_{r,chi} / r, exact rational, for r >= 1."""
    if r < 1:
        raise ValueError("l_exact_neg requires r >= 1")
    return -generalized_bernoulli(chi, r) / r
