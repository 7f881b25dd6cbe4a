"""Quadratic Gauss sums gamma_c(n) and the Dirichlet series E_n(s) built on them.

The weight factor lambda(a, c) mixes the Jacobi symbol with eighth roots of
unity: i^{(1-c)/2} (a/c) for odd c and even a, i^{a/2} = e^{i pi a/4} times
(c/a) for odd a and even c, and 0 otherwise.  gamma_c(n) is its twisted
average over a mod 2c; the tests keep lambda and the 2c-term sum as the
definition gauss_sum_gamma is checked against.  E_n(s) sums
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
the rows of a batch of n in one multiplicative fill: the trig kernel runs once
per prime power, for every n at once from one table of trig values, and every
other modulus is a product of integers.
"""

from __future__ import annotations

import functools
from math import log2, pi, sqrt

import numpy as np

from .arithmetic import (
    fundamental_discriminant,
    jacobi_row,
    kronecker_column,
    multiplicative_row,
    smallest_prime_factors,
    zeta_numeric,
)
from .characters import QuadraticCharacter, l_numeric
from .class_numbers import t_chi
from .config import BoundedValue

def gauss_sum_gamma(c: int, n) -> complex | np.ndarray:
    """gamma_c(n) = c^{-1/2} sum_{a=1}^{2c} lambda(a, c) e^{-pi i n a / c}, a real number.

    An integer n gives a complex, an integer ndarray of n a float array of its
    shape.  Summed as a real trig sum over half a period (derivation in the
    module docstring); each angle is reduced as an integer residue before the
    trig call, and a batch of n reads all its angles from one table of the trig
    function at every residue.
    """
    if c < 1:
        raise ValueError("gauss_sum_gamma requires c >= 1")
    batch = isinstance(n, np.ndarray)
    if c == 1:
        return np.ones(n.shape) if batch else 1 + 0j
    if c % 2 == 1:
        half = (c + 1) // 2
        trig, step, period = (np.cos if c % 4 == 1 else np.sin), 2 * pi / c, c
        residue = np.multiply.outer(n % c, np.arange(1, half)) % c
        symbol = jacobi_row(c)[1:half]
    else:
        trig, step, period = np.cos, pi / (4 * c), 8 * c
        residue = np.multiply.outer((c - 4 * n) % (8 * c), np.arange(1, c, 2)) % (8 * c)
        symbol = kronecker_column(c, np.arange(1, c, 2))
    # a batch reads one table over the period; a single n needs fewer angles than it holds
    trig_values = trig(step * residue) if residue.size < period else trig(step * np.arange(period))[residue]
    gamma = 2 * (trig_values @ symbol) / sqrt(c)
    return gamma if batch else complex(gamma)


def _exact_gamma(c: int, n) -> np.ndarray:
    """gamma_c(n) from the trig kernel as int64; ArithmeticError at the first n off an integer by 1e-6."""
    value = np.real(gauss_sum_gamma(c, n))
    rounded = np.rint(value)
    off = abs(value - rounded) > 1e-6
    if off.any():
        first = np.argmax(off)
        raise ArithmeticError(f"gamma_{c}({int(np.ravel(n)[first])}) = {float(np.ravel(value)[first])!r} "
                              f"is not within 1e-6 of an integer")
    return rounded.astype(np.int64)


def gamma_row(n, L: int) -> np.ndarray:
    """gamma_c(n) for c = 0..L as an int64 array (entry 0 is 0), by the Euler product.

    An integer array of B n gives a (B, L + 1) array of rows.  Only the prime
    powers q <= L are summed (gauss_sum_gamma once per q for every n, checked
    to be integers); every other entry is the product of gamma_q(n) over the
    prime powers q that exactly divide c.
    """
    if L < 1:
        raise ValueError("gamma_row requires L >= 1")
    return multiplicative_row(L, lambda p, q: _exact_gamma(q, n), smallest_prime_factors(L))


def series_partial(n, s: complex, M: int):
    """Truncated E_n(s), odd moduli up to M plus even moduli up to 2M, with its rigorous tail.

    Odd moduli c <= M weigh gamma_c(n) by c^{-s}, even moduli c = 2j <= 2M by
    j^{-s}: two dot products, averaged.  Both read gamma_row(n, M), the even
    ones as gamma_{2j} = gamma_{2^{e+1}} gamma_o for j = 2^e o, o odd (Euler
    product).  The value's terms count the moduli.  A tuple of n gives a tuple
    of values from one batch of rows, each equal to its single call.  Requires
    Re(s) > 3/2 so the tail bound is rigorous.
    """
    s = complex(s)
    if s.real <= 1.5:
        raise ValueError("series_partial requires Re(s) > 3/2 for a rigorous tail")
    if M < 1:
        raise ValueError("series_partial requires M >= 1")
    ns = np.array(n, dtype=np.int64).reshape(-1)
    odd = gamma_row(ns, M)                           # gamma_c(n) at index c
    even = np.empty_like(odd)                        # gamma_{2j}(n) at index j
    for q in (1 << t for t in range(int(M).bit_length())):   # j = q o, o odd: gamma_{2q} gamma_o
        even[:, q::2 * q] = _exact_gamma(2 * q, ns)[:, None] * odd[:, 1:M // q + 1:2]
    scale = np.arange(1, M + 1, dtype=float) ** -s   # j^{-s} at index j - 1
    bound = 4.0 * M ** (1.5 - s.real) / (s.real - 1.5)   # from |gamma_c(n)| <= 2 sqrt(c)
    values = tuple(BoundedValue(0.5 * (o[1::2] @ scale[::2] + e[1:] @ scale), bound, (M + 1) // 2 + M)
                   for o, e in zip(odd, even))
    return values if isinstance(n, tuple) else values[0]


# Float powers are refused past 2^MAX_POWER_LOG2, 2^24 below the float maximum,
# which leaves room for the sums and products they enter.
MAX_POWER_LOG2 = 1000


# E_n(s) depends on n and s alone, and a Fourier-route evaluation asks for the
# coefficients of one s up to its cut: repeated evaluations at that s (any tau,
# up to the lowest v seen) read them back instead of recomputing L(s, chi_d) and zeta(2s).
@functools.lru_cache(maxsize=4096)
def series_closed(n: int, s: float) -> float:
    """Closed form of E_n(s) for real s > 1.

    Zero for n = 2, 3 (mod 4); zeta(2s-1)/zeta(2s) at n = 0; otherwise
    L(s, chi_d) / zeta(2s) * T_s(f) / f^{2s-1} with n = d f^2.  Raises
    ValueError where f^{2s-1} passes 2^MAX_POWER_LOG2: the divisor sum
    sigma_{2s-1}(f) inside T_s(f) would overflow a float.
    """
    if s <= 1:
        raise ValueError("series_closed requires s > 1")
    if n % 4 in (2, 3):
        return 0.0
    if n == 0:
        return zeta_numeric(2 * s - 1) / zeta_numeric(2 * s)
    d, f = fundamental_discriminant(n)
    if (2 * s - 1) * log2(f) > MAX_POWER_LOG2:
        raise ValueError(f"E_n(s) needs f^(2s-1) <= 2^{MAX_POWER_LOG2} for n = d f^2, beyond "
                         f"which sigma_(2s-1)(f) overflows a float; got n={n} (f={f}), s={s}")
    chi = QuadraticCharacter(d)
    return (l_numeric(chi, s) / zeta_numeric(2 * s) * t_chi(float(s), chi, f)
            / f ** (2.0 * s - 1.0))
