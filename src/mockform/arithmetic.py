"""Exact number-theoretic primitives.

Kronecker symbol and the kernel that fills every symbol table (jacobi_row,
kronecker_column), the eighth-root factor eps_d, a smallest-prime-factor
sieve, multiplicative functions,
Bernoulli numbers and polynomials, fundamental discriminants, and exact /
numeric values of the Riemann zeta function.  Everything exact is carried by
``fractions.Fraction`` (arbitrary-size rationals, always in lowest terms).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, isqrt
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n), fully extended: n may be 0, +-1, even, negative.

    Completely multiplicative in both arguments; (a/0) = 1 iff a = +-1.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def jacobi_row(c: int) -> np.ndarray:
    """(b/c) for b = 0..c-1, c odd, as the product of the Legendre rows of c's primes.

    A Legendre row marks the squares (arange(1, p)**2) % p with +1, the other
    nonzero residues with -1 and 0 with 0, so no symbol is evaluated.
    """
    if c < 1 or c % 2 == 0:
        raise ValueError(f"jacobi_row requires odd c >= 1, got {c}")
    b = np.arange(c)
    row = np.ones(c, dtype=np.int8)
    for p, e in factorize(c).items():
        legendre = -np.ones(p, dtype=np.int8)
        legendre[0] = 0
        legendre[(np.arange(1, p) ** 2) % p] = 1
        row *= legendre[b % p] ** e
    return row


def kronecker_column(m: int, a) -> np.ndarray:
    """(m/a) for an array of positive a, by reciprocity onto jacobi_row of m's odd part.

    With a = 2^e a' and m = sign 2^f m' (a', m' odd): (m/a) = (m/2)^e (sign/a')
    (2/a')^f (a'/m') (-1)^{(a'-1)/2 (m'-1)/2}, and every sign depends on a' mod 8.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.size and a.min() < 1:
        raise ValueError("kronecker_column requires positive a")
    if m == 0:
        return (a == 1).astype(np.int8)
    low = a & -a                              # 2^e
    odd = a // low
    e = np.frexp(low.astype(float))[1] - 1
    m_over_2 = 0 if m % 2 == 0 else (1 if m % 8 in (1, 7) else -1)
    col = (m_over_2 ** e).astype(np.int8)
    m_low = abs(m) & -abs(m)                  # 2^f
    m_odd = abs(m) // m_low
    a8 = odd % 8
    flip = np.zeros(a.shape, dtype=bool)
    if (m < 0) != (m_odd % 4 == 3):           # (-1/a') and reciprocity flip at a' = 3 mod 4
        flip ^= a8 % 4 == 3
    if m_low.bit_length() % 2 == 0:           # f odd: (2/a') flips at a' = 3, 5 mod 8
        flip ^= (a8 == 3) | (a8 == 5)
    col[flip] *= -1
    return col * jacobi_row(m_odd)[odd % m_odd]


def epsilon_factor(d: int) -> complex:
    """eps_d = 1 for d = 1 (mod 4), i for d = 3 (mod 4); eps_d^2 = (-1/d)."""
    if d % 2 == 0:
        raise ValueError(f"eps_d requires odd d, got {d}")
    return 1.0 + 0.0j if d % 4 == 1 else 1.0j


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius requires n >= 1")
    count = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def smallest_prime_factors(n: int) -> np.ndarray:
    """spf[k] = the smallest prime factor of k for 2 <= k <= n (spf[0] = 0, spf[1] = 1).

    One sieve pass: each prime p <= sqrt(n) lowers its multiples from p^2 on to
    p, and np.minimum keeps the mark of any smaller prime already there.
    """
    if n < 1:
        raise ValueError("smallest_prime_factors requires n >= 1")
    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            multiples = spf[p * p::p]
            np.minimum(multiples, p, out=multiples)
    return spf


def sigma_divisor(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum of d^k over d | n."""
    if k < 0:
        raise ValueError("sigma_divisor requires k >= 0")
    return sum(d ** k for d in divisors(n))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (desk scale)."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), by the defining recurrence."""
    if n < 0:
        raise ValueError("bernoulli_number requires n >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_j C(n,j) B_j x^{n-j}, exact for rational x."""
    x = Fraction(x)
    return sum((comb(n, j) * bernoulli_number(j) * x ** (n - j) for j in range(n + 1)),
               Fraction(0))


class DiscriminantFactorization(NamedTuple):
    d: int
    f: int


def is_fundamental_discriminant(d: int) -> bool:
    if d == 1:
        return True
    if d == 0:
        return False
    if d % 4 == 1:
        return _is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def fundamental_discriminant(n: int) -> DiscriminantFactorization:
    """Write n = d * f^2 with d a fundamental discriminant (d = 1 for squares).

    Requires n = 0 or 1 (mod 4), n != 0.
    """
    if n == 0 or n % 4 in (2, 3):
        raise ValueError(f"need n = 0,1 (mod 4) and n != 0, got {n}")
    f = 1
    m = abs(n)
    p = 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            f *= p
        p += 1 if p == 2 else 2
    core = m if n > 0 else -m
    if core % 4 == 1:
        return DiscriminantFactorization(core, f)
    # core = 2, 3 (mod 4): the factor 4 moves from f^2 into d
    if f % 2 != 0:
        raise AssertionError(f"internal: n={n} should force even f")
    return DiscriminantFactorization(4 * core, f // 2)


def zeta_exact_neg(r: int) -> Fraction:
    """zeta(1 - 2r) = -B_{2r} / (2r), exact, for r >= 1."""
    if r < 1:
        raise ValueError("zeta_exact_neg requires r >= 1")
    return -bernoulli_number(2 * r) / (2 * r)


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluation of zeta and Hurwitz zeta for real s > 1 resp. > 0.

_EM_ORDER = 6


def _em_tail_no_pole(s: float, x: float) -> float:
    """Euler-Maclaurin tail of sum_{n >= 0} (n + x)^{-s} *without* x^{1-s}/(s-1)."""
    acc = 0.5 * x ** -s
    for j in range(1, _EM_ORDER + 1):
        coeff = float(bernoulli_number(2 * j))
        for t in range(1, 2 * j + 1):
            coeff /= t
        poch = 1.0
        for t in range(2 * j - 1):
            poch *= s + t
        acc += coeff * poch * x ** (-s - 2 * j + 1)
    return acc


def hurwitz_zeta_numeric(s: float, a: float, terms: int = 60) -> float:
    """Hurwitz zeta(s, a) = sum_{n>=0} (n+a)^{-s} for real s > 1, a > 0."""
    if s <= 1:
        raise ValueError("hurwitz_zeta_numeric requires s > 1")
    if a <= 0:
        raise ValueError("hurwitz_zeta_numeric requires a > 0")
    acc = sum((n + a) ** -s for n in range(terms))
    x = terms + a
    return acc + x ** (1.0 - s) / (s - 1.0) + _em_tail_no_pole(s, x)


def zeta_numeric(s: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Riemann zeta(s) for real s > 1 (accurate arbitrarily close to the pole)."""
    if s <= 1:
        raise ValueError(f"zeta_numeric requires s > 1, got {s}")
    # truncation point chosen so the Euler-Maclaurin remainder is far below quad_tol
    terms = 60 if s < 40 else 8
    return hurwitz_zeta_numeric(s, 1.0, terms=terms)
