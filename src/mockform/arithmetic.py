"""Exact number-theoretic primitives.

Kronecker symbol and the kernel that fills every symbol table (jacobi_row,
kronecker_column), the eighth-root factor eps_d, a smallest-prime-factor
sieve and the multiplicative rows built on it, the divisor sieve of sigma_1
and lambda, multiplicative functions, Bernoulli numbers, fundamental
discriminants, exact / numeric zeta values.  Everything exact is carried by
``fractions.Fraction`` (arbitrary-size rationals, always in lowest terms).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial, isqrt, prod
from typing import NamedTuple

import numpy as np


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

    A Legendre row marks the squares k^2 mod p, 1 <= k <= (p-1)/2, with +1, the
    other nonzero residues with -1 and 0 with 0, so no symbol is evaluated; it
    is tiled c/p times, and squared for an even power of p.
    """
    if c < 1 or c % 2 == 0:
        raise ValueError(f"jacobi_row requires odd c >= 1, got {c}")
    row = np.ones(c, dtype=np.int8)
    for p, e in factorize(c).items():
        legendre = -np.ones(p, dtype=np.int8)
        legendre[0] = 0
        k = np.arange(1, (p + 1) // 2)
        legendre[k * k % p] = 1
        row *= np.tile(legendre if e % 2 else legendre * legendre, c // p)
    return row


def kronecker_column(m: int, a) -> np.ndarray:
    """(m/a) for an array of positive a, by reciprocity onto jacobi_row of m's odd part.

    With a = 2^e a' and m = sign 2^f m' (a', m' odd): (m/a) = (m/2)^e (sign/a')
    (2/a')^f (a'/m') (-1)^{(a'-1)/2 (m'-1)/2}.  Every factor but (a'/m') depends
    only on min(e, 1) (m even) or e mod 2 (m odd) and on a' mod 8, so it is read
    from a 2 x 8 sign table.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.size and a.min() < 1:
        raise ValueError("kronecker_column requires positive a")
    if m == 0:
        return (a == 1).astype(np.int8)
    e = np.frexp((a & -a).astype(float))[1] - 1   # a & -a = 2^e
    odd = a >> e
    m_low = abs(m) & -abs(m)                  # 2^f
    m_odd = abs(m) // m_low
    sign = np.ones((2, 8), dtype=np.int8)     # [row for e, a' mod 8]
    if (m < 0) != (m_odd % 4 == 3):           # (-1/a') and reciprocity flip at a' = 3 mod 4
        sign[:, [3, 7]] *= -1
    if m_low.bit_length() % 2 == 0:           # f odd: (2/a') flips at a' = 3, 5 mod 8
        sign[:, [3, 5]] *= -1
    if m % 2 == 0:                            # (m/2) = 0: only e = 0 survives
        sign[1] = 0
        e_row = np.minimum(e, 1)
    else:
        sign[1] *= 1 if m % 8 in (1, 7) else -1
        e_row = e & 1
    col = sign.ravel()[(e_row << 3) | (odd & 7)]
    if m_odd > 1:
        col *= jacobi_row(m_odd)[odd % m_odd]
    return col


def epsilon_factor(d: int) -> complex:
    """eps_d = 1 for d = 1 (mod 4), i for d = 3 (mod 4); eps_d^2 = (-1/d)."""
    if d % 2 == 0:
        raise ValueError(f"eps_d requires odd d, got {d}")
    return 1.0 + 0.0j if d % 4 == 1 else 1.0j


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius requires n >= 1")
    exponents = factorize(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


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


def multiplicative_row(L: int, at_prime_power, spf: np.ndarray) -> np.ndarray:
    """g(c) for c = 0..L (entry 0 is 0), g multiplicative, for one g or a batch of B.

    at_prime_power(p, q) gives g(q) at the prime power q = p^e <= L: an integer,
    for one int64 row, or an integer array of the values of B functions, for a
    (B, L + 1) row of its dtype; its value at (2, 2), asked first even for
    L < 2, fixes that shape.  spf is a smallest_prime_factors sieve reaching at
    least L.  Each prime fills a scratch row with g(p^e) at the multiples of
    p^e, e = 1, 2, ... (the higher power overwrites), and that row is
    multiplied in at the multiples of p.
    """
    at_two = np.asarray(at_prime_power(2, 2))[..., None]
    row = np.ones(at_two.shape[:-1] + (L + 1,), dtype=at_two.dtype)
    row[..., 0] = 0
    local = np.empty_like(row)
    for p in (np.flatnonzero(spf[2:L + 1] == np.arange(2, L + 1)) + 2).tolist():
        q = p
        while q <= L:
            local[..., q::q] = at_two if q == 2 else np.asarray(at_prime_power(p, q))[..., None]
            q *= p
        row[..., p::p] *= local[..., p::p]
    return row


def sigma_divisor(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum of d^k over d | n."""
    if k < 0:
        raise ValueError("sigma_divisor requires k >= 0")
    return sum(d ** k for d in divisors(n))


def divisor_sums(N: int) -> np.ndarray:
    """The int64 rows sigma_1(n) and lambda(n) = sum_{d|n} min(d, n/d), n = 0..N, from the divisor pairs."""
    sigma, lam = sums = np.zeros((2, N + 1), dtype=np.int64)
    e = np.arange(N + 1)
    for t in range(1, isqrt(N) + 1):
        # each pair (t, e), t <= e <= N // t, adds e and t at n = t e; views skip row[s] += x's setitem
        sigma_te, lam_te = sigma[t * t::t], lam[t * t::t]
        sigma_te += e[t:N // t + 1]
        lam_te += t
    sigma += lam                # now a pair gives sigma_1 t + e and lambda 2t, and (r, r) counts once
    lam *= 2
    r = e[1:isqrt(N) + 1]
    sums[:, r * r] -= r
    return sums


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
    # |n| = core f^2 with core squarefree: the odd exponents make core, the halves f
    exponents = factorize(n).items()
    core = prod(p for p, e in exponents if e % 2)
    f = prod(p ** (e // 2) for p, e in exponents)
    if n < 0:
        core = -core
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


# B_{2j} / (2j)! for j = 1.._EM_ORDER
_EM_COEFFS = tuple(float(bernoulli_number(2 * j) / factorial(2 * j))
                   for j in range(1, _EM_ORDER + 1))


def _em_tail_no_pole(s: float, x):
    """Euler-Maclaurin tail of sum_{n >= 0} (n + x)^{-s} *without* x^{1-s}/(s-1).

    x may be a float or an array of abscissae, one tail each.
    """
    acc = 0.5 * x ** -s
    poch = s                                   # s (s+1) ... (s+2j-2)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        acc += coeff * poch * x ** (-s - 2 * j + 1)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
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


def zeta_numeric(s: float) -> float:
    """Riemann zeta(s) for real s > 1 (accurate arbitrarily close to the pole)."""
    if s <= 1:
        raise ValueError(f"zeta_numeric requires s > 1, got {s}")
    # 60 direct terms (8 from s = 40 on) put the Euler-Maclaurin remainder far
    # below double rounding
    terms = 60 if s < 40 else 8
    return hurwitz_zeta_numeric(s, 1.0, terms=terms)
