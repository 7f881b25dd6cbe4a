"""Hurwitz and Cohen class numbers.

Hurwitz class numbers H(N) come from enumerating reduced binary quadratic
forms of discriminant -N, with the weights 1/2 and 1/3 for forms equivalent
to multiples of x^2+y^2 and x^2+xy+y^2, for every N <= max_n in one pass, as
int64 sixths 6 H(N).  The class number relations of Kronecker and Hurwitz pin
every entry: ClassNumberTable holds such a row and checks it with
_first_wrong_entry once, on construction, whether the row was enumerated
(build_table, behind hurwitz_table) or loaded from a cache.  Bulk consumers
read the row (sixths, or ratios as "p/q" text); Fractions come only from
value and hurwitz_class_number.  Cohen's H(r, N) is the scalar formula route.

Dirichlet's formula H(N) = L(0, chi_d) T_1(f), -N = d f^2, gives the row a
second way (formula_sixths, compared with the forms in verify): one sieve finds
the fundamental d < 0, each gets one row of chi_d from the Kronecker kernel,
6 L(0, chi_d) is an exact int64 dot product, and T_1(f) is multiplicative.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import isqrt

import numpy as np

from .arithmetic import (
    divisors,
    fundamental_discriminant,
    kronecker_column,
    moebius,
    multiplicative_row,
    sigma_divisor,
    smallest_prime_factors,
    zeta_exact_neg,
)
from .characters import QuadraticCharacter, l_exact_neg


def t_chi(s: int | float, chi: QuadraticCharacter, f: int) -> Fraction | float:
    """T_s^chi(f) = sum_{a|f} mu(a) chi(a) a^{s-1} sigma_{2s-1}(f/a); exact for int s."""
    if f < 1:
        raise ValueError("t_chi requires f >= 1")
    if s < 1:
        raise ValueError("t_chi requires s >= 1")
    total = 0
    for a in divisors(f):
        total += moebius(a) * chi(a) * a ** (s - 1) * sigma_divisor(2 * s - 1, f // a)
    return total if isinstance(s, float) else Fraction(total)


def cohen_class_number(r: int, N: int) -> Fraction:
    """Cohen class number H(r, N) as an exact rational.

    H(r, 0) = zeta(1-2r); for (-1)^r N = 0, 1 (mod 4) and N > 0 it equals
    L(1-r, chi_d) T_r^{chi_d}(f) with (-1)^r N = d f^2; zero otherwise.
    H(1, N) reduces to the Hurwitz class number.
    """
    if r < 1 or N < 0:
        raise ValueError("cohen_class_number requires r >= 1 and N >= 0")
    if N == 0:
        return zeta_exact_neg(r)
    signed = N if r % 2 == 0 else -N
    if signed % 4 in (2, 3):
        return Fraction(0)
    d, f = fundamental_discriminant(signed)
    chi = QuadraticCharacter(d)
    return l_exact_neg(chi, r) * t_chi(r, chi, f)


class ClassNumberTable:
    """Immutable table of Hurwitz class numbers H(0..max_n): sixths is its read-only int64 row of 6 H.

    Entry 0 of the row is 0 and stands for H(0) = -1/12.  Construction runs
    _first_wrong_entry once and raises ValueError naming the first wrong H(n);
    built and loaded tables alike pass through here.
    """

    def __init__(self, sixths):
        row = np.array(sixths, dtype=np.int64)
        if row.ndim != 1 or not row.size:
            raise ValueError("a table needs a row of 6 H(n) for n = 0..max_n")
        row[0] = 0
        n = _first_wrong_entry(row)
        if n is not None:
            raise ValueError(f"H({n}) = {Fraction(int(row[n]), 6)} is not the Hurwitz class number")
        row.flags.writeable = False
        self.sixths = row

    @property
    def max_n(self) -> int:
        return len(self.sixths) - 1

    def value(self, n: int) -> Fraction:
        n = operator.index(n)
        if not 0 <= n <= self.max_n:
            raise ValueError(f"n={n} outside table range 0..{self.max_n}")
        return Fraction(int(self.sixths[n]), 6) if n else Fraction(-1, 12)

    def ratios(self, max_n: int) -> list[str]:
        """H(0..max_n), max_n <= self.max_n, as lowest-terms "p/q" strings."""
        six = self.sixths[1:max_n + 1]
        g = np.gcd(six, 6)
        return ["-1/12"] + [f"{p}/{q}" for p, q in zip((six // g).tolist(), (6 // g).tolist())]

    def __eq__(self, other):
        return isinstance(other, ClassNumberTable) and np.array_equal(self.sixths, other.sixths)


def _sixths_by_forms(max_n: int) -> np.ndarray:
    """6 H(N) for N = 0..max_n (entry 0 left 0), in one pass over the reduced forms.

    Every reduced (a, b, c), i.e. |b| <= a <= c with b >= 0 when |b| = a or
    a = c, has 3a^2 <= N = 4ac - b^2.  For each a the grid b in (-a, a],
    c >= a adds its weight in sixths to N: 3 for (a, 0, a), 2 for (a, a, a),
    0 for the duplicates b < 0 at c = a, and 6 otherwise.
    """
    sixths = np.zeros(max_n + 1, dtype=np.int64)
    a = 1
    while 3 * a * a <= max_n:
        b = np.arange(1 - a, a + 1)
        c = np.arange(a, (max_n + a * a) // (4 * a) + 1)
        N = 4 * a * c[None, :] - (b * b)[:, None]
        weight = np.full(N.shape, 6, dtype=np.int64)
        weight[b < 0, 0] = 0
        weight[b == 0, 0] = 3
        weight[-1, 0] = 2                      # b = a, c = a
        keep = N <= max_n
        np.add.at(sixths, N[keep], weight[keep])
        a += 1
    return sixths


def formula_sixths(max_n: int) -> np.ndarray:
    """6 H(N) for N = 0..max_n (entry 0 left 0) by the class number formula, as int64.

    Every N = 0, 3 (mod 4) is |d| f^2 for exactly one fundamental d < 0, and
    6 H(N) = 6 L(0, chi_d) T_1(f) with 6 L(0, chi_d) = -6 sum_{a<=|d|} a chi_d(a) / |d|
    and T_1(p^e) = sigma_1(p^e) - chi_d(p) sigma_1(p^{e-1}).  Raises
    ArithmeticError if some 6 L(0, chi_d) comes out non-integral.
    """
    if max_n < 0:
        raise ValueError("formula_sixths requires max_n >= 0")
    sixths = np.zeros(max_n + 1, dtype=np.int64)
    if max_n < 3:
        return sixths
    spf = smallest_prime_factors(max_n)
    squarefree = np.ones(max_n + 1, dtype=bool)
    for p in range(2, isqrt(max_n) + 1):
        if spf[p] == p:
            squarefree[p * p::p * p] = False
    D = np.arange(max_n + 1)
    # d = -D is fundamental iff D = 3 (mod 4) is squarefree, or D = 4m with
    # m = 1, 2 (mod 4) squarefree
    fundamental = squarefree & (D % 4 == 3)
    m = D[4::4] // 4
    fundamental[4::4] = squarefree[m] & ((m % 4 == 1) | (m % 4 == 2))
    a = np.arange(1, max_n + 1, dtype=np.int64)
    for modulus in np.flatnonzero(fundamental).tolist():
        F = isqrt(max_n // modulus)
        half = (modulus - 1) // 2
        chi = kronecker_column(-modulus, a[:max(half, F)])   # chi_d(a) for a = 1, 2, ...
        # chi_d is odd, so a and |d| - a pair to (2a - |d|) chi_d(a), and chi_d(|d|/2) = 0
        numerator = -6 * (2 * int(chi[:half] @ a[:half]) - modulus * int(chi[:half].sum()))
        six_l, rem = divmod(numerator, modulus)
        if rem:
            raise ArithmeticError(f"formula route at n={modulus}: "
                                  f"6 L(0, chi_{-modulus}) = {numerator}/{modulus} is not an integer")
        # T_1(q) = sigma_1(q) - chi_d(p) sigma_1(q/p) = (q p - 1 - chi_d(p) (q - 1)) / (p - 1)
        t1 = multiplicative_row(F, lambda p, q: (q * p - 1 - int(chi[p - 1]) * (q - 1)) // (p - 1), spf)
        f = np.arange(1, F + 1)
        sixths[modulus * f * f] = six_l * t1[1:]
    return sixths


def _first_wrong_entry(sixths: np.ndarray) -> int | None:
    """The first n >= 1 where a row of 6 H (entry 0 left 0) is not the Hurwitz table, else None.

    H(n) is 0 for n = 1, 2 (mod 4), positive elsewhere, and in twelfths (12 H(0) = -1,
    lambda(n) = sum_{d|n} min(d, n/d), t over Z) the relations of Kronecker and Hurwitz hold:
    (R1) sum_t 12 H(4n - t^2) = 24 sigma_1(n) - 12 lambda(n) for n >= 1;
    (R2) sum_t 12 H(n - t^2) = 4 sigma_1(n) - 6 lambda(n) for odd n.
    R2 at n = 3 (mod 4) pins H(n) given H below n, and R1 at n pins H(4n), so the first
    failure (R1 indexed by 4n) is the first wrong entry; a pinned entry counts twice in
    twelfths, so int64 wraparound hides no positive value.  One loop over t <= sqrt(N)
    builds the theta sum and adds the divisor pairs (t, e), e >= t, into sigma_1 and lambda.
    """
    N = len(sixths) - 1
    twelfths = np.concatenate(([-1], 2 * sixths[1:]))
    theta_sum, pair = twelfths.copy(), 2 * twelfths     # pair: the terms of t and -t
    sigma, lam = np.zeros((2, N + 1), dtype=np.int64)
    for t in range(1, isqrt(N) + 1):
        theta_sum[t * t:] += pair[:N + 1 - t * t]
        sigma[t * t::t] += t + np.arange(t, N // t + 1)
        lam[t * t::t] += 2 * t
        sigma[t * t] -= t                                # e = t is one divisor, not two
        lam[t * t] -= t
    n = np.arange(N + 1)
    residue = n % 4
    relation = np.where(residue == 0, 24 * sigma[n // 4] - 12 * lam[n // 4], 4 * sigma - 6 * lam)
    wrong = np.where(np.isin(residue, (0, 3)), sixths <= 0, sixths != 0)
    wrong |= (residue != 2) & (theta_sum != relation)
    bad = np.flatnonzero(wrong[1:])
    return int(bad[0]) + 1 if bad.size else None


# Longer rows are refused before anything is allocated.  At 2^20 entries the row
# peaks at about 80 MB above the interpreter, build_table at 160 MB, and
# `mockform hurwitz` at 210-260 MB in 8-13 s (shared 2-core Xeon).  Rows of
# hurwitz_class_number have 2^k - 1 entries, so N <= MAX_TABLE_N stays inside.
MAX_TABLE_N = 2 ** 20 - 1


def build_table(max_n: int) -> ClassNumberTable:
    """Tabulate H(n) for 0 <= n <= max_n <= MAX_TABLE_N from one enumerated row of sixths.

    Raises ValueError, before allocating, for max_n < 0 or max_n > MAX_TABLE_N,
    and ArithmeticError when the enumeration breaks the class number relations.
    """
    if max_n < 0:
        raise ValueError("build_table requires max_n >= 0")
    if max_n > MAX_TABLE_N:
        raise ValueError(f"a table of H(n) to n={max_n} is longer than MAX_TABLE_N = {MAX_TABLE_N}")
    try:
        return ClassNumberTable(_sixths_by_forms(max_n))
    except ValueError as exc:
        raise ArithmeticError(f"form enumeration breaks the class number relations: {exc}") from None


# The table hurwitz_table serves; it grows on a miss.
_table = build_table(0)


def hurwitz_table(N: int) -> ClassNumberTable:
    """The module-level table, rebuilt on a miss to the next power of two >= N + 1 entries."""
    global _table
    N = operator.index(N)
    if N < 0:
        raise ValueError("hurwitz_class_number requires N >= 0")
    if N > _table.max_n:
        _table = build_table((1 << N.bit_length()) - 1)
    return _table


@functools.lru_cache(maxsize=100_000, typed=True)
def hurwitz_class_number(N: int) -> Fraction:
    """Hurwitz class number H(N); H(0) = -1/12, zero for N = 1, 2 (mod 4).

    Reads hurwitz_table(N).value(N).  A lone large N pays for the whole
    table: H(65535) alone takes about 0.07 s on a shared 2-core Xeon,
    H(MAX_TABLE_N) about 4 s, and a larger N is refused with a ValueError.
    Callers that need H(1..N) read hurwitz_table(N).sixths instead.  A
    non-integer N raises TypeError.
    """
    return hurwitz_table(N).value(N)
