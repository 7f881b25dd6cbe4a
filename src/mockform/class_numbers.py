"""Hurwitz and Cohen class numbers.

Hurwitz class numbers H(N) come from enumerating reduced binary quadratic
forms of discriminant -N, with the weights 1/2 and 1/3 for forms equivalent
to multiples of x^2+y^2 and x^2+xy+y^2, for every N <= max_n in one pass, as
int64 sixths 6 H(N).  The class number relations of Kronecker and Hurwitz pin
every entry: ClassNumberTable holds such a row and checks it with
_first_wrong_entry once, on construction, whether the row was enumerated
(build_table, behind hurwitz_table) or loaded from a cache.  Bulk consumers
read the row (sixths, which the cache stores as it is, floats, the prefix the completed
series sums, or lowest_terms, the int64 columns n, p, q of H(n) = p/q that the CLI
prints); Fractions come only from value and hurwitz_class_number.
Cohen's H(r, N) is the scalar formula route.

Dirichlet's formula H(N) = L(0, chi_d) T_1(f), -N = d f^2, gives the row a
second way (formula_sixths, compared with the forms in verify): one sieve finds
the fundamental d < 0, and blocks of them share one int8 table of chi_d(a) from
the multiplicative fill, with chi_d(p) read from the Kronecker kernel; each
6 L(0, chi_d) is an exact int64 sum over a row of it, and T_1(f) comes from the
same fill.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import isqrt

import numpy as np

from .arithmetic import (
    divisor_sums,
    divisors,
    fundamental_discriminant,
    jacobi_row,
    kronecker_column,
    moebius,
    multiplicative_row,
    sigma_divisor,
    smallest_prime_factors,
    zeta_exact_neg,
)
from .characters import QuadraticCharacter, l_exact_neg
from .config import MAX_TABLE_N


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

    Entry 0 of the row is 0 and stands for H(0) = -1/12.  Construction refuses a row
    past MAX_TABLE_N, then runs _first_wrong_entry once and raises ValueError naming
    the first wrong H(n); built and loaded tables alike pass through here.  A row not
    of integers fitting int64 raises TypeError.
    """

    def __init__(self, sixths):
        row = np.asarray(sixths)
        if row.ndim != 1 or not row.size:
            raise ValueError("a table needs a row of 6 H(n) for n = 0..max_n")
        if row.size > MAX_TABLE_N + 1:
            raise ValueError(f"a table of H(n) to n={row.size - 1} is longer than MAX_TABLE_N = {MAX_TABLE_N}")
        # casting would turn 6 H = 2.9 into 2 and wrap a uint64 past 2^63 - 1
        if row.dtype.kind not in "iu" or row.dtype.kind == "u" and row.max() > np.iinfo(np.int64).max:
            raise TypeError(f"a row of 6 H(n) needs integers that fit int64, got dtype {row.dtype}")
        row = row.astype(np.int64)
        row[0] = 0
        n = _first_wrong_entry(row)
        if n is not None:
            raise ValueError(f"H({n}) = {Fraction(int(row[n]), 6)} is not the Hurwitz class number")
        row.flags.writeable = False
        self.sixths, self._floats = row, []

    @property
    def max_n(self) -> int:
        return len(self.sixths) - 1

    def value(self, n: int) -> Fraction:
        n = operator.index(n)
        if not 0 <= n <= self.max_n:
            raise ValueError(f"n={n} outside table range 0..{self.max_n}")
        return Fraction(int(self.sixths[n]), 6) if n else Fraction(-1, 12)

    def floats(self, n: int) -> list[float]:
        """H(m) = 6 H / 6 as floats for m = 0..min(n, max_n) at least (entry 0 is 0.0), built on first
        use and kept; a larger n replaces the list by one at least twice as long, up to max_n."""
        floats = self._floats
        if len(floats) <= n:
            floats = (self.sixths[:min(max(2 * len(floats), n + 1), self.max_n + 1)] / 6).tolist()
            self._floats = floats
        return floats

    def lowest_terms(self, max_n: int) -> np.ndarray:
        """int64 rows (n, p, q), n = 0..max_n, with H(n) = p/q in lowest terms; ValueError past the table."""
        max_n = operator.index(max_n)
        if not 0 <= max_n <= self.max_n:
            raise ValueError(f"max_n={max_n} outside table range 0..{self.max_n}")
        six = self.sixths[:max_n + 1]
        g = np.gcd(six, 6)
        rows = np.column_stack((np.arange(max_n + 1), six // g, 6 // g))
        rows[0, 1:] = -1, 12
        return rows

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


# formula_sixths fills one chi_d table of at most this many int8 entries per block of fundamental d
_FORMULA_BLOCK = 2 ** 17


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
    moduli = np.flatnonzero(fundamental)
    legendre = functools.cache(jacobi_row)      # each block reads the rows of the primes p <= its |d| / 2
    start = 0
    while start < moduli.size:
        # a block's table has a column for each a <= (|d| - 1) / 2 of its largest |d|, and a = 0
        entries = np.arange(1, moduli.size - start + 1) * ((moduli[start:] + 1) // 2)
        stop = start + max(1, int(np.searchsorted(entries, _FORMULA_BLOCK, side="right")))
        _formula_block(sixths, moduli[start:stop], spf, legendre)
        start = stop
    return sixths


def _formula_block(sixths: np.ndarray, modulus: np.ndarray, spf: np.ndarray, legendre) -> None:
    """Write 6 H(|d| f^2) into sixths for an ascending block of fundamental d = -modulus.

    legendre(p) is jacobi_row(p), the Legendre row of the odd prime p.
    """
    max_n = len(sixths) - 1

    @functools.cache
    def chi(p):
        """chi_d(p) for every d of the block, as int8."""
        return kronecker_column(2, modulus) if p == 2 else legendre(p)[(-modulus) % p]

    half = (modulus - 1) // 2
    # chi_d(p^e) = chi_d(p)^e: chi_d(p) for odd e, chi_d(p)^2 for even e, where q is a square
    table = multiplicative_row(int(half[-1]), lambda p, q: chi(p) if isqrt(q) ** 2 != q else chi(p) ** 2, spf)
    a = np.arange(table.shape[1])
    # chi_d is odd, so a and |d| - a pair to (2a - |d|) chi_d(a), and chi_d(|d|/2) = 0
    table *= a <= half[:, None]
    numerator = -6 * (2 * np.einsum("ij,j->i", table, a) - modulus * table.sum(axis=1, dtype=np.int64))
    six_l, rem = np.divmod(numerator, modulus)
    if rem.any():
        i = np.flatnonzero(rem)[0]
        raise ArithmeticError(f"formula route at n={modulus[i]}: "
                              f"6 L(0, chi_{-modulus[i]}) = {numerator[i]}/{modulus[i]} is not an integer")
    # T_1(q) = sigma_1(q) - chi_d(p) sigma_1(q/p) = (q p - 1 - chi_d(p) (q - 1)) / (p - 1)
    t1 = multiplicative_row(isqrt(max_n // int(modulus[0])),
                            lambda p, q: (q * p - 1 - chi(p).astype(np.int64) * (q - 1)) // (p - 1), spf)
    f = np.arange(1, t1.shape[1])
    N = modulus[:, None] * f * f
    keep = N <= max_n
    sixths[N[keep]] = (six_l[:, None] * t1[:, 1:])[keep]


def _first_wrong_entry(sixths: np.ndarray) -> int | None:
    """The first n >= 1 where a row of 6 H (entry 0 left 0) is not the Hurwitz table, else None.

    H(n) is 0 for n = 1, 2 (mod 4), positive elsewhere, and in twelfths (12 H(0) = -1,
    lambda(n) = sum_{d|n} min(d, n/d), t over Z) the relations of Kronecker and Hurwitz hold:
    (R1) sum_t 12 H(4n - t^2) = 24 sigma_1(n) - 12 lambda(n) for n >= 1;
    (R2) sum_t 12 H(n - t^2) = 4 sigma_1(n) - 6 lambda(n) for odd n.
    R2 at n = 3 (mod 4) pins H(n) given H below n, and R1 at n pins H(4n), so the first
    failure (R1 indexed by 4n) is the first wrong entry; a pinned entry counts twice in
    twelfths, so int64 wraparound hides no positive value.  One loop of slice-adds over
    t <= sqrt(N) builds the theta sum, and divisor_sums gives sigma_1 and lambda.
    """
    N = len(sixths) - 1
    twelfths = np.concatenate(([-1], 2 * sixths[1:]))
    theta_sum, pair = twelfths.copy(), 2 * twelfths     # pair: the terms of t and -t
    for t in range(1, isqrt(N) + 1):
        theta_t = theta_sum[t * t:]                 # a named view skips row[s] += x's setitem
        theta_t += pair[:N + 1 - t * t]
    sigma, lam = divisor_sums(N)
    n = np.arange(N + 1)
    residue = n % 4
    relation = np.where(residue == 0, 24 * sigma[n // 4] - 12 * lam[n // 4], 4 * sigma - 6 * lam)
    wrong = np.where((residue == 0) | (residue == 3), sixths <= 0, sixths != 0)
    wrong |= (residue != 2) & (theta_sum != relation)
    bad = np.flatnonzero(wrong[1:])
    return int(bad[0]) + 1 if bad.size else None


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
        raise ValueError("hurwitz_table requires N >= 0")
    if N > _table.max_n:
        _table = build_table((1 << N.bit_length()) - 1)
    return _table


@functools.lru_cache(maxsize=100_000, typed=True)
def hurwitz_class_number(N: int) -> Fraction:
    """Hurwitz class number H(N); H(0) = -1/12, zero for N = 1, 2 (mod 4).

    Reads hurwitz_table(N).value(N).  A lone large N pays for the whole
    table: H(65535) alone takes about 0.04 s on a shared 2-core Xeon,
    H(MAX_TABLE_N) about 2.7 s, and a larger N is refused with a ValueError.
    Callers that need H(1..N) read hurwitz_table(N).sixths instead.  A
    non-integer N raises TypeError.
    """
    if operator.index(N) < 0:
        raise ValueError("hurwitz_class_number requires N >= 0")
    return hurwitz_table(N).value(N)
