"""Hurwitz and Cohen class numbers.

Hurwitz class numbers H(N) are computed two independent ways: by enumerating
reduced binary quadratic forms of discriminant -N with the weights 1/2 and
1/3 for forms equivalent to multiples of x^2+y^2 and x^2+xy+y^2, and through
Dirichlet's class number formula H(N) = L(0, chi_d) T_1(f) where -N = d f^2.
Both run for every N <= max_n in one pass, as int64 sixths 6 H(N), and
_certified_sixths refuses a row on which they disagree.  Tables and single
values (hurwitz_class_number, read from one module-level row) both come from
that certified row; Cohen's H(r, N) is the scalar formula route.

The formula route for a whole table (formula_sixths): the fundamental d < 0
come from squarefree flags of one smallest-prime-factor sieve, each gets one
row of chi_d from the Kronecker kernel, 6 L(0, chi_d) is an exact int64 dot
product, and T_1(f) is multiplicative, so every N = |d| f^2 is reached in
int64 sixths without a Fraction.
"""

from __future__ import annotations

import functools
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
    """Immutable table of Hurwitz class numbers H(0..max_n).

    Construction enforces the structural invariants: H(0) = -1/12, zero in
    the residue classes 1, 2 (mod 4), positive values with denominator
    dividing 12 elsewhere.  Cache loading relies on these checks.
    """

    def __init__(self, values: list[Fraction]):
        if not values or values[0] != Fraction(-1, 12):
            raise ValueError("table must start with H(0) = -1/12")
        for n, value in enumerate(values):
            if n == 0:
                continue
            if n % 4 in (1, 2):
                if value != 0:
                    raise ValueError(f"H({n}) must vanish, got {value}")
            elif value <= 0 or 12 % value.denominator != 0:
                raise ValueError(f"H({n}) = {value} violates the table invariants")
        self._values = tuple(values)

    @property
    def max_n(self) -> int:
        return len(self._values) - 1

    def value(self, n: int) -> Fraction:
        if not 0 <= n <= self.max_n:
            raise ValueError(f"n={n} outside table range 0..{self.max_n}")
        return self._values[n]

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __eq__(self, other):
        return isinstance(other, ClassNumberTable) and self._values == other._values


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


def _first_mismatch(sixths: np.ndarray, formula: np.ndarray) -> int | None:
    """The first n >= 1 with sixths[n] != formula[n], else None."""
    bad = np.flatnonzero(sixths[1:] != formula[1:])
    return int(bad[0]) + 1 if bad.size else None


def _certified_sixths(max_n: int) -> np.ndarray:
    """6 H(N) for N = 0..max_n (entry 0 left 0) by form enumeration, checked by formula_sixths.

    Raises ArithmeticError at the first N where the two routes disagree.
    """
    sixths = _sixths_by_forms(max_n)
    formula = formula_sixths(max_n)
    n = _first_mismatch(sixths, formula)
    if n is not None:
        raise ArithmeticError(
            f"class number cross-check failed at n={n}: enumeration "
            f"{Fraction(int(sixths[n]), 6)} vs formula {Fraction(int(formula[n]), 6)}")
    return sixths


def build_table(max_n: int) -> ClassNumberTable:
    """Tabulate H(n) for 0 <= n <= max_n from one certified row of sixths."""
    if max_n < 0:
        raise ValueError("build_table requires max_n >= 0")
    sixths = _certified_sixths(max_n)
    return ClassNumberTable([Fraction(-1, 12)] + [Fraction(h, 6) for h in sixths[1:].tolist()])


# 6 H(n) for n < len(_sixths_row), read by hurwitz_class_number; entry 0 left 0.
_sixths_row = np.zeros(0, dtype=np.int64)


@functools.lru_cache(maxsize=100_000)
def hurwitz_class_number(N: int) -> Fraction:
    """Hurwitz class number H(N); H(0) = -1/12, zero for N = 1, 2 (mod 4).

    Every N > 0 is read from one certified row of 6 H (_certified_sixths),
    which grows on a miss past its end to the next power of two >= N + 1.
    A lone large N pays for the whole row, mostly its formula cross-check:
    H(65535) alone takes about 10 s on a shared 2-core Xeon.  Callers that
    need H(1..N) ask for H(N) first, so the row is built once.
    """
    global _sixths_row
    if N < 0:
        raise ValueError("hurwitz_class_number requires N >= 0")
    if N == 0:
        return Fraction(-1, 12)
    if N >= len(_sixths_row):
        _sixths_row = _certified_sixths((1 << int(N).bit_length()) - 1)
    return Fraction(int(_sixths_row[N]), 6)
