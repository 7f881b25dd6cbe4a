"""Hurwitz and Cohen class numbers.

Hurwitz class numbers H(N) are computed two independent ways: by enumerating
reduced binary quadratic forms of discriminant -N with the weights 1/2 and
1/3 for forms equivalent to multiples of x^2+y^2 and x^2+xy+y^2, and through
Dirichlet's class number formula H(N) = L(0, chi_d) T_1(f) where -N = d f^2.
The table builder cross-checks the two routes and refuses to hand out a
table that disagrees.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .arithmetic import (
    divisors,
    fundamental_discriminant,
    moebius,
    sigma_divisor,
    zeta_exact_neg,
)
from .characters import QuadraticCharacter, l_exact_neg
from .config import DEFAULT_CONFIG, EvalConfig


class QuadraticForm(NamedTuple):
    """Reduced integral form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def reduced_forms(N: int) -> list[QuadraticForm]:
    """All reduced forms of discriminant -N, for N = 0, 3 (mod 4), N > 0.

    Reduced means a > 0, |b| <= a <= c, with b >= 0 whenever |b| = a or a = c.
    Enumeration runs b over |b| <= sqrt(N/3) in the parity class b^2 = -N
    (mod 4) and factors (b^2 + N)/4 = a c.
    """
    if N <= 0 or N % 4 in (1, 2):
        raise ValueError(f"need N = 0,3 (mod 4), N > 0, got {N}")
    forms = []
    b = N % 2
    while 3 * b * b <= N:
        m = (b * b + N) // 4
        for a in divisors(m):
            if a * a > m:
                break
            c = m // a
            if a < max(b, 1):
                continue
            forms.append(QuadraticForm(a, b, c))
            if 0 < b < a and a < c:
                forms.append(QuadraticForm(a, -b, c))
        b += 2
    return sorted(forms)


@functools.lru_cache(maxsize=100_000)
def hurwitz_class_number(N: int) -> Fraction:
    """Hurwitz class number H(N); H(0) = -1/12, zero for N = 1, 2 (mod 4)."""
    if N < 0:
        raise ValueError("hurwitz_class_number requires N >= 0")
    if N == 0:
        return Fraction(-1, 12)
    if N % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    for fm in reduced_forms(N):
        if fm.b == 0 and fm.a == fm.c:
            total += Fraction(1, 2)
        elif fm.a == fm.b == fm.c:
            total += Fraction(1, 3)
        else:
            total += 1
    return total


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
    return _l_exact_neg_cached(d, r) * t_chi(r, chi, f)


@functools.lru_cache(maxsize=None)
def _l_exact_neg_cached(d: int, r: int) -> Fraction:
    return l_exact_neg(QuadraticCharacter(d), r)


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


def build_table(max_n: int, cfg: EvalConfig = DEFAULT_CONFIG,
                cross_check: bool = True) -> ClassNumberTable:
    """Tabulate H(n) for 0 <= n <= max_n by form enumeration.

    With cross_check, every entry is verified against the class number
    formula route H(1, n); the first disagreement aborts construction.
    """
    if max_n < 0:
        raise ValueError("build_table requires max_n >= 0")
    values = [hurwitz_class_number(n) for n in range(max_n + 1)]
    if cross_check:
        for n in range(max_n + 1):
            formula = cohen_class_number(1, n)
            if formula != values[n]:
                raise ArithmeticError(
                    f"class number cross-check failed at n={n}: "
                    f"enumeration {values[n]} vs formula {formula}")
    return ClassNumberTable(values)
