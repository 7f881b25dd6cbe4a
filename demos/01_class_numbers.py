"""Hurwitz class numbers two ways: form counting and the class number formula.

H(N) counts SL(2,Z)-classes of binary quadratic forms of discriminant -N,
with weights 1/2 and 1/3 for the forms equivalent to multiples of x^2 + y^2
and x^2 + xy + y^2, and H(0) = -1/12.  The same numbers come out of
Dirichlet's class number formula as L(0, chi_d) T_1(f) with -N = d f^2.
The library counts the forms of every N up to a bound in one pass and
refuses the row unless it satisfies the class number relations of Kronecker
and Hurwitz, which pin every entry; this script checks two of them by hand,
shows the scalar formula agreeing with the certified row exactly, plus the
Cohen generalization H(r, N) that feeds the weight r + 1/2 Eisenstein series.
"""

from fractions import Fraction

from mockform.class_numbers import (
    build_table,
    cohen_class_number,
    hurwitz_class_number,
)

print("=" * 70)
print("Weighted form counts of small discriminants")
print("=" * 70)
print("  -23: (1,1,6), (2,-1,3), (2,1,3)   ->  "
      f"H(23) = {hurwitz_class_number(23)}")
print("  -31: (1,1,8), (2,-1,4), (2,1,4)   ->  "
      f"H(31) = {hurwitz_class_number(31)}")
print()
print("The forms (a,0,a) and (a,a,a) carry weights 1/2 and 1/3:")
print(f"  H(4)  = {hurwitz_class_number(4)}   (only x^2 + y^2)")
print(f"  H(3)  = {hurwitz_class_number(3)}   (only x^2 + xy + y^2)")
print(f"  H(12) = {hurwitz_class_number(12)}   (x^2 + 3y^2 and 2x^2 + 2xy + 2y^2)")
print(f"  H(0)  = {hurwitz_class_number(0)}")

print()
print("=" * 70)
print("The class number relations that certify every table")
print("=" * 70)
n = 5
r1 = sum(hurwitz_class_number(4 * n - t * t) for t in range(-4, 5))
print(f"  sum_t H(4*5 - t^2) = {r1} = 2 sigma_1(5) - lambda(5) = 2*6 - 2")
r2 = sum(hurwitz_class_number(23 - t * t) for t in range(-4, 5))
print(f"  sum_t H(23 - t^2)  = {r2} = sigma_1(23)/3 - lambda(23)/2 = 8 - 1")

print()
print("=" * 70)
print("Certified row vs the scalar class number formula (exact rational equality)")
print("=" * 70)
mismatches = sum(
    1 for n in range(2001)
    if n % 4 in (0, 3) and hurwitz_class_number(n) != cohen_class_number(1, n)
)
print(f"  N <= 2000: {mismatches} mismatches between the two routes")

print()
print("=" * 70)
print("Cohen class numbers H(r, N)")
print("=" * 70)
print("  r = 2 (these are the weight 5/2 Eisenstein coefficients):")
row = [str(cohen_class_number(2, n)) for n in range(13)]
print("   ", row)
print(f"  H(2, 0) = zeta(-3) = {cohen_class_number(2, 0)}")
print(f"  H(3, 0) = zeta(-5) = {cohen_class_number(3, 0)}")

print()
print("=" * 70)
print("Table construction with the built-in certificate")
print("=" * 70)
table = build_table(48)
print("  n : H(n) for n = 0..12:",
      [f"{table.value(n)}" for n in range(13)])
total = sum(table.value(n) for n in range(49) if n % 4 in (0, 3))
assert isinstance(total, Fraction)
print(f"  sum of H(n), n <= 48: {total}")
