"""The Gauss sums gamma_c(n) and the Dirichlet series E_n(s) built from them.

gamma_c(n) averages the eighth-root weight lambda(a, c) against e^{-pi i n a/c}
over a mod 2c.  Packaging them as a Dirichlet series over odd and rescaled
even moduli gives E_n(s), which collapses to L-function quotients:
E_0(s) = zeta(2s-1)/zeta(2s) and, for n = d f^2,
E_n(s) = L(s, chi_d)/zeta(2s) * T_s(f)/f^{2s-1}.  These closed forms are
exactly what the Fourier expansion of the half-integral weight Eisenstein
series consumes.
"""

from math import sqrt

from mockform.arithmetic import zeta_numeric
from mockform.dirichlet_series import (
    gamma_row,
    gauss_sum_gamma,
    series_closed,
    series_partial,
)

print("=" * 70)
print("The Gauss sum gamma_c(n)")
print("=" * 70)
for c in (1, 3, 4, 5, 12):
    vals = ", ".join(f"{gauss_sum_gamma(c, n):6.3f}" for n in range(4))
    print(f"  gamma_{c}(0..3) = {vals}   (|gamma| <= 2 sqrt({c}) = {2*sqrt(c):.2f})")

print()
print("=" * 70)
print("gamma_c(n) is an integer, multiplicative over coprime moduli")
print("=" * 70)
for n, (c1, c2) in ((1, (3, 4)), (-4, (5, 8)), (-3, (7, 9))):
    row = gamma_row(n, c1 * c2)
    product = gauss_sum_gamma(c1, n) * gauss_sum_gamma(c2, n)
    print(f"  gamma_{c1 * c2}({n}) = {row[c1 * c2]} = gamma_{c1}({n}) gamma_{c2}({n}) "
          f"= {product.real:.6f}")
print()
print("=" * 70)
print("E_n(s): truncated series vs closed forms at s = 3")
print("=" * 70)
print("  n        truncated (M=800)      closed form        |diff|    tail bound")
for n in (0, 1, 5, -3, -4, 8):
    part = series_partial(n, 3.0, 800)
    closed = series_closed(n, 3.0)
    print(f"  {n:3d}   {part.real: .12f}   {closed: .12f}   "
          f"{abs(part - closed):.2e}   {part.bound:.2e}")
print()
print("  residue classes 2, 3 (mod 4) vanish identically:")
for n in (2, 3, -1):
    part = series_partial(n, 3.0, 800)
    print(f"  |E_{n}(3)| truncated = {abs(part):.2e}")
print()
e0 = series_closed(0, 3.0)
print(f"  E_0(3) = zeta(5)/zeta(6) check: "
      f"{abs(e0 - zeta_numeric(5.0)/zeta_numeric(6.0)):.2e}")
