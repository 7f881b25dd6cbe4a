"""Half-integral weight Eisenstein series: lattice sums vs Fourier expansion.

E_{k+1/2,s} is a sum of (n/m) eps_m^{-2k-1} (m tau + n)^{-k-1/2} |m tau+n|^{-2s}
over odd m and coprime n; F is its Fricke transform and H the Cohen
combination.  The same H comes out of a Poisson-summation Fourier expansion
whose coefficients are E_n(k+2s) values times the kernel rho.  Agreement of
the two routes, plus the Gamma_0(4) transformation law with the cube of the
theta multiplier, is the backbone of the verification suite.
"""

import random

import numpy as np
from math import pi

from mockform.class_numbers import cohen_class_number
from mockform.config import EvalConfig
from mockform.eisenstein import (
    Gamma04Matrix,
    eisenstein_direct,
    eisenstein_fourier,
    modularity_residual,
    random_words,
    multiplier_identity_residual,
    theta_multiplier,
)

cfg = EvalConfig()

print("=" * 70)
print("Two routes to H_{k+1/2,s}")
print("=" * 70)
for (k, s) in ((1, 1.0), (2, 1.0)):
    for tau in (0.2 + 0.8j, -0.3 + 1.1j):
        direct = eisenstein_direct("H", k, s, tau, cfg)
        fourier = eisenstein_fourier(k, s, tau, cfg)
        print(f"  k={k} s={s} tau={tau}:")
        print(f"    lattice sum      {direct: .10f}")
        print(f"    Fourier series   {fourier: .10f}"
              f"   (rel diff {abs(direct-fourier)/abs(direct):.1e})")

print()
print("=" * 70)
print("s = 0, k = 2: the expansion is the Cohen q-series")
print("=" * 70)
tau = 1j
q = np.exp(2j * pi * tau)
series = sum(float(cohen_class_number(2, n)) * q ** n for n in range(31))
print(f"  sum H(2,n) q^n       = {series:.12f}")
print(f"  Fourier route        = {eisenstein_fourier(2, 0.0, tau, cfg):.12f}")
print(f"  lattice route        = {eisenstein_direct('H', 2, 0.0, tau, cfg):.12f}")

print()
print("=" * 70)
print("Transformation law under Gamma_0(4)")
print("=" * 70)
g = Gamma04Matrix(1, 0, 4, 1)
resid = modularity_residual(lambda t: eisenstein_direct("E", 2, 1.0, t, cfg),
                            2, 1.0, g, 0.1 + 0.9j)
print(f"  E-series residual under (1,0;4,1) at k=2, s=1: {resid:.2e}")

print()
print("The theta multiplier (c/d) eps_d^{-1} and its top-row expression:")
rng = random.Random(1)
for g in random_words(rng, 4, require_b=True):
    print(f"  g = {g.entries()}: v(g) = {theta_multiplier(g):.4f}, "
          f"top-row residual = {multiplier_identity_residual(g):.1e}")
