"""The completed class number series: modularity, harmonicity, and its shadow.

The generating function of Hurwitz class numbers is not modular on its own.
Completed with the incomplete-gamma series and the 1/(8 pi sqrt(v)) term it
transforms on Gamma_0(4) with the cube of the theta multiplier and is killed
by the weight 3/2 hyperbolic Laplacian.  Applying the shadow operator
xi_{3/2} = 2 i v^{3/2} conj(d/dtaubar) produces a multiple of the theta
series: measured by finite differences and derived exactly from the
nonholomorphic coefficients, the multiple is -1/(16 pi).
"""

from math import pi, sqrt

from mockform.config import EvalConfig
from mockform.eisenstein import Gamma04Matrix, modularity_residual
from mockform.maass import (
    alpha_limit,
    completed_hurwitz_series,
    fourier_coefficient,
    laplacian_fd,
    s_limit_check,
    theta_series,
    xi_shadow_analytic,
    xi_shadow_fd,
)

cfg = EvalConfig()
series = lambda t: completed_hurwitz_series(t, cfg).value

print("=" * 70)
print("Values of the completed series")
print("=" * 70)
for tau in (1j, 10j, 0.3 + 0.6j):
    val = completed_hurwitz_series(tau, cfg)
    print(f"  tau = {tau}: {val.value:.12f}")
    print(f"      holomorphic    {val.holomorphic_part:.12f}")
    print(f"      nonholomorphic {val.nonholomorphic_part:.12f}"
          f"   (error bound {val.value.bound:.1e})")
print(f"  large v check: -1/12 + 1/(8 pi sqrt(10)) = "
      f"{-1/12 + 1/(8*pi*sqrt(10)):.12f}")

print()
print("=" * 70)
print("Gamma_0(4) transformation and harmonicity")
print("=" * 70)
for g, tau in ((Gamma04Matrix(1, 1, 0, 1), 0.4 + 0.9j),
               (Gamma04Matrix(1, 0, 4, 1), -0.25 + 0.45j),
               (Gamma04Matrix(-3, -1, 4, 1), -0.1 + 0.5j)):
    resid = modularity_residual(series, 1, 0.0, g, tau)
    print(f"  g = {g.entries()}: transformation residual {resid:.2e}")
for tau in (0.3 + 0.8j, 0.7 + 1.4j):
    print(f"  |Delta_3/2 at {tau}| = {abs(laplacian_fd(series, 1.5, tau)):.2e}")

print()
print("=" * 70)
print("The shadow: which multiple of theta?")
print("=" * 70)
tau = 0.25 + 0.9j
shadow = xi_shadow_fd(series, 1.5, tau)
th = theta_series(tau, cfg)
print(f"  finite-difference shadow at {tau}: {shadow:.10f}")
print(f"  -Theta/16        : {-th/16:.10f}   (off by {abs(shadow + th/16):.2e})")
print(f"  -Theta/(16 pi)   : {-th/(16*pi):.10f}   (off by {abs(shadow + th/(16*pi)):.2e})")
print()
print("  exact coefficient stream of xi_{3/2}(completed series):")
for c in xi_shadow_analytic(16):
    print(f"    q^{c.exponent}: {c.mantissa} * pi^{c.pi_power}")
print("  i.e. the shadow is -Theta/(16 pi).")

print()
print("=" * 70)
print("Fourier coefficients and their s -> 0 limits")
print("=" * 70)
print("  h     extracted coefficient      limit table         s->0 route")
for h in (0, 3, 4, -1, -4):
    got = fourier_coefficient(series, h, 0.25, 64)
    tab = alpha_limit(h, 0.25)
    lim = "      (analytic)" if h == 0 else f"{s_limit_check(h, 0.25, cfg).real: .12f}"
    print(f"  {h:3d}   {got.real: .12f}      {tab.real: .12f}   {lim}")
