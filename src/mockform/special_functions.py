"""Incomplete gamma at the orders +-1/2, the Omega integral, and the Fourier kernel rho.

These feed the Fourier expansions of the half-integral weight Eisenstein
series and the nonholomorphic part of the completed class number series.
All complex powers are principal (exp of the principal logarithm);
the upper half plane maps to the first quadrant under the square root.
"""

from __future__ import annotations

from math import erfc, exp, gamma, lgamma, log1p, pi, sqrt
from typing import NamedTuple
import cmath

import numpy as np

# Bound but never called: the benchmark's tracer counts Omega quadratures by
# patching special_functions.quad, and Omega no longer needs one.  The binding
# goes when that counter is retargeted; until then it must stay importable.
from ._scipy import quad  # noqa: F401
from .config import DEFAULT_CONFIG, EvalConfig

_SQRT_PI = sqrt(pi)


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot certify the requested tolerance."""

    def __init__(self, message, estimate):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


def _rgamma(x: float) -> float:
    """1/Gamma(x) for real x, zero at the poles x = 0, -1, -2, ... of Gamma."""
    if x <= 0 and x == int(x):
        return 0.0
    return 1.0 / gamma(x)


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) = int_x^inf e^{-t} t^{s-1} dt at s = 1/2 or -1/2.

    Gamma(1/2, x) = sqrt(pi) erfc(sqrt x), and integration by parts gives
    Gamma(-1/2, x) = 2 e^{-x} / sqrt(x) - 2 Gamma(1/2, x).  The completed
    series needs s = -1/2 only; other orders are refused.
    """
    if s not in (0.5, -0.5):
        raise ValueError(f"upper_incomplete_gamma supports the orders s = 1/2 and s = -1/2, "
                         f"got s={s}")
    if x < 0 or (x == 0 and s < 0):
        raise ValueError(f"Gamma(s, x) needs x >= 0, and x > 0 at s = -1/2; got s={s}, x={x}")
    if s == 0.5:
        return _SQRT_PI * erfc(sqrt(x))
    return -2.0 * _SQRT_PI * erfc(sqrt(x)) + 2.0 * exp(-x) / sqrt(x)


class OmegaValue(NamedTuple):
    """Omega values and bounds on their absolute error (floats, or arrays shaped like y)."""

    value: float | np.ndarray
    bound: float | np.ndarray


# Omega and rho multiply by 1/Gamma of their orders, and math.gamma overflows
# a float above 171.62; larger orders are refused, not returned as inf or nan.
MAX_ORDER = 171.0

# Double-exponential rule (Takahasi and Mori 1974) in the form for integrands
# that decay like e^{-t} on (0, inf): t = exp(x - e^{-x}) (Mori and Sugihara
# 2001), x in [-4.5, 6.5] with step 1/16; its even nodes are the step-1/8 rule.
# At x = -4.5, t ~ 1e-41; at x = 6.5, t ~ 665 and e^{-t} ~ 1e-289.  The nodes
# are built with math, not numpy ufuncs, whose first call costs 0.3 MB of
# memory in processes that never evaluate Omega.
_DE_STEP = 1.0 / 16.0
_DE_X = [j * _DE_STEP for j in range(-72, 105)]
_DE_LOG_T = np.array([x - exp(-x) for x in _DE_X])
_DE_T = np.array([exp(x - exp(-x)) for x in _DE_X])
_DE_LOG_JACOBIAN = np.array([x - exp(-x) + log1p(exp(-x)) for x in _DE_X])   # log dt/dx
_EPS = np.finfo(float).eps


def omega(y, alpha: float, beta: float, cfg: EvalConfig = DEFAULT_CONFIG) -> OmegaValue:
    """Omega(y, alpha, beta) = y^beta / Gamma(beta) * int_0^inf e^{-yu} (u+1)^{alpha-1} u^{beta-1} du.

    That is y^beta U(beta, alpha + beta, y) with Kummer's U (DLMF 13.4.4).
    Takes real alpha, beta and a float or a 1-D array of y > 0; returns the
    values with bounds on their absolute error, or raises QuadratureError
    when a bound exceeds cfg.quad_tol max(1, |Omega|).  Omega(y, alpha, 0) = 1
    by convention.  Satisfies Omega(y, 1-beta, 1-alpha) = Omega(y, alpha, beta).

    With t = y u the 1 splits off:
      Omega = 1 + Gamma(beta)^{-1} int_0^inf e^{-t} t^{beta-1} expm1((alpha-1) log1p(t/y)) dt,
    whose integrand vanishes like t^beta at 0, so the double-exponential rule
    needs no endpoint care down to beta ~ 1e-4; all y share its nodes.  The
    weights carry 1/Gamma(beta) as -lgamma(beta) in their exponent.  The bound
    adds the difference of the step-1/16 and step-1/8 sums, the end terms and
    the rounding of the sum and of the final 1 +.  It is absolute: where
    Omega << 1 (alpha < 1, large beta, small y) the 1 + cancels and the
    relative error can be large.
    """
    ys = np.asarray(y, dtype=float)
    if ys.ndim > 1:
        raise ValueError("omega takes a float or a 1-D array of y")
    if not np.all(ys > 0):
        raise ValueError("omega requires y > 0")
    alpha, beta = float(alpha), float(beta)
    if alpha > MAX_ORDER or beta > MAX_ORDER:
        raise ValueError(f"omega supports orders alpha, beta <= {MAX_ORDER:g}, "
                         f"beyond which Gamma overflows a float; got alpha={alpha}, beta={beta}")
    if beta < 0:
        raise ValueError("omega requires beta > 0 (or beta = 0 exactly)")
    if beta == 0:
        value, bound = np.ones_like(ys), np.zeros_like(ys)
    else:
        with np.errstate(over="ignore", invalid="ignore"):   # overflow is refused below
            lg = lgamma(beta)
            logw = _DE_LOG_JACOBIAN + (beta - 1.0) * _DE_LOG_T - _DE_T - lg
            c = (alpha - 1.0) * np.log1p(_DE_T / ys.reshape(-1, 1))
            w = np.exp(logw)
            # expm1(c) overflows before e^{-t} underflows; past c = 1 use exp(logw + c) - w
            f = np.where(c < 1.0, w * np.expm1(np.minimum(c, 1.0)), np.exp(logw + c) - w)
            fine = _DE_STEP * f.sum(axis=1)
            coarse = 2.0 * _DE_STEP * f[:, ::2].sum(axis=1)
            value = (1.0 + fine).reshape(ys.shape)
            # rounding: an exponent z computed to eps |z| is a relative error eps |z| in e^z
            af = np.abs(f)
            exponent = (np.abs(_DE_LOG_JACOBIAN) + abs(beta - 1.0) * np.abs(_DE_LOG_T)
                        + _DE_T + abs(lg) + 8.0)
            rounding = _EPS * _DE_STEP * (af @ exponent + 2.0 * (af * np.abs(c)).sum(axis=1))
            # step-1/8 error + the end terms (truncation) + rounding of the sum and of the 1 +
            bound = (np.abs(fine - coarse) + _DE_STEP * (af[:, 0] + af[:, -1])
                     + rounding).reshape(ys.shape) + 2.0 * _EPS * np.abs(value)
        if not (np.all(np.isfinite(value)) and np.all(np.isfinite(bound))):
            raise ValueError(f"Omega(y, {alpha}, {beta}) overflows a float")
        if np.any(bound > cfg.quad_tol * np.maximum(1.0, np.abs(value))):
            raise QuadratureError("omega quadrature did not converge", float(np.max(bound)))
    if ys.ndim == 0:
        return OmegaValue(float(value), float(bound))
    return OmegaValue(value, bound)


def _principal_power(z: complex, w: complex) -> complex:
    """z^w = exp(w Log z) with the principal logarithm."""
    return cmath.exp(w * cmath.log(z))


def rho_kernel(h, k: int, s: float, v: float,
               cfg: EvalConfig = DEFAULT_CONFIG):
    """Fourier kernel rho_h^{k+1/2}(s, v) of the weight k+1/2 Poisson summation.

    rho is v^{-k+1/2-2s} e^{2 pi h v} xi(1; k+1/2+s, s; h v) in closed form, where
    xi(y; alpha, beta; t) = int e^{-2 pi i t x} (x+iy)^{-alpha} (x-iy)^{-beta} dx:

      h > 0:  (-2 i pi)^{k+1/2} pi^s Gamma(k+1/2+s)^{-1} h^{k-1/2+s} v^{-s}
              * Omega(4 pi h v, k+1/2+s, s)
      h = 0:  i^{-k-1/2} (2 pi) Gamma(k+1/2+s)^{-1} Gamma(s)^{-1}
              * Gamma(k-1/2+2s) (2v)^{-k+1/2-2s}
      h < 0:  (2i)^{-k-1/2} pi^s Gamma(s)^{-1} (-h)^{s-1} v^{-k-1/2-s}
              * e^{4 pi h v} Omega(-4 pi h v, s, k+1/2+s)

    Takes an int h (returns a complex) or an integer array of h (returns a
    complex array), with one Omega call per sign of h present.  At s = 0
    the factor 1/Gamma(0) = 0 kills the h <= 0 branches and
    Omega(., ., 0) = 1 collapses the h > 0 branch to an elementary value.
    """
    if v <= 0:
        raise ValueError("rho_kernel requires v > 0")
    if s < 0:
        raise ValueError("rho_kernel requires s >= 0")
    a = k + 0.5 + s
    if a > MAX_ORDER:
        raise ValueError(f"rho_kernel supports k + 1/2 + s <= {MAX_ORDER:g}, beyond "
                         f"which Gamma overflows a float; got k={k}, s={s}")
    hs = np.asarray(h)
    if hs.dtype.kind not in "iu":
        raise ValueError("rho_kernel takes an integer h or an integer array of h")
    out = np.zeros(hs.shape, dtype=complex)
    pos, neg = hs > 0, hs < 0
    if pos.any():
        hp = hs[pos].astype(float)
        om = 1.0 if s == 0 else omega(4 * pi * hp * v, a, s, cfg).value
        out[pos] = (_principal_power(-2j * pi, k + 0.5) * pi ** s * _rgamma(a)
                    * hp ** (k - 0.5 + s) * v ** (-s) * om)
    rs = _rgamma(s)
    if rs != 0:
        out[hs == 0] = (_principal_power(1j, -k - 0.5) * 2 * pi * _rgamma(a) * rs
                        * gamma(k - 0.5 + 2 * s) * (2 * v) ** (-k + 0.5 - 2 * s))
        if neg.any():
            hn = hs[neg].astype(float)
            om = omega(-4 * pi * hn * v, s, a, cfg).value
            out[neg] = (_principal_power(2j, -k - 0.5) * pi ** s * rs
                        * (-hn) ** (s - 1.0) * v ** (-k - 0.5 - s) * np.exp(4 * pi * hn * v) * om)
    return out if out.ndim else complex(out)
