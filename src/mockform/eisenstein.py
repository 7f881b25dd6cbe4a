"""Theta multiplier system on Gamma_0(4) and half-integral weight Eisenstein series.

The series E_{k+1/2,s} is a lattice sum over odd m and coprime n of
(n/m) eps_m^{-2k-1} (m tau + n)^{-k-1/2} |m tau + n|^{-2s}; F is its image
under tau -> -1/(4 tau), and H is the Cohen combination of the two whose
s = 0 limit at k = 1 is the completed Hurwitz class number series.  Two
independent evaluation routes are provided: the truncated lattice sum and
the Fourier expansion through the Dirichlet series E_n and the kernel rho.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from math import pi, sqrt
from typing import Callable, Literal

import numpy as np

from .arithmetic import epsilon_factor, jacobi_row, kronecker_symbol, zeta_exact_neg
from .config import DEFAULT_CONFIG, EvalConfig, require_upper_half
from .dirichlet_series import series_closed
from .special_functions import rho_kernel


@dataclass(frozen=True)
class Gamma04Matrix:
    """Integer matrix (a, b; c, d) with det 1 and 4 | c."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1: {self}")
        if self.c % 4 != 0:
            raise ValueError(f"lower-left entry must be divisible by 4: {self}")

    def apply(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def __matmul__(self, other: "Gamma04Matrix") -> "Gamma04Matrix":
        return Gamma04Matrix(self.a * other.a + self.b * other.c,
                             self.a * other.b + self.b * other.d,
                             self.c * other.a + self.d * other.c,
                             self.c * other.b + self.d * other.d)

    def __neg__(self) -> "Gamma04Matrix":
        return Gamma04Matrix(-self.a, -self.b, -self.c, -self.d)

    def entries(self):
        return self.a, self.b, self.c, self.d


IDENTITY = Gamma04Matrix(1, 0, 0, 1)
SHIFT = Gamma04Matrix(1, 1, 0, 1)              # tau -> tau + 1
LOWER = Gamma04Matrix(1, 0, 4, 1)              # generator with c = 4
GENERATORS = (SHIFT, LOWER)


def random_words(rng: np.random.Generator, count: int, max_length: int = 12,
                 require_b: bool = False) -> list[Gamma04Matrix]:
    """Random Gamma_0(4) members as bounded words in the generators and inverses.

    Sign of the whole matrix is randomized; with require_b, words with b = 0
    are redrawn so the top-row multiplier identity applies.
    """
    inv = (Gamma04Matrix(1, -1, 0, 1), Gamma04Matrix(1, 0, -4, 1))
    alphabet = GENERATORS + inv
    out: list[Gamma04Matrix] = []
    while len(out) < count:
        g = IDENTITY
        for _ in range(rng.integers(1, max_length + 1)):
            g = g @ alphabet[rng.integers(0, 4)]
        if rng.random() < 0.5:
            g = -g
        if require_b and g.b == 0:
            continue
        out.append(g)
    return out


def j_factor(g: Gamma04Matrix, tau: complex) -> complex:
    """Principal square root of c tau + d."""
    return cmath.sqrt(complex(g.c * tau + g.d))


def theta_multiplier(g: Gamma04Matrix) -> complex:
    """Theta multiplier v(g) = (c/d) eps_d^{-1}, an eighth root of unity."""
    return kronecker_symbol(g.c, g.d) / epsilon_factor(g.d)


def theta_multiplier_top_row(g: Gamma04Matrix) -> complex:
    """The multiplier expressed through the top row: (-b/a) eps_a^{-1}.

    Agrees with theta_multiplier(g) whenever b != 0 and not both a < 0 and
    d < 0; the matrices g and -g act identically, so the residual helper
    below flips to the representative where the identity is valid.
    """
    if g.b == 0:
        raise ValueError("top-row multiplier needs b != 0")
    return kronecker_symbol(-g.b, g.a) / epsilon_factor(g.a)


def multiplier_identity_residual(g: Gamma04Matrix) -> float:
    """|top-row multiplier - (c/d) eps_d^{-1}| on the valid +- representative."""
    if g.b == 0:
        raise ValueError("multiplier identity needs b != 0")
    if g.a < 0 and g.d < 0:
        g = -g
    return abs(theta_multiplier_top_row(g) - theta_multiplier(g))


def automorphy_factor(g: Gamma04Matrix, tau: complex) -> complex:
    """J(g, tau) = v(g) sqrt(c tau + d); satisfies the cocycle identity exactly."""
    return theta_multiplier(g) * j_factor(g, tau)


def cocycle_sign(g1: Gamma04Matrix, g2: Gamma04Matrix, tau: complex,
                 tol: float = 1e-10) -> int:
    """Sign j(g1, g2 tau) j(g2, tau) / j(g1 g2, tau), rounded to +-1."""
    ratio = j_factor(g1, g2.apply(tau)) * j_factor(g2, tau) / j_factor(g1 @ g2, tau)
    sign = 1 if ratio.real > 0 else -1
    if abs(ratio - sign) > tol:
        raise ArithmeticError(f"cocycle ratio {ratio} is not close to +-1")
    return sign


def sigma_shift_residual(g1: Gamma04Matrix, g2: Gamma04Matrix, tau: complex) -> float:
    """Residual of cocycle_sign(g1, g2) = cocycle_sign(S^-1 g1, g2), S = (0,-1;1,0).

    Valid when neither g1 nor g1 g2 has both left-column entries negative
    (there the principal-branch split behind the relation breaks down).
    """
    for g in (g1, g1 @ g2):
        if g.a < 0 and g.c < 0:
            raise ValueError("sigma shift relation needs a >= 0 or c >= 0 "
                             f"in {g} (use the other +- representative)")
    a, b, c, d = g1.entries()
    left = j_factor(g1, g2.apply(tau)) * j_factor(g2, tau) / j_factor(g1 @ g2, tau)
    # S^-1 (a, b; c, d) = (c, d; -a, -b) and likewise for the product
    prod = g1 @ g2

    def j_rot(g, t):
        return cmath.sqrt(complex(-g.a * t - g.b))

    right = j_rot(g1, g2.apply(tau)) * j_factor(g2, tau) / j_rot(prod, tau)
    return abs(left - right)


# ---------------------------------------------------------------------------
# Direct lattice sums.

Kind = Literal["E", "F", "H"]


def lattice_tail_estimate(k: int, s: float, tau: complex, M: int, kind: Kind = "E") -> float:
    """Integral-comparison estimate of the truncation error of eisenstein_direct.

    Points m tau + n with m odd form a lattice of covolume 2v; dropping
    |m tau + n| > M v and integrating r^{-(k+1/2+2s)} over the remaining
    density gives (pi / v) (M v)^{2-w} / (w - 2) with w = k + 1/2 + 2s for E.
    F carries the estimate at -1/(4 tau) times |tau|^{-w}, and H combines
    them as |zeta(1-2k)| / 2^{2k+1} (sqrt(2) est_E + est_F).
    """
    w = k + 0.5 + 2.0 * s
    if w <= 2:
        raise ValueError("estimate needs k + 1/2 + 2s > 2")
    tau = require_upper_half(tau)
    if kind == "E":
        v = tau.imag
        return pi / v * (M * v) ** (2.0 - w) / (w - 2.0)
    if kind == "F":
        return abs(tau) ** -w * lattice_tail_estimate(k, s, -1.0 / (4.0 * tau), M)
    if kind == "H":
        zk = abs(float(zeta_exact_neg(k)))
        return zk / 2 ** (2 * k + 1) * (sqrt(2.0) * lattice_tail_estimate(k, s, tau, M)
                                        + lattice_tail_estimate(k, s, tau, M, "F"))
    raise ValueError(f"unknown kind {kind!r}")


# Every lattice sum revisits the odd m <= M; the cache holds the rows of
# m < 4096, at most 34 MB of floats.
@functools.lru_cache(maxsize=2048)
def _symbol_row(m: int) -> np.ndarray:
    """(n/m) for n mod m, as floats that weight the real powers in place."""
    return jacobi_row(m).astype(float)


def _lattice_sum(k: int, s: float, tau: complex, M: int) -> complex:
    """E_{k+1/2,s}(tau) truncated to odd m <= M and |n| <= M (1 + |tau|).

    The terms are (n/m) eps_m^{-2k-1} z^{-k-1/2} |z|^{-2s} with z = m tau + n.
    Each term is conj(z^k sqrt z) (|z|^2)^{-(k+s+1/2)}, built from real
    arithmetic: sqrt z from real square roots on the branch that does not
    cancel (t = sqrt((|z| + |x|)/2) and y/(2t), swapped where x = Re z < 0),
    k complex products and one real power per point.  The symbols and
    powers are real, so each row's sum is conjugated once.
    """
    tau = require_upper_half(tau)
    total = 0j
    n_max = int(np.ceil(M * (1.0 + abs(tau))))
    ints = np.arange(-n_max, n_max + 1)
    ns = ints.astype(float)
    expo = -(k + s + 0.5)
    u, v = tau.real, tau.imag
    root = np.empty(ns.size, dtype=complex)
    re, im = root.real, root.imag
    for m in range(1, M + 1, 2):
        x = ns + m * u                         # ascending in n
        y = m * v
        r2 = x * x
        r2 += y * y
        big = np.sqrt(r2)
        big += np.abs(x)
        big *= 0.5
        np.sqrt(big, out=big)
        small = (0.5 * y) / big
        j = int(np.searchsorted(x, 0.0))       # x < 0 exactly before j
        re[:j], im[:j] = small[:j], big[:j]
        re[j:], im[j:] = big[j:], small[j:]
        z = ns + m * tau
        terms = root
        for _ in range(k):
            terms = terms * z
        weights = r2 ** expo
        weights *= np.take(_symbol_row(m), ints, mode="wrap")
        total += epsilon_factor(m) ** (-2 * k - 1) * np.conj(terms @ weights)
    return complex(total)


def eisenstein_direct(kind: Kind, k: int, s: float, tau: complex,
                      cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Truncated lattice-sum value of E, F or H at weight k + 1/2 and shift s.

    Absolute convergence requires k + 1/2 + 2s > 2.  F is evaluated through
    its defining relation F(tau) = tau^{-k-1/2} |tau|^{-2s} E(-1/(4 tau));
    the (-2s)-power of |tau| is forced by the |c tau + d|^{2s} transformation
    law (and by the tau-independence of the constant Fourier term).  H is
    the combination zeta(1-2k)/2^{2k+1} [(1 + i^{2k+1}) E + i^{2k+1} F].
    The truncation error is roughly lattice_tail_estimate(k, s, tau, M, kind).
    """
    if k < 0:
        raise ValueError(f"lattice sum needs k >= 0, got k={k}")
    if k + 0.5 + 2 * s <= 2:
        raise ValueError(f"lattice sum diverges at k={k}, s={s}: need k + 2s > 3/2")
    tau = require_upper_half(tau)
    M = cfg.lattice_bound
    if kind == "E":
        return _lattice_sum(k, s, tau, M)
    if kind == "F":
        w = -1.0 / (4.0 * tau)
        return (cmath.exp(-(k + 0.5) * cmath.log(tau)) * abs(tau) ** (-2.0 * s)
                * _lattice_sum(k, s, w, M))
    if kind == "H":
        zk = float(zeta_exact_neg(k))
        i_odd = 1j ** (2 * k + 1)
        return zk / 2 ** (2 * k + 1) * ((1 + i_odd) * eisenstein_direct("E", k, s, tau, cfg)
                                        + i_odd * eisenstein_direct("F", k, s, tau, cfg))
    raise ValueError(f"unknown kind {kind!r}")


def eisenstein_fourier(k: int, s: float, tau: complex,
                       cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Fourier-expansion value of H_{k+1/2,s}.

    H = zeta(1-2k) 2^{4s}
        + (1 + i^{2k+1}) zeta(1-2k) 2^{-2k}
          * sum_h E_{(-1)^k h}(k + 2s) rho_h^{k+1/2}(s, v) e^{2 pi i h tau}.

    The ingredient series need k + 2s > 1; the remaining s = 0, k = 1 corner
    is the analytic limit handled by the completed class number series.
    All rho_h come from one rho_kernel call on the h-array, which makes one
    Omega call per sign of h.
    """
    if k < 1:
        raise ValueError("eisenstein_fourier requires k >= 1")
    if s < 0:
        raise ValueError("eisenstein_fourier requires s >= 0")
    if k + 2 * s <= 1:
        raise ValueError(f"closed-form coefficients diverge at k={k}, s={s}")
    tau = require_upper_half(tau)
    v = tau.imag
    zk = float(zeta_exact_neg(k))
    flip = 1 if k % 2 == 0 else -1
    coeff = (1 + 1j ** (2 * k + 1)) * zk / 2 ** (2 * k)
    hs = np.arange(-cfg.fourier_bound, cfg.fourier_bound + 1)
    e_n = np.array([series_closed(flip * int(h), k + 2.0 * s, cfg) for h in hs])
    kept = e_n != 0.0                     # E_n vanishes for n = 2, 3 (mod 4)
    hs, e_n = hs[kept], e_n[kept]
    terms = e_n * rho_kernel(hs, k, s, v, cfg) * np.exp(2j * pi * hs * tau)
    return complex(zk * 2.0 ** (4 * s) + coeff * terms.sum())


def modularity_residual(f: Callable[[complex], complex], k: int, s: float,
                        g: Gamma04Matrix, tau: complex,
                        normalized: bool = False) -> float:
    """|f(g tau) - (c/d) eps_d^{-2k-1} (c tau + d)^{k+1/2} |c tau + d|^{2s} f(tau)|.

    With normalized=True the residual is divided by max(1, |f(g tau)|),
    which keeps the check meaningful where the Fricke-type F series is huge.
    """
    tau = require_upper_half(tau)
    z = complex(g.c * tau + g.d)
    factor = (kronecker_symbol(g.c, g.d) * epsilon_factor(g.d) ** (-2 * k - 1)
              * cmath.exp((k + 0.5) * cmath.log(z)) * abs(z) ** (2.0 * s))
    lhs = f(g.apply(tau))
    resid = abs(lhs - factor * f(tau))
    if normalized:
        resid /= max(1.0, abs(lhs))
    return resid
