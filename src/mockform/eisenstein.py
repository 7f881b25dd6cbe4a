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
from dataclasses import dataclass
from functools import lru_cache
from math import floor, isfinite, log2, pi, sqrt
from typing import Callable, Literal

import numpy as np

from .arithmetic import epsilon_factor, jacobi_row, kronecker_symbol, zeta_exact_neg
from .config import DEFAULT_CONFIG, BoundedValue, EvalConfig, require_upper_half
from .dirichlet_series import MAX_POWER_LOG2, series_closed
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


def random_words(rng: np.random.Generator, count: int,
                 require_b: bool = False) -> list[Gamma04Matrix]:
    """Random Gamma_0(4) members as words of 1 to 12 generators and inverses.

    Sign of the whole matrix is randomized; with require_b, words with b = 0
    are redrawn so the top-row multiplier identity applies.
    """
    # words multiply as integer 4-tuples; each kept word is validated once, as a Gamma04Matrix
    alphabet = tuple(g.entries() for g in GENERATORS) + ((1, -1, 0, 1), (1, 0, -4, 1))
    out: list[Gamma04Matrix] = []
    while len(out) < count:
        a, b, c, d = IDENTITY.entries()
        for _ in range(rng.integers(1, 13)):
            p, q, r, t = alphabet[rng.integers(0, 4)]
            a, b, c, d = a * p + b * r, a * q + b * t, c * p + d * r, c * q + d * t
        if rng.random() < 0.5:
            a, b, c, d = -a, -b, -c, -d
        if require_b and b == 0:
            continue
        out.append(Gamma04Matrix(a, b, c, d))
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

# zeta(1 - 2k) leaves the float range from k = 131 on, so both routes refuse k > MAX_K
MAX_K = 130


def _check_k_s(k: int, s: float) -> None:
    if k > MAX_K:
        raise ValueError(f"the Eisenstein routes support k <= {MAX_K}, beyond which "
                         f"zeta(1 - 2k) overflows a float; got k={k}")
    if not isfinite(s):
        raise ValueError(f"the Eisenstein routes need a finite s, got s={s}")


def lattice_tail_bound(k: int, s: float, tau: complex, M: int, kind: Kind = "E") -> float:
    """Proven bound on the truncation error of eisenstein_direct.

    The lattice sum keeps the points z = m tau + n (m odd, 1 <= m <= M) with
    |z| <= R = (M + 2) v, so every dropped point has |z| >= R, and its term
    has modulus at most |z|^{-w}, w = k + 1/2 + 2s.  The points with m odd
    form a coset of Z 2 tau + Z, of covolume 2v, whose cells have diameter
    delta = max |2 tau' +- 1| (2 tau' is 2 tau reduced mod 1), so a disc of
    radius r holds at most pi (r + delta)^2 / (2v) of them.  Stieltjes
    integration against that count bounds the dropped sum by
    w pi / (2v) [R^{2-w} / (w-2) + 2 delta R^{1-w} / (w-1) + delta^2 R^{-w} / w].
    F carries the bound at -1/(4 tau) times |tau|^{-w}, and H combines them
    as |zeta(1-2k)| / 2^{2k+1} (sqrt(2) bound_E + bound_F).
    """
    w = k + 0.5 + 2.0 * s
    if w <= 2:
        raise ValueError("the bound needs k + 1/2 + 2s > 2")
    tau = require_upper_half(tau)
    if kind in ("E", "F"):
        scale = 1.0
        if kind == "F":     # |tau|^{-w} joins R^{-w} in one power, which neither overflows
            scale, tau = abs(tau), -1.0 / (4.0 * tau)
        v = tau.imag
        R = (M + 2) * v
        cell = complex(2 * tau.real - round(2 * tau.real), 2 * v)
        delta = max(abs(cell + 1), abs(cell - 1))
        return (w * pi / (2 * v) * (scale * R) ** -w
                * (R * R / (w - 2) + 2 * delta * R / (w - 1) + delta * delta / w))
    if kind == "H":
        zk = abs(float(zeta_exact_neg(k)))
        return zk / 2 ** (2 * k + 1) * (sqrt(2.0) * lattice_tail_bound(k, s, tau, M)
                                        + lattice_tail_bound(k, s, tau, M, "F"))
    raise ValueError(f"unknown kind {kind!r}")


# Longer rows are refused before anything is allocated; a row holds at most
# 2 (M + 2) v + 1 points, 910 at M = 301 and v = 1.5, the largest v of the perfbench pool.
MAX_LATTICE_ROW = 2 ** 20

# The rows of one class m mod 4 run as one flat sequence of points, row after
# row, in blocks of _BLOCK points: each block is a fixed set of numpy calls,
# whatever the lengths of its rows, and its buffers stay below 256 kB.
_BLOCK = 2048


@lru_cache(maxsize=1)
def _symbol_table(M: int) -> np.ndarray:
    """jacobi_row(m) for odd m <= M, concatenated: row m starts at ((m - 1) / 2)^2."""
    table = np.concatenate([jacobi_row(m) for m in range(1, M + 1, 2)])
    table.flags.writeable = False
    return table


def _lattice_sum(k: int, s: float, tau: complex, M: int) -> tuple[complex, int]:
    """E_{k+1/2,s}(tau) over odd m <= M and |m tau + n| <= (M + 2) v, and the number of points summed.

    The terms are (n/m) eps_m^{-2k-1} z^{-k-1/2} |z|^{-2s} with z = m tau + n,
    that is conj(z^k sqrt z) (|z|^2)^{-(k+s+1/2)}, built from real arithmetic
    on z' = |x| + iy (x = Re z, y = Im z): sqrt z' = (t + iy/t)/sqrt 2 with
    t = sqrt(|z| + |x|), which does not cancel, then k complex products in
    place and one real power per point.  Where x < 0, z = -conj(z'), so
    z^k sqrt z = (-1)^k i conj(z'^k sqrt z'): the sum over those points is
    turned by (-1)^k (-i), and the rest is conjugated.  The weights (n/m)
    (|z|^2)^{-(k+s+1/2)} are real, split into the two parts by x < 0, and
    each block is one real product of the two weight rows with the (Re, Im)
    pairs of z'^k sqrt z'.  eps_m depends on m mod 4 only, so each class of
    rows is summed on its own.  The symbols are gathered at n mod m from
    _symbol_table(M).  Raises ValueError when a row could hold more than
    MAX_LATTICE_ROW points.
    """
    tau = require_upper_half(tau)
    u, v = tau.real, tau.imag
    if 2 * (M + 2) * v + 1 > MAX_LATTICE_ROW:
        raise ValueError(f"the lattice sum at the point {tau} with M={M} needs rows of up to "
                         f"{2 * (M + 2) * v + 1:.4g} points, more than "
                         f"MAX_LATTICE_ROW = {MAX_LATTICE_ROW}")
    table = _symbol_table(M)
    u -= round(u)           # tau + 1 sums the same terms over the same disc: take |u| <= 1/2
    expo = -(k + s + 0.5)
    total, points = 0j, 0
    z, root, weights = np.empty(_BLOCK, complex), np.empty(_BLOCK, complex), np.empty((2, _BLOCK))
    # past k ~ 110 the powers z^k can overflow and the weights underflow: inf * 0
    # gives nan, which is refused below instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for first in (1, 3):
            m = np.arange(first, M + 1, 4)
            mu = m * u
            half = v * np.sqrt((M + 2) ** 2 - m * m)      # row m keeps |m u + n| <= half
            lo = np.ceil(-mu - half)
            count = np.maximum(np.floor(half - mu) - lo + 1, 0).astype(np.int64)
            edges = np.concatenate(([0], np.cumsum(count)))
            shift = lo.astype(np.int64) - edges[:-1]       # n = i + shift at flat index i
            base = ((m - 1) // 2) ** 2                     # where row m starts in the table
            sums = np.zeros((2, 2))                        # x >= 0 and x < 0, (Re, Im)
            for start in range(0, int(edges[-1]), _BLOCK):
                cut = np.minimum(np.maximum(edges, start), start + _BLOCK)
                row = np.arange(m.size).repeat(cut[1:] - cut[:-1])
                n = shift[row] + np.arange(start, start + row.size)
                x = n + mu[row]
                zb, rb, (w_pos, w_neg) = z[:row.size], root[:row.size], weights[:, :row.size]
                np.abs(x, out=zb.real)
                np.multiply(m[row], v, out=zb.imag)
                r2 = x * x + zb.imag * zb.imag
                np.sqrt(np.sqrt(r2) + zb.real, out=rb.real)
                np.divide(zb.imag, rb.real, out=rb.imag)
                for _ in range(k):
                    rb *= zb
                np.power(r2, expo, out=w_pos)
                w_pos *= table[n % m[row] + base[row]]
                np.multiply(w_pos, x < 0, out=w_neg)
                w_pos -= w_neg
                pairs = rb.view(float).reshape(-1, 2)
                sums[0] += w_pos @ pairs                   # matrix-vector products: a matrix
                sums[1] += w_neg @ pairs                   # product would grow the RSS by 0.25 MB
            rest, head = sums[0, 0] - 1j * sums[0, 1], sums[1, 0] + 1j * sums[1, 1]
            # 1/sqrt 2 completes sqrt z'
            total += epsilon_factor(first) ** (-2 * k - 1) / sqrt(2.0) * ((-1) ** k * -1j * head + rest)
            points += int(edges[-1])
    if not cmath.isfinite(total):
        raise ValueError(f"the lattice sum at k={k}, s={s}, tau={tau} overflows a float")
    return complex(total), points


def eisenstein_direct(kind: Kind, k: int, s: float, tau: complex,
                      cfg: EvalConfig = DEFAULT_CONFIG) -> BoundedValue:
    """Truncated lattice-sum value of E, F or H at weight k + 1/2 and shift s.

    Absolute convergence requires k + 1/2 + 2s > 2.  F is evaluated through
    its defining relation F(tau) = tau^{-k-1/2} |tau|^{-2s} E(-1/(4 tau));
    the (-2s)-power of |tau| is forced by the |c tau + d|^{2s} transformation
    law (and by the tau-independence of the constant Fourier term).  H is
    the combination zeta(1-2k)/2^{2k+1} [(1 + i^{2k+1}) E + i^{2k+1} F].
    Its bound is lattice_tail_bound(k, s, tau, M, kind), a "proof"; its terms the points summed.
    F and H raise ValueError where |tau|^{-(k+1/2+2s)} passes 2^MAX_POWER_LOG2.
    """
    if k < 0:
        raise ValueError(f"lattice sum needs k >= 0, got k={k}")
    _check_k_s(k, s)
    if k + 0.5 + 2 * s <= 2:
        raise ValueError(f"lattice sum diverges at k={k}, s={s}: need k + 2s > 3/2")
    tau = require_upper_half(tau)
    if kind in ("F", "H") and -(k + 0.5 + 2 * s) * log2(abs(tau)) > MAX_POWER_LOG2:
        raise ValueError(f"F needs |tau|^-(k+1/2+2s) <= 2^{MAX_POWER_LOG2}, beyond which it "
                         f"overflows a float; got k={k}, s={s}, |tau|={abs(tau):.3g}")
    M = cfg.lattice_bound
    if kind == "E":
        value, points = _lattice_sum(k, s, tau, M)
    elif kind == "F":
        value, points = _lattice_sum(k, s, -1.0 / (4.0 * tau), M)
        value = cmath.exp(-(k + 0.5) * cmath.log(tau)) * abs(tau) ** (-2.0 * s) * value
    elif kind == "H":
        e, f = (eisenstein_direct(part, k, s, tau, cfg) for part in "EF")
        i_odd = 1j ** (2 * k + 1)
        value = float(zeta_exact_neg(k)) / 2 ** (2 * k + 1) * ((1 + i_odd) * e + i_odd * f)
        points = e.terms + f.terms
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return BoundedValue(value, lattice_tail_bound(k, s, tau, M, kind), points, "proof")


FOURIER_BOUND = 40          # largest |h| in eisenstein_fourier's sum
# For h < 0, e(h tau) grows like e^{-2 pi h v}, which overflows past e^{709.78}, while rho_h decays
# like e^{4 pi h v}; from -2 pi h v = 700 on, their product e^{2 pi h v} < e^{-700} is left out
_MAX_EXPONENT = 700.0


def eisenstein_fourier(k: int, s: float, tau: complex,
                       cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Fourier-expansion value of H_{k+1/2,s}.

    H = zeta(1-2k) 2^{4s}
        + (1 + i^{2k+1}) zeta(1-2k) 2^{-2k}
          * sum_h E_{(-1)^k h}(k + 2s) rho_h^{k+1/2}(s, v) e^{2 pi i h tau}

    over |h| <= FOURIER_BOUND, leaving out the h < 0 whose factor e^{2 pi h v}
    is below e^{-700}.  The ingredient series need k + 2s > 1; the remaining
    s = 0, k = 1 corner is the analytic limit handled by the completed class
    number series.  All rho_h come from one rho_kernel call on the h-array,
    which makes one Omega call per sign of h.
    """
    if k < 1:
        raise ValueError("eisenstein_fourier requires k >= 1")
    _check_k_s(k, s)
    if s < 0:
        raise ValueError("eisenstein_fourier requires s >= 0")
    if k + 2 * s <= 1:
        raise ValueError(f"closed-form coefficients diverge at k={k}, s={s}")
    tau = require_upper_half(tau)
    v = tau.imag
    zk = float(zeta_exact_neg(k))
    flip = 1 if k % 2 == 0 else -1
    coeff = (1 + 1j ** (2 * k + 1)) * zk / 2 ** (2 * k)
    hs = np.arange(max(-FOURIER_BOUND, floor(-_MAX_EXPONENT / (2 * pi * v)) + 1), FOURIER_BOUND + 1)
    e_n = np.array([series_closed(flip * int(h), k + 2.0 * s) for h in hs])
    kept = e_n != 0.0                     # E_n vanishes for n = 2, 3 (mod 4)
    hs, e_n = hs[kept], e_n[kept]
    terms = e_n * rho_kernel(hs, k, s, v, cfg) * np.exp(2j * pi * hs * tau)
    return complex(zk * 2.0 ** (4 * s) + coeff * terms.sum())


def modularity_residual(f: Callable[[complex], complex], k: int, s: float,
                        g: Gamma04Matrix, tau: complex) -> float:
    """|f(g tau) - (c/d) eps_d^{-2k-1} (c tau + d)^{k+1/2} |c tau + d|^{2s} f(tau)|."""
    tau = require_upper_half(tau)
    z = complex(g.c * tau + g.d)
    factor = (kronecker_symbol(g.c, g.d) * epsilon_factor(g.d) ** (-2 * k - 1)
              * cmath.exp((k + 0.5) * cmath.log(z)) * abs(z) ** (2.0 * s))
    return abs(f(g.apply(tau)) - factor * f(tau))
