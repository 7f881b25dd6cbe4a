"""High-precision references for the tests, one per quantity, in mpmath at dps digits; from mockform they take
only exact integers (Kronecker symbols, class numbers).  test_oracles.py checks each against a closed form."""

import functools
from math import isqrt, log, pi

import mpmath

from mockform.arithmetic import kronecker_symbol
from mockform.class_numbers import hurwitz_table

DPS = 30


def theta(tau: complex, dps: int = DPS):
    """Theta(tau) = sum_{n in Z} q^{n^2}, q = e^{2 pi i tau}, by jtheta."""
    with mpmath.workdps(dps):
        return mpmath.jtheta(3, 0, mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau)))


def e2_star(tau: complex, dps: int = DPS):
    """E2*(tau) = 1 - 24 sum n q^n/(1 - q^n) - 3/(pi v), a Lambert series with no sigma_1, to n |q|^n < 10^-(dps+5)."""
    with mpmath.workdps(dps):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))
        total, qn, n = 0, q, 1
        while abs(qn) * n > mpmath.mpf(10) ** -(dps + 5):
            total, qn, n = total + n * qn / (1 - qn), qn * q, n + 1
        return 1 - 24 * total - 3 / (mpmath.pi * tau.imag)


def incomplete_gamma(s: float, x, dps: int = DPS):
    """Gamma(s, x) = int_x^inf e^{-t} t^{s-1} dt."""
    with mpmath.workdps(dps):
        return mpmath.gammainc(s, x)


def completed(tau: complex, N: int, M: int, dps: int = DPS):
    """The completed class number series -1/12 + 1/(8 pi sqrt v) + sum_{n <= N} H(n) q^n
    + sum_{n <= M} n Gamma(-1/2, 4 pi n^2 v) q^{-n^2}/(4 sqrt(pi))."""
    sixths = hurwitz_table(N).sixths
    with mpmath.workdps(dps):
        t = mpmath.mpc(tau)
        q = mpmath.exp(2j * mpmath.pi * t)
        return (-mpmath.mpf(1) / 12 + 1 / (8 * mpmath.pi * mpmath.sqrt(t.imag))
                + mpmath.fsum(mpmath.mpf(int(sixths[n])) / 6 * q ** n for n in range(1, N + 1))
                + mpmath.fsum(n * incomplete_gamma(-0.5, 4 * mpmath.pi * n * n * t.imag, dps)
                              * mpmath.exp(-2j * mpmath.pi * n * n * t) for n in range(1, M + 1))
                / (4 * mpmath.sqrt(mpmath.pi)))


def omega(y, alpha: float, beta: float, dps: int = DPS):
    """Omega(y, alpha, beta) = y^beta U(beta, alpha + beta, y), with Kummer's U from hyperu."""
    with mpmath.workdps(dps):
        return mpmath.mpf(y) ** beta * mpmath.hyperu(beta, alpha + beta, y)


def gauss_sum(c: int, n: int, dps: int = DPS):
    """gamma_c(n) = c^{-1/2} sum_{a <= 2c} lambda(a, c) e^{-pi i n a/c}, lambda(a, c) = i^{(1-c)/2} (a/c) for odd c
    and even a, e^{i pi a/4} (c/a) for even c and odd a, else 0; the phases are exact rationals."""
    with mpmath.workdps(dps):
        odd = c % 2
        return mpmath.fsum(kronecker_symbol(*((a, c) if odd else (c, a)))
                           * mpmath.expjpi(mpmath.mpf(1 - c if odd else a) / 4 - mpmath.mpf(n * a) / c)
                           for a in range(1 + odd, 2 * c + 1, 2)) / mpmath.sqrt(c)


def hurwitz_zeta(s, a, dps: int = DPS):
    """zeta(s, a) = sum_{n >= 0} (n + a)^{-s}, continued analytically."""
    with mpmath.workdps(dps):
        return mpmath.zeta(s, a)


# zeta(s, N + x) = sum_k binom(-s, k) zeta(s + k, N) x^k on [0, 1]: at N = 4, 64 terms leave < 10^-33 for s <= 5
_TAYLOR_N, _TAYLOR_K = 4, 64


@functools.cache
def _taylor_coefficients(s, dps: int) -> tuple:
    """binom(-s, k) zeta(s + k, N), k < _TAYLOR_K, for s != 1.  At an integer s <= 0 the binomial
    vanishes from k = 1 - s on, where zeta has its pole of residue 1: that product is -binom(-s, k-1)/k."""
    with mpmath.workdps(dps):
        s, coeffs, binom = mpmath.mpf(s), [], mpmath.mpf(1)
        for k in range(_TAYLOR_K):
            coeffs.append(-previous / k if s + k == 1 else binom * mpmath.zeta(s + k, _TAYLOR_N) if binom else binom)
            previous, binom = binom, binom * -(s + k) / (k + 1)
        return tuple(coeffs)


@functools.cache
def l_value(d: int, s, dps: int = DPS):
    """L(s, chi_d) = q^{-s} sum_{a <= q} chi_d(a) zeta(s, a/q), q = |d|, for real s != 1: by the Taylor series above,
    sum_{n <= Nq} chi_d(n) n^{-s} + q^{-s} sum_k c_k q^{-k} sum_{a <= q} chi_d(a) a^k, with no zeta per residue a."""
    q, coeffs = abs(d), _taylor_coefficients(s, dps + 5)
    chi = [kronecker_symbol(d, n) for n in range(1, _TAYLOR_N * q + 1)]
    power_sums = [sum(c * a ** k for a, c in enumerate(chi[:q], start=1)) for k in range(_TAYLOR_K)]
    with mpmath.workdps(dps + 5):
        s = mpmath.mpf(s)
        value = (mpmath.fsum(c * mpmath.mpf(n) ** -s for n, c in enumerate(chi, start=1) if c)
                 + mpmath.mpf(q) ** -s * mpmath.fsum(c * p / mpmath.mpf(q) ** k
                                                     for k, (c, p) in enumerate(zip(coeffs, power_sums)) if c))
    with mpmath.workdps(dps):
        return +value


def _discriminant(n: int) -> tuple[int, int]:
    """(d, f) with n = d f^2 and d a fundamental discriminant, for n = 0, 1 (mod 4), n != 0.

    The f with f^2 | n and n/f^2 = 0, 1 (mod 4) are the divisors of the largest.
    """
    f = max(f for f in range(1, isqrt(abs(n)) + 1) if n % (f * f) == 0 and n // (f * f) % 4 in (0, 1))
    return n // (f * f), f


def _moebius(a: int) -> int:
    sign, p = 1, 2
    while p * p <= a:
        if a % p == 0:
            a //= p
            if a % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if a > 1 else sign


@functools.cache
def dirichlet_series(n: int, s, dps: int = DPS):
    """E_n(s) for real s > 1 in closed form.

    0 for n = 2, 3 (mod 4); zeta(2s - 1)/zeta(2s) at n = 0; otherwise, with
    n = d f^2, L(s, chi_d)/zeta(2s) f^{1-2s} sum_{a | f} mu(a) chi_d(a)
    a^{s-1} sigma_{2s-1}(f/a).
    """
    if n % 4 in (2, 3):
        return mpmath.mpf(0)
    with mpmath.workdps(dps):
        t = mpmath.mpf(s)
        if n == 0:
            return mpmath.zeta(2 * t - 1) / mpmath.zeta(2 * t)
        d, f = _discriminant(n)
        divisor_sum = mpmath.fsum(
            _moebius(a) * kronecker_symbol(d, a) * mpmath.mpf(a) ** (t - 1)
            * mpmath.fsum(mpmath.mpf(e) ** (2 * t - 1) for e in range(1, f // a + 1) if f // a % e == 0)
            for a in range(1, f + 1) if f % a == 0)
        return l_value(d, s, dps) / mpmath.zeta(2 * t) * divisor_sum / mpmath.mpf(f) ** (2 * t - 1)


def _rho(h: int, k: int, s, v):
    """The Fourier kernel rho_h^{k+1/2}(s, v) in its closed form on each sign of h, at the working precision.

    1/Gamma(s) multiplies the h <= 0 branches, which vanish at s = 0.
    """
    pi, w, a = mpmath.pi, k + mpmath.mpf(1) / 2, k + mpmath.mpf(1) / 2 + s
    if h > 0:
        return ((-2j * pi) ** w * pi ** s * mpmath.rgamma(a) * mpmath.mpf(h) ** (a - 1) * v ** -s
                * omega(4 * pi * h * v, a, s, mpmath.mp.dps))
    if s == 0:
        return mpmath.mpf(0)
    if h == 0:
        return (mpmath.mpc(0, 1) ** -w * 2 * pi * mpmath.rgamma(a) * mpmath.rgamma(s)
                * mpmath.gamma(w - 1 + 2 * s) * (2 * v) ** (1 - w - 2 * s))
    return (mpmath.mpc(0, 2) ** -w * pi ** s * mpmath.rgamma(s) * mpmath.mpf(-h) ** (s - 1) * v ** -a
            * mpmath.exp(4 * pi * h * v) * omega(-4 * pi * h * v, s, a, mpmath.mp.dps))


@functools.cache
def eisenstein_h(k: int, s: float, tau: complex, dps: int = DPS):
    """H_{k+1/2,s}(tau) by its Fourier expansion, for k >= 1, s >= 0 and k + 2s > 1.

    H = zeta(1-2k) 2^{4s} + (1 + i^{2k+1}) zeta(1-2k) 2^{-2k}
        * sum_h E_{(-1)^k h}(k + 2s) rho_h^{k+1/2}(s, v) e^{2 pi i h tau},

    with zeta(1-2k) from mpmath.  Term h is at most about |h|^{k+s+2}
    e^{-2 pi |h| v} (rho_h grows like h^{k-1/2+s} for h > 0 and decays like
    e^{4 pi h v} for h < 0, and E_n stays below a few units), so the sum stops
    at the least |h| = B where that reaches 10^-(dps+3).
    """
    B = 1
    while 2 * pi * B * tau.imag - (k + s + 2) * log(B + 1) < (dps + 3) * log(10):
        B += 1
    with mpmath.workdps(dps):
        t = mpmath.mpc(tau)
        total = mpmath.fsum(dirichlet_series((-1) ** k * h, k + 2.0 * s, dps) * _rho(h, k, mpmath.mpf(s), t.imag)
                            * mpmath.exp(2j * mpmath.pi * h * t)
                            for h in range(-B, B + 1) if (-1) ** k * h % 4 in (0, 1))
        zk = mpmath.zeta(1 - 2 * k)
        return zk * 2 ** (4 * s) + (1 + mpmath.mpc(0, (-1) ** k)) * zk / 2 ** (2 * k) * total
