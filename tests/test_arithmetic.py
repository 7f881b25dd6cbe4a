import random
from fractions import Fraction
from math import pi

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from mockform.arithmetic import (
    bernoulli_number,
    divisor_sums,
    divisors,
    epsilon_factor,
    fundamental_discriminant,
    hurwitz_zeta_numeric,
    is_fundamental_discriminant,
    jacobi_row,
    kronecker_column,
    kronecker_symbol,
    moebius,
    multiplicative_row,
    sigma_divisor,
    smallest_prime_factors,
    zeta_exact_neg,
    zeta_numeric,
)
from mockform.characters import QuadraticCharacter


def brute_force_residue_symbol(a, p):
    # Legendre symbol for odd prime p by scanning squares
    a %= p
    if a == 0:
        return 0
    return 1 if any((x * x - a) % p == 0 for x in range(1, p)) else -1


def test_kronecker_against_legendre():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-2 * p, 2 * p):
            assert kronecker_symbol(a, p) == brute_force_residue_symbol(a, p)


def test_kronecker_pinned_values():
    assert all(kronecker_symbol(1, m) == 1 for m in range(-30, 31) if m != 0)
    assert kronecker_symbol(1, 0) == 1
    assert kronecker_symbol(6, 9) == 0
    assert kronecker_symbol(2, 3) == -1
    assert kronecker_symbol(2, 0) == 0
    # (d / -1) = sign(d)
    for d in (1, 7, 12, -1, -5, -8):
        assert kronecker_symbol(d, -1) == (1 if d > 0 else -1)


def test_kronecker_multiplicativity_random():
    rng = random.Random(4242)
    nonzero = [x for x in range(-40, 41) if x != 0]
    for _ in range(10_000):
        a = rng.randint(-60, 60)
        c = rng.randint(-60, 60)
        m = rng.choice(nonzero)  # bottom multiplicativity needs m, n != 0
        n = rng.choice(nonzero)
        assert kronecker_symbol(a, m) * kronecker_symbol(a, n) == kronecker_symbol(a, m * n)
        assert kronecker_symbol(a, n) * kronecker_symbol(c, n) == kronecker_symbol(a * c, n)
    # top multiplicativity holds even at n = 0
    for a in range(-5, 6):
        for c in range(-5, 6):
            assert kronecker_symbol(a, 0) * kronecker_symbol(c, 0) == kronecker_symbol(a * c, 0)


def test_kronecker_periodicity():
    rng = random.Random(99)
    for _ in range(10_000):
        n = rng.randint(1, 80)
        a = rng.randint(-200, 200)
        period = 4 * n if n % 4 == 2 else n
        assert kronecker_symbol(a, n) == kronecker_symbol(a + period, n)
        # periodicity in the lower argument for a = 0, 1 (mod 4), a != 0
        a = rng.choice([x for x in range(-100, 101) if x != 0 and x % 4 in (0, 1)])
        m = rng.randint(1, 80)
        assert kronecker_symbol(a, m) == kronecker_symbol(a, m + abs(a))


def test_epsilon_values_and_identities():
    assert epsilon_factor(1) == 1
    assert epsilon_factor(3) == 1j
    assert epsilon_factor(-3) == 1  # i * eps_3^{-1}
    with pytest.raises(ValueError):
        epsilon_factor(2)
    for d in range(-99, 100, 2):
        eps = epsilon_factor(d)
        assert eps ** 2 == kronecker_symbol(-1, d)
        assert epsilon_factor(-d) == 1j * eps ** -1
        # eps^{-2k-1} collapses to eps for odd k and eps^{-1} for even k
        assert eps ** -3 == eps
        assert eps ** -5 == eps ** -1


def test_moebius_and_sigma():
    assert [moebius(n) for n in (1, 2, 3, 4, 5, 6, 12, 30)] == [1, -1, -1, 0, -1, 1, 0, -1]
    assert sigma_divisor(1, 1) == 1
    assert sigma_divisor(1, 6) == 12
    assert sigma_divisor(3, 2) == 9
    assert sigma_divisor(0, 12) == 6
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_divisor_sums_match_scalar_sums():
    sigma, lam = divisor_sums(3000)
    assert sigma.dtype == lam.dtype == np.int64 and sigma[0] == lam[0] == 0
    assert sigma[1:].tolist() == [sigma_divisor(1, n) for n in range(1, 3001)]
    assert lam[1:].tolist() == [sum(min(d, n // d) for d in divisors(n)) for n in range(1, 3001)]
    assert [divisor_sums(N).tolist() for N in range(4)] == [
        [[0], [0]], [[0, 1], [0, 1]], [[0, 1, 3], [0, 1, 2]], [[0, 1, 3, 4], [0, 1, 2, 2]]]
    with pytest.raises(ValueError):
        divisor_sums(-1)


def test_fundamental_discriminant_examples():
    assert fundamental_discriminant(1) == (1, 1)
    assert fundamental_discriminant(-12) == (-3, 2)
    assert fundamental_discriminant(-4) == (-4, 1)
    assert fundamental_discriminant(8) == (8, 1)
    assert fundamental_discriminant(36) == (1, 6)
    with pytest.raises(ValueError):
        fundamental_discriminant(7)
    with pytest.raises(ValueError):
        fundamental_discriminant(0)


def test_fundamental_discriminant_roundtrip():
    for n in [x for x in range(-4000, 4001) if x != 0 and x % 4 in (0, 1)]:
        d, f = fundamental_discriminant(n)
        assert d * f * f == n
        assert is_fundamental_discriminant(d)


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert all(bernoulli_number(n) == 0 for n in range(3, 40, 2))
    # defining recurrence holds for the memoized values
    from math import comb
    for n in (6, 11, 20):
        assert sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1)) == 0


def test_zeta_exact():
    assert zeta_exact_neg(1) == Fraction(-1, 12)
    assert zeta_exact_neg(2) == Fraction(1, 120)
    assert zeta_exact_neg(3) == Fraction(-1, 252)


def test_zeta_numeric():
    assert abs(zeta_numeric(2.0) - pi ** 2 / 6) < 1e-13
    assert abs(zeta_numeric(4.0) - pi ** 4 / 90) < 1e-13
    assert abs(zeta_numeric(30.0) - (1 + 2.0 ** -30)) < 1e-8
    with pytest.raises(ValueError):
        zeta_numeric(1.0)
    with pytest.raises(ValueError):
        zeta_numeric(0.5)


def test_zeta_functional_equation_sanity():
    # zeta(-1) = 2 (2 pi)^{-2} cos(pi) Gamma(2) zeta(2), matched to 1e-10
    lhs = float(zeta_exact_neg(1))
    rhs = 2 * (2 * pi) ** -2 * (-1.0) * 1.0 * zeta_numeric(2.0)
    assert abs(lhs - rhs) < 1e-10


def test_hurwitz_zeta_against_oracle():
    for s in (1.5, 2.0, 3.7, 9.0):
        for a in (0.25, 0.5, 1.0, 2.75):
            ref = oracles.hurwitz_zeta(s, a)
            assert abs(hurwitz_zeta_numeric(s, a) - ref) < 1e-11 * max(1.0, abs(ref))


# The table kernel against the scalar symbol, on every table shape it fills.

def test_jacobi_row_matches_scalar_symbol():
    for c in range(1, 302, 2):
        assert jacobi_row(c).tolist() == [kronecker_symbol(b, c) for b in range(c)], c


def test_kronecker_column_even_rows_match_scalar_symbol():
    # the rows of gamma_c for even c: (c/a) over odd a < 2c
    for c in range(2, 601, 2):
        a = np.arange(1, 2 * c, 2)
        assert kronecker_column(c, a).tolist() == [kronecker_symbol(c, int(x)) for x in a], c


def test_character_tables_match_scalar_symbol():
    for d in range(-1000, 1001):
        if is_fundamental_discriminant(d):
            expected = [kronecker_symbol(d, a) for a in range(abs(d))]
            assert QuadraticCharacter(d).values.tolist() == expected, d


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        jacobi_row(10)
    with pytest.raises(ValueError):
        jacobi_row(0)
    with pytest.raises(ValueError):
        kronecker_column(5, [3, 0])


_TOPS = st.one_of(st.integers(-10 ** 5, 10 ** 5),
                  st.builds(lambda u, f: u << f, st.integers(-97, 97), st.integers(0, 10)))
# a = u 2^e <= 10^6, so high powers of 2 (u = 1) are drawn as well
_BOTTOMS = st.integers(0, 19).flatmap(lambda e: st.integers(1, 10 ** 6 >> e).map(lambda u: u << e))


@settings(max_examples=300, deadline=None)
@given(m=_TOPS, a=st.lists(_BOTTOMS, min_size=1, max_size=16))
@example(m=0, a=[1, 2, 3])
@example(m=-(2 ** 16), a=[2 ** 19, 3, 5, 7])
@example(m=-1, a=[2 ** 19, 2 ** 18 * 3, 1])
def test_kronecker_column_matches_scalar_symbol(m, a):
    assert kronecker_column(m, a).tolist() == [kronecker_symbol(m, x) for x in a]


def test_multiplicative_row_builds_sigma_and_moebius():
    spf = smallest_prime_factors(300)
    sigma = multiplicative_row(300, lambda p, q: (q * p - 1) // (p - 1), spf)
    mu = multiplicative_row(300, lambda p, q: -1 if q == p else 0, spf)
    assert sigma.dtype == np.int64 and sigma[0] == 0 and mu[0] == 0
    assert sigma[1:].tolist() == [sigma_divisor(1, n) for n in range(1, 301)]
    assert mu[1:].tolist() == [moebius(n) for n in range(1, 301)]
    assert multiplicative_row(1, lambda p, q: 7, spf).tolist() == [0, 1]


def test_multiplicative_row_fills_a_batch_in_its_dtype():
    spf = smallest_prime_factors(300)
    sigma = lambda p, q: (q * p - 1) // (p - 1)
    mu = lambda p, q: -1 if q == p else 0
    batch = multiplicative_row(300, lambda p, q: np.array([sigma(p, q), mu(p, q)]), spf)
    assert batch.shape == (2, 301) and batch.dtype == np.int64
    assert np.array_equal(batch, [multiplicative_row(300, g, spf) for g in (sigma, mu)])
    # (m/a) is completely multiplicative in a: its prime-power values give the whole table
    ms = (-7, 5, 8, -4)
    chi = multiplicative_row(300, lambda p, q: np.array([kronecker_symbol(m, q) for m in ms], dtype=np.int8), spf)
    assert chi.dtype == np.int8 and chi[:, 0].tolist() == [0] * 4
    assert chi[:, 1:].tolist() == [[kronecker_symbol(m, a) for a in range(1, 301)] for m in ms]
    assert multiplicative_row(1, lambda p, q: np.array([7, 7]), spf).tolist() == [[0, 1], [0, 1]]
