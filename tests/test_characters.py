from fractions import Fraction
from math import comb, pi, sqrt

import numpy as np
import pytest

from mockform.arithmetic import bernoulli_number, is_fundamental_discriminant, kronecker_symbol
from mockform import characters
from mockform.characters import (
    QuadraticCharacter,
    functional_equation_residual,
    gauss_sum,
    generalized_bernoulli,
    l_exact_neg,
    l_numeric,
    root_number,
)

FUNDAMENTAL = [d for d in range(-100, 101) if d != 0 and is_fundamental_discriminant(d)]


def test_character_values():
    chi1 = QuadraticCharacter(1)
    assert all(chi1(a) == 1 for a in range(-20, 21))
    assert QuadraticCharacter(-4)(3) == -1
    assert QuadraticCharacter(-3)(2) == kronecker_symbol(-3, 2) == -1
    with pytest.raises(ValueError):
        QuadraticCharacter(6)


def test_parity_and_periodicity():
    for d in FUNDAMENTAL:
        chi = QuadraticCharacter(d)
        assert chi.is_even == (chi(-1) == 1) == (d > 0)
        for a in range(-15, 16):
            assert chi(a + chi.modulus) == chi(a)


def test_gauss_sum_closed_form():
    assert gauss_sum(QuadraticCharacter(1)) == 1
    assert abs(gauss_sum(QuadraticCharacter(-4)) - 2j) < 1e-12
    assert abs(gauss_sum(QuadraticCharacter(5)) - sqrt(5)) < 1e-12
    for d in FUNDAMENTAL:
        tau = gauss_sum(QuadraticCharacter(d))
        expect = sqrt(d) if d > 0 else 1j * sqrt(-d)
        assert abs(tau - expect) < 1e-10, d


def test_root_number_is_one():
    for d in FUNDAMENTAL:
        assert abs(root_number(QuadraticCharacter(d)) - 1) < 1e-10


def test_l_numeric_catalan():
    # independent oracle: alternating series 1 - 1/9 + 1/25 - ... summed directly
    n = np.arange(0, 2_000_000)
    catalan = float(((-1.0) ** n / (2 * n + 1) ** 2).sum())
    assert abs(l_numeric(QuadraticCharacter(-4), 2.0) - catalan) < 1e-12


def test_l_numeric_at_one():
    # closed form L(1, chi_{-3}) = pi / (3 sqrt(3)); direct partial-sum oracle
    assert abs(l_numeric(QuadraticCharacter(-3), 1.0) - pi / (3 * sqrt(3))) < 1e-13
    q = 3
    n = np.arange(1, 3_000_001)
    chi = np.array([0, 1, -1])[n % q]
    partial = float((chi / n).sum())
    assert abs(l_numeric(QuadraticCharacter(-3), 1.0) - partial) < 1e-5


def test_l_numeric_principal_is_zeta():
    from mockform.arithmetic import zeta_numeric
    assert l_numeric(QuadraticCharacter(1), 2.0) == zeta_numeric(2.0)
    assert abs(l_numeric(QuadraticCharacter(1), 2.0) - pi ** 2 / 6) < 1e-13
    with pytest.raises(ValueError):
        l_numeric(QuadraticCharacter(1), 0.9)


def test_l_numeric_near_one_against_hurwitz_zeta():
    from scipy.special import zeta as scipy_zeta
    for d in (-3, -4, 5, -20, 13):
        chi = QuadraticCharacter(d)
        q = chi.modulus
        for s in (1.0002, 1.5, 2.0, 4.0):
            ref = sum(chi(a) * scipy_zeta(s, a / q) for a in range(1, q + 1)) * q ** -s
            assert abs(l_numeric(chi, s) - ref) < 1e-11, (d, s)


def test_l_exact_neg():
    assert l_exact_neg(QuadraticCharacter(1), 1) == Fraction(-1, 2)
    assert l_exact_neg(QuadraticCharacter(1), 2) == Fraction(-1, 12)
    assert l_exact_neg(QuadraticCharacter(-4), 1) == Fraction(1, 2)
    # parity: L(1-r, chi) = 0 when chi(-1) != (-1)^r (non-principal)
    assert l_exact_neg(QuadraticCharacter(-4), 2) == 0
    assert l_exact_neg(QuadraticCharacter(5), 1) == 0
    assert l_exact_neg(QuadraticCharacter(5), 2) != 0


def test_functional_equation_residuals():
    for d in (-4, -3, 5):
        assert functional_equation_residual(QuadraticCharacter(d), 2.0) < 1e-8


def test_functional_equation_across_discriminants():
    # exact negative values agree with the numeric side through the
    # completed-L relation for r = 1, 2, 3 and |d| <= 24
    for d in [d for d in FUNDAMENTAL if 1 < abs(d) <= 24]:
        chi = QuadraticCharacter(d)
        for r in (1, 2, 3):
            assert functional_equation_residual(chi, float(r)) < 1e-6, (d, r)


def test_functional_equation_rejects_bad_input():
    with pytest.raises(ValueError):
        functional_equation_residual(QuadraticCharacter(1), 2.0)
    with pytest.raises(ValueError):
        functional_equation_residual(QuadraticCharacter(-4), 2.5)


def _bernoulli_by_scalar_loop(d, r):
    """B_{r,chi_d} by a per-a loop of scalar symbols and Python-int power sums (the oracle)."""
    N = abs(d)
    power_sums = [0] * (r + 1)
    for a in range(1, N + 1):
        c = kronecker_symbol(d, a)
        if c:
            ae = 1
            for e in range(r + 1):
                power_sums[e] += c * ae
                ae *= a
    acc = Fraction(0)
    for j in range(r + 1):
        acc += comb(r, j) * bernoulli_number(j) * power_sums[r - j] * Fraction(N) ** (j - 1)
    return acc


def test_generalized_bernoulli_exact_at_large_modulus():
    # sum of chi(a) a^r over a <= 5000 leaves int64 for r >= 5 (5000^9 > 2^63)
    for d in (4997, 5001, -4999):
        for r in (6, 8):
            assert generalized_bernoulli(QuadraticCharacter(d), r) == _bernoulli_by_scalar_loop(d, r)


def _fundamental_near(bound, below):
    """The negative fundamental discriminant d whose |d| is nearest to bound on one side."""
    step = -1 if below else 1
    N = bound
    while not is_fundamental_discriminant(-N):
        N += step
    return -N


def test_generalized_bernoulli_int64_path_matches_object_path(monkeypatch):
    # int64 power sums are taken while |d|^{r+1} < 2^63; for r = 3 the switch
    # lies between |d| = 55108 and 55109, so test both sides of it
    below = _fundamental_near(55108, below=True)
    above = _fundamental_near(55109, below=False)
    assert below ** 4 < 2 ** 63 <= above ** 4
    cases = [(d, r) for d in (-3, 5, -4, 8, -2003, 4997, below) for r in (1, 2, 3)]
    fast = {case: generalized_bernoulli(QuadraticCharacter(case[0]), case[1]) for case in cases}
    monkeypatch.setattr(characters, "_INT64_LIMIT", 0)       # object arrays throughout
    for (d, r), value in fast.items():
        assert value == generalized_bernoulli(QuadraticCharacter(d), r), (d, r)
    assert generalized_bernoulli(QuadraticCharacter(above), 3) == _bernoulli_by_scalar_loop(above, 3)
