import cmath
import pickle
from fractions import Fraction
from math import exp, pi, sqrt

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as Gamma

from mockform import maass
from mockform.arithmetic import sigma_divisor
from mockform.config import BoundedValue, EvalConfig
from mockform.dirichlet_series import series_closed, series_partial
from mockform.eisenstein import Gamma04Matrix, eisenstein_direct, lattice_tail_bound, modularity_residual
from mockform.maass import (
    alpha_limit,
    completed_hurwitz_series,
    e2_star,
    e2_truncation,
    fourier_coefficient,
    hurwitz_truncation,
    laplacian_fd,
    s_limit_check,
    theta_series,
    theta_truncation,
    xi_shadow_analytic,
    xi_shadow_fd,
)
from mockform.special_functions import rho_kernel, upper_incomplete_gamma

CFG = EvalConfig()

# frozen fixtures from the first verified build (quad_tol = 1e-14 evaluation)
THETA_AT_I = 1.003734885487739
COMPLETED_AT_I = -0.04353927711803409
E2STAR_AT_1_2I = 0.5224514736321328


def series_value(tau):
    return completed_hurwitz_series(tau, CFG).value


def test_theta_periodicity_and_values():
    tau = 0.3 + 0.7j
    assert abs(theta_series(tau + 1, CFG) - theta_series(tau, CFG)) < 1e-14
    assert abs(theta_series(10j, CFG) - (1 + 2 * exp(-20 * pi))) < 1e-8
    assert abs(theta_series(1j, CFG) - THETA_AT_I) < 1e-13
    # classical closed form at nome e^{-pi}
    assert abs(theta_series(0.5j, CFG) - pi ** 0.25 / Gamma(0.75)) < 1e-13


def test_theta_against_mpmath_jtheta():
    # Theta(tau) = jtheta(3, 0, q) with nome q = e^{2 pi i tau}; down to v = 4e-5
    # the series needs at most 400 terms at quad_tol = 1e-10
    for tau in (0.3 + 4e-5j, 1e-4j, 0.25 + 1e-3j, -0.4 + 0.01j, 0.1 + 0.3j, 0.7 + 2j):
        with mpmath.workdps(30):
            expected = complex(mpmath.jtheta(3, 0, mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))))
        _, tail = theta_truncation(tau.imag, CFG.quad_tol)
        assert tail <= CFG.quad_tol
        assert abs(theta_series(tau, CFG) - expected) <= tail + 1e-11, tau


def test_theta_refuses_beyond_400_terms():
    # at v = 1e-6 the capped series gave 597.02 where jtheta gives 707.107
    for v in (1e-6, 3e-5):
        with pytest.raises(ValueError, match="more than 400 terms"):
            theta_series(complex(0.0, v), CFG)
    assert theta_truncation(3.3e-5, CFG.quad_tol)[0] <= 400


def test_completed_series_values():
    val = completed_hurwitz_series(10j, CFG)
    dominant = -1 / 12 + 1 / (8 * pi * sqrt(10))
    assert abs(val.value - dominant) < 1e-15  # next terms are ~e^{-60 pi}
    assert abs(val.value - (val.holomorphic_part + val.nonholomorphic_part)) == 0
    assert abs(completed_hurwitz_series(1j, CFG).value - COMPLETED_AT_I) < 1e-12
    assert completed_hurwitz_series(1j, CFG).value.bound < 1e-9


def test_completed_series_at_large_v():
    # every nonholomorphic term is below quad_tol, so none is formed (its factor
    # e^{2 pi n^2 v} would overflow) and the value is the constant term
    val = completed_hurwitz_series(200j, CFG)
    assert abs(val.value - (-1 / 12 + 1 / (8 * pi * sqrt(200)))) < 1e-15
    assert val.value.bound <= 3 * CFG.quad_tol


def test_truncated_evaluations_are_bounded_values():
    tau = 0.1 + 0.7j
    direct = eisenstein_direct("H", 2, 1.0, tau, CFG)
    values = {
        "theta": (theta_series(tau, CFG), "proof"),
        "e2star": (e2_star(tau, CFG), "proof"),
        "series": (series_partial(5, 3.0, 300), "proof"),
        "completed": (completed_hurwitz_series(tau, CFG).value, "proof"),
        "direct": (direct, "proof"),
    }
    for name, (x, kind) in values.items():
        assert isinstance(x, BoundedValue) and isinstance(x, complex), name
        assert x.kind == kind and x.terms > 0 and 0 < x.bound < 1e-2, name
        for result in (x + 1, 1 - x, 2 * x, x * x, x / 3, -x, +x, x ** 2):
            assert type(result) is complex, name
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is BoundedValue, name
        assert (complex(back), back.bound, back.terms, back.kind) == (complex(x), x.bound, x.terms, x.kind), name
    assert direct.bound == lattice_tail_bound(2, 1.0, tau, CFG.lattice_bound, "H")
    assert direct.terms == sum(eisenstein_direct(kind, 2, 1.0, tau, CFG).terms for kind in "EF")


def test_completed_series_guards():
    with pytest.raises(ValueError):
        completed_hurwitz_series(0.5 + 0.02j, CFG)


def test_alpha_limit_cases():
    assert abs(alpha_limit(0, 1.0) - (-1 / 12 + 1 / (8 * pi))) < 1e-15
    assert abs(alpha_limit(4, 1.0) - 0.5) == 0
    assert alpha_limit(-2, 1.0) == 0
    expect = (1 / (4 * sqrt(pi))) * upper_incomplete_gamma(-0.5, 4 * pi)
    assert abs(alpha_limit(-1, 1.0) - expect) == 0


def test_shadow_annihilates_holomorphic():
    for tau in (0.2 + 0.8j, 0.6 + 1.3j):
        assert abs(xi_shadow_fd(lambda t: theta_series(t, CFG), 0.5, tau)) < 1e-6


def test_shadow_of_completed_series_is_theta_over_16pi():
    # the measured shadow constant: xi_{3/2} applied to the completed series
    # returns -Theta/(16 pi), not -Theta/16
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        tau = complex(rng.uniform(0, 1), rng.uniform(0.3, 3.0))
        shadow = xi_shadow_fd(series_value, 1.5, tau)
        worst = max(worst, abs(shadow + theta_series(tau, CFG) / (16 * pi)))
    assert worst < 1e-5
    # and it cleanly rejects the pi-free constant
    tau = 0.25 + 0.9j
    shadow = xi_shadow_fd(series_value, 1.5, tau)
    assert abs(shadow + theta_series(tau, CFG) / 16) > 1e-2


def test_shadow_of_e2star_is_constant():
    vals = [xi_shadow_fd(lambda t: e2_star(t, CFG), 2.0, tau)
            for tau in (0.2 + 0.7j, 0.8 + 1.1j, 0.5 + 2.2j)]
    for v in vals:
        assert abs(v - 3 / pi) < 1e-6


def test_laplacian_annihilates_completed_series():
    rng = np.random.default_rng(31)
    for _ in range(10):
        tau = complex(rng.uniform(0, 1), rng.uniform(0.5, 2.0))
        assert abs(laplacian_fd(series_value, 1.5, tau)) < 1e-4


def test_laplacian_kernel_functions():
    tau = 0.2 + 0.8j
    assert abs(laplacian_fd(lambda t: t.imag ** -0.5, 1.5, tau)) < 1e-6
    for n in (1, 3):
        fn = lambda t: cmath.exp(2j * pi * n * t)
        assert abs(laplacian_fd(fn, 1.5, tau)) < 1e-6


def _laplacian_ten_calls(f, k_weight, tau):
    """The Laplacian whose two 5-point stencils each evaluate their center, kept as the oracle."""
    u, v = tau.real, tau.imag
    h = maass.FD_STEP2 * v

    def stencil(g, x):
        fm2, fm1, f0, fp1, fp2 = (g(x - 2 * h), g(x - h), g(x), g(x + h), g(x + 2 * h))
        return ((-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12.0 * h),
                (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12.0 * h * h))

    fu, fuu = stencil(lambda x: f(complex(x, v)), u)
    fv, fvv = stencil(lambda y: f(complex(u, y)), v)
    return -v * v * (fuu + fvv) + 1j * k_weight * v * (fu + 1j * fv)


def test_laplacian_fd_evaluates_f_nine_times():
    calls = []

    def counted(t):
        calls.append(t)
        return series_value(t)

    for tau in (0.3 + 0.9j, -0.1 + 1.7j):
        calls.clear()
        assert laplacian_fd(counted, 1.5, tau) == _laplacian_ten_calls(series_value, 1.5, tau)
        assert len(calls) == len(set(calls)) == 9


def test_analytic_shadow_stream():
    stream = {c.exponent: c for c in xi_shadow_analytic(400)}
    squares = {n * n for n in range(1, 21)}
    assert set(stream) == {0} | squares
    assert stream[0].mantissa == Fraction(-1, 16) and stream[0].pi_power == -1
    for n in squares:
        assert stream[n].mantissa == Fraction(-1, 8) and stream[n].pi_power == -1
    # float cross-check against the finite-difference shadow at a point
    tau = 0.3 + 1.1j
    q = cmath.exp(2j * pi * tau)
    analytic = sum(float(c.mantissa) * pi ** float(c.pi_power) * q ** c.exponent
                   for c in stream.values())
    fd = xi_shadow_fd(series_value, 1.5, tau)
    assert abs(analytic - fd) < 1e-9


def test_completed_series_modularity():
    cases = (
        (Gamma04Matrix(1, 1, 0, 1), 0.4 + 0.9j),
        (Gamma04Matrix(1, 0, 4, 1), -0.25 + 0.45j),
        (Gamma04Matrix(-3, -1, 4, 1), -0.1 + 0.5j),
    )
    for g, tau in cases:
        assert min(tau.imag, g.apply(tau).imag) >= 0.08
        assert modularity_residual(series_value, 1, 0.0, g, tau) < 1e-6


def test_e2star():
    for tau in (1j, 1 + 1j, 0.5 + 0.5j):
        assert abs(e2_star(-1 / tau, CFG) - tau ** 2 * e2_star(tau, CFG)) < 1e-8
    assert abs(e2_star(1j, CFG)) < 1e-10  # fixed point of the inversion
    assert abs(e2_star(1 + 2j, CFG) - E2STAR_AT_1_2I) < 1e-10
    assert abs(e2_star(100j, CFG) - (1 - 3 / (100 * pi))) < 1e-10


def test_e2star_matches_the_scalar_sigma_loop():
    # the oracle is e2_star with sigma_1(m) from sigma_divisor, one m at a time
    cfg = CFG.with_(q_terms=10 ** 5)
    for tau in (1j, 0.5 + 0.5j, -1 + 1j, 0.3 + 0.01j, 0.3 + 1e-3j, 0.3 + 1e-4j):
        N, _ = e2_truncation(tau.imag, cfg.quad_tol, cfg.q_terms)
        n = np.arange(1, N + 1)
        sigma = np.array([sigma_divisor(1, m) for m in range(1, N + 1)], dtype=float)
        expected = complex(1.0 - 24.0 * (sigma * np.exp(2j * pi * tau * n)).sum()) - 3.0 / (pi * tau.imag)
        assert e2_star(tau, cfg) == expected, tau


def _e2star_lambert(tau: complex) -> complex:
    """1 - 24 sum n q^n/(1 - q^n) - 3/(pi v) at 30 digits."""
    with mpmath.workdps(30):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
        total, n = mpmath.mpf(0), 1
        while True:
            term = n * q ** n / (1 - q ** n)
            total += term
            if abs(term) < mpmath.mpf(10) ** -35:
                break
            n += 1
        return complex(1 - 24 * total - 3 / (mpmath.pi * tau.imag))


@pytest.mark.parametrize("tau", [1j, 1 + 2j, -0.2 + 0.5j, 0.3 + 0.05j, 0.25 + 0.02j])
def test_e2star_against_lambert_series(tau):
    _, tail = e2_truncation(tau.imag, CFG.quad_tol, CFG.q_terms)
    assert 0 <= tail <= CFG.quad_tol
    value = e2_star(tau, CFG)
    # the tail bounds the truncation; 1e-14 relative covers the float summation
    assert abs(value - _e2star_lambert(tau)) <= tail + 1e-14 * max(1.0, abs(value))


def test_e2star_refuses_beyond_q_terms():
    with pytest.raises(ValueError, match="more than 4000 terms"):
        e2_star(0.3 + 1e-3j, CFG)
    with pytest.raises(ValueError, match="more than 4000 terms"):
        e2_truncation(5e-324, CFG.quad_tol, CFG.q_terms)
    # the same point is fine once q_terms admits the tail
    N, tail = e2_truncation(1e-3, CFG.quad_tol, 10_000)
    assert 4000 < N <= 10_000 and tail <= CFG.quad_tol


def _one_step_truncate(series, tail, first, max_terms, v, tol):
    """The scan that tries every N from first on, one term at a time (the oracle)."""
    N = first
    while tail(N) > tol:
        if N >= max_terms:
            raise ValueError(f"{series} needs more than {max_terms} terms "
                             f"at v = {v} for a tail below {tol}")
        N += 1
    return N, tail(N)


def test_truncation_skips_ahead_to_the_same_terms(monkeypatch):
    # each truncation runs both scans on its own tail: the same N, the same tail
    # and the same refusal, with fewer than half the tail evaluations
    real = maass._truncate
    seen = []

    def counted(tail, calls):
        def wrapped(N):
            calls[0] += 1
            return tail(N)
        return wrapped

    def both(series, tail, first, max_terms, v, tol, *lead):
        outcomes, counts = [], []
        for scan, extra in ((_one_step_truncate, ()), (real, lead)):
            calls = [0]
            try:
                outcomes.append(scan(series, counted(tail, calls), first, max_terms, v, tol,
                                     *extra))
            except ValueError as exc:
                outcomes.append(str(exc))
            counts.append(calls[0])
        seen.append((series, v, tol, *outcomes, *counts))
        return outcomes[1]

    monkeypatch.setattr(maass, "_truncate", both)
    for v in np.geomspace(1e-3, 5.0, 31):
        for tol in (1e-6, 1e-10, 1e-14):
            for truncation in (theta_truncation,
                               lambda v, tol: hurwitz_truncation(v, tol, CFG.q_terms),
                               lambda v, tol: e2_truncation(v, tol, CFG.q_terms)):
                try:
                    truncation(float(v), tol)
                except ValueError:
                    pass
    assert len(seen) == 31 * 3 * 3
    for series, v, tol, oracle, got, _, _ in seen:
        assert got == oracle, (series, v, tol)
    # at v = 1e-3 both q-series need more than q_terms terms; theta never does
    refused = {series for series, *_, got, _, _ in seen if isinstance(got, str)}
    assert refused == {"completed_hurwitz_series", "e2_star"}
    oracle_calls = sum(row[-2] for row in seen)
    calls = sum(row[-1] for row in seen)
    assert calls < oracle_calls / 2, (calls, oracle_calls)


def test_s_limit_check():
    for h, tol in ((3, 1e-3), (4, 1e-3), (-1, 1e-3), (-4, 1e-3), (-5, 1e-3)):
        lim = s_limit_check(h, 1.0, CFG)
        assert abs(lim - alpha_limit(h, 1.0)) < tol, h
    with pytest.raises(ValueError):
        s_limit_check(0, 1.0, CFG)


def _neville_limit(h, v, samples):
    """Neville extrapolation to s = 0 of -(1-i)/48 E_{-h}(1+2s) rho_h^{3/2}(s, v) over the samples."""
    xs = sorted(samples, reverse=True)
    table = [-(1 - 1j) / 48.0 * series_closed(-h, 1.0 + 2.0 * s) * rho_kernel(h, 1, s, v, CFG)
             for s in xs]
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            table[i] = ((xs[i + level] * table[i] - xs[i] * table[i + 1])
                        / (xs[i + level] - xs[i]))
    return table[0]


@pytest.mark.parametrize("v", [0.25, 1.0])
def test_s_limit_check_is_the_two_sample_neville_limit(v):
    for h in [*range(1, 10), *range(-9, 0)]:
        assert s_limit_check(h, v, CFG) == _neville_limit(h, v, [1e-3, 1e-4]), h


def test_fourier_coefficient_extraction():
    # coefficients of the completed series against the limit table; v = 0.25
    # keeps the e^{2 pi h v} amplification of rounding noise under control
    for h in range(-9, 10):
        got = fourier_coefficient(series_value, h, 0.25, 64)
        assert abs(got - alpha_limit(h, 0.25)) < 1e-8, h


def test_u_average_constant_term():
    mean = fourier_coefficient(series_value, 0, 1.0, 64)
    assert abs(mean - (-1 / 12 + 1 / (8 * pi))) < 1e-10
