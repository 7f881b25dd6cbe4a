import cmath
import pickle
import warnings
from fractions import Fraction
from math import exp, pi, sqrt

import mpmath
import numpy as np
import pytest

import oracles
from mockform import config, maass
from mockform.arithmetic import divisor_sums, sigma_divisor
from mockform.class_numbers import hurwitz_table
from mockform.config import DEFAULT_CONFIG, MIN_QUAD_TOL, BoundedValue, EvalConfig, reduce_mod_one
from mockform.dirichlet_series import series_closed, series_partial
from mockform.eisenstein import Gamma04Matrix, eisenstein_direct, lattice_tail_bound, modularity_residual
from mockform.maass import (
    _QUARTER_ROOT,
    HarmonicFormValue,
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
    # pi^{1/4}/Gamma(3/4), the classical closed form at nome e^{-pi}
    closed = oracles.theta(0.5j)
    assert abs(theta_series(0.5j, CFG.with_(quad_tol=1e-14)) - closed) < 1e-13
    value = theta_series(0.5j, CFG)
    assert abs(value - closed) <= value.bound + 1e-15


def test_theta_against_mpmath_jtheta():
    # Theta(tau) = jtheta(3, 0, q) with nome q = e^{2 pi i tau}; down to v = 4e-5
    # the series needs at most 400 terms at quad_tol = 1e-10
    for tau in (0.3 + 4e-5j, 1e-4j, 0.25 + 1e-3j, -0.4 + 0.01j, 0.1 + 0.3j, 0.7 + 2j):
        expected = oracles.theta(tau)
        _, tail = theta_truncation(tau.imag, CFG.quad_tol)
        assert tail <= CFG.quad_tol
        value = theta_series(tau, CFG)
        assert tail < value.bound and abs(value - expected) <= value.bound, tau


def test_theta_refuses_beyond_400_terms():
    # at v = 1e-6 the capped series gave 597.02 where jtheta gives 707.107; at
    # quad_tol = 1e-10 the 400 terms reach down to v = 2.557e-5
    for v in (1e-6, 2.55e-5):
        with pytest.raises(ValueError, match="more than 400 terms"):
            theta_series(complex(0.0, v), CFG)
    assert theta_truncation(2.56e-5, CFG.quad_tol)[0] == 400


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
        "theta": theta_series(tau, CFG),
        "e2star": e2_star(tau, CFG),
        "series": series_partial(5, 3.0, 300),
        "completed": completed_hurwitz_series(tau, CFG).value,
        "direct": direct,
    }
    for name, x in values.items():
        assert isinstance(x, BoundedValue) and isinstance(x, complex), name
        assert x.terms > 0 and 0 < x.bound < 1e-2, name
        for result in (x + 1, 1 - x, 2 * x, x * x, x / 3, -x, +x, x ** 2):
            assert type(result) is complex, name
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is BoundedValue, name
        assert (complex(back), back.bound, back.terms) == (complex(x), x.bound, x.terms), name
    # H sums F to M and E, the minor share of its bound here, to a smaller disc
    M = CFG.lattice_bound
    single = 1 / 120 / 2 ** 5 * (sqrt(2.0) * lattice_tail_bound(2, 1.0, tau, M)
                                 + lattice_tail_bound(2, 1.0, tau, M, "F"))
    assert single < direct.bound <= 1.25 * single
    e, f = eisenstein_direct("E", 2, 1.0, tau, CFG), eisenstein_direct("F", 2, 1.0, tau, CFG)
    assert f.terms < direct.terms < e.terms + f.terms


def test_completed_series_guards():
    with pytest.raises(ValueError):
        completed_hurwitz_series(0.5 + 0.02j, CFG)


def reference_completed_hurwitz_series(tau: complex,
                                       cfg: EvalConfig = DEFAULT_CONFIG) -> HarmonicFormValue:
    """The definition: completed_hurwitz_series as one pass per point, keeping nothing between calls."""
    tau = reduce_mod_one(tau)
    v = tau.imag
    if v < 0.05:
        raise ValueError(f"truncation floor: require v >= 0.05, got v={v}")
    tol = cfg.quad_tol
    N, holo_tail = hurwitz_truncation(v, tol)
    q = cmath.exp(2j * pi * tau)
    holo = complex(-1.0 / 12.0)
    qn = 1.0 + 0j
    for h in hurwitz_table(N).floats(N)[1:N + 1]:
        qn *= q
        if h:
            holo += h * qn

    c0 = 1.0 / (8.0 * pi * sqrt(v))
    nonholo = complex(c0)
    # terms are added until the tail t(n)/(1 - t(n+1)/t(n)) of the rest reaches tol;
    # the rounding of every sum is bounded as _height_part documents it
    t = lambda n: maass._nonholomorphic_term(n, v)
    n = 1
    while (nonholo_tail := maass._tail(t(n), t(n + 1))) > tol:
        x = 4.0 * pi * n * n * v
        nonholo += (_QUARTER_ROOT * n * upper_incomplete_gamma(-0.5, x)
                    * cmath.exp(-2j * pi * n * n * tau))
        n += 1
    r = exp(-2 * pi * v)
    S0 = r / (1.0 - r) ** 2
    S1 = S0 * (1.0 + r) / (1.0 - r)
    P, aQ = maass._gaussian_sums(2 * pi * v)
    rounding = maass._U * ((N + 2) / 12 + (N + 3) * S0 + ((14 + 4 * pi * v) * S1 if r else 0.0)
                           + (n + 4) * c0 + 2 * c0 * ((n + 32) * P + (8 + 2 / v) * aQ))
    return HarmonicFormValue(BoundedValue(holo + nonholo, holo_tail + nonholo_tail + rounding, N + n - 1),
                             holo, nonholo)


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _assert_matches_reference(tau, cfg):
    got, want = completed_hurwitz_series(tau, cfg), reference_completed_hurwitz_series(tau, cfg)
    assert [_bits(x) for x in got] == [_bits(x) for x in want], tau
    assert (got.value.bound.hex(), got.value.terms) == (want.value.bound.hex(), want.value.terms), tau


def test_completed_series_matches_its_reference_bit_for_bit():
    maass._height_part.cache_clear()
    heights = (0.05, 0.07, 0.1, 0.2, 0.35, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0)
    for v in heights:                   # the first u at each height misses, the others hit
        for u in (-0.5, -0.13, 0.0, 0.3, 0.49):
            _assert_matches_reference(complex(u, v), CFG)
    info = maass._height_part.cache_info()
    assert (info.misses, info.hits) == (len(heights), 4 * len(heights))
    for tau in (0.2 + 0.45j,) * 3:      # one point again and again
        _assert_matches_reference(tau, CFG)
    for tau in (0.1 + 0.37j, 0.1 + 1.1j, -0.3 + 0.37j, 0.25 + 1.1j, 0.4 + 0.37j):   # v1, v2, v1, ...
        _assert_matches_reference(tau, CFG)
    # other configurations at heights already kept under the default one
    for cfg in (EvalConfig(quad_tol=1e-13), EvalConfig(quad_tol=MIN_QUAD_TOL),
                EvalConfig(quad_tol=1e-6)):
        for tau in (0.3 + 0.05j, -0.2 + 0.37j, 0.45 + 3j):
            _assert_matches_reference(tau, cfg)


def test_completed_series_refusals_raise_on_every_call(monkeypatch):
    maass._height_part.cache_clear()
    completed_hurwitz_series(0.1 + 0.3j, CFG)       # the height is kept under the default key
    for _ in range(3):
        with pytest.raises(ValueError, match="truncation floor"):
            completed_hurwitz_series(0.5 + 0.049j, CFG)
    # v >= 0.05 keeps the holomorphic part far below its 4000-term cap; a lower cap
    # shows that a refused height is refused again, not kept
    monkeypatch.setattr(maass, "_Q_MAX_TERMS", 5)
    for _ in range(3):
        with pytest.raises(ValueError, match="needs more than 5 terms"):
            completed_hurwitz_series(0.2 + 0.35j, CFG)
    assert maass._height_part.cache_info().currsize == 1


def test_completed_series_stays_far_below_its_cap():
    # the floor v = 0.05 at the smallest quad_tol is the most the holomorphic part ever sums
    assert hurwitz_truncation(0.05, MIN_QUAD_TOL)[0] == 2227 < maass._Q_MAX_TERMS
    assert completed_hurwitz_series(0.3 + 0.05j, CFG.with_(quad_tol=MIN_QUAD_TOL)).value.terms > 2227


def test_stencils_compute_each_height_part_once(monkeypatch):
    # the truncation scan and the Gamma(-1/2, .) loop run once per height, not once per point
    truncation, gamma = maass.hurwitz_truncation, maass.upper_incomplete_gamma
    heights, gammas, points = [], [], []

    def counted_truncation(v, tol):
        heights.append(v)
        return truncation(v, tol)

    def counted_gamma(a, x):
        gammas.append(x)
        return gamma(a, x)

    def counted_series(tau):
        points.append(tau)
        return series_value(tau)

    monkeypatch.setattr(maass, "hurwitz_truncation", counted_truncation)
    monkeypatch.setattr(maass, "upper_incomplete_gamma", counted_gamma)
    for stencil, calls, distinct in ((laplacian_fd, 9, 5), (xi_shadow_fd, 4, 3)):
        maass._height_part.cache_clear()
        for log in (heights, gammas, points):
            log.clear()
        stencil(counted_series, 1.5, 0.1 + 0.5j)
        assert len(points) == calls and len({tau.imag for tau in points}) == distinct
        assert len(heights) == len(set(heights)) == distinct
        info = maass._height_part.cache_info()
        assert (info.misses, info.hits) == (distinct, calls - distinct)
        kept = sum(len(maass._height_part(v, CFG.quad_tol)[-1]) for v in heights)
        assert len(gammas) == len(set(gammas)) == kept > 0


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
    cfg = CFG
    for tau in (1j, 0.5 + 0.5j, -1 + 1j, 0.3 + 0.01j, 0.3 + 2e-3j):
        N, _ = e2_truncation(tau.imag, cfg.quad_tol)
        n = np.arange(1, N + 1)
        sigma = np.array([sigma_divisor(1, m) for m in range(1, N + 1)], dtype=float)
        q_n = np.exp(2j * pi * reduce_mod_one(tau) * n)             # e2_star reduces tau mod 1
        expected = complex(1.0 - 24.0 * (sigma * q_n).sum()) - 3.0 / (pi * tau.imag)
        assert e2_star(tau, cfg) == expected, tau


@pytest.mark.parametrize("tau", [1j, 1 + 2j, -0.2 + 0.5j, 0.3 + 0.05j, 0.25 + 0.02j])
def test_e2star_against_lambert_series(tau):
    _, tail = e2_truncation(tau.imag, CFG.quad_tol)
    assert 0 <= tail <= CFG.quad_tol
    value = e2_star(tau, CFG)
    # the bound covers the truncation and the rounding of the sum
    assert tail < value.bound and abs(value - oracles.e2_star(tau)) <= value.bound


def test_e2star_refuses_beyond_q_terms():
    # the cap is a fixed 4000 terms, reached just below v = 1.9e-3 at the default quad_tol
    message = ("e2_star needs more than 4000 terms at v = 0.001 for a tail below 1e-10")
    with pytest.raises(ValueError) as exc:
        e2_star(0.3 + 1e-3j, CFG)
    assert str(exc.value) == message
    with pytest.raises(ValueError, match="more than 4000 terms"):
        e2_truncation(5e-324, CFG.quad_tol)
    assert 3900 < e2_truncation(1.9e-3, CFG.quad_tol)[0] <= 4000


def _one_step_truncate(series, term, first, max_terms, v, tol):
    """The scan that tries every N from first on, one term at a time (the oracle)."""
    N = first
    while (tail := maass._tail(term(N + 1), term(N + 2))) > tol:
        if N >= max_terms:
            raise ValueError(f"{series} needs more than {max_terms} terms "
                             f"at v = {v} for a tail below {tol}")
        N += 1
    return N, tail


def _outcome(scan, *args):
    try:
        return scan(*args)
    except ValueError as exc:
        return str(exc)


def _truncations(v, tol):
    return (lambda: theta_truncation(v, tol), lambda: hurwitz_truncation(v, tol),
            lambda: e2_truncation(v, tol))


def test_truncation_skips_ahead_to_the_same_terms(monkeypatch):
    # each truncation's own term bound goes through the one-step scan, and through
    # _truncate from its own hint and from the hints 0, N and 10 N: the same N, the
    # same tail and the same refusal every time
    real = maass._truncate
    seen = []

    def both(series, term, first, max_terms, v, tol, hint):
        oracle = _outcome(_one_step_truncate, series, term, first, max_terms, v, tol)
        N = oracle[0] if isinstance(oracle, tuple) else max_terms
        for start in (hint, 0, N, 10 * N):
            assert _outcome(real, series, term, first, max_terms, v, tol, start) == oracle, \
                (series, v, tol, start)
        seen.append((series, oracle))
        return real(series, term, first, max_terms, v, tol, hint)

    monkeypatch.setattr(maass, "_truncate", both)
    for v in np.geomspace(1e-3, 5.0, 31):
        for tol in (1e-6, 1e-10, 1e-14):
            for truncation in _truncations(float(v), tol):
                try:
                    truncation()
                except ValueError:
                    pass
    assert len(seen) == 31 * 3 * 3
    # at v = 1e-3 both q-series need more than their 4000 terms; theta never does
    refused = {series for series, oracle in seen if isinstance(oracle, str)}
    assert refused == {"completed_hurwitz_series", "e2_star"}


def test_truncation_hints_land_within_a_few_terms(monkeypatch):
    # _truncate lives in config, next to BoundedValue, and looks _tail up there
    tail, calls = config._tail, []
    monkeypatch.setattr(config, "_tail", lambda a, b: calls.append(a) or tail(a, b))
    for v in (0.05, 0.1, 0.3, 1.0, 3.0):
        for tol in (1e-6, 1e-10, 1e-14):
            for truncation in _truncations(v, tol):
                calls.clear()
                truncation()
                assert len(calls) <= 5, (v, tol, len(calls))


def test_s_limit_check():
    for h, tol in ((3, 1e-3), (4, 1e-3), (-1, 1e-3), (-4, 1e-3), (-5, 1e-3)):
        lim = s_limit_check(h, 1.0, CFG)
        assert abs(lim - alpha_limit(h, 1.0)) < tol, h
    with pytest.raises(ValueError):
        s_limit_check(0, 1.0, CFG)


def _neville_limit(h, v, samples):
    """Neville extrapolation to s = 0 of -(1-i)/48 E_{-h}(1+2s) rho_h^{3/2}(s, v) over the samples."""
    xs = sorted(samples, reverse=True)
    table = [-(1 - 1j) / 48.0 * series_closed(-h, 1.0 + 2.0 * s) * rho_kernel(h, 1, s, v, CFG).value
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


# ---------------------------------------------------------------------------
# Every tail against an independent sum of what it drops.

_GRID_V = (0.05, 0.1, 0.3, 1.0, 3.0)
_GRID_TOL = (1e-6, 1e-10, 1e-14)


def _captured_terms(monkeypatch, v, tol):
    """{series: (N, tail, term bound)} of the three holomorphic truncations at (v, tol)."""
    real, got = maass._truncate, {}

    def capture(series, term, *args):
        got[series] = (*real(series, term, *args), term)
        return got[series][:2]

    monkeypatch.setattr(maass, "_truncate", capture)
    for truncation in _truncations(v, tol):
        truncation()
    monkeypatch.setattr(maass, "_truncate", real)
    return got


def _assert_ratio_falls(term, upto):
    """term(n+1)/term(n) does not increase for n <= upto, while the terms are normal floats."""
    ratios = [term(n + 1) / term(n) for n in range(1, upto + 1) if term(n + 1) >= 2.3e-308]
    assert all(b <= a for a, b in zip(ratios, ratios[1:])), ratios


@pytest.mark.parametrize("v", _GRID_V)
def test_holomorphic_tails_cover_what_they_drop(monkeypatch, v):
    # 150 digits resolve theta's dropped sum (down to 1e-74 at v = 3) next to its 1
    with mpmath.workdps(150):
        r = mpmath.exp(-2 * mpmath.pi * v)
        for tol in _GRID_TOL:
            got = _captured_terms(monkeypatch, v, tol)
            N, tail, term = got["theta_series"]
            kept = 1 + 2 * mpmath.fsum(r ** (n * n) for n in range(1, N + 1))
            dropped = {"theta_series": oracles.theta(1j * v, 150) - kept}
            N, _, term = got["completed_hurwitz_series"]
            h = hurwitz_table(N + 300).floats(N + 300)
            dropped["completed_hurwitz_series"] = mpmath.fsum(h[n] * r ** n for n in range(N + 1, N + 301))
            N, _, term = got["e2_star"]
            sigma = divisor_sums(N + 300)[0]
            dropped["e2_star"] = 24 * mpmath.fsum(int(sigma[n]) * r ** n for n in range(N + 1, N + 301))
            for series, (N, tail, term) in got.items():
                assert float(dropped[series]) <= tail <= tol, (series, v, tol)
                _assert_ratio_falls(term, 2 * N)
            # each term bound lies above its term
            N, _, term = got["completed_hurwitz_series"]
            assert all(h[n] * float(r ** n) <= term(n) for n in range(1, 2 * N + 1))
            N, _, term = got["e2_star"]
            assert all(24 * int(sigma[n]) * float(r ** n) <= term(n) for n in range(1, 2 * N + 1))


def _nonholomorphic_modulus(n, v):
    """|term n| of the nonholomorphic part, n Gamma(-1/2, x) e^{x/2} / (4 sqrt(pi)) with x = 4 pi n^2 v."""
    x = 4 * mpmath.pi * n * n * v
    return n * oracles.incomplete_gamma(-0.5, x) * mpmath.exp(x / 2) / (4 * mpmath.sqrt(mpmath.pi))


@pytest.mark.parametrize("v", _GRID_V)
def test_nonholomorphic_tail_covers_what_it_drops(monkeypatch, v):
    tail, tails = maass._tail, []
    monkeypatch.setattr(maass, "_tail", lambda a, b: tails.append(tail(a, b)) or tails[-1])
    with mpmath.workdps(30):
        for tol in _GRID_TOL:
            maass._height_part.cache_clear()
            tails.clear()
            N = hurwitz_truncation(v, tol)[0]
            M = len(maass._height_part(v, tol)[-1])
            nonholo_tail = tails[-1]                    # the last tail the height part tested
            dropped = mpmath.fsum(_nonholomorphic_modulus(n, v) for n in range(M + 1, M + 40))
            assert float(dropped) <= nonholo_tail <= tol, (v, tol)
            term = lambda n: maass._nonholomorphic_term(n, v)
            _assert_ratio_falls(term, 2 * max(N, M))
            assert all(_nonholomorphic_modulus(n, v) <= term(n) for n in range(1, 2 * max(N, M) + 1)
                       if term(n) >= 2.3e-308)


# ---------------------------------------------------------------------------
# Every bound against the whole series: the truncation and the rounding of the sum.


def _completed_whole(tau, tol):
    """The completed series 400 holomorphic and 10 nonholomorphic terms past the evaluation's own."""
    N = hurwitz_truncation(tau.imag, tol)[0]
    terms = completed_hurwitz_series(tau, CFG.with_(quad_tol=tol)).value.terms
    return oracles.completed(tau, N + 400, terms - N + 10)


# the first five points are where the truncation tail alone fell short of the error
@pytest.mark.parametrize("series, tau, tol, terms", [
    ("e2star", 0.123 + 0.01j, 1e-14, 822),
    ("e2star", 0.123 + 0.05j, 1e-14, 148),
    ("theta", 0.123 + 1e-3j, 1e-14, 72),
    ("theta", 0.123 + 1e-4j, 1e-14, 233),
    ("theta", 0.123 + 0.3j, 1e-14, 4),
    ("theta", 0.123 + 2.56e-5j, 1e-10, 400),            # theta's cap
    ("e2star", 0.123 + 1.9e-3j, 1e-10, 3957),           # just above E2's refusal
    ("H", 0.123 + 0.05j, 1e-14, 131),                   # the floor of the completed series
    ("H", 0.123 + 0.05j, MIN_QUAD_TOL, 2273),
])
def test_bounds_cover_truncation_and_rounding(series, tau, tol, terms):
    evaluate, whole = {"theta": (theta_series, oracles.theta), "e2star": (e2_star, oracles.e2_star),
                       "H": (lambda t, c: completed_hurwitz_series(t, c).value,
                             lambda t: _completed_whole(t, tol))}[series]
    value = evaluate(tau, CFG.with_(quad_tol=tol))
    assert value.terms == terms
    error = abs(value - whole(tau))
    assert error <= value.bound, (series, tau, error, value.bound)


# ---------------------------------------------------------------------------
# Translation and huge heights.


def test_periodic_evaluators_reduce_tau_mod_one():
    # at a large |u| the phases lose no digits: each value meets a 30-digit oracle at
    # the exact binary64 point within its bound
    tau = 1e6 + 0.3j
    value = theta_series(tau, CFG)
    assert value == theta_series(0.3j, CFG) and abs(value - oracles.theta(tau)) <= value.bound
    tau = 1e6 + 0.3 + 0.5j
    value = e2_star(tau, CFG)
    assert abs(value - oracles.e2_star(tau)) <= value.bound
    for tau in (1e9 + 0.3 + 0.06j, -7.0 + 0.2 + 0.5j):
        series = completed_hurwitz_series(tau, CFG)
        v = series.value
        N = hurwitz_truncation(tau.imag, CFG.quad_tol)[0]
        assert abs(v - oracles.completed(tau, N, v.terms - N)) <= v.bound, tau
        assert series == completed_hurwitz_series(reduce_mod_one(tau), CFG)
    assert reduce_mod_one(1e300 + 1j) == 1j and reduce_mod_one(-2.5 + 1j) == -0.5 + 1j


def test_huge_heights_give_finite_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (1e308j, 1e308 + 1j, 0.25 + 1e300j):
            for value in (theta_series(tau, CFG), e2_star(tau, CFG)):
                assert cmath.isfinite(value) and value.bound <= CFG.quad_tol, tau
        assert theta_series(1e308j, CFG) == 1.0
        assert e2_star(1e308j, CFG) == 1.0 - 3.0 / (pi * 1e308)
