import cmath
import math
import tracemalloc
import warnings
from math import pi, sqrt

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mockform import dirichlet_series, eisenstein, special_functions

from mockform.config import EvalConfig
from mockform.class_numbers import cohen_class_number
from mockform.arithmetic import epsilon_factor, jacobi_row
from mockform.dirichlet_series import series_closed
from mockform.eisenstein import (
    MAX_LATTICE_ROW,
    Gamma04Matrix,
    IDENTITY,
    _lattice_sum,
    automorphy_factor,
    cocycle_sign,
    eisenstein_direct,
    eisenstein_fourier,
    j_factor,
    lattice_tail_bound,
    modularity_residual,
    multiplier_identity_residual,
    random_words,
    sigma_shift_residual,
    theta_multiplier,
    theta_multiplier_top_row,
)
from mockform.maass import theta_series

CFG = EvalConfig()
# the (k, s) pairs of the benchmark's eisenstein workload
WORKLOAD_PAIRS = ((1, 1.0), (2, 1.0), (2, 0.5), (3, 0.25), (1, 0.75), (2, 0.25))


def test_matrix_validation():
    with pytest.raises(ValueError):
        Gamma04Matrix(1, 0, 2, 1)  # c not divisible by 4
    with pytest.raises(ValueError):
        Gamma04Matrix(2, 0, 4, 1)  # det != 1
    g = Gamma04Matrix(1, 2, 4, 9)
    assert (g @ IDENTITY) == g
    assert (-g).entries() == (-1, -2, -4, -9)


def test_j_factor():
    assert j_factor(IDENTITY, 0.3 + 2j) == 1
    assert j_factor(Gamma04Matrix(1, 1, 0, 1), 1j) == 1
    val = j_factor(Gamma04Matrix(1, 0, 4, 1), 1j)
    assert abs(val - cmath.sqrt(1 + 4j)) < 1e-15
    assert val.real > 0 and val.imag > 0  # first quadrant


def test_theta_multiplier_examples():
    assert theta_multiplier(IDENTITY) == 1
    assert theta_multiplier(Gamma04Matrix(1, 0, 4, 1)) == 1
    assert theta_multiplier(Gamma04Matrix(-3, -1, 4, 1)) == 1
    # top-row expression on the valid +- representative
    g = Gamma04Matrix(-3, -1, 4, 1)
    assert multiplier_identity_residual(g) < 1e-14
    assert theta_multiplier_top_row(-g) == theta_multiplier(-g)


def test_theta_multiplier_against_theta_function():
    # v(g) is the actual multiplier of the theta function
    rng = np.random.default_rng(5)
    tau = 0.273 + 0.91j
    checked = 0
    for g in random_words(rng, 400):
        gt = g.apply(tau)
        if gt.imag < 0.05:
            continue
        lhs = theta_series(gt, CFG)
        rhs = theta_multiplier(g) * j_factor(g, tau) * theta_series(tau, CFG)
        assert abs(lhs - rhs) < 1e-9, g
        checked += 1
    assert checked > 100


def test_multiplier_identity_on_words():
    rng = np.random.default_rng(12345)
    for g in random_words(rng, 1000, require_b=True):
        assert multiplier_identity_residual(g) < 1e-14, g


def test_cocycle_sign_and_shift():
    rng = np.random.default_rng(2)
    tau = 0.3 + 0.9j
    assert cocycle_sign(IDENTITY, Gamma04Matrix(1, 0, 4, 1), tau) == 1
    checked = 0
    while checked < 100:
        g1, g2 = random_words(rng, 2)
        if g1.a < 0 and g1.c < 0:
            g1 = -g1
        if (g1 @ g2).a < 0 and (g1 @ g2).c < 0:
            continue
        assert cocycle_sign(g1, g2, tau) in (1, -1)
        assert sigma_shift_residual(g1, g2, tau) < 1e-10
        checked += 1


def test_sigma_shift_rejects_unnormalized():
    g1 = -Gamma04Matrix(1, 0, 4, 1)
    with pytest.raises(ValueError):
        sigma_shift_residual(g1, IDENTITY, 0.5j)


def test_automorphy_cocycle_universal():
    rng = np.random.default_rng(3)
    tau = 0.41 + 1.2j
    for _ in range(100):
        g1, g2 = random_words(rng, 2)
        lhs = automorphy_factor(g1 @ g2, tau)
        rhs = automorphy_factor(g1, g2.apply(tau)) * automorphy_factor(g2, tau)
        assert abs(lhs - rhs) < 1e-10


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), u=st.floats(-1.0, 1.0), v=st.floats(0.05, 3.0))
def test_automorphy_cocycle_over_random_words(seed, u, v):
    g1, g2 = random_words(np.random.default_rng(seed), 2)
    tau = complex(u, v)
    lhs = automorphy_factor(g1 @ g2, tau)
    rhs = automorphy_factor(g1, g2.apply(tau)) * automorphy_factor(g2, tau)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
    assert cocycle_sign(g1, g2, tau) in (1, -1)


def test_direct_series_domain():
    with pytest.raises(ValueError):
        eisenstein_direct("E", 1, 0.0, 1j, CFG)  # k + 2s = 1, diverges
    with pytest.raises(ValueError):
        eisenstein_direct("X", 2, 1.0, 1j, CFG)
    with pytest.raises(ValueError):
        eisenstein_fourier(1, 0.0, 1j, CFG)


def test_large_orders_are_refused_without_warnings():
    # at k = 120 the powers z^k of the lattice sum overflow on the disc |z| <= 303 v
    # of M = 301 at this tau; from k = 131 zeta(1 - 2k) leaves the float range,
    # and both routes refuse such k before any work
    tau = 0.1 + 1.5j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("E", "H"):
            with pytest.raises(ValueError, match="overflows a float"):
                eisenstein_direct(kind, 120, 1.0, tau, CFG)
        for route in (lambda k: eisenstein_direct("H", k, 1.0, tau, CFG),
                      lambda k: eisenstein_fourier(k, 1.0, tau, CFG)):
            with pytest.raises(ValueError, match="k <= 130"):
                route(131)


def test_large_order_within_the_float_range_matches_the_oracle():
    # at v = 0.6 the disc keeps |z| <= 181.8, where z^120 stays finite
    tau = 0.1 + 0.6j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, points = _lattice_sum(120, 1.0, tau, 301)
    expected, count = _lattice_sum_complex_log(120, 1.0, tau, 301)
    assert points == count
    assert abs(got - expected) < 1e-13 * abs(expected)


def test_float_range_limits_are_typed_errors():
    # sigma_{2k+4s-1}(f) of the Fourier coefficients and |tau|^{-(k+1/2+2s)} of F
    # would overflow a float: both are refused up front, naming the limit
    with pytest.raises(ValueError, match=r"f\^\(2s-1\) <= 2\^1000"):
        eisenstein_fourier(2, 150.0, 1j, CFG)
    for kind in ("F", "H"):
        with pytest.raises(ValueError, match=r"\|tau\|\^-\(k\+1/2\+2s\) <= 2\^1000"):
            eisenstein_direct(kind, 130, 1.0, 0.001j, CFG)


def test_lattice_refuses_long_rows_before_allocating():
    # F at tau = 1e-9 i sums at -1/(4 tau) = 2.5e8 i: rows of 1.5e11 points
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"MAX_LATTICE_ROW = {MAX_LATTICE_ROW}"):
            eisenstein_direct("F", 2, 1.0, 1e-9j, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_fourier_route_computes_each_coefficient_once(monkeypatch):
    calls = []
    real = dirichlet_series.l_numeric

    def counted(chi, s):
        calls.append((chi.d, s))
        return real(chi, s)

    monkeypatch.setattr(dirichlet_series, "l_numeric", counted)
    series_closed.cache_clear()
    first = eisenstein_fourier(2, 1.0, 0.1 + 0.6j, CFG)
    once = len(calls)
    # one call per kept h != 0 with n = h = 0, 1 (mod 4)
    assert once == 40
    for tau in (0.3 + 0.9j, -0.2 + 1.4j, 0.1 + 0.6j):
        eisenstein_fourier(2, 1.0, tau, CFG)
    assert len(calls) == once
    assert eisenstein_fourier(2, 1.0, 0.1 + 0.6j, CFG) == first


def test_f_defining_relation():
    tau = (1 + 2j) / 2
    k, s = 2, 1.0
    lhs = eisenstein_direct("F", k, s, tau, CFG)
    w = -1 / (4 * tau)
    rhs = cmath.exp(-(k + 0.5) * cmath.log(tau)) * abs(tau) ** (-2 * s) \
        * eisenstein_direct("E", k, s, w, CFG)
    assert lhs == rhs  # same code path, defining relation


def _lattice_sum_complex_log(k, s, tau, M):
    """The lattice sum over the disc |m tau + n| <= (M + 2) v, with every power
    taken as exp(-(k+1/2) log z) |z|^{-2s}, and its points counted one by one."""
    radius = (M + 2) * tau.imag
    total, points = 0j, 0
    for m in range(1, M + 1, 2):
        ns = np.arange(math.floor(-m * tau.real - radius), math.ceil(-m * tau.real + radius) + 1)
        ns = ns[np.abs(m * tau + ns) <= radius]
        z = m * tau + ns
        terms = jacobi_row(m)[ns % m] * np.exp(-(k + 0.5) * np.log(z)) * np.abs(z) ** (-2.0 * s)
        total += epsilon_factor(m) ** (-2 * k - 1) * terms.sum()
        points += ns.size
    return complex(total), points


def test_lattice_sum_matches_complex_log_formula():
    rng = np.random.default_rng(10)
    taus = [complex(u, rng.uniform(0.6, 1.5)) for u in (-0.5, 0.5)]
    taus += [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.5)) for _ in range(2)]
    # F points -1/(4 tau) with |tau| up to 2: Im z is small and Re z < 0 dominates
    big = [2.0 * cmath.exp(1j * rng.uniform(0.3, pi - 0.3)) for _ in range(2)]
    taus += [-1.0 / (4.0 * t) for t in taus[:2] + big]
    # k = 0 makes no complex product and k = 5 makes five
    cases = [(k, s, tau, 61) for k, s in WORKLOAD_PAIRS + ((0, 1.0), (5, 0.5)) for tau in taus]
    # a class of rows m mod 4 longer than a block, so a block boundary falls
    # inside a row; then rows longer than a block
    cases += [(2, 1.0, 0.3 + 1.5j, 61), (0, 1.0, 0.3 + 1.5j, 61), (5, 0.5, 0.1 + 12j, 101)]
    assert _lattice_sum(0, 1.0, 0.3 + 1.5j, 61)[1] > 2 * eisenstein._BLOCK
    assert 2 * (101 + 2) * 12 > eisenstein._BLOCK
    for k, s, tau, M in cases:
        expected, count = _lattice_sum_complex_log(k, s, tau, M)
        got, points = _lattice_sum(k, s, tau, M)
        assert abs(got - expected) < 1e-13 * abs(expected), (k, s, tau)
        assert points == count, (k, s, tau)
        # E is 1-periodic, and tau + 7 keeps the same points of the disc
        shifted, moved = _lattice_sum(k, s, tau + 7, M)
        assert abs(shifted - got) < 1e-13 * abs(got) and moved == points, (k, s, tau)
    with pytest.raises(ValueError):
        eisenstein_direct("E", -1, 2.0, 1j, CFG)


def test_lattice_sum_memory_is_bounded():
    # the block buffers do not grow with the number of points, and the symbol
    # table depends on M alone: this keeps the benchmark's peak_rss_mb flat
    _lattice_sum(2, 1.0, 0.5 + 1.5j, 301)
    tracemalloc.start()
    try:
        _lattice_sum(2, 1.0, 0.5 + 1.5j, 301)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    sizes = []
    for tau in (0.5 + 1j, 200j):                     # rows of up to 127 and 25 201 points
        eisenstein._symbol_table.cache_clear()
        _lattice_sum(2, 1.0, tau, 61)
        assert eisenstein._symbol_table.cache_info().currsize == 1
        sizes.append(eisenstein._symbol_table(61).nbytes)
    assert sizes == [31 ** 2, 31 ** 2]


def _assert_tail_bound_covers_refinement(kinds):
    # every point of the rows up to 3M inside their larger disc that the rows up
    # to M leave out has |z| >= (M + 2) v, so the bound covers the difference
    for M in (61, 151):
        for tau in (complex(u, v) for u in (-0.5, 0.5) for v in (0.6, 1.5)):
            for k, s in WORKLOAD_PAIRS:
                for kind in kinds:
                    coarse = eisenstein_direct(kind, k, s, tau, CFG.with_(lattice_bound=M))
                    fine = eisenstein_direct(kind, k, s, tau, CFG.with_(lattice_bound=3 * M))
                    assert coarse.bound == lattice_tail_bound(k, s, tau, M, kind)
                    assert coarse.kind == "proof"
                    assert abs(coarse - fine) <= coarse.bound, (kind, k, s, tau, M)


def test_lattice_tail_estimate_bounds_refinement():
    _assert_tail_bound_covers_refinement("EF")
    # at 3e4 + i, |tau|^{-w} underflows and R^{-w} at -1/(4 tau) overflows on their own
    assert 0 < lattice_tail_bound(60, 1.0, 3e4 + 1j, 151, "F") < math.inf
    with pytest.raises(ValueError):
        lattice_tail_bound(1, 0.0, 1j, 151)
    with pytest.raises(ValueError):
        lattice_tail_bound(2, 1.0, 1j, 151, "X")


def test_h_lattice_tail_estimate_bounds_refinement():
    _assert_tail_bound_covers_refinement("H")


def test_dual_route_agreement():
    for (k, s) in ((1, 1.0), (2, 1.0)):
        for tau in (0.2 + 0.8j, 1j):
            direct = eisenstein_direct("H", k, s, tau, CFG)
            fourier = eisenstein_fourier(k, s, tau, CFG)
            assert abs(direct - fourier) / abs(direct) < 5e-3, (k, s, tau)


# H by the Fourier route at tau = 0.2 + 0.8i and -0.3 + 1.1i, as the earlier
# per-h loop computed it with Omega from two adaptive (scipy quad) quadratures
_QUAD_ROUTE_VALUES = (
    ((1, 1.0), ((-1.2749292322901342-0.0004226159514871624j), (-1.3070595243403376+2.88717800009037e-05j))),
    ((2, 1.0), ((0.13219390877623663-0.0007459366905592739j), (0.13306402368611284+7.684527116778232e-05j))),
    ((2, 0.5), ((0.03259554754207496-0.0005894257234302223j), (0.033111041099494455+7.421104402930563e-05j))),
    ((3, 0.25), ((-0.007953370168927418+9.29170978175704e-08j), (-0.007943018426183793-1.9494656556550547e-09j))),
    ((1, 0.75), ((-0.6122212178298213-0.0002555493992440566j), (-0.637918643157878+1.9133961188274326e-05j))),
    ((2, 0.25), ((0.016168112253290484-0.0005384755380414465j), (0.016519742551941715+7.457861810408738e-05j))),
)


def test_fourier_route_matches_quadrature_route():
    assert tuple(pair for pair, _ in _QUAD_ROUTE_VALUES) == WORKLOAD_PAIRS
    for (k, s), values in _QUAD_ROUTE_VALUES:
        for tau, before in zip((0.2 + 0.8j, -0.3 + 1.1j), values):
            now = eisenstein_fourier(k, s, tau, CFG)
            assert abs(now - before) <= 1e-13 * abs(before), (k, s, tau)


def test_fourier_route_against_hyperu_omega(monkeypatch):
    # with Omega from mpmath's U at 30 digits, H moves by rounding only, also
    # at v = 0.6, the lowest v of the workload, where the quadrature route
    # above was 1.2e-13 off
    rule = {(k, s): eisenstein_fourier(k, s, 0.1 + 0.6j, CFG) for k, s in ((1, 1.0), (1, 0.75))}

    def hyperu_omega(y, alpha, beta, cfg):
        with mpmath.workdps(30):
            value = np.array([float(mpmath.mpf(t) ** beta * mpmath.hyperu(beta, alpha + beta, t))
                              for t in y])
        return special_functions.OmegaValue(value, np.zeros_like(value))

    monkeypatch.setattr(special_functions, "omega", hyperu_omega)
    for (k, s), value in rule.items():
        oracle = eisenstein_fourier(k, s, 0.1 + 0.6j, CFG)
        assert abs(value - oracle) <= 1e-15 * abs(oracle), (k, s)


def test_weight_five_halves_q_expansion():
    tau = 1j
    q = cmath.exp(2j * pi * tau)
    series = sum(float(cohen_class_number(2, n)) * q ** n for n in range(31))
    fourier = eisenstein_fourier(2, 0.0, tau, CFG)
    assert abs(fourier - series) < 1e-10
    direct = eisenstein_direct("H", 2, 0.0, tau, CFG)
    assert abs(direct - series) < 1e-4


def test_principal_power_branch_conventions():
    # z^{k+1/2} = z^k sqrt(z), and the quotient of half powers collapses when
    # the arguments differ by an angle in (0, pi)
    rng = np.random.default_rng(8)
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3.0))
        k = int(rng.integers(1, 4))
        assert abs(cmath.exp((k + 0.5) * cmath.log(z)) - z ** k * cmath.sqrt(z)) \
            < 1e-12 * abs(z) ** (k + 0.5)
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.1, 2.0))
        g = random_words(rng, 1)[0]
        a, b, c, d = g.entries()
        num, den = a * tau + b, c * tau + d
        if 0 < cmath.phase(num) - cmath.phase(den) < pi:
            ratio = cmath.sqrt(num / den)
            split = cmath.sqrt(num) / cmath.sqrt(den)
            assert abs(ratio - split) < 1e-12 * abs(ratio)


def test_modularity_residuals():
    f = lambda t: eisenstein_direct("E", 2, 1.0, t, CFG)
    assert modularity_residual(f, 2, 1.0, IDENTITY, 0.2 + 0.9j) == 0
    shift = Gamma04Matrix(1, 1, 0, 1)
    # the Fourier route is 1-periodic by construction; the lattice sum only
    # up to its truncation window
    fser = lambda t: eisenstein_fourier(2, 1.0, t, CFG)
    assert modularity_residual(fser, 2, 1.0, shift, 0.2 + 0.9j) < 1e-12
    assert modularity_residual(f, 2, 1.0, shift, 0.2 + 0.9j) < 1e-8
    g = Gamma04Matrix(1, 0, 4, 1)
    assert modularity_residual(f, 2, 1.0, g, 0.1 + 0.9j) < 1e-3
    g2 = Gamma04Matrix(-3, -1, 4, 1)
    assert modularity_residual(f, 2, 1.0, g2, 0.1 + 0.9j) < 1e-3
    # F path, relative to the large Fricke magnitudes
    ff = lambda t: eisenstein_direct("F", 2, 1.0, t, CFG)
    for h in (g, g2):
        scale = max(1.0, abs(ff(h.apply(0.1 + 0.9j))))
        assert modularity_residual(ff, 2, 1.0, h, 0.1 + 0.9j) < 1e-3 * scale


def _words_by_dataclass(rng, count, require_b=False):
    """random_words as a product of validated Gamma04Matrix letters, one per draw."""
    alphabet = (eisenstein.SHIFT, eisenstein.LOWER, Gamma04Matrix(1, -1, 0, 1), Gamma04Matrix(1, 0, -4, 1))
    out = []
    while len(out) < count:
        g = IDENTITY
        for _ in range(rng.integers(1, 13)):
            g = g @ alphabet[rng.integers(0, 4)]
        if rng.random() < 0.5:
            g = -g
        if require_b and g.b == 0:
            continue
        out.append(g)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_random_words_match_the_dataclass_product(seed):
    for count, require_b in ((200, True), (50, False)):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        words = random_words(rng, count, require_b=require_b)
        assert words == _words_by_dataclass(oracle_rng, count, require_b)
        assert all(type(g) is Gamma04Matrix and type(g.a) is int for g in words)
        assert rng.random() == oracle_rng.random()        # the same draws, in the same order


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_eisenstein_routes_refuse_a_non_finite_s(monkeypatch, s):
    def refused(*args, **kwargs):
        raise AssertionError("lattice or Fourier work ran for a non-finite s")

    for name in ("_lattice_sum", "rho_kernel", "series_closed"):
        monkeypatch.setattr(eisenstein, name, refused)
    for kind in ("E", "F", "H"):
        with pytest.raises(ValueError, match=r"need a finite s, got s=-?(nan|inf)$"):
            eisenstein_direct(kind, 1, s, 0.2 + 0.8j)
    with pytest.raises(ValueError, match=r"need a finite s, got s=-?(nan|inf)$"):
        eisenstein_fourier(1, s, 0.2 + 0.8j)


@pytest.mark.parametrize("v", [3.0, 5.0, 20.0])
@pytest.mark.parametrize("k, s", [(1, 1.0), (2, 1.0), (2, 0.25)])
def test_fourier_route_is_finite_at_large_v(k, s, v):
    # from v = 2.8 on, e(h tau) at h = -40 would overflow where rho_h has underflowed
    # to 0, making the sum 0 * inf = nan; a RuntimeWarning fails this test
    tau = complex(0.3, v)
    fourier = eisenstein_fourier(k, s, tau, CFG)
    direct = eisenstein_direct("H", k, s, tau, CFG)
    assert math.isfinite(fourier.real) and math.isfinite(fourier.imag)
    assert abs(fourier - direct) <= 5e-3 * abs(direct)
