import cmath
import math
import random
import tracemalloc
import warnings
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mockform import dirichlet_series, eisenstein, special_functions

from mockform.config import EvalConfig, reduce_mod_one
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
    fourier_coefficients,
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
    rng = random.Random(5)
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
    rng = random.Random(12345)
    for g in random_words(rng, 1000, require_b=True):
        assert multiplier_identity_residual(g) < 1e-14, g


def test_cocycle_sign_and_shift():
    rng = random.Random(2)
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
    rng = random.Random(3)
    tau = 0.41 + 1.2j
    for _ in range(100):
        g1, g2 = random_words(rng, 2)
        lhs = automorphy_factor(g1 @ g2, tau)
        rhs = automorphy_factor(g1, g2.apply(tau)) * automorphy_factor(g2, tau)
        assert abs(lhs - rhs) < 1e-10


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), u=st.floats(-1.0, 1.0), v=st.floats(0.05, 3.0))
def test_automorphy_cocycle_over_random_words(seed, u, v):
    g1, g2 = random_words(random.Random(seed), 2)
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
    # of M = 301 at this tau, and at k = 130 on F's disc at 0.27i, which H keeps at M = 301
    # (|z| <= 280); from k = 131 zeta(1 - 2k) leaves the float range,
    # and both routes refuse such k before any work
    tau = 0.1 + 1.5j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, k, at in (("E", 120, tau), ("H", 130, 0.27j)):
            with pytest.raises(ValueError, match="overflows a float"):
                eisenstein_direct(kind, k, 1.0, at, CFG)
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
    # H at 0.1 + 1.5i sums its minor part E only to a disc where z^120 stays finite
    tau = 0.1 + 1.5j
    moduli = _h_moduli(120, 1.0, tau, 301)[0]
    assert moduli == {"E": moduli["E"], "F": 301} and 303 * 1.5 > 368 > (moduli["E"] + 2) * 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eisenstein_direct("H", 120, 1.0, tau, CFG)
    e = _lattice_sum_complex_log(120, 1.0, tau, moduli["E"])[0]
    f = (cmath.exp(-120.5 * cmath.log(tau)) * abs(tau) ** -2.0
         * _lattice_sum_complex_log(120, 1.0, -1 / (4 * tau), 301)[0])
    zk, i_odd = float(cohen_class_number(120, 0)) / 2 ** 241, 1j ** 241
    expected = zk * ((1 + i_odd) * e + i_odd * f)
    assert abs(got - expected) < 1e-13 * abs(expected) and got.bound < 1e-20


def test_float_range_limits_are_typed_errors():
    # sigma_{2k+4s-1}(f) of the Fourier coefficients and |tau|^{-(k+1/2+2s)} of F
    # would overflow a float, and from |tau| ~ 1.1e307 on the height of F's point
    # -1/(4 tau) leaves the normal float range (it is 0 at 1e308 i): all are refused
    # up front, naming the limit
    with pytest.raises(ValueError, match=r"f\^\(2s-1\) <= 2\^1000"):
        eisenstein_fourier(2, 150.0, 1j, CFG)
    for kind in ("F", "H"):
        with pytest.raises(ValueError, match=r"\|tau\|\^-\(k\+1/2\+2s\) <= 2\^1000"):
            eisenstein_direct(kind, 130, 1.0, 0.001j, CFG)
        with pytest.raises(ValueError, match="normal float range"):
            eisenstein_direct(kind, 1, 1.0, 1e308j, CFG)
    # a sum that leaves the float range is refused, not returned as inf or nan; at 0.5 + 0.1i
    # the Fourier route's terms grow past h = 400 before they fall, so its cut refuses first
    with pytest.raises(ValueError, match="overflows a float"):
        eisenstein_direct("H", 120, 0.0, 0.25 + 0.02j, CFG)
    with pytest.raises(ValueError, match="overflows a float"):
        eisenstein_fourier(130, 0.0, 0.5 + 0.8j, CFG)
    with pytest.raises(ValueError, match="eisenstein_fourier needs more than 400 terms at v = 0.1"):
        eisenstein_fourier(130, 0.0, 0.5 + 0.1j, CFG)


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
    # one call per kept h != 0 with n = h = 0, 1 (mod 4): the terms summed but h = 0
    assert once == first.terms - 1 == 9
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


def test_lattice_sum_memory_is_bounded(monkeypatch):
    # the block buffers do not grow with the number of points, and the symbol
    # table depends on the largest M alone: this keeps the benchmark's peak_rss_mb flat
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
        monkeypatch.setattr(eisenstein, "_symbols", np.zeros(0, np.int8))
        _lattice_sum(2, 1.0, tau, 61)
        sizes.append(eisenstein._symbols.nbytes)
    assert sizes == [31 ** 2, 31 ** 2]
    # a smaller M reads a prefix of the table, and a larger one extends it
    table = eisenstein._symbols
    _lattice_sum(2, 1.0, 0.5 + 1j, 31)
    assert eisenstein._symbols is table and eisenstein._symbol_table(31).base is table
    _lattice_sum(2, 1.0, 0.5 + 1j, 101)
    assert eisenstein._symbols.nbytes == 51 ** 2 and not eisenstein._symbols.flags.writeable
    assert np.array_equal(eisenstein._symbols[:31 ** 2], table)
    assert np.array_equal(eisenstein._symbols, np.concatenate([jacobi_row(m) for m in range(1, 102, 2)]))


def _assert_tail_bound_covers_refinement(kinds, taus):
    # every point of the rows up to 3M inside their larger disc that the rows up
    # to M leave out has |z| >= (M + 2) v, so the bound covers the difference
    for M in (61, 151):
        for tau in taus:
            for k, s in WORKLOAD_PAIRS:
                for kind in kinds:
                    coarse = eisenstein_direct(kind, k, s, tau, CFG.with_(lattice_bound=M))
                    fine = eisenstein_direct(kind, k, s, tau, CFG.with_(lattice_bound=3 * M))
                    if kind != "H":
                        assert coarse.bound == lattice_tail_bound(k, s, tau, M, kind)
                    assert abs(coarse - fine) <= coarse.bound, (kind, k, s, tau, M)


def test_lattice_tail_estimate_bounds_refinement():
    _assert_tail_bound_covers_refinement("EF", [complex(u, v) for u in (-0.5, 0.5) for v in (0.6, 1.5)])
    # at 3e4 + i, |tau|^{-w} underflows and R^{-w} at -1/(4 tau) overflows on their own
    assert 0 < lattice_tail_bound(60, 1.0, 3e4 + 1j, 151, "F") < math.inf
    with pytest.raises(ValueError):
        lattice_tail_bound(1, 0.0, 1j, 151)
    for kind in ("H", "X"):                             # H's bound is its parts', from eisenstein_direct
        with pytest.raises(ValueError, match="unknown kind"):
            lattice_tail_bound(2, 1.0, 1j, 151, kind)


def _reduced_cell_diameter(tau):
    cell = complex(2 * tau.real - round(2 * tau.real), 2 * tau.imag)
    return max(abs(cell + 1), abs(cell - 1))


def test_lattice_tail_bound_counts_half_the_coset():
    # the summed points m tau + n (m >= 1 odd) are half of the coset tau + Z 2 tau + Z,
    # which z -> -z maps onto itself with no real point: a disc about 0 of radius r
    # holds at most pi (r + delta)^2 / (4v) of them
    for tau in (0.5j, 1j, 0.3 + 0.6j, -0.5 + 1.5j, 0.45 + 0.1j):
        u, v = tau.real, tau.imag
        delta = _reduced_cell_diameter(tau)
        for r in (0.5, 1.0, 3.0, 10.0, 25.0):
            count = sum(1 for m in range(1, int(r / v) + 1, 2)
                        for n in range(math.floor(-m * u - r), math.ceil(-m * u + r) + 1)
                        if abs(m * tau + n) <= r)
            assert count <= pi * (r + delta) ** 2 / (4 * v), (tau, r)
    # the bound is that count's Stieltjes integral beyond R = (M + 2) v, in closed form
    for tau in (1j, 0.3 + 0.6j, 0.45 + 0.1j):
        for k, s in WORKLOAD_PAIRS:
            w, R, delta = k + 0.5 + 2 * s, 63 * tau.imag, _reduced_cell_diameter(tau)
            expected = w * pi / (4 * tau.imag) * (R ** (2 - w) / (w - 2) + 2 * delta * R ** (1 - w) / (w - 1)
                                                  + delta ** 2 * R ** -w / w)
            assert lattice_tail_bound(k, s, tau, 61) == pytest.approx(expected, rel=1e-12)


def test_even_lattice_bound_is_refused():
    # at an even M the rows stop at M - 1, so points of row M + 1 inside the disc
    # |z| <= (M + 2) v would be dropped below the radius the bound assumes: at
    # tau = i and M = 60, the 23 points of row 61 with |z| < 62
    assert sum(1 for n in range(-62, 63) if abs(61j + n) < 62) == 23
    with pytest.raises(ValueError, match="lattice_bound must be odd, got 60"):
        EvalConfig(lattice_bound=60)
    with pytest.raises(ValueError, match="lattice_bound must be odd, got 2"):
        CFG.with_(lattice_bound=2)
    assert EvalConfig(lattice_bound=61).lattice_bound == 61


# H's grid: |tau| < 1/2, and about 0.1, where E's share of the bound is the larger; v from 0.1 to 1.5
H_TAUS = (0.05 + 0.1j, 0.1 + 0.25j, -0.3 + 0.3j, 0.2 + 0.4j, -0.5 + 0.6j, 0.5 + 0.6j, 0.05 + 1j,
          -0.5 + 1.5j, 0.5 + 1.5j)


def test_h_lattice_tail_estimate_bounds_refinement():
    _assert_tail_bound_covers_refinement("H", H_TAUS)


def _h_moduli(k, s, tau, M):
    """The moduli H sums E and F to, by a linear scan: the part with the larger share of H's
    bound (sqrt 2 bound_E against bound_F) keeps M, the other takes the smallest odd M' <= M
    whose share is at most a quarter of that, else M."""
    share = {"E": lambda m: sqrt(2.0) * lattice_tail_bound(k, s, tau, m, "E"),
             "F": lambda m: lattice_tail_bound(k, s, tau, m, "F")}
    major = "E" if share["E"](M) >= share["F"](M) else "F"
    minor = "EF".replace(major, "")
    moduli = {major: M, minor: next((m for m in range(1, M, 2) if share[minor](m) <= share[major](M) / 4), M)}
    return moduli, major, minor, share


def test_h_sums_its_minor_part_to_the_smallest_modulus_within_a_quarter():
    shrunk, majors = 0, set()
    for M in (61, 151, 301):
        for tau in H_TAUS + (0.2 + 0.8j, -0.3 + 1.1j):
            for k, s in WORKLOAD_PAIRS:
                moduli, major, minor, share = _h_moduli(k, s, tau, M)
                h = eisenstein_direct("H", k, s, tau, CFG.with_(lattice_bound=M))
                e, f = (eisenstein_direct(part, k, s, tau, CFG.with_(lattice_bound=moduli[part])) for part in "EF")
                zk, i_odd = float(cohen_class_number(k, 0)) / 2 ** (2 * k + 1), 1j ** (2 * k + 1)
                assert complex(h) == zk * ((1 + i_odd) * e + i_odd * f), (k, s, tau, M)
                assert h.terms == e.terms + f.terms
                assert h.bound == abs(zk) * (sqrt(2.0) * e.bound + f.bound)
                # M' <= M is minimal: at M' - 2 the minor share would pass a quarter of the major's
                m = moduli[minor]
                assert m <= M and m % 2 == 1
                assert m == 1 or share[minor](m - 2) > share[major](M) / 4
                # so the bound grows by at most a quarter over both parts at M
                single = abs(zk) * (share["E"](M) + share["F"](M))
                assert single <= h.bound <= 1.25 * single, (k, s, tau, M)
                shrunk += m < M
                majors.add(major)
    assert majors == {"E", "F"} and shrunk > 150             # of 198 cases
    # far below M the minor part's bound can leave the float range: such an M' is too small
    tau = 0.3 + 0.002j
    with pytest.raises(OverflowError):
        lattice_tail_bound(2, 100.0, tau, 1)
    h = eisenstein_direct("H", 2, 100.0, tau, CFG)
    single = 2 ** -5 / 120 * (sqrt(2.0) * lattice_tail_bound(2, 100.0, tau, 301)
                              + lattice_tail_bound(2, 100.0, tau, 301, "F"))
    assert cmath.isfinite(h) and single < h.bound <= 1.25 * single


def test_h_sums_its_minor_part_first(monkeypatch):
    # at v = 1000 and s = 150 both shares of H's bound underflow to 0 at M = 301, so E keeps
    # M = 301 and F sums to M' = 47, where its share underflows; F's overflow at -1/(4 tau) is
    # refused before E's disc (151 rows of up to 606 001 points, about 8 s) is summed
    calls = []
    real = eisenstein._lattice_sum

    def counted(k, s, tau, M):
        calls.append((tau, M))
        return real(k, s, tau, M)

    monkeypatch.setattr(eisenstein, "_lattice_sum", counted)
    tau = 0.37 + 1000j
    assert _h_moduli(1, 150.0, tau, 301)[0] == {"E": 301, "F": 47}
    with pytest.raises(ValueError, match="overflows a float"):
        eisenstein_direct("H", 1, 150.0, tau, CFG)
    assert calls == [(-1.0 / (4.0 * tau), 47)]


def test_h_minor_part_builds_no_symbol_table(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return jacobi_row(m)

    monkeypatch.setattr(eisenstein, "jacobi_row", counted)
    monkeypatch.setattr(eisenstein, "_symbols", np.zeros(0, np.int8))
    tau = 0.2 + 0.8j
    moduli, major, minor, _ = _h_moduli(2, 1.0, tau, 301)
    assert (major, minor) == ("F", "E") and moduli["E"] < 301
    eisenstein_direct("H", 2, 1.0, tau, CFG)
    assert calls == list(range(1, 302, 2))              # each row once, for the part that keeps M
    for tau in (0.2 + 0.8j, -0.3 + 1.1j, 0.1 + 0.25j):
        eisenstein_direct("H", 2, 1.0, tau, CFG)
    assert len(calls) == 151


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
        value = np.array([float(oracles.omega(t, alpha, beta)) for t in y])
        return special_functions.OmegaValue(value, np.zeros_like(value))

    monkeypatch.setattr(special_functions, "omega", hyperu_omega)
    for (k, s), value in rule.items():
        oracle = eisenstein_fourier(k, s, 0.1 + 0.6j, CFG)
        assert abs(value - oracle) <= 1e-15 * abs(oracle), (k, s)


# (k, s, tau) at which both routes meet H from the 30-digit Fourier oracle
_ORACLE_POINTS = [(1, 1.0, 0.2 + 0.8j), (2, 1.0, 0.2 + 0.8j), (2, 0.25, -0.3 + 1.1j),
                  (1, 0.75, 0.45 + 0.6j)]


@pytest.mark.parametrize("k, s, tau", _ORACLE_POINTS)
def test_fourier_route_meets_the_oracle(k, s, tau):
    # measured gaps up to 2.0e-16 |H|; 1e-15 |H| is a stated allowance for the route's
    # rounding, which no bound covers yet.  The oracle takes zeta(1 - 2k) from mpmath,
    # so this sees a fault in the factor that both routes share.
    oracle = oracles.eisenstein_h(k, s, tau)
    assert abs(eisenstein_fourier(k, s, tau, CFG) - oracle) <= 1e-15 * abs(oracle)


@pytest.mark.parametrize("k, s, tau", _ORACLE_POINTS)
def test_direct_bound_covers_its_error_against_the_oracle(k, s, tau):
    # measured errors 3.6e-10 to 1.0e-6 against bounds 5.1e-8 to 3.4e-3
    value = eisenstein_direct("H", k, s, tau, CFG)
    assert abs(value - oracles.eisenstein_h(k, s, tau)) <= value.bound


@pytest.mark.parametrize("v", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("k, s", WORKLOAD_PAIRS + ((2, 0.0), (1, 2.5), (2, 4.0)))
def test_fourier_term_bounds_cover_every_term(monkeypatch, k, s, v):
    # the term bounds eisenstein_fourier hands _truncate, above and below h = 0, stay above
    # |c_h e(h tau)| = |c_h| e^{-2 pi h v} well past the cut, and their ratios do not increase
    real, bounds = eisenstein._truncate, []

    def capture(series, term, *args):
        bounds.append(term)
        return real(series, term, *args)

    monkeypatch.setattr(eisenstein, "_truncate", capture)
    eisenstein_fourier(k, s, complex(0.1, v), CFG)
    assert len(bounds) == (2 if s > 0 else 1)
    js = np.arange(1, 41)
    for sign, term in zip((1, -1), bounds):
        t = np.array([term(int(j)) for j in js])
        moduli = np.abs(fourier_coefficients(k, s, v, sign * js, CFG)[0]) * np.exp(-2 * pi * js * v)
        assert np.all(moduli <= t), (sign, np.max(moduli / t))
        assert np.all(t[2:] * t[:-2] <= t[1:-1] ** 2 * (1 + 1e-12)), sign


# each (k, s, Re tau) of _ORACLE_POINTS at its own height and at three lower ones, where the cut
# keeps up to 147 h a side
_FOURIER_GRID = [(k, s, tau) for k, s, point in _ORACLE_POINTS
                 for tau in (point, *(complex(point.real, v) for v in (0.3, 0.1, 0.05)))]


@pytest.mark.parametrize("k, s, tau", _FOURIER_GRID)
def test_fourier_bound_covers_its_error_against_the_oracle(monkeypatch, k, s, tau):
    # the bound holds the two tails and Omega's bounds; 1e-15 |H| is the stated allowance for the
    # rounding of the rest.  E_n comes from the oracle, rounded once: series_closed's own rounding
    # (zeta(5)/zeta(6) is 2.1e-15 off) reads 2.3e-15 |H| at (1, 1, 0.2 + 0.3i), as at |h| <= 40,
    # and no bound counts it yet
    dps = oracles.DPS if tau.imag > 0.5 else 20
    oracle = oracles.eisenstein_h(k, s, tau, dps)
    monkeypatch.setattr(eisenstein, "series_closed", lambda n, t: float(oracles.dirichlet_series(n, t, dps)))
    value = eisenstein_fourier(k, s, tau, CFG)
    assert abs(value - oracle) <= value.bound + 1e-15 * abs(oracle), (value.bound, value.terms)


@pytest.mark.parametrize("k, s", [(1, 1.0), (2, 0.25)])
def test_fourier_route_at_small_v_meets_the_direct_route_or_refuses(k, s):
    # |h| <= 40 was 1.04 and 0.29 off here, relative, with exit 0; the cut needs more than
    # 400 terms a side, so the route refuses
    tau = 0.1 + 0.02j
    try:
        fourier = eisenstein_fourier(k, s, tau, CFG)
    except ValueError as exc:
        assert "eisenstein_fourier needs more than 400 terms at v = 0.02" in str(exc)
        return
    direct = eisenstein_direct("H", k, s, tau, CFG.with_(lattice_bound=1201))
    assert abs(fourier - direct) <= fourier.bound + direct.bound


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
    rng = random.Random(8)
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3.0))
        k = rng.randrange(1, 4)
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
        for _ in range(rng.randrange(1, 13)):
            g = g @ alphabet[rng.randrange(4)]
        if rng.random() < 0.5:
            g = -g
        if require_b and g.b == 0:
            continue
        out.append(g)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_random_words_match_the_dataclass_product(seed):
    for count, require_b in ((200, True), (50, False)):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
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


def test_both_routes_reduce_tau_mod_one():
    # F is summed at -1/(4 tau) of the reduced tau: unreduced, H at 10^6 + 0.3 + 0.5i had
    # the bound 2e26, and at 10^300 + i the height of -1/(4 tau) underflowed to 0
    tau = 1e6 + 0.3 + 0.5j
    direct, reduced = (eisenstein_direct("H", 1, 1.0, t, CFG) for t in (tau, reduce_mod_one(tau)))
    assert (direct, direct.bound, direct.terms) == (reduced, reduced.bound, reduced.terms)
    assert direct.bound < 1e-3 and abs(direct - eisenstein_fourier(1, 1.0, tau, CFG)) < 5e-3
    for kind in ("E", "F", "H"):
        value = eisenstein_direct(kind, 2, 1.0, 1e300 + 1j, CFG)
        assert value == eisenstein_direct(kind, 2, 1.0, 1j, CFG) and math.isfinite(value.bound), kind
    tau = 1e9 + 0.3 + 0.06j
    assert eisenstein_fourier(2, 1.0, tau, CFG) == eisenstein_fourier(2, 1.0, reduce_mod_one(tau), CFG)
