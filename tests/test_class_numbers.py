import cmath
import json
import tracemalloc
from fractions import Fraction
from math import isqrt, pi
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mockform import class_numbers, cli, maass, verify
from mockform.arithmetic import divisors, is_fundamental_discriminant
from mockform.cache import read_table, write_table
from mockform.characters import QuadraticCharacter, l_exact_neg
from mockform.class_numbers import (
    MAX_TABLE_N,
    ClassNumberTable,
    build_table,
    cohen_class_number,
    formula_sixths,
    hurwitz_class_number,
    hurwitz_table,
    t_chi,
)
from mockform.maass import completed_hurwitz_series, hurwitz_truncation


class QuadraticForm(NamedTuple):
    """Reduced integral form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def reduced_forms(N: int) -> list[QuadraticForm]:
    """All reduced forms of discriminant -N, for N = 0, 3 (mod 4), N > 0.

    Reduced means a > 0, |b| <= a <= c, with b >= 0 whenever |b| = a or a = c.
    Enumeration runs b over |b| <= sqrt(N/3) in the parity class b^2 = -N
    (mod 4) and factors (b^2 + N)/4 = a c.
    """
    if N <= 0 or N % 4 in (1, 2):
        raise ValueError(f"need N = 0,3 (mod 4), N > 0, got {N}")
    forms = []
    b = N % 2
    while 3 * b * b <= N:
        m = (b * b + N) // 4
        for a in divisors(m):
            if a * a > m:
                break
            c = m // a
            if a < max(b, 1):
                continue
            forms.append(QuadraticForm(a, b, c))
            if 0 < b < a and a < c:
                forms.append(QuadraticForm(a, -b, c))
        b += 2
    return sorted(forms)


def hurwitz_by_forms(N: int) -> Fraction:
    """H(N) from the reduced forms of discriminant -N alone, the per-N oracle."""
    if N == 0:
        return Fraction(-1, 12)
    if N % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    for fm in reduced_forms(N):
        if fm.b == 0 and fm.a == fm.c:
            total += Fraction(1, 2)
        elif fm.a == fm.b == fm.c:
            total += Fraction(1, 3)
        else:
            total += 1
    return total


# classical values H(0..24)
KNOWN = {0: Fraction(-1, 12), 3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1,
         11: 1, 12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 19: 1, 20: 2,
         23: 3, 24: 2}


def test_reduced_forms_examples():
    assert reduced_forms(3) == [QuadraticForm(1, 1, 1)]
    assert reduced_forms(4) == [QuadraticForm(1, 0, 1)]
    assert reduced_forms(23) == [QuadraticForm(1, 1, 6), QuadraticForm(2, -1, 3),
                                 QuadraticForm(2, 1, 3)]
    with pytest.raises(ValueError):
        reduced_forms(5)


def test_reduced_forms_invariants():
    for N in [n for n in range(3, 600) if n % 4 in (0, 3)]:
        forms = reduced_forms(N)
        assert len(set(forms)) == len(forms)
        for fm in forms:
            assert fm.discriminant == -N
            assert fm.a > 0 and abs(fm.b) <= fm.a <= fm.c
            if abs(fm.b) == fm.a or fm.a == fm.c:
                assert fm.b >= 0


def test_hurwitz_known_values():
    for n, value in KNOWN.items():
        assert hurwitz_class_number(n) == value
        assert hurwitz_by_forms(n) == value
    assert hurwitz_class_number(1) == 0
    assert hurwitz_class_number(2) == 0


def test_hurwitz_structure():
    for n in range(1, 800):
        h = hurwitz_class_number(n)
        if n % 4 in (1, 2):
            assert h == 0
        else:
            assert h > 0
            assert 6 % h.denominator == 0
        assert 12 % h.denominator == 0


def test_t_chi():
    chi1 = QuadraticCharacter(1)
    chi3 = QuadraticCharacter(-3)
    assert all(t_chi(s, chi3, 1) == 1 for s in (1, 2, 3))
    for f in range(1, 51):
        assert t_chi(1, chi1, f) == f
    assert t_chi(2, chi3, 2) == 11  # sigma_3(2) + mu(2) chi(2) 2 = 9 + 2


def test_cohen_class_number():
    assert cohen_class_number(2, 0) == Fraction(1, 120)
    assert cohen_class_number(2, 1) == Fraction(-1, 12)
    assert cohen_class_number(2, 2) == 0  # (-1)^2 2 = 2 (mod 4)
    assert cohen_class_number(3, 1) == 0  # (-1)^3 1 = 3 (mod 4)
    assert cohen_class_number(3, 0) == Fraction(-1, 252)
    # weight 5/2 expansion coefficients
    expected = {0: Fraction(1, 120), 1: Fraction(-1, 12), 4: Fraction(-7, 12),
                5: Fraction(-2, 5), 8: -1, 9: Fraction(-25, 12), 12: -2}
    for n, val in expected.items():
        assert cohen_class_number(2, n) == val


def test_cohen_reduces_to_hurwitz():
    for n in range(0, 800):
        assert cohen_class_number(1, n) == hurwitz_class_number(n), n


def test_build_table():
    table = build_table(24)
    for n, value in KNOWN.items():
        assert table.value(n) == value
    assert table.max_n == 24
    assert build_table(0).value(0) == Fraction(-1, 12)
    with pytest.raises(ValueError):
        table.value(25)


def test_table_validation():
    for row in ([], np.zeros((2, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match="a table needs a row"):
            ClassNumberTable(row)
    good = class_numbers._sixths_by_forms(40)
    table = ClassNumberTable(good)
    assert table == build_table(40)
    # a tampered int64 row: a wrong class number, a sign
    for n, six in ((23, 24), (5, 1), (8, -6)):
        row = good.copy()
        row[n] = six
        with pytest.raises(ValueError, match=rf"^H\({n}\) = {Fraction(six, 6)} is not the Hurwitz class number$"):
            ClassNumberTable(row)


@pytest.mark.parametrize("six_h3", [2.9, 2.5, 2.0], ids=["float-2.9", "float-2.5", "float-2.0"])
def test_table_refuses_a_float_row(six_h3):
    row = class_numbers._sixths_by_forms(40).astype(np.float64)
    row[3] = six_h3                              # a cast would read 2.9 and 2.5 as H(3) = 1/3
    with pytest.raises(TypeError, match="integers that fit int64, got dtype float64"):
        ClassNumberTable(row)


def test_table_refuses_integers_beyond_int64():
    row = class_numbers._sixths_by_forms(40).astype(np.uint64)
    assert ClassNumberTable(row) == build_table(40)          # an unsigned row that fits is read as is
    row[3] = 2 ** 64 - 6                         # a cast would wrap it to -6
    with pytest.raises(TypeError, match="got dtype uint64"):
        ClassNumberTable(row)
    with pytest.raises(TypeError, match="got dtype object"):
        ClassNumberTable([0, 0, 0, 2 ** 70 + 2])
    with pytest.raises(TypeError, match="got dtype bool"):
        ClassNumberTable(np.zeros(5, dtype=bool))


def test_negative_n_names_the_function_called():
    with pytest.raises(ValueError, match=r"^hurwitz_table requires N >= 0$"):
        hurwitz_table(-1)
    with pytest.raises(ValueError, match=r"^hurwitz_class_number requires N >= 0$"):
        hurwitz_class_number(-1)


def test_table_holds_a_read_only_copy_of_its_row():
    row = class_numbers._sixths_by_forms(40)
    table = ClassNumberTable(row)
    row[23] = 24                                 # the caller's row stays the caller's
    assert table.value(23) == 3
    with pytest.raises(ValueError, match="read-only"):
        table.sixths[23] = 24


@pytest.mark.parametrize("n", [2.5, 3.0, float("nan"), "3", Fraction(3)])
def test_non_integer_n_is_refused(n):
    table = build_table(40)
    assert table.value(3) == hurwitz_class_number(3) == Fraction(1, 3)   # a cached int key
    for lookup in (table.value, hurwitz_class_number):
        with pytest.raises(TypeError):
            lookup(n)
    assert table.value(np.int64(3)) == Fraction(1, 3)


def test_cached_integer_keys_of_other_types_answer_no_float():
    assert hurwitz_class_number(np.int64(3)) == Fraction(1, 3)
    assert hurwitz_class_number(True) == 0
    for n in (3.0, 1.0):
        with pytest.raises(TypeError):
            hurwitz_class_number(n)


def test_one_pass_table_matches_per_n_enumeration():
    # the oracle enumerates reduced_forms(N) for each N separately
    sixths = class_numbers._sixths_by_forms(2000)
    for n in range(1, 2001):
        assert sixths[n] == 6 * hurwitz_by_forms(n), n
        assert hurwitz_class_number(n) == hurwitz_by_forms(n), n


def first_wrong_entry_by_loop(sixths: np.ndarray) -> int | None:
    """class_numbers._first_wrong_entry with sigma_1 and lambda from one loop over t <= sqrt(N).

    Each t adds its divisor pairs (t, e), e >= t, by strided slices, and corrects
    n = t^2 inside the loop; the oracle of divisor_sums within the certificate.
    """
    N = len(sixths) - 1
    twelfths = np.concatenate(([-1], 2 * sixths[1:]))
    theta_sum, pair = twelfths.copy(), 2 * twelfths
    sigma, lam = np.zeros((2, N + 1), dtype=np.int64)
    for t in range(1, isqrt(N) + 1):
        theta_sum[t * t:] += pair[:N + 1 - t * t]
        sigma[t * t::t] += t + np.arange(t, N // t + 1)
        lam[t * t::t] += 2 * t
        sigma[t * t] -= t
        lam[t * t] -= t
    n = np.arange(N + 1)
    residue = n % 4
    relation = np.where(residue == 0, 24 * sigma[n // 4] - 12 * lam[n // 4], 4 * sigma - 6 * lam)
    wrong = np.where(np.isin(residue, (0, 3)), sixths <= 0, sixths != 0)
    wrong |= (residue != 2) & (theta_sum != relation)
    bad = np.flatnonzero(wrong[1:])
    return int(bad[0]) + 1 if bad.size else None


FORMS_ROW = class_numbers._sixths_by_forms(5000)
TAMPERINGS = (1, -1, 6, -6, 2 ** 62, -(2 ** 62))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5000), st.data())
def test_certificate_matches_the_per_t_loop(N, data):
    sixths = FORMS_ROW[:N + 1].copy()
    if N:
        for n, delta in data.draw(st.lists(st.tuples(st.integers(1, N), st.sampled_from(TAMPERINGS)),
                                           max_size=2, unique_by=lambda change: change[0])):
            sixths[n] += delta
    expected = first_wrong_entry_by_loop(sixths)
    assert class_numbers._first_wrong_entry(sixths) == expected


def test_certificate_matches_the_per_t_loop_on_single_changes():
    for n in (None, 1, 3, 2000, 4999, 5000):
        sixths = FORMS_ROW.copy()
        if n:
            sixths[n] -= 6
        assert class_numbers._first_wrong_entry(sixths) == first_wrong_entry_by_loop(sixths) == n


def test_relations_report_every_single_entry_change_at_its_index():
    sixths = class_numbers._sixths_by_forms(1000)
    assert class_numbers._first_wrong_entry(sixths) is None
    # +-2^62 sixths make the twelfths wrap around int64; the pinned entry still shows
    for n in range(1, 1001):
        for delta in (1, -1, 6, 2 ** 62, -(2 ** 62)):
            tampered = sixths.copy()
            tampered[n] += delta
            assert class_numbers._first_wrong_entry(tampered) == n, (n, delta)


def test_forms_row_satisfies_the_class_number_relations():
    # both sides by definition: sum_t 12 H(m - t^2) as one convolution with theta
    N = 20000
    twelfths = 2 * class_numbers._sixths_by_forms(N)
    twelfths[0] = -1
    theta = np.zeros(N + 1, dtype=np.int64)
    theta[np.arange(isqrt(N) + 1) ** 2] = 2
    theta[0] = 1
    lhs = np.convolve(twelfths, theta)[:N + 1]
    sigma = np.zeros(N + 1, dtype=np.int64)
    lam = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        m = np.arange(d, N + 1, d)
        sigma[m] += d
        lam[m] += np.minimum(d, m // d)
    n = np.arange(1, N // 4 + 1)
    assert np.array_equal(lhs[4 * n], 24 * sigma[n] - 12 * lam[n])         # R1
    odd = np.arange(1, N + 1, 2)
    assert np.array_equal(lhs[odd], 4 * sigma[odd] - 6 * lam[odd])         # R2


def test_oversized_tables_are_refused_before_allocating():
    tracemalloc.start()
    for build in (build_table, hurwitz_class_number):
        with pytest.raises(ValueError, match=f"MAX_TABLE_N = {MAX_TABLE_N}"):
            build(10 ** 15)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20


def test_oversized_rows_are_refused_before_certifying(monkeypatch):
    calls = []
    monkeypatch.setattr(class_numbers, "_first_wrong_entry", lambda row: calls.append(row.size))
    with pytest.raises(ValueError, match=f"to n={MAX_TABLE_N + 1} is longer than MAX_TABLE_N = {MAX_TABLE_N}"):
        ClassNumberTable(np.zeros(MAX_TABLE_N + 2, np.int64))
    assert calls == []


@pytest.fixture
def empty_row(monkeypatch):
    """An H(0)-only table and an empty hurwitz_class_number cache, restored afterwards."""
    monkeypatch.setattr(class_numbers, "_table", build_table(0))
    hurwitz_class_number.cache_clear()
    yield
    hurwitz_class_number.cache_clear()


def test_single_values_refuse_a_faulty_enumeration(monkeypatch, empty_row):
    sixths = class_numbers._sixths_by_forms

    def tampered(max_n):
        out = sixths(max_n)
        out[23] += 6
        return out

    monkeypatch.setattr(class_numbers, "_sixths_by_forms", tampered)
    with pytest.raises(ArithmeticError, match=r"relations: H\(23\) = 4 is not the Hurwitz class number$"):
        hurwitz_class_number(23)
    with pytest.raises(ArithmeticError, match=r"H\(23\) = 4 "):
        completed_hurwitz_series(0.1 + 0.05j)
    assert class_numbers._table.max_n == 0


def test_one_evaluation_builds_the_row_once(monkeypatch, empty_row):
    calls = []
    sixths = class_numbers._sixths_by_forms

    def counted(max_n):
        calls.append(max_n)
        return sixths(max_n)

    monkeypatch.setattr(class_numbers, "_sixths_by_forms", counted)
    N, _ = hurwitz_truncation(0.05, 1e-10)
    completed_hurwitz_series(0.3 + 0.05j)
    assert calls == [127] and N == 91          # the next power of two >= N + 1, once
    completed_hurwitz_series(0.1 + 0.05j)
    assert len(calls) == 1


def test_bulk_consumers_read_the_row_without_fractions(monkeypatch, empty_row, tmp_path, capsys):
    def refused(*args):
        raise AssertionError("a bulk consumer built a Fraction")

    monkeypatch.setattr(class_numbers, "Fraction", refused)
    completed_hurwitz_series(0.3 + 0.05j)
    write_table(tmp_path / "table.txt", build_table(100))
    assert cli.main(["hurwitz", "--max", "100", "--no-cache", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][100] == {"n": 100, "value": "5/2"}


def test_every_row_is_certified_once(monkeypatch, empty_row, tmp_path):
    calls = []
    first_wrong = class_numbers._first_wrong_entry

    def counted(sixths):
        calls.append(len(sixths) - 1)
        return first_wrong(sixths)

    monkeypatch.setattr(class_numbers, "_first_wrong_entry", counted)
    table = build_table(3000)
    assert calls == [3000]
    path = tmp_path / "table.txt"
    write_table(path, table)
    assert calls == [3000]
    assert read_table(path) == table and calls == [3000, 3000]
    calls.clear()
    for n in (5, 7, 3, 8, 200, 100, 255, 256):  # grows at 5, 8, 200 and 256
        hurwitz_class_number(n)
    assert calls == [7, 15, 255, 511]


@pytest.mark.parametrize("tau", [0.05j, 0.3 + 0.05j, -0.4 + 0.2j, 0.25 + 1j, 2.0 + 3j])
def test_holomorphic_part_matches_per_n_oracle(tau):
    # the loop of completed_hurwitz_series, with H(n) from the per-N oracle
    N, _ = hurwitz_truncation(tau.imag, 1e-10)
    q = cmath.exp(2j * pi * (tau - round(tau.real)))        # the series reduces tau mod 1
    holo = complex(-1.0 / 12.0)
    qn = 1.0 + 0j
    for n in range(1, N + 1):
        qn *= q
        h = hurwitz_by_forms(n)
        if h:
            holo += float(h) * qn
    assert completed_hurwitz_series(tau).holomorphic_part == holo


def test_formula_cross_check_reports_first_mismatch(monkeypatch):
    def record():
        (rec,) = [r for r in verify.verify_dirichlet(max_n=40)
                  if r.check_name == "hurwitz_formula_cross_check"]
        return rec

    formula = verify.formula_sixths

    def tampered_formula(max_n):
        out = formula(max_n)
        out[[23, 31]] = 24                      # 6 H(23) = 6 H(31) = 18
        return out

    monkeypatch.setattr(verify, "formula_sixths", tampered_formula)
    rec = record()
    assert not rec.passed and rec.parameters == {"max_n": 40, "first_mismatch": 23}
    monkeypatch.undo()

    sixths = class_numbers._sixths_by_forms

    def tampered(max_n):
        out = sixths(max_n)
        out[23] += 6
        return out

    monkeypatch.setattr(class_numbers, "_sixths_by_forms", tampered)
    with pytest.raises(ArithmeticError, match=r"relations: H\(23\) = 4 is not the Hurwitz class number$"):
        build_table(40)


def test_verify_dirichlet_cross_check_record(monkeypatch):
    def record():
        (rec,) = [r for r in verify.verify_dirichlet(max_n=300)
                  if r.check_name == "hurwitz_formula_cross_check"]
        return rec

    rec = record()
    assert rec.passed and rec.parameters == {"max_n": 300, "first_mismatch": None}
    sixths = class_numbers._sixths_by_forms

    def tampered(max_n):
        out = sixths(max_n)
        out[[23, 31]] += 6
        return out

    monkeypatch.setattr(verify, "_sixths_by_forms", tampered)
    rec = record()
    assert not rec.passed and rec.parameters["first_mismatch"] == 23


def test_formula_sixths_matches_enumeration():
    formula = formula_sixths(5000)
    assert formula.dtype == np.int64 and formula[0] == 0
    assert np.array_equal(formula[1:], class_numbers._sixths_by_forms(5000)[1:])


def test_formula_sixths_matches_scalar_formula():
    formula = formula_sixths(800)
    for n in range(1, 801):
        assert formula[n] == 6 * cohen_class_number(1, n), n
    assert formula_sixths(0).tolist() == [0]
    assert formula_sixths(4).tolist() == [0, 0, 0, 2, 3]


def test_formula_sixths_matches_forms_across_blocks(monkeypatch):
    blocks = []
    fill = class_numbers._formula_block

    def recorded(sixths, modulus, *rest):
        blocks.append(modulus)
        fill(sixths, modulus, *rest)

    monkeypatch.setattr(class_numbers, "_formula_block", recorded)
    assert np.array_equal(formula_sixths(9000)[1:], class_numbers._sixths_by_forms(9000)[1:])
    # every fundamental |d| once, in blocks whose chi_d tables keep to 2^17 entries
    assert len(blocks) > 40 and np.array_equal(np.concatenate(blocks), np.unique(np.concatenate(blocks)))
    assert max(len(m) * ((m[-1] + 1) // 2) for m in blocks) <= 2 ** 17


def test_lowest_terms_are_the_reduced_values():
    table = build_table(300)
    rows = table.lowest_terms(300)
    assert rows.dtype == np.int64 and rows[:, 0].tolist() == list(range(301))
    for n, p, q in rows.tolist():
        assert q > 0 and Fraction(p, q) == table.value(n) and Fraction(p, q).denominator == q, n
    assert table.lowest_terms(0).tolist() == [[0, -1, 12]]


def test_ratios_refuse_lengths_outside_the_table():
    table = build_table(10)
    assert len(table.lowest_terms(10)) == 11
    for max_n in (11, 20, -1, -5):
        with pytest.raises(ValueError, match=r"outside table range 0\.\.10"):
            table.lowest_terms(max_n)


def test_formula_sixths_l_values():
    # N = |d| has f = 1, so the entry is 6 L(0, chi_d) itself
    formula = formula_sixths(2000)
    for d in range(-2000, -2):
        if is_fundamental_discriminant(d):
            assert formula[-d] == 6 * l_exact_neg(QuadraticCharacter(d), 1), d


@pytest.mark.parametrize("d, p", [
    # chi_{-3}(2) enters only T_1(2): H(12) = L(0) (3 - chi(2)) becomes 2/3
    (-3, 2),
    # chi_{-7}(2) enters L(0, chi_{-7}) itself, which stops being a multiple of 1/6
    (-7, 2),
], ids=["T1", "L0"])
def test_formula_cross_check_refuses_a_flipped_character(monkeypatch, d, p):
    kernel = class_numbers.kronecker_column

    def flipped(m, a):
        # formula_sixths reads chi_d(2) for a block of |d| as kronecker_column(2, |d|)
        col = kernel(m, a)
        if m == p:
            col[np.asarray(a) == -d] *= -1
        return col

    monkeypatch.setattr(class_numbers, "kronecker_column", flipped)
    # the table never runs the formula route: the relations certify it
    assert build_table(40).value(12) == Fraction(4, 3)
    if d == -3:
        (rec,) = [r for r in verify.verify_dirichlet(max_n=40)
                  if r.check_name == "hurwitz_formula_cross_check"]
        assert not rec.passed and rec.parameters["first_mismatch"] == 12
    else:
        with pytest.raises(ArithmeticError, match=r"n=7: 6 L\(0, chi_-7\) = 6/7 is not an integer"):
            verify.verify_dirichlet(max_n=40)


def test_floats_are_the_class_numbers_built_on_first_use(monkeypatch):
    table = build_table(300)
    assert table._floats == []                  # a cache hit constructs the table and stops there
    expected = [0.0] + [float(table.value(n)) for n in range(1, 301)]
    floats = table.floats(20)
    assert floats == expected[:21]              # only the prefix asked for
    assert table.floats(20) is floats
    floats = table.floats(30)
    assert floats == expected[:42] and table.floats(10) is floats      # grown by doubling, then kept
    assert table.floats(300) == expected and table.floats(500) == expected
    # after a long table, the completed series builds only the prefix it reads
    monkeypatch.setattr(class_numbers, "_table", build_table(2 ** 16 - 1))
    maass._height_part.cache_clear()            # a kept height reads no row at all
    completed_hurwitz_series(0.1 + 1j)
    assert 0 < len(class_numbers._table._floats) < 100
