from fractions import Fraction

import pytest

from mockform import class_numbers
from mockform.characters import QuadraticCharacter
from mockform.class_numbers import (
    ClassNumberTable,
    QuadraticForm,
    build_table,
    cohen_class_number,
    first_formula_mismatch,
    hurwitz_class_number,
    reduced_forms,
    t_chi,
)

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
    assert table == build_table(24, cross_check=False)


def test_table_validation():
    with pytest.raises(ValueError):
        ClassNumberTable([Fraction(0)])


def test_one_pass_table_matches_per_n_enumeration():
    # hurwitz_class_number enumerates reduced_forms(N) for each N separately
    table = build_table(2000, cross_check=False)
    for n in range(2001):
        assert table.value(n) == hurwitz_class_number(n), n


def test_formula_cross_check_reports_first_mismatch(monkeypatch):
    values = list(build_table(40))
    assert first_formula_mismatch(values) is None
    values[23] = Fraction(4)                     # H(23) = 3
    values[31] = Fraction(4)
    assert first_formula_mismatch(values) == 23

    sixths = class_numbers._sixths_by_forms

    def tampered(max_n):
        out = sixths(max_n)
        out[23] += 6
        return out

    monkeypatch.setattr(class_numbers, "_sixths_by_forms", tampered)
    with pytest.raises(ArithmeticError, match="n=23: enumeration 4 vs formula 3"):
        build_table(40)
