"""Evaluation configuration for the numerical routines, and the bounded value they return."""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

# Series cut where a term bound reaches quad_tol form factors up to about
# 1/quad_tol, such as e^{2 pi n^2 v} in the completed Hurwitz series; below
# this floor they would leave the float range.
MIN_QUAD_TOL = 1e-300

# Longer tables are refused before they are built, loaded or certified.  At 2^20 entries the row
# peaks at about 80 MB above the interpreter, build_table at 160 MB, and
# `mockform hurwitz` at 210-260 MB in 8-13 s (shared 2-core Xeon).  Rows of
# hurwitz_class_number have 2^k - 1 entries, so N <= MAX_TABLE_N stays inside.
MAX_TABLE_N = 2 ** 20 - 1


@dataclass(frozen=True)
class EvalConfig:
    """The lattice truncation and the tolerance.

    lattice_bound   largest modulus m in direct lattice sums, odd (H sums the part
                    with the smaller share of its bound to fewer)
    quad_tol        absolute tolerance for quadrature and series tails,
                    at least MIN_QUAD_TOL and finite
    """

    lattice_bound: int = 301
    quad_tol: float = 1e-10

    def __post_init__(self):
        if self.lattice_bound < 1:
            raise ValueError("lattice_bound must be positive")
        if self.lattice_bound % 2 == 0:
            # lattice_tail_bound needs the first dropped row to be m = M + 2, whose points
            # all lie at |m tau + n| >= (M + 2) v
            raise ValueError(f"lattice_bound must be odd, got {self.lattice_bound}")
        if not self.quad_tol >= MIN_QUAD_TOL:
            raise ValueError(f"quad_tol must be at least {MIN_QUAD_TOL:g}, "
                             f"got {self.quad_tol!r}")
        if not self.quad_tol < inf:
            raise ValueError(f"quad_tol must be positive and finite, got {self.quad_tol!r}")

    def with_(self, **kwargs) -> "EvalConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = EvalConfig()


def require_upper_half(tau: complex) -> complex:
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError(f"tau must lie in the upper half plane, got {tau}")
    return tau


def reduce_mod_one(tau: complex) -> complex:
    """require_upper_half(tau) - round(Re tau), exact in binary64: each 1-periodic evaluator starts here."""
    tau = require_upper_half(tau)
    return tau if -0.5 <= tau.real <= 0.5 else complex(tau.real - round(tau.real), tau.imag)


class BoundedValue(complex):
    """A truncated evaluation: its complex value, a proven bound on its error (the truncation;
    for the q-series of maass also the rounding of their sums) and the terms summed
    (q-powers, moduli or lattice points).

    Arithmetic on it gives a plain complex.
    """

    __slots__ = ("bound", "terms")

    def __new__(cls, value: complex, bound: float, terms: int):
        self = complex.__new__(cls, value)
        self.bound, self.terms = bound, terms
        return self

    def __reduce__(self):               # pickle calls __new__ with all three arguments
        return BoundedValue, (complex(self), self.bound, self.terms)
