"""Evaluation configuration for the numerical routines, and the bounded value they return."""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf
from typing import Callable

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


# Truncated series.  Every series the library sums stops at the least N whose
# tail bound meets the tolerance, from a bound t(n) on the modulus of term n.
_TAIL_UP = 1.0 + 2.0 ** -50             # 4 ulps


def _tail(a: float, b: float) -> float:
    """a/(1 - b/a), rounded up by 4 ulps: the bound on sum_{n>N} t(n) from a = t(N+1) and b = t(N+2).

    t is a term bound whose ratio t(n+1)/t(n) does not increase, so every
    dropped term is at most a (b/a)^j, j >= 0.  inf while b >= a; 0 once a
    underflows.  The 4 ulps cover the three operations here and the two that
    add the tail to a rounding bound.  A term bound must also stay above its
    terms once rounded: theta's, which is tight, rounds r up, and the others
    (H(n) <= n, sigma_1(n) <= n^2, Gamma(-1/2, x) < e^{-x} x^{-3/2}, and the
    Fourier route's zeta bound on |E_n| with its moment bound on Omega)
    exceed the dropped terms by far more than any rounding, also where the
    ratio is near 1 and the quotient magnifies it.
    """
    return a / (1.0 - b / a) * _TAIL_UP if b < a else inf if a else 0.0


def _truncate(series: str, term: Callable[[int], float], first: int, max_terms: int,
              v: float, tol: float, hint: float) -> tuple[int, float]:
    """The least N >= first with _tail(term(N+1), term(N+2)) <= tol, and that tail.

    term(n) bounds the modulus of term n.  Raises ValueError past max_terms:
    no series is truncated silently.  The tail is inf until its ratio falls
    below 1 and only falls from there on, so "tail <= tol" changes once as N
    grows: the walk starts at the hint, clamped to [first, max_terms], steps
    down or up to the least such N, and its result does not depend on the hint.
    """
    N = first if not hint > first else max_terms if hint >= max_terms else int(hint)
    a, b = term(N + 1), term(N + 2)
    if (bound := _tail(a, b)) <= tol:
        while N > first and (lower := _tail(prev := term(N), a)) <= tol:
            N, bound, a = N - 1, lower, prev
        return N, bound
    while bound > tol:
        if N >= max_terms:
            raise ValueError(f"{series} needs more than {max_terms} terms "
                             f"at v = {v} for a tail below {tol}")
        N += 1
        a, b = b, term(N + 2)
        bound = _tail(a, b)
    return N, bound
