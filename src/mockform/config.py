"""Evaluation configuration, passed to the numerical routines that read it."""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

# Series cut where a term bound reaches quad_tol form factors up to about
# 1/quad_tol, such as e^{2 pi n^2 v} in the completed Hurwitz series; below
# this floor they would leave the float range.
MIN_QUAD_TOL = 1e-300


@dataclass(frozen=True)
class EvalConfig:
    """Truncation bounds and the tolerance.

    lattice_bound   largest odd modulus m in direct lattice sums
    fourier_bound   largest |h| kept in Fourier expansions
    q_terms         cap on q-series terms
    quad_tol        absolute tolerance for quadrature and series tails,
                    at least MIN_QUAD_TOL and finite
    """

    lattice_bound: int = 301
    fourier_bound: int = 40
    q_terms: int = 4000
    quad_tol: float = 1e-10

    def __post_init__(self):
        for name in ("lattice_bound", "fourier_bound", "q_terms"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
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
