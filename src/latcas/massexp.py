"""Even-power expansion of the massive branch and its Casimir reconstruction.

sqrt(k~^2 + am^2) = am + k~^2/(2 am) - k~^4/(8 am^3) + k~^6/(16 am^5) - ...

The constant term is a flat band and drops out of every Casimir difference,
so the reconstruction is a weighted sum of massless even-order energies.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .casimir import casimir_energy
from .model import DispersionSpec, Geometry, _is_int
from .modes import BoundaryCondition
from .quadrature import QuadratureConfig

__all__ = [
    "ExpansionTerm",
    "DivergentExpansionWarning",
    "expansion_coefficients",
    "convergence_check",
    "ConvergenceReport",
    "remnant_partial_sums",
]

DEFAULT_ORDERS = 6


class DivergentExpansionWarning(UserWarning):
    """The expansion is used outside its convergence domain."""


@dataclass(frozen=True)
class ExpansionTerm:
    """Coefficient c_n of (k~^2)^n, i.e. of the massless order-2n dispersion."""

    n: int
    c_n: float


@dataclass(frozen=True)
class ConvergenceReport:
    converges: bool
    margin: float


def _check_mass(am) -> None:
    # the masses DispersionSpec accepts for a massive branch
    if isinstance(am, bool) or not 0 < am < math.inf:
        raise ValueError(f"am must be positive and finite, got {am!r}")


def expansion_coefficients(am: float, orders: int) -> list[ExpansionTerm]:
    """Terms n = 1..orders; c_n = binom(1/2, n) * am**(1 - 2n).

    The binomial coefficients follow the recurrence
    binom(1/2, n) = binom(1/2, n-1) * (3/2 - n) / n, avoiding factorials.
    """
    _check_mass(am)
    if not _is_int(orders) or orders < 1:
        raise ValueError(f"orders must be a positive integer, got {orders!r}")
    terms = []
    binom = 1.0
    for n in range(1, orders + 1):
        binom *= (1.5 - n) / n
        terms.append(ExpansionTerm(n, binom * am ** (1 - 2 * n)))
    return terms


def convergence_check(am: float, d: int) -> ConvergenceReport:
    """Whether the expansion converges on the whole zone: max k~^2 = 4d < am^2."""
    _check_mass(am)
    if not _is_int(d) or d not in (1, 2, 3):
        raise ValueError(f"d must be 1, 2, or 3, got {d!r}")
    ratio = 4.0 * d / (am * am)
    return ConvergenceReport(ratio < 1.0, 1.0 - ratio)


def remnant_partial_sums(
    am: float,
    geom: Geometry,
    bc: BoundaryCondition,
    orders: int = DEFAULT_ORDERS,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> list[float]:
    """Cumulative reconstruction sum_{n<=K} c_n e_cas(s=2n) for K = 1..orders.

    Terms whose massless energy vanishes (order below the remnant support)
    contribute exactly zero; no support rule is imposed by hand.
    """
    report = convergence_check(am, geom.d)
    if not report.converges:
        warnings.warn(
            f"expansion used outside its convergence domain (margin {report.margin:.3g}); "
            "results are a formal series",
            DivergentExpansionWarning,
            stacklevel=2,
        )
    sums = []
    total = 0.0
    for term in expansion_coefficients(am, orders):
        energy = casimir_energy(DispersionSpec(s=2 * term.n), geom, bc, cfg).e_cas
        total += term.c_n * energy
        sums.append(total)
    return sums

