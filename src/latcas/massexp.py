"""Even-power expansion of the massive branch and its Casimir reconstruction.

sqrt(k~^2 + am^2) = am + k~^2/(2 am) - k~^4/(8 am^3) + k~^6/(16 am^5) - ...

The constant term is a flat band and drops out of every Casimir difference,
so the reconstruction is a weighted sum of massless even-order energies.
They come from one binomial transform of exact integers (casimir._even_orders),
with the bits casimir_energy gives each order: all 515 orders within the float
range would take about 0.15 s in d = 2, 3 and 0.05 s in d = 1 (2-core
machine), and the sums stop at the first NaN.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from .model import _MAX_POINTS, DEFAULT_ORDERS, BoundaryCondition, Geometry, _is_int, _real

__all__ = [
    "ExpansionTerm",
    "DivergentExpansionWarning",
    "expansion_coefficients",
    "convergence_check",
    "ConvergenceReport",
    "remnant_partial_sums",
]


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


def _check_mass(am) -> float:
    # the masses DispersionSpec accepts for a massive branch, as the float it stores
    am = _real(am, "am")
    if not 0 < am < math.inf:
        raise ValueError(f"am must be positive and finite, got {am!r}")
    return am


def _check_orders(orders) -> None:
    # every energy past order 515 (s > casimir._EVEN_S_MAX) is refused: more orders add only NaN sums
    if not _is_int(orders) or orders < 1:
        raise ValueError(f"orders must be a positive integer, got {orders!r}")
    if orders > _MAX_POINTS:  # no value in the message: it may not print
        raise ValueError(f"orders must be at most {_MAX_POINTS}")


def _check_expansion(am, orders) -> float:
    """am as the float it stores, once am and orders are valid (see
    expansion_coefficients); otherwise ValueError naming the limit."""
    am = _check_mass(am)
    _check_orders(orders)
    if _power(am, orders) is None:  # |am**(1 - 2n)| is monotone in n, so the last power tells
        n = next(n for n in range(1, orders + 1) if _power(am, n) is None)
        raise ValueError(f"orders must be at most {n - 1} at am={am!r}, past which am**(1 - 2n) leaves the float range")
    return am


def _power(am: float, n: int) -> float | None:
    """am**(1 - 2n), or None past the float range, where a float power raises."""
    try:
        return am ** (1 - 2 * n)
    except OverflowError:
        return None


def _coefficients(am: float, orders: int):
    """c_1, ..., c_orders one at a time, for a checked am and orders.

    The binomial coefficients follow the recurrence
    binom(1/2, n) = binom(1/2, n-1) * (3/2 - n) / n, avoiding factorials.
    """
    binom = 1.0
    for n in range(1, orders + 1):
        binom *= (1.5 - n) / n
        yield binom * am ** (1 - 2 * n)


def expansion_coefficients(am: float, orders: int) -> list[ExpansionTerm]:
    """Terms n = 1..orders; c_n = binom(1/2, n) * am**(1 - 2n). orders is
    at most 2**20 (every energy past n = 515 is refused, past the float
    range), and for am < 1 at most the last n whose am**(1 - 2n) is within
    the float range; past either the call raises ValueError naming the limit.
    """
    am = _check_expansion(am, orders)
    return [ExpansionTerm(n, c_n) for n, c_n in enumerate(_coefficients(am, orders), 1)]


def convergence_check(am: float, d: int) -> ConvergenceReport:
    """Whether the expansion converges on the whole zone: max k~^2 = 4d < am^2."""
    am = _check_mass(am)
    if not _is_int(d) or d not in (1, 2, 3):
        raise ValueError(f"d must be 1, 2, or 3, got {d!r}")
    ratio = 4.0 * int(d) / (am * am)  # a numpy integer d would give numpy scalars
    return ConvergenceReport(ratio < 1.0, 1.0 - ratio)


def remnant_partial_sums(
    am: float,
    geom: Geometry,
    bc: BoundaryCondition,
    orders: int = DEFAULT_ORDERS,
) -> list[float]:
    """Cumulative reconstruction sum_{n<=K} c_n e_cas(s=2n) for K = 1..orders.

    The energies are those casimir_energy gives, all orders from one
    binomial transform (casimir._even_orders). Terms whose massless
    energy vanishes (order below the remnant support) contribute exactly
    zero; no support rule is imposed by hand. Once a partial sum is NaN
    (an energy past the float range, or an order past 515, s > 1030) so
    is every later one, and no further term is built.
    """
    from .casimir import _even_orders  # numpy loads with the first energy, not with this module

    if not isinstance(geom, Geometry):
        raise TypeError("geom must be a Geometry")
    if not isinstance(bc, BoundaryCondition):
        raise TypeError("bc must be a BoundaryCondition")
    am = _check_expansion(am, orders)  # refuses bad input before any warning
    report = convergence_check(am, geom.d)
    if not report.converges:
        warnings.warn(
            f"expansion used outside its convergence domain (margin {report.margin:.3g}); "
            "results are a formal series",
            DivergentExpansionWarning,
            stacklevel=2,
        )
    # an order past 515 reads NaN, the value casimir_energy refuses s > 1030 with
    energies = itertools.chain(_even_orders(geom.d, bc, geom.nz, orders), itertools.repeat(math.nan))
    sums, total = [], 0.0
    for c_n, energy in zip(_coefficients(am, orders), energies):  # no term is built past the first NaN
        total += c_n * energy
        sums.append(total)
        if math.isnan(total):  # NaN plus anything is NaN
            sums.extend(itertools.repeat(total, orders - len(sums)))
            break
    return sums
