"""Domain types for dispersions, slab geometry, boundary conditions,
quadrature settings and results, the integer and real checks of the input
boundary, and the columns every row format is built from.

The module needs no numpy, so the CLI can parse and validate its input, and
answer the commands that compute no array, without loading it. The one
dispersion evaluator lives in casimir.

All quantities are dimensionless lattice units: energies are a*E, momenta
a*k, masses a*m. The lattice constant never appears as a runtime parameter.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "DispersionSpec",
    "Geometry",
    "BoundaryCondition",
    "QuadratureConfig",
    "CasimirResult",
]


_MAX_POINTS = 1 << 20  # points one quadrature call may hand its integrand, all levels together
DEFAULT_ORDERS = 6  # expansion terms of remnant_partial_sums and `latcas mass-expansion`


def _is_int(x) -> bool:
    # numpy integers count; bool is an int subclass, but True is not a
    # dispersion order or a size (numpy's True_ is no Integral at all)
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _real(x, name: str) -> float:
    """x as a float; a bool, anything that is not a numbers.Real (str,
    Decimal) and a real past the float range are refused with ValueError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # no value in the message: it may not print
        raise ValueError(f"{name} must be within the float range") from None


def _store(obj, kind: type, *names: str) -> None:
    """Store fields of a frozen dataclass as kind, int (validated before) or
    float (through _real): a numpy integer never wraps, and a np.float32 or
    Fraction computes as the float it equals, so equal values give equal bits."""
    for name in names:
        value = getattr(obj, name)
        object.__setattr__(obj, name, _real(value, name) if kind is float else int(value))


@dataclass(frozen=True)
class DispersionSpec:
    """Power-law dispersion w(k) = |k~|^s of one branch, built on the
    nearest-neighbor kernel; a degeneracy of branches multiplies every
    zero-point energy, and the caller applies it.

    s:  dispersion order (0 = flat band, 1 = linear, 2 = quadratic, ...)
    am: mass in lattice units, stored as a float; a massive branch is only
        defined for s=1, where w = sqrt(k~^2 + am^2)
    """

    s: int
    am: float = 0.0

    def __post_init__(self) -> None:
        _store(self, float, "am")
        if not _is_int(self.s) or self.s < 0:
            raise ValueError(f"dispersion order s must be a nonnegative integer, got {self.s!r}")
        if not 0 <= self.am < math.inf:
            raise ValueError(f"lattice mass am must be finite and nonnegative, got {self.am!r}")
        if self.am > 0 and self.s != 1:
            raise ValueError("a nonzero mass is only supported for the linear branch (s=1)")
        _store(self, int, "s")


@dataclass(frozen=True)
class Geometry:
    """Slab geometry: d spatial dimensions, nz lattice sites along the compact axis."""

    d: int
    nz: int

    def __post_init__(self) -> None:
        if not _is_int(self.d) or self.d not in (1, 2, 3):
            raise ValueError(f"spatial dimension d must be 1, 2, or 3, got {self.d!r}")
        if not _is_int(self.nz) or self.nz < 1:
            raise ValueError(f"nz must be a positive integer, got {self.nz!r}")
        _store(self, int, "d", "nz")


class BoundaryCondition(Enum):
    """Mode family along the compact axis; the values are the CLI's --bc names.

    Periodic and antiperiodic give nz modes of weight 1, phenomenological
    the 2nz half-weight modes l*pi/nz, l = 1..2nz (modes.generate_modes).
    """

    PERIODIC = "periodic"
    ANTIPERIODIC = "antiperiodic"
    PHENOMENOLOGICAL = "phenomenological"

    @classmethod
    def periodic(cls) -> BoundaryCondition:
        return cls.PERIODIC

    @classmethod
    def antiperiodic(cls) -> BoundaryCondition:
        return cls.ANTIPERIODIC

    @classmethod
    def phenomenological(cls) -> BoundaryCondition:
        return cls.PHENOMENOLOGICAL


@dataclass(frozen=True)
class QuadratureConfig:
    """Refinement settings for integrands that no finite rule integrates
    exactly (odd dispersion orders); even orders are exact integers and do
    not consult them.

    max_refinements caps the number of refinements after the first level:
    step halvings of the tanh-sinh rule that casimir uses for odd orders,
    or grid doublings of integrate_bz_multi. rel_tol and abs_tol set the
    agreement that two successive levels need; a change within the rounding
    floor of the values always passes. base_points is the first
    grid of integrate_bz_multi and feeds nothing else.
    """

    base_points: int = 64
    max_refinements: int = 6
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        _store(self, float, "rel_tol", "abs_tol")
        if not _is_int(self.base_points) or self.base_points < 4:
            raise ValueError(f"base_points must be an integer >= 4, got {self.base_points!r}")
        if not _is_int(self.max_refinements) or self.max_refinements < 0:
            raise ValueError(f"max_refinements must be a nonnegative integer, got {self.max_refinements!r}")
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not 0 < tol < math.inf:
                raise ValueError(f"{name} must be a finite positive number, got {tol!r}")
        _store(self, int, "base_points", "max_refinements")


@dataclass(frozen=True)
class CasimirResult:
    """Zero-point energies per transverse site and their difference at
    thickness nz: one row of a sweep table, and of CSV and JSON output.

    For even orders e0_sum is one rounding of the exact integer
    e0_int + e_cas; for odd orders it is the float sum e0_int + e_cas of
    one shared quadrature pass. Either way e_cas = e0_sum - e0_int holds
    at the rounding level.
    coeff = nz**alpha * e_cas with alpha = (d-1) + s; inf (nan for a nan
    e_cas) where nz**alpha passes the float range.
    """

    nz: int
    e0_sum: float
    e0_int: float
    e_cas: float
    coeff: float
    quad_error: float
    converged: bool = True


# emitted columns, in CasimirResult field order; fixed so files are directly comparable
CSV_COLUMNS = ("Nz", "e0_sum", "e0_int", "e_cas", "coeff", "quad_error", "converged")


def _row_values(r: CasimirResult) -> tuple:
    """The fields of r in CSV_COLUMNS order; every row format is built from it."""
    return (r.nz, r.e0_sum, r.e0_int, r.e_cas, r.coeff, r.quad_error, bool(r.converged))
