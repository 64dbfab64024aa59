"""Domain types for dispersions, slab geometry, and results, plus the one
nearest-neighbor kernel and dispersion evaluator every energy is built on.

All quantities are dimensionless lattice units: energies are a*E, momenta
a*k, masses a*m. The lattice constant never appears as a runtime parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DispersionSpec",
    "Geometry",
    "CasimirResult",
    "eval_lattice_dispersion",
    "eval_from_kernel_sum",
]


def _is_int(x) -> bool:
    # bool is an int subclass, but True is not a dispersion order or a size
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class DispersionSpec:
    """Power-law dispersion w(k) = |k~|^s built on the nearest-neighbor kernel.

    s:  dispersion order (0 = flat band, 1 = linear, 2 = quadratic, ...)
    am: mass in lattice units; a massive branch is only defined for s=1,
        where w = sqrt(k~^2 + am^2)
    g:  branch degeneracy, a pure multiplier on all zero-point energies
    """

    s: int
    am: float = 0.0
    g: int = 1

    def __post_init__(self) -> None:
        if not _is_int(self.s) or self.s < 0:
            raise ValueError(f"dispersion order s must be a nonnegative integer, got {self.s!r}")
        if isinstance(self.am, bool) or not math.isfinite(self.am):
            raise ValueError(f"lattice mass am must be a finite real number, got {self.am!r}")
        if self.am < 0:
            raise ValueError(f"lattice mass am must be nonnegative, got {self.am!r}")
        if self.am > 0 and self.s != 1:
            raise ValueError("a nonzero mass is only supported for the linear branch (s=1)")
        if not _is_int(self.g) or self.g < 1:
            raise ValueError(f"degeneracy g must be a positive integer, got {self.g!r}")


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


@dataclass(frozen=True)
class CasimirResult:
    """Zero-point energies per transverse site and their difference at
    thickness nz: one row of a sweep table, and of CSV and JSON output.

    e0_sum is derived as e0_int + e_cas from one shared quadrature pass, so
    e_cas = e0_sum - e0_int holds at the rounding level by construction.
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


def _kernel(ak: np.ndarray) -> np.ndarray:
    """Nearest-neighbor kernel 2 - 2 cos ak, elementwise."""
    return 2.0 - 2.0 * np.cos(ak)


def _omega_inplace(spec: DispersionSpec, v: np.ndarray) -> np.ndarray:
    """Turn kernel sums v into dispersion values in place and return v.

    Integer powers are computed as exact polynomial powers so that even-order
    dispersions stay trigonometric polynomials of the momenta.
    """
    if spec.am:
        v += spec.am * spec.am
    s = spec.s
    if s == 0:
        v[...] = 1.0
    elif s == 1:
        np.sqrt(v, out=v)
    elif s == 2:
        pass
    elif s % 2 == 0:
        np.power(v, s // 2, out=v)
    else:
        root = np.sqrt(v)
        np.power(v, s // 2, out=v)
        v *= root
    return v


def eval_from_kernel_sum(spec: DispersionSpec, t: np.ndarray | float) -> np.ndarray | float:
    """Dispersion value from the summed kernel t = sum_i (2 - 2 cos ak_i)."""
    out = _omega_inplace(spec, np.array(t, dtype=float))
    return out if out.ndim else float(out)


def eval_lattice_dispersion(spec: DispersionSpec, ak) -> np.ndarray | float:
    """Evaluate a*w at lattice momentum ak (the last axis holds the d components).

    Returns [sum_i (2 - 2 cos ak_i) + (am)^2]^(s/2); a flat band (s=0) is 1.
    """
    ak = np.asarray(ak, dtype=float)
    if not np.all(np.isfinite(ak)):
        raise ValueError("momentum components must be finite")
    return eval_from_kernel_sum(spec, _kernel(ak).sum(axis=-1))
