"""Uniform periodic-grid quadrature over the Brillouin zone.

All integrals are BZ averages, (1/2pi)^n int_[0,2pi)^n f. On a periodic
domain the uniform n-point rule is exact for trigonometric polynomials of
degree < n and spectrally accurate for analytic integrands, which is what
makes the even-order "exact zero" results exact rather than approximate.

integrate_bz_multi is the one entry point and MultiQuadResult the one
result type: a scalar integrand is a one-component result, and a 1D
periodic average is the d=2 case. Refinement doubles the grid until
successive averages agree to tolerance; the inter-refinement difference is
the reported error estimate. Callers whose integrand is a trigonometric
polynomial of known degree (even-order dispersions) skip refinement: one
_grid_average on a fine enough grid is exact. Non-finite values never count
as converged. Grid sums are accumulated in a fixed deterministic order:
chunk subtotals use numpy's pairwise reduction and the subtotals are
combined with math.fsum, so results are bit-stable run to run regardless of
internal evaluation batching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import _is_int

__all__ = [
    "QuadratureConfig",
    "MultiQuadResult",
    "integrate_bz_multi",
    "richardson_extrapolate",
]

_TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 18  # grid points evaluated per batch


@dataclass(frozen=True)
class QuadratureConfig:
    """Grid refinement settings for integrands that are not trigonometric
    polynomials (odd dispersion orders); even orders use one exact grid and
    do not consult it."""

    base_points: int = 64
    max_refinements: int = 6
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not _is_int(self.base_points) or self.base_points < 4:
            raise ValueError(f"base_points must be an integer >= 4, got {self.base_points!r}")
        if not _is_int(self.max_refinements) or self.max_refinements < 0:
            raise ValueError(f"max_refinements must be a nonnegative integer, got {self.max_refinements!r}")
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if isinstance(tol, bool) or not 0 < tol < math.inf:
                raise ValueError(f"{name} must be a finite positive number, got {tol!r}")


@dataclass(frozen=True)
class MultiQuadResult:
    """Averages with their error estimates; all components share one grid
    and one verdict.

    converged=False means the tolerance was not met within max_refinements
    or a value is not finite; the values and estimates are still the best
    available and the caller decides what to do with them.
    """

    values: np.ndarray
    errors: np.ndarray
    converged: bool
    points_per_axis: int


def _grid_average(f: Callable[[np.ndarray], np.ndarray], ndim: int, n: int) -> np.ndarray:
    """Mean of f over the uniform tensor grid, one value per component of f."""
    axis = np.arange(n, dtype=float) * (_TWO_PI / n)
    total = n**ndim
    chunk = min(total, _CHUNK)
    partials: list[np.ndarray] = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        pts = np.empty((idx.size, ndim))
        rem = idx
        for ax in range(ndim - 1, -1, -1):
            pts[:, ax] = axis[rem % n]
            rem = rem // n
        vals = np.asarray(f(pts), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != idx.size:
            raise ValueError("integrand must return one value (or one row) per point")
        # extended-precision subtotal keeps power-of-two grid means of exactly
        # representable sums (constants in particular) bit-exact
        partials.append(vals.sum(axis=0, dtype=np.longdouble))
    ncomp = partials[0].size
    sums = [math.fsum(float(p[c]) for p in partials) for c in range(ncomp)]
    return np.array(sums) / total


def _exact_result(values: np.ndarray, error: float, n: int) -> MultiQuadResult:
    """Result of one grid that is exact up to `error`; non-finite values
    are never converged and get an infinite error."""
    if np.all(np.isfinite(values)):
        return MultiQuadResult(values, np.full_like(values, error), True, n)
    return MultiQuadResult(values, np.full_like(values, math.inf), False, n)


def _refine(f: Callable[[np.ndarray], np.ndarray], ndim: int, cfg: QuadratureConfig) -> MultiQuadResult:
    n = cfg.base_points
    prev = _grid_average(f, ndim, n)
    if ndim == 0:
        return _exact_result(prev, 0.0, 1)
    cur, delta = prev, np.full_like(prev, math.inf)  # unverified without a refinement
    for _ in range(cfg.max_refinements):
        n *= 2
        cur = _grid_average(f, ndim, n)
        delta = np.abs(cur - prev)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(cur))
        if np.all(delta <= tol):  # False for any NaN
            return MultiQuadResult(cur, delta, True, n)
        prev = cur
    return MultiQuadResult(cur, np.where(np.isfinite(cur), delta, math.inf), False, n)


def integrate_bz_multi(
    f: Callable[[np.ndarray], np.ndarray], d: int, cfg: QuadratureConfig
) -> MultiQuadResult:
    """BZ average over the d-1 transverse axes of a vector-valued integrand.

    f receives an (npoints, d-1) array of momenta (for d=1, one empty
    momentum) and returns (npoints,) or (npoints, ncomp). Convergence
    requires every component to meet the tolerance on the same grid.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"spatial dimension d must be 1, 2, or 3, got {d!r}")
    return _refine(f, d - 1, cfg)


def richardson_extrapolate(values: Sequence[float], ratio: float = 2.0) -> tuple[float, float]:
    """Extrapolate a geometrically refined sequence to its limit.

    values[k] is taken at step h/ratio**k (coarsest first). The convergence
    order is estimated from the last three entries. Returns (limit, order);
    when the differences do not shrink geometrically the last value is
    returned with order nan.
    """
    v = [float(x) for x in values]
    if len(v) < 3:
        raise ValueError("need at least three values to extrapolate")
    if ratio <= 1.0:
        raise ValueError("ratio must exceed 1")
    d1 = v[-2] - v[-3]
    d2 = v[-1] - v[-2]
    if d2 == 0.0:
        return v[-1], math.inf
    q = d1 / d2
    if q <= 1.0:
        return v[-1], math.nan
    order = math.log(q) / math.log(ratio)
    return v[-1] + d2 / (q - 1.0), order
