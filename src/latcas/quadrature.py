"""Quadrature rules and their one result type.

MultiQuadResult is the one result type: a scalar integrand is a
one-component result, and every component shares one verdict. Two refined
rules feed it through one convergence loop, which stops when successive
levels agree to tolerance and reports their difference as the error:

- _tanh_sinh integrates over (0, 1) by the double-exponential rule
  (Takahasi & Mori, Publ. RIMS 9, 1974), halving the step each level and
  evaluating only the new nodes. It converges exponentially even with
  algebraic or logarithmic singularities at the endpoints, which is where
  the transverse density of states puts all of them (see casimir).
- integrate_bz_multi averages over the uniform periodic grid of the
  transverse Brillouin zone, (1/2pi)^n int_[0,2pi)^n f, doubling the grid
  each level. On a periodic domain the uniform n-point rule is exact for
  trigonometric polynomials of degree < n and spectrally accurate for
  analytic integrands. Grid sums are accumulated in a fixed deterministic
  order: chunk subtotals use numpy's pairwise reduction and the subtotals
  are combined with math.fsum, so results are bit-stable run to run
  regardless of internal evaluation batching.

_exact_grid takes one grid average as exact, for integrands that a finite
grid integrates exactly (even dispersion orders, see casimir).

Every call hands its integrand at most _MAX_POINTS points in total: a level
that would pass the budget does not run, and the result is then not
converged. Non-finite values never count as converged.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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
_MAX_POINTS = 1 << 20  # points one call may hand its integrand, all levels together
_TS_REACH = 3.5  # tanh-sinh nodes at |u| <= _TS_REACH; the weights beyond are below 1e-20


@dataclass(frozen=True)
class QuadratureConfig:
    """Refinement settings for integrands that no finite rule integrates
    exactly (odd dispersion orders); even orders use one exact grid and do
    not consult them.

    max_refinements caps the number of refinements after the first level:
    step halvings of the tanh-sinh rule that casimir uses for odd orders,
    or grid doublings of integrate_bz_multi. rel_tol and abs_tol set the
    agreement that two successive levels need. base_points is the first
    grid of integrate_bz_multi and feeds nothing else.
    """

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
    or the point budget, or a value is not finite; the values and estimates
    are still the best available and the caller decides what to do with
    them. points_per_axis is the grid size of the last level of a grid
    rule, and the node count of the last (nested) tanh-sinh rule.
    """

    values: np.ndarray
    errors: np.ndarray
    converged: bool
    points_per_axis: int


def _rows(vals, n: int) -> np.ndarray:
    """Integrand output as an (n, ncomp) float array."""
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != n:
        raise ValueError("integrand must return one value (or one row) per point")
    return vals


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
        # extended-precision subtotal keeps power-of-two grid means of exactly
        # representable sums (constants in particular) bit-exact
        partials.append(_rows(f(pts), idx.size).sum(axis=0, dtype=np.longdouble))
    ncomp = partials[0].size
    sums = [math.fsum(float(p[c]) for p in partials) for c in range(ncomp)]
    return np.array(sums) / total


def _exact_result(values: np.ndarray, n: int) -> MultiQuadResult:
    """Result of one rule that is exact up to rounding; non-finite values
    are never converged and get an infinite error."""
    if np.all(np.isfinite(values)):
        return MultiQuadResult(values, np.zeros_like(values), True, n)
    return MultiQuadResult(values, np.full_like(values, math.inf), False, n)


def _unreached(empty) -> MultiQuadResult:
    """Result of a rule whose first level would pass _MAX_POINTS: NaN values,
    never converged. empty is the integrand's output on zero points, which
    gives the number of components."""
    return _exact_result(np.full(_rows(empty, 0).shape[1], math.nan), 0)


def _exact_grid(f: Callable[[np.ndarray], np.ndarray], ndim: int, n: int) -> MultiQuadResult:
    """Mean of f over the uniform grid of n points per axis, for an f that
    this grid integrates exactly: one level, no refinement."""
    if n**ndim > _MAX_POINTS:
        return _unreached(f(np.empty((0, ndim))))
    return _exact_result(_grid_average(f, ndim, n), n)


def _converge(levels: Iterator[tuple[np.ndarray, int]], cfg: QuadratureConfig) -> MultiQuadResult:
    """Take (values, points_per_axis) from levels until two successive levels
    agree within tolerance, for at most cfg.max_refinements refinements.
    levels yields at least one level; when it stops early (the next level
    would pass _MAX_POINTS) the result is not converged."""
    prev, n = next(levels)
    cur, delta = prev, np.full_like(prev, math.inf)  # unverified without a refinement
    for _, (cur, n) in zip(range(cfg.max_refinements), levels):
        delta = np.abs(cur - prev)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(cur))
        if np.all(delta <= tol):  # False for any NaN
            return MultiQuadResult(cur, delta, True, n)
        prev = cur
    return MultiQuadResult(cur, np.where(np.isfinite(cur), delta, math.inf), False, n)


def _grid_levels(f, ndim: int, n: int) -> Iterator[tuple[np.ndarray, int]]:
    """Grid averages at n, 2n, 4n, ... points per axis, within _MAX_POINTS."""
    used = 0
    while used + n**ndim <= _MAX_POINTS:
        used += n**ndim
        yield _grid_average(f, ndim, n), n
        n *= 2


def _refine(f: Callable[[np.ndarray], np.ndarray], ndim: int, cfg: QuadratureConfig) -> MultiQuadResult:
    if ndim == 0:
        return _exact_grid(f, 0, 1)
    if cfg.base_points**ndim > _MAX_POINTS:
        return _unreached(f(np.empty((0, ndim))))
    return _converge(_grid_levels(f, ndim, cfg.base_points), cfg)


def _tanh_sinh_levels(f, width: int) -> Iterator[tuple[np.ndarray, int]]:
    """Nested tanh-sinh estimates of int_0^1 f and their node counts, within
    _MAX_POINTS points, where each node costs width points.

    Node u = k h maps to x = (1 + tanh(pi/2 sinh u)) / 2 with weight
    dx/du = pi cosh(u) x (1 - x). Both distances to the endpoints, lo = 1 - x
    and hi = x for u >= 0 (mirrored for -u), come from e = exp(-pi sinh u)
    without cancellation, and f(x, xc) receives each node with its
    complement xc = 1 - x, so no node rounds onto an endpoint. Level j has
    step h = 2^-j and evaluates only the odd multiples of it.
    """
    nodes, total = 0, None
    for level in itertools.count():
        h = math.ldexp(1.0, -level)
        ks = range(0, int(_TS_REACH / h) + 1) if level == 0 else range(1, int(_TS_REACH / h) + 1, 2)
        new = 2 * len(ks) - (ks[0] == 0)  # u = 0 is one node
        if (nodes + new) * width > _MAX_POINTS:
            return
        nodes += new
        u = np.arange(ks.start, ks.stop, ks.step) * h
        e = np.exp(-math.pi * np.sinh(u))
        lo, hi = e / (1.0 + e), 1.0 / (1.0 + e)
        w = math.pi * np.cosh(u) * lo * hi
        side = u > 0
        x, xc = np.concatenate([hi, lo[side]]), np.concatenate([lo, hi[side]])
        part = h * (np.concatenate([w, w[side]]) @ _rows(f(x, xc), x.size))
        total = part if total is None else 0.5 * total + part
        yield total, nodes


def _tanh_sinh(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], cfg: QuadratureConfig, width: int = 1
) -> MultiQuadResult:
    """int_0^1 f(x) dx by tanh-sinh levels under cfg; f(x, xc) takes the
    nodes and their complements 1 - x and returns one value or row per node.
    width is the number of points f evaluates per node, which the budget
    counts."""
    return _converge(_tanh_sinh_levels(f, width), cfg)


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
