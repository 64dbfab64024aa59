"""The generic refinement loop, the grid reference route and its one
result type.

_converge refines rows, integrands over the same levels, together: it
stops each row when its successive levels agree to tolerance, or to the
rounding floor of _ROUNDING_ULPS ulps of its largest component, and
reports their difference as the error. Each row takes its own convergence
test and budget, and stops on its own, so a row has the bits it would have
alone. It returns the rows as arrays of values, errors, verdicts and
points. The levels come from the caller: the grid route below, and the
tanh-sinh levels of the transverse density of states, which casimir
builds and feeds it.

integrate_bz_multi averages over the uniform periodic grid of the
transverse Brillouin zone, (1/2pi)^n int_[0,2pi)^n f, doubling the grid
each level, and returns one MultiQuadResult. On a periodic domain the
uniform n-point rule is exact for trigonometric polynomials of degree < n
and spectrally accurate for analytic integrands. Grid sums are accumulated
in a fixed deterministic order: chunk subtotals use numpy's pairwise
reduction and the subtotals are combined with math.fsum, so results are
bit-stable run to run regardless of internal evaluation batching. The
energies do not take this route; it stays public because the benchmark's
tracer names it, and the tests check theirs by tests/oracles.py.

Every call hands each integrand at most _MAX_POINTS points in total, each
point counted cost times where the integrand does cost units of work per
point: a level that would pass the budget does not run for that
integrand, and its result is then not converged. Non-finite values never
count as converged.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import _MAX_POINTS, QuadratureConfig

__all__ = [
    "MultiQuadResult",
    "integrate_bz_multi",
    "richardson_extrapolate",
]

_TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 18  # grid points evaluated per batch
_EPS = float(np.finfo(float).eps)
_ROUNDING_ULPS = 16  # error floor, in ulps of the largest component


@dataclass(frozen=True)
class MultiQuadResult:
    """Averages with their error estimates; all components share one grid
    and one verdict.

    converged=False means the tolerance was not met within max_refinements
    or the point budget, or a value is not finite; the values and estimates
    are still the best available and the caller decides what to do with
    them. points_per_axis is the grid size of the last level.
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
    if np.isfinite(values).all():
        return MultiQuadResult(values, np.zeros_like(values), True, n)
    return MultiQuadResult(values, np.full_like(values, math.inf), False, n)


def _unreached(empty) -> MultiQuadResult:
    """Result of a rule whose first level would pass _MAX_POINTS: NaN values,
    never converged. empty is the integrand's output on zero points, which
    gives the number of components."""
    return _exact_result(np.full(_rows(empty, 0).shape[1], math.nan), 0)


def _rounding_floor(values: np.ndarray) -> np.ndarray:
    """_ROUNDING_ULPS ulps of the largest component of each row (the last
    axis): the accuracy that values summed or differenced at that size can
    have; NaN for a row with a NaN value."""
    return _ROUNDING_ULPS * _EPS * np.abs(values).max(axis=-1)


def _converge(
    level: Callable[..., tuple], size: Callable[[int], int], costs: Sequence[int], cfg: QuadratureConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows refined together, one value row, error row and verdict each.

    level(j, live, prev) gives (values, points_per_axis) of level j for the
    rows live, an index array, with values of shape (live.size, ncomp);
    prev holds their values at level j-1 (None for level 0). Level j takes
    size(j) points, each costing costs[i] for row i. A row stops at the
    first level that agrees with the one before within tolerance. It also
    stops, not converged, after cfg.max_refinements refinements or when its
    next level would take it past _MAX_POINTS. Every row must afford level 0.

    Returns (values, errors, converged, points) over all rows, of shapes
    (rows, ncomp), (rows, ncomp), (rows,) and (rows,): each row is written
    into them as it stops, with the points_per_axis of its last level.
    """
    costs = np.asarray(costs)
    live, prev, used = np.arange(costs.size), None, 0
    for j in itertools.count():
        cur, n = level(j, live, prev)
        if prev is None:  # unverified without a refinement
            values, errors = np.empty((costs.size, cur.shape[1])), np.empty((costs.size, cur.shape[1]))
            converged, points = np.zeros(costs.size, dtype=bool), np.zeros(costs.size, dtype=int)
            delta, ok = np.full_like(cur, math.inf), np.zeros(live.size, dtype=bool)
        else:
            delta = np.abs(cur - prev)
            tol = np.maximum(np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(cur)), _rounding_floor(cur)[:, None])
            ok = ((delta <= tol) & np.isfinite(cur)).all(axis=1)  # an inf value makes tol inf
        used += size(j)
        done = ok | (j == cfg.max_refinements) | ((used + size(j + 1)) * costs > _MAX_POINTS)
        if done.any():
            at = live[done]
            values[at], errors[at] = cur[done], np.where(np.isfinite(cur[done]), delta[done], math.inf)
            converged[at], points[at] = ok[done], n
            if done.all():
                return values, errors, converged, points
            keep = ~done
            live, costs, cur = live[keep], costs[keep], cur[keep]
        prev = cur


def _refine(f: Callable[[np.ndarray], np.ndarray], ndim: int, cfg: QuadratureConfig) -> MultiQuadResult:
    """Grid averages at n, 2n, 4n, ... points per axis, n = cfg.base_points."""
    if ndim == 0:
        return _exact_result(_grid_average(f, 0, 1), 1)
    if cfg.base_points**ndim > _MAX_POINTS:
        return _unreached(f(np.empty((0, ndim))))

    def grid(j: int, live: np.ndarray, prev) -> tuple:
        n = cfg.base_points << j
        return _grid_average(f, ndim, n)[None], n

    values, errors, converged, points = _converge(grid, lambda j: (cfg.base_points << j) ** ndim, [1], cfg)
    return MultiQuadResult(values[0], errors[0], bool(converged[0]), int(points[0]))


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


def richardson_extrapolate(values: Sequence[float]) -> tuple[float, float]:
    """Extrapolate a geometrically refined sequence to its limit.

    values[k] is taken at step h/2**k (coarsest first). The convergence
    order is estimated from the last three entries. Returns (limit, order);
    when the differences do not shrink geometrically the last value is
    returned with order nan.
    """
    v = [float(x) for x in values]
    if len(v) < 3:
        raise ValueError("need at least three values to extrapolate")
    d1 = v[-2] - v[-3]
    d2 = v[-1] - v[-2]
    if d2 == 0.0:
        return v[-1], math.inf
    q = d1 / d2
    if q <= 1.0:
        return v[-1], math.nan
    order = math.log(q) / math.log(2.0)
    return v[-1] + d2 / (q - 1.0), order
