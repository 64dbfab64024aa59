"""Quadrature rules and their one result type.

MultiQuadResult is the one result type: a scalar integrand is a
one-component result, and every component shares one verdict. Two refined
rules feed it through one convergence loop, which stops when successive
levels agree to tolerance, or to the rounding floor of _ROUNDING_ULPS ulps
of the largest component, and reports their difference as the error. The
loop refines rows, integrands over the same levels, together: each row
takes its own convergence test and budget, and stops on its own, so a row
has the bits it would have alone. It returns the rows as arrays of values,
errors, verdicts and points, which integrate_bz_multi turns into its one
MultiQuadResult.

- _tanh_sinh integrates over (0, 1) by the double-exponential rule
  (Takahasi & Mori, Publ. RIMS 9, 1974), halving the step each level and
  evaluating only the new nodes. It converges exponentially even with
  algebraic or logarithmic singularities at the endpoints, which is where
  the transverse density of states puts all of them (see casimir). The
  rule is split in two: _tanh_sinh_nodes gives a level's nodes and
  weights, and _tanh_sinh takes the integrands level by level, so a caller
  that integrates several functions over the same nodes can build each
  level once.
- integrate_bz_multi averages over the uniform periodic grid of the
  transverse Brillouin zone, (1/2pi)^n int_[0,2pi)^n f, doubling the grid
  each level. On a periodic domain the uniform n-point rule is exact for
  trigonometric polynomials of degree < n and spectrally accurate for
  analytic integrands. Grid sums are accumulated in a fixed deterministic
  order: chunk subtotals use numpy's pairwise reduction and the subtotals
  are combined with math.fsum, so results are bit-stable run to run
  regardless of internal evaluation batching.

Every call hands each integrand at most _MAX_POINTS points in total, each
point counted cost times where the integrand does cost units of work per
point (_tanh_sinh): a level that would pass the budget does not run for
that integrand, and its result is then not converged. Non-finite values
never count as converged.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import QuadratureConfig

__all__ = [
    "MultiQuadResult",
    "integrate_bz_multi",
    "richardson_extrapolate",
]

_TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 18  # grid points evaluated per batch
_MAX_POINTS = 1 << 20  # points one call may hand its integrand, all levels together
_TS_REACH = 3.5  # tanh-sinh nodes at |u| <= _TS_REACH; the weights beyond are below 1e-20
_EPS = float(np.finfo(float).eps)
_ROUNDING_ULPS = 16  # error floor, in ulps of the largest component


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


def _tanh_sinh_size(level: int) -> int:
    """Number of nodes that tanh-sinh level `level` adds (see _tanh_sinh_nodes)."""
    top = int(_TS_REACH * 2**level)
    return 2 * top + 1 if level == 0 else 2 * ((top + 1) // 2)


def _tanh_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes that tanh-sinh level `level` on (0, 1) adds: x, their
    complements xc = 1 - x and their weights w.

    Node u = k h maps to x = (1 + tanh(pi/2 sinh u)) / 2 with weight
    dx/du = pi cosh(u) x (1 - x). Both distances to the endpoints, lo = 1 - x
    and hi = x for u >= 0 (mirrored for -u), come from e = exp(-pi sinh u)
    without cancellation, so no node rounds onto an endpoint. Level j has
    step h = 2^-j and adds the odd multiples of it, out to |u| <= _TS_REACH.
    """
    h = math.ldexp(1.0, -level)
    top = int(_TS_REACH / h)
    u = (np.arange(0, top + 1) if level == 0 else np.arange(1, top + 1, 2)) * h
    e = np.exp(-math.pi * np.sinh(u))
    lo, hi = e / (1.0 + e), 1.0 / (1.0 + e)
    w = math.pi * np.cosh(u) * lo * hi
    side = u > 0  # u = 0 is one node
    return np.concatenate([hi, lo[side]]), np.concatenate([lo, hi[side]]), np.concatenate([w, w[side]])


def _tanh_sinh(
    at: Callable[[int, np.ndarray], tuple], cfg: QuadratureConfig, width: int, costs: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """int_0^1 f_i(x) dx for rows i, by nested tanh-sinh levels refined
    together under cfg, as the arrays of _converge.

    at(level, live) returns (w, values): the weights of
    _tanh_sinh_nodes(level) and the integrands of the rows live at its
    nodes, shape (live.size, nodes, ncomp). It is called only for levels
    that a live row affords. width is the number of points f evaluates per
    node and costs[i] the work per point of row i, which the budget counts.
    """
    nodes = 0

    def level(j: int, live: np.ndarray, prev) -> tuple:
        nonlocal nodes
        nodes += _tanh_sinh_size(j)
        w, vals = at(j, live)
        part = math.ldexp(1.0, -j) * (w @ vals)  # stacked: each row gets the bits of its own w @ vals[i]
        return (part if prev is None else 0.5 * prev + part), nodes

    return _converge(level, lambda j: width * _tanh_sinh_size(j), costs, cfg)


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
