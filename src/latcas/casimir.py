"""Zero-point energies and Casimir energy of a slab.

The Casimir energy is the mode-sum zero-point energy minus the continuum
one at equal thickness. The two are combined pointwise in the transverse
integrand, mode sum minus kz average at each transverse momentum, and the
difference is integrated once. Subtracting two separately integrated O(nz)
quantities instead would lose most significant digits: for a linear branch
at nz=20 the difference is ~1e-5 while either term is ~20.

The inner kz average is exact up to rounding, so its error never
masquerades as a Casimir signal. For even s the integrand is a
trigonometric polynomial of degree s/2 in kz and the uniform (s/2+1)-node
rule integrates it exactly. For odd s it is a closed form in the complete
elliptic integrals K and E, evaluated by the arithmetic-geometric mean.

Every transverse integrand depends on the transverse momentum only through
the kernel sum t = sum_i (2 - 2 cos k_i), so the integrands take t and its
kz average. Each call builds one transverse rule, a table of levels that
hold the values of t and the kz average at each, filled as the first
thickness asks; both parities, every thickness of the call and the
continuum term of even orders read it. Its levels split by parity. For
even s the integrand is of degree s/2 on every transverse axis too, so one
exact level, the uniform grid of s/2+1 points per axis, suffices: no
refinement and no QuadratureConfig. For odd s the zone average is the
one-dimensional integral of F(t) against the lattice density of states, by
tanh-sinh levels under QuadratureConfig with the change between the last
two levels as the error:

- d=1 has the single point t = 0, one exact level;
- d=2 averages kx over [0, pi] with t = 4 sin^2(kx/2);
- d=3 uses the square-lattice density rho(t) = K(m) / (2 pi^2) on [0, 8],
  sqrt(1-m) = |t-4|/4 (Economou, Green's Functions in Quantum Physics),
  split at the van Hove point t = 4 so that its logarithm sits at the
  interval ends, like the sqrt(t) cusp of the kz=0 mode at t = 0.

Both parities report at least a rounding floor of 16 ulps of the largest
integrated term, because the pointwise difference rounds at that size, and
level changes within that floor count as converged.

Even orders vanish by structure past the support (the aliasing identity):
every mode family is a uniform rule in kz, the antiperiodic one shifted,
and a uniform rule of more than s/2 nodes integrates the degree-s/2
trigonometric polynomial exactly. So once a thickness has more than s/2
modes (nz > s/2 periodic or antiperiodic, 2nz > s/2 phenomenological) its
mode sum is the continuum term at every transverse point. Such a row is
answered without modes: e_cas, coeff and quad_error are exactly 0.0, as
there is no cancellation, and e0_sum = e0_int = g (nz/2) A, where A is the
rule's average of the kz average, taken once per call.

Each value of t costs the kz average, s/2+1 kz nodes (one closed form for
odd s) in dispersion evaluations, plus the modes of the thickness where
the mode sum is taken. The point budget of quadrature charges that cost,
zero_point_sum and zero_point_int included, and work whose first level
would pass it is refused before any mode is generated or any level built.

One kernel, _casimir_rows, computes a list of thicknesses, and
casimir_energy is its one-thickness case. The rule does not depend on nz
and lives for that call only. The thicknesses of the pointwise route
refine level by level together: each level takes one dispersion call over
the joined mode kernels of the thicknesses still refining, and one
vectorised convergence test. Each thickness still sums its own modes,
keeps its own budget and gets its own verdict, and retires when it
converges, reaches max_refinements or cannot afford its next level, so a
sweep row is bit for bit the casimir_energy result of its thickness. The
thicknesses go in groups whose joined modes take at most _MAT_BUDGET values
on the first level, and each dispersion call stays within that budget, so
memory does not grow with the sum of the thicknesses.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import CasimirResult, DispersionSpec, Geometry, _kernel, _omega_inplace
from .modes import BoundaryCondition, generate_modes, _mode_count
from .quadrature import (
    _EPS,
    _MAX_POINTS,
    MultiQuadResult,
    QuadratureConfig,
    _exact_result,
    _rounding_floor,
    _tanh_sinh,
    _tanh_sinh_nodes,
    _tanh_sinh_size,
    _unreached,
)

__all__ = [
    "QuadratureNonConvergence",
    "zero_point_sum",
    "zero_point_int",
    "casimir_energy",
]

# elements per (values of t, joined mode kernels) temporary; the point budget
# already keeps one thickness's level, values of t times modes, within it
_MAT_BUDGET = _MAX_POINTS
_AGM_MAX_ITER = 64  # convergence is quadratic; the cap bounds NaN or inf input


class QuadratureNonConvergence(RuntimeError):
    """Raised by operations that return a bare number when the refinement
    did not meet tolerance. Carries the best value and its error estimate."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(message)
        self.value = value
        self.error = error


def _node_sum(spec: DispersionSpec, t: np.ndarray, joined: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """sum_j omega(t + k[j]) for every entry of t and every kernel k, the
    columns bounds[i]:bounds[i+1] of joined, as a (len(bounds)-1, t.size)
    array.

    Consecutive kernels share one dispersion call while their (t.size,
    nodes) temporary stays within _MAT_BUDGET elements; a kernel too large
    for that goes alone, its rows of t in blocks, or one row when it has
    more nodes than that. Each kernel sums its own columns, one numpy
    pairwise sum per row, so a sum does not depend on the blocking or on
    the other kernels.
    """
    out = np.empty((len(bounds) - 1, t.size))
    width = _MAT_BUDGET // t.size  # nodes that one call over every value of t may take
    k = 0
    while k < len(out):
        a = bounds[k]
        e = bisect.bisect_right(bounds, a + width, k + 2) - 1  # kernels k..e-1 share the call
        cols = joined[a : bounds[e]]
        step = max(1, _MAT_BUDGET // cols.size)
        for i in range(0, t.size, step):
            v = _omega_inplace(spec, t[i : i + step, None] + cols)
            for j in range(k, e):
                out[j, i : i + step] = v[:, bounds[j] - a : bounds[j + 1] - a].sum(axis=1)
            del v  # before the next block is allocated
        k = e
    return out


def _join(kernels: Sequence[np.ndarray]) -> tuple:
    """(joined, bounds) of _node_sum for a list of kernels; one kernel is not copied."""
    bounds = [0, *itertools.accumulate(k.size for k in kernels)]
    return (kernels[0] if len(kernels) == 1 else np.concatenate(kernels)), bounds


def _mode_sum(
    spec: DispersionSpec, joined: np.ndarray, bounds: Sequence[int], w: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """(1/2) w_i sum_l omega(t + k_i[l]) for every entry of t, one row per
    thickness i, with k_i its mode kernels, the columns of joined that
    bounds gives it (see _node_sum); every generate_modes family has one
    uniform weight w_i, here a column."""
    return 0.5 * (w * _node_sum(spec, t, joined, bounds))


def _kz_average(spec: DispersionSpec, t: np.ndarray) -> np.ndarray:
    """Per-point kz average (1/2pi) int omega(t + 2 - 2 cos x) dx, exact to rounding.

    Even s: the uniform (s/2+1)-node rule, exact for the degree-s/2
    trigonometric polynomial. Odd s: with v = t + am^2 and q = 4/(v+4),
    v + 2 - 2 cos x = (v+4)(1 - q cos^2(x/2)), so the average is
    (v+4)^(s/2) (2/pi) I_s with I_p = int_0^(pi/2) (1 - q sin^2 phi)^(p/2) dphi.
    I_-1 = K(q) and I_1 = E(q) come from one arithmetic-geometric mean
    (Abramowitz & Stegun 17.6); higher odd orders follow from
    I_(p+2) = ((p+1)(2-q) I_p - p(1-q) I_(p-2)) / (p+2), which is stable
    forward because its characteristic roots are 1 and 1-q <= 1.
    """
    s = spec.s
    if s % 2 == 0:
        m = s // 2 + 1
        return _node_sum(spec, t, _node_kernels(m), (0, m))[0] / m
    v = t + spec.am * spec.am if spec.am else t
    w = v + 4.0
    q = 4.0 / w
    qc = v / w  # 1 - q without cancellation near v = 0
    cusp = v == 0.0  # q = 1: K diverges, but (1-q) K -> 0 and E -> 1
    # AGM(1, sqrt(1-q)), 1 a finite stand-in at the cusp; c_0^2 = q starts the tail
    a, tail = _agm(np.sqrt(np.where(cusp, 1.0, qc)), 0.5 * q)
    k = (0.5 * math.pi) / a
    cur = np.where(cusp, 1.0, k * (1.0 - tail))  # I_p, starting at p = 1
    lo = qc * k  # (1-q) I_(p-2); exactly 0 at the cusp
    for p in range(1, s, 2):
        cur, lo = ((p + 1) * (2.0 - q) * cur - p * lo) / (p + 2), qc * cur
    return (2.0 / math.pi) * np.sqrt(w) * w ** (s // 2) * cur


def _agm(b: np.ndarray, tail):
    """Arithmetic-geometric mean a = M(1, b) elementwise, 0 <= b <= 1, so
    K = (pi/2) / a with b = sqrt(1-m); tail comes back with
    sum_(n>=1) 2^(n-1) c_n^2 added, which gives E = K (1 - tail) when it
    starts at c_0^2 / 2 = m / 2 (Abramowitz & Stegun 17.6). The iteration
    cap bounds NaN or inf input."""
    a = np.ones_like(b)
    scale = 0.5
    for _ in range(_AGM_MAX_ITER):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        scale *= 2.0
        tail = tail + scale * (c * c)
        if (np.abs(c) <= _EPS * a).all():
            break
    return a, tail


def _node_kernels(m: int) -> np.ndarray:
    """Kernels 2 - 2 cos x at the m uniform nodes x = 2 pi j / m."""
    return _kernel(np.arange(m, dtype=float) * (2.0 * math.pi / m))


def _dos_level(d: int, level: int) -> tuple:
    """Tanh-sinh level `level` of the density-of-states integral in d = 2, 3:
    (w, t, scale), the weights of the nodes the level adds, the values of t
    at them, and the scale that divides each value (None in d=2).

    d=2: t = 4 sin^2(pi x / 2), the kx average over [0, pi]. d=3: t = 4x on
    [0, 4] and t = 4 + 4x on [4, 8], two values per node, where |t-4|/4 =
    sqrt(1-m) is xc and x, taken from the complements and never from t, so
    no node rounds onto t = 4; scale = pi M(1, sqrt(1-m)) = 1 / (4 rho).
    """
    x, xc, w = _tanh_sinh_nodes(level)
    if d == 2:
        return w, 4.0 * np.sin(0.5 * math.pi * x) ** 2, None
    a, _ = _agm(np.concatenate([xc, x]), 0.0)
    return w, np.concatenate([4.0 * x, 4.0 + 4.0 * x]), math.pi * a


class _Rule(NamedTuple):
    """The transverse rule of one call (module docstring); _rule builds it."""

    level: Callable[[int], tuple]  # level j as (w, t, scale, kz)
    n: int  # points per axis of the one exact level; 0 for tanh-sinh levels
    first: int  # values of t of level 0, which callers check against the budget
    kz_nodes: int  # dispersion evaluations of the kz average at one t


def _rule(spec: DispersionSpec, d: int) -> _Rule:
    """The transverse rule of spec in d dimensions.

    level(j) gives level j of a table filled as callers first ask for it:
    the weights, the values of t, the d=3 scale (None elsewhere) and
    _kz_average at each t. The one exact level of even s, and of odd s in
    d=1 (t = 0), is the uniform grid without weights, in _grid_average's
    row-major order; odd s in d = 2, 3 take the _dos_level tanh-sinh levels.
    """
    even = spec.s % 2 == 0
    n = spec.s // 2 + 1 if even else int(d == 1)
    table: list[tuple] = []

    def level(j: int) -> tuple:
        if j == len(table):  # callers ask for levels in order
            if n:
                k, t, w, scale = _node_kernels(n), np.zeros(1), None, None
                for _ in range(d - 1):
                    t = (t[:, None] + k).ravel()
            else:
                w, t, scale = _dos_level(d, j)
            table.append((w, t, scale, _kz_average(spec, t)))
        return table[j]

    first = n ** (d - 1) if n else (d - 1) * _tanh_sinh_size(0)
    return _Rule(level, n, first, n if even else 1)  # odd: one closed form


def _transverse_average(rule: _Rule, f, cfg: QuadratureConfig, costs: Sequence[int] = (1,)) -> list[MultiQuadResult]:
    """Transverse BZ averages of the rows of f over the levels of rule (see
    _rule), one result per entry of costs.

    f(t, kz, rows) gives the integrands of the rows asked for, an index
    array, at the level's values of t (the transverse kernel sum) and kz
    (its kz average), as a (rows.size, t.size, ncomp) array. One exact
    level is the mean of each row, summed in extended precision as
    _grid_average sums, with no refinement; cfg is not consulted. Tanh-sinh
    levels refine the rows together under cfg, each value of t charged
    costs[i] points against the budget of row i, and each row stops on its
    own verdict with the change between its last two levels as the error.
    Either way the error is at least the rounding floor of the largest
    component, which for the Casimir integrand is at least |e0_int|, the
    size of the terms that cancel pointwise.
    """
    level, n, first, _ = rule
    if n:
        _, t, _, kz = level(0)
        vals = f(t, kz, np.arange(len(costs)))
        rs = [_exact_result(v.sum(axis=0, dtype=np.longdouble).astype(float) / t.size, n) for v in vals]
    else:

        def at(j: int, live: np.ndarray) -> tuple:
            w, t, scale, kz = level(j)
            vals = f(t, kz, live)
            if scale is not None:  # d=3: fold the two values of t of each node
                vals = (vals / scale[:, None]).reshape(live.size, 2, w.size, -1).sum(axis=1)
            return w, vals

        # one value of t per node in d=2, two in d=3
        rs = _tanh_sinh(at, cfg, width=first // _tanh_sinh_size(0), costs=costs)
    # fmax: a NaN floor keeps the inf error
    return [replace(r, errors=np.fmax(r.errors, _rounding_floor(r.values))) for r in rs]


def _bare_value(spec: DispersionSpec, d: int, cost: int, cfg: QuadratureConfig, what: str, make_f) -> float:
    """g times the transverse average of the scalar integrand make_f(), one
    row of one component as _transverse_average takes it, at cost
    dispersion evaluations per value of t besides the kz average that the
    rule builds; make_f runs only once the budget admits the first level.
    Raises QuadratureNonConvergence with the best value (NaN, error inf for
    refused work) when not converged."""
    rule = _rule(spec, d)
    cost += rule.kz_nodes
    if rule.first * cost <= _MAX_POINTS:
        r = _transverse_average(rule, make_f(), cfg, [cost])[0]
    else:
        r = _unreached(np.empty((0, 1)))
    value, error = spec.g * float(r.values[0]), spec.g * float(r.errors[0])
    if not r.converged:
        raise QuadratureNonConvergence(
            f"{what} quadrature did not converge (best {value}, estimate {error})", value, error
        )
    return value


def _check(spec: DispersionSpec, geom: Geometry) -> None:
    if not isinstance(spec, DispersionSpec):
        raise TypeError("spec must be a DispersionSpec")
    if not isinstance(geom, Geometry):
        raise TypeError("geom must be a Geometry")


def zero_point_sum(
    spec: DispersionSpec,
    geom: Geometry,
    bc: BoundaryCondition,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Mode-sum zero-point energy per transverse site, g * <(1/2) sum_l w omega>."""
    _check(spec, geom)

    def make_f():
        modes = generate_modes(bc, geom.nz)
        k, w = _kernel(modes.akz), modes.weights[:1]
        return lambda t, kz, rows: _mode_sum(spec, k, (0, k.size), w[:, None], t)[:, :, None]

    return _bare_value(spec, geom.d, _mode_count(bc, geom.nz), cfg, "mode-sum", make_f)


def zero_point_int(
    spec: DispersionSpec,
    geom: Geometry,
    bc: BoundaryCondition,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Continuum zero-point energy per transverse site, g * <(nz/2) kz-average>.

    Independent of the boundary condition by construction; bc is accepted for
    signature symmetry and ignored.
    """
    _check(spec, geom)
    half_nz = 0.5 * geom.nz
    return _bare_value(spec, geom.d, 0, cfg, "kz-average", lambda: lambda t, kz, rows: half_nz * kz[None, :, None])


def _casimir_rows(
    spec: DispersionSpec, d: int, bc: BoundaryCondition, nzs, cfg: QuadratureConfig
) -> list[CasimirResult]:
    """Casimir energies at the thicknesses nzs, one CasimirResult each.

    Every row reads the one transverse rule of the call, so each level's
    values of t and kz average are built once, when the first row asks.
    Even orders past the support, more modes than s/2, are structural
    zeros by the aliasing identity: e_cas, coeff and quad_error are exactly
    0.0 and e0_sum = e0_int = g (nz/2) A, where A is the rule's average of
    the kz average, taken once and only when such a row asks for it. Those
    rows generate no modes and take no mode sum; if A is refused by the
    budget or not finite, they are not converged with quad_error inf. The
    other rows take the pointwise route together (module docstring), in
    groups of consecutive rows whose joined modes times the first level's
    values of t stay within _MAT_BUDGET, so memory does not grow with the
    sum of the thicknesses. A row the point budget admits fits a group
    alone.
    """
    rule = _rule(spec, d)
    continuum = None  # even orders: A, taken when the first row past the support asks
    rows: list = [None] * len(nzs)
    groups: list[list[int]] = []  # indices of the rows of the pointwise route
    joined = 0  # modes of the last group
    for i, nz in enumerate(nzs):
        n = _mode_count(bc, nz)
        if spec.s % 2 == 0 and n > spec.s // 2:
            if continuum is None:
                continuum = math.nan  # unless the budget admits the level
                if rule.first * rule.kz_nodes <= _MAX_POINTS:
                    avg = _transverse_average(rule, lambda t, kz, _: kz[None, :, None], cfg, [rule.kz_nodes])
                    continuum = float(avg[0].values[0])
            e0 = (0.5 * nz) * continuum
            zero = 0.0 if math.isfinite(e0) else math.nan  # non-finite: inf error, not converged
            rows[i] = _row(spec, d, nz, _exact_result(np.array([zero, e0]), 1))
        elif rule.first * (n + rule.kz_nodes) > _MAX_POINTS:
            rows[i] = _row(spec, d, nz, _unreached(np.empty((0, 2))))
        else:
            if not groups or (joined + n) * rule.first > _MAT_BUDGET:
                groups.append([])
                joined = 0
            groups[-1].append(i)
            joined += n
    for group in groups:
        for i, r in zip(group, _pointwise(spec, rule, bc, [nzs[i] for i in group], cfg)):
            rows[i] = _row(spec, d, nzs[i], r)
    return rows


def _pointwise(
    spec: DispersionSpec, rule: _Rule, bc: BoundaryCondition, nzs: list, cfg: QuadratureConfig
) -> list[MultiQuadResult]:
    """Averages of (e_cas, e0_int) / g at the thicknesses nzs, refined
    together in one _transverse_average. The mode kernels are built once,
    and joined again only when a row retires."""
    kernels, wh = [], []
    for nz in nzs:  # keep the kernels and weights, not the modes
        modes = generate_modes(bc, nz)
        kernels.append(_kernel(modes.akz))
        wh.append((modes.weights[0], 0.5 * nz))
    wh = np.array(wh)  # the weight and nz/2 of each row
    # the live rows only shrink, so their number names them
    joins = {len(nzs): (*_join(kernels), wh[:, :1], wh[:, 1:])}

    def f(t: np.ndarray, kz: np.ndarray, live: np.ndarray) -> np.ndarray:
        if live.size not in joins:
            joins.clear()
            joins[live.size] = (*_join([kernels[k] for k in live]), wh[live, :1], wh[live, 1:])
        joined, bounds, w_live, half_live = joins[live.size]
        vals = np.empty((live.size, t.size, 2))  # (e_cas, e0_int) / g
        int_part = np.multiply(half_live, kz, out=vals[..., 1])
        np.subtract(_mode_sum(spec, joined, bounds, w_live, t), int_part, out=vals[..., 0])
        return vals

    return _transverse_average(rule, f, cfg, [k.size + rule.kz_nodes for k in kernels])


def _row(spec: DispersionSpec, d: int, nz: int, r: MultiQuadResult) -> CasimirResult:
    """The CasimirResult of thickness nz from the average of (e_cas, e0_int) / g."""
    e_cas = spec.g * float(r.values[0])
    e0_int = spec.g * float(r.values[1])
    alpha = (d - 1) + spec.s
    try:
        coeff = float(nz**alpha) * e_cas
    except OverflowError:  # nz**alpha passes the float range
        coeff = math.inf * e_cas if e_cas else 0.0
    quad_error = spec.g * float(r.errors[0])
    return CasimirResult(nz, e0_int + e_cas, e0_int, e_cas, coeff, quad_error, r.converged)


def casimir_energy(
    spec: DispersionSpec,
    geom: Geometry,
    bc: BoundaryCondition,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> CasimirResult:
    """Casimir energy of the slab, with the defining difference taken pointwise.

    A non-converged refinement or a non-finite value is reported through
    converged=False with the best values and an honest quad_error; nothing
    is raised, the caller decides.
    """
    _check(spec, geom)
    return _casimir_rows(spec, geom.d, bc, [geom.nz], cfg)[0]
