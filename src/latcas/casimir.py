"""Zero-point energies and Casimir energy of a slab, and the one
nearest-neighbor kernel and dispersion evaluator every energy is built on.

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
kz average. Every call reads one transverse rule, a table of levels that
hold the values of t and the kz average at each, filled as the first
thickness asks; both parities, every thickness and the continuum term of
even orders read it. Its levels split by parity. For even s the integrand
is of degree s/2 on every transverse axis too, so one exact level, the
uniform grid of s/2+1 points per axis, suffices: no refinement and no
QuadratureConfig. For odd s the zone average is the one-dimensional
integral of F(t) against the lattice density of states, by tanh-sinh
levels under QuadratureConfig with the change between the last two levels
as the error:

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
rule's average of the kz average, taken once and kept with the rule. The
row is written straight from those numbers, with no quadrature result.

Each value of t costs the kz average, s/2+1 kz nodes (one closed form for
odd s) in dispersion evaluations, plus the modes of the thickness where
the mode sum is taken. The point budget of quadrature charges that cost,
zero_point_sum and zero_point_int included, for a level an earlier call
built as for a new one, and work whose first level would pass it is
refused before any mode is generated or any level built.

The rule depends on s, am and d only, not on nz, g or the call, so it
lives across calls: the calls of a process with the same (s, am, d) read
and extend one table, and each result has the bits it would have from a
table of its own. The tables stay in a least-recently-used store that
holds at most _HELD_BYTES (8 MiB) of level arrays besides the table used
last, so its memory beyond 8 MiB is one call's table, which the point
budget bounds.

One kernel, _casimir_rows, computes a list of thicknesses, and
casimir_energy is its one-thickness case. The thicknesses of the pointwise
route refine level by level together: each level takes one dispersion call
over the joined mode kernels of the thicknesses still refining, and one
vectorised convergence test. Each thickness still sums its own modes,
keeps its own budget and gets its own verdict, and retires when it
converges, reaches max_refinements or cannot afford its next level, so a
sweep row is bit for bit the casimir_energy result of its thickness. The
thicknesses go in groups whose joined modes take at most _MAT_BUDGET values
on the first level, and each dispersion call stays within that budget, so
memory does not grow with the sum of the thicknesses. A group builds the
modes of all its thicknesses in one call (modes._joined_modes) and takes
their kernels once; its values, errors and verdicts come back as arrays,
one row per thickness, and each CasimirResult is made from their floats.
"""
from __future__ import annotations

import bisect
import itertools
import math
from typing import Sequence

import numpy as np

from .model import CasimirResult, DispersionSpec, Geometry, QuadratureConfig
from .modes import BoundaryCondition, _joined_modes, _mode_count
from .quadrature import _EPS, _MAX_POINTS, _rounding_floor, _tanh_sinh, _tanh_sinh_nodes, _tanh_sinh_size

__all__ = [
    "QuadratureNonConvergence",
    "zero_point_sum",
    "zero_point_int",
    "casimir_energy",
    "eval_lattice_dispersion",
    "eval_from_kernel_sum",
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


def _node_sum(spec: DispersionSpec, t: np.ndarray, joined: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """sum_j omega(t + k[j]) for every entry of t and every kernel k, the
    columns bounds[i]:bounds[i+1] of joined, as a (len(bounds)-1, t.size)
    array.

    Consecutive kernels share one dispersion call while their (t.size,
    nodes) temporary stays within _MAT_BUDGET elements; a kernel too large
    for that goes alone, its rows of t in blocks, or one row when it has
    more nodes than that. Each kernel sums its own columns, one numpy
    pairwise sum per row written straight into the result, so a sum does
    not depend on the blocking or on the other kernels.
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
                np.add.reduce(v[:, bounds[j] - a : bounds[j + 1] - a], axis=1, out=out[j, i : i + step])
            del v  # before the next block is allocated
        k = e
    return out


def _join(kernels: Sequence[np.ndarray]) -> tuple:
    """(joined, bounds) of _node_sum for a list of kernels; one kernel is not copied."""
    bounds = [0, *itertools.accumulate(k.size for k in kernels)]
    return (kernels[0] if len(kernels) == 1 else np.concatenate(kernels)), bounds


def _mode_sum(
    spec: DispersionSpec, joined: np.ndarray, bounds: Sequence[int], w: float, t: np.ndarray
) -> np.ndarray:
    """(1/2) w sum_l omega(t + k_i[l]) for every entry of t, one row per
    thickness i, with k_i its mode kernels, the columns of joined that
    bounds gives it (see _node_sum); every generate_modes family has one
    uniform weight w."""
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


class _Rule:
    """The transverse rule of (s, am) in d dimensions (module docstring): a
    table of levels, filled in order as callers first ask for them, that
    _rule keeps across calls."""

    def __init__(self, spec: DispersionSpec, d: int):
        even = spec.s % 2 == 0
        self.spec, self.d = spec, d
        # points per axis of the one exact level; 0 for tanh-sinh levels
        self.n = spec.s // 2 + 1 if even else int(d == 1)
        # values of t of level 0, which callers check against the budget
        self.first = self.n ** (d - 1) if self.n else (d - 1) * _tanh_sinh_size(0)
        # dispersion evaluations of the kz average at one t; odd: one closed form
        self.kz_nodes = self.n if even else 1
        self.levels: list[tuple] = []
        self.nbytes = 0  # of the level arrays
        self.continuum: float | None = None  # even s: A, once a row past the support asks

    def level(self, j: int) -> tuple:
        """Level j as (w, t, scale, kz), read-only arrays: the weights, the
        values of t, the d=3 scale (None elsewhere) and _kz_average at each
        t. The one exact level of even s, and of odd s in d=1 (t = 0), is
        the uniform grid without weights, in _grid_average's row-major
        order; odd s in d = 2, 3 take the _dos_level tanh-sinh levels."""
        if j == len(self.levels):  # callers ask for levels in order
            if self.n:
                k, t, w, scale = _node_kernels(self.n), np.zeros(1), None, None
                for _ in range(self.d - 1):
                    t = (t[:, None] + k).ravel()
            else:
                w, t, scale = _dos_level(self.d, j)
            arrays = (w, t, scale, _kz_average(self.spec, t))
            for a in arrays:
                if a is not None:
                    a.flags.writeable = False
                    self.nbytes += a.nbytes
            self.levels.append(arrays)
        return self.levels[j]


# the rules of earlier calls by (s, type(am), am, d), least recently used first;
# g does not enter a rule, and the type of am keeps values that compare equal
# but compute differently (a float32 mass, say) apart
_RULES: dict[tuple, _Rule] = {}
_HELD_BYTES = 8 << 20  # level arrays kept besides those of the most recently used rule


def _rule(spec: DispersionSpec, d: int) -> _Rule:
    """The transverse rule of spec in d dimensions, with the levels that
    earlier calls built. Rules live across calls, least recently used
    evicted first, so that the level arrays of all but the most recently
    used hold at most _HELD_BYTES; a rule larger than that alone goes as
    soon as another is asked for. A stored level gives the bits it gave
    when it was built, and callers charge the point budget for it all the
    same, so each result is the same whether its rule was stored or not.
    """
    key = (spec.s, type(spec.am), spec.am, d)
    rule = _RULES.pop(key, None) or _Rule(spec, d)
    if _RULES:  # only the rule used last can have grown since the bound was kept
        last = next(reversed(_RULES))
        if _RULES[last].nbytes > _HELD_BYTES:  # too large to keep alone
            del _RULES[last]
    held = sum(r.nbytes for r in _RULES.values())
    while held > _HELD_BYTES:
        held -= _RULES.pop(next(iter(_RULES))).nbytes
    _RULES[key] = rule  # most recently used last
    return rule


def _transverse_average(rule: _Rule, f, cfg: QuadratureConfig, costs: Sequence[int] = (1,)) -> tuple:
    """Transverse BZ averages of the rows of f over the levels of rule (see
    _rule), one row per entry of costs, as the arrays (values, errors,
    converged, points) of quadrature._converge: shapes (rows, ncomp),
    (rows, ncomp), (rows,) and (rows,), points the nodes per axis of the
    last level of each row.

    f(t, kz, rows) gives the integrands of the rows asked for, an index
    array, at the level's values of t (the transverse kernel sum) and kz
    (its kz average), as a (rows.size, t.size, ncomp) array. One exact
    level is the mean of each row, summed in extended precision as
    _grid_average sums, with no refinement; cfg is not consulted, and a
    row with a non-finite value is not converged, its errors inf. Tanh-sinh
    levels refine the rows together under cfg, each value of t charged
    costs[i] points against the budget of row i, and each row stops on its
    own verdict with the change between its last two levels as the error.
    Either way the error is at least the rounding floor of the largest
    component, which for the Casimir integrand is at least |e0_int|, the
    size of the terms that cancel pointwise; it is applied to all rows at
    once.
    """
    if rule.n:
        _, t, _, kz = rule.level(0)
        values = f(t, kz, np.arange(len(costs))).sum(axis=1, dtype=np.longdouble).astype(float) / t.size
        converged = np.isfinite(values).all(axis=1)
        errors = np.zeros_like(values)
        errors[~converged] = math.inf
        points = np.full(len(costs), rule.n)
    else:

        def at(j: int, live: np.ndarray) -> tuple:
            w, t, scale, kz = rule.level(j)
            vals = f(t, kz, live)
            if scale is not None:  # d=3: fold the two values of t of each node
                vals = (vals / scale[:, None]).reshape(live.size, 2, w.size, -1).sum(axis=1)
            return w, vals

        # one value of t per node in d=2, two in d=3
        values, errors, converged, points = _tanh_sinh(at, cfg, width=rule.first // _tanh_sinh_size(0), costs=costs)
    # fmax: a NaN floor keeps the inf error
    return values, np.fmax(errors, _rounding_floor(values)[:, None]), converged, points


def _bare_value(spec: DispersionSpec, d: int, cost: int, cfg: QuadratureConfig, what: str, make_f) -> float:
    """g times the transverse average of the scalar integrand make_f(), one
    row of one component as _transverse_average takes it, at cost
    dispersion evaluations per value of t besides the kz average that the
    rule builds; make_f runs only once the budget admits the first level.
    Raises QuadratureNonConvergence with the best value (NaN, error inf for
    refused work) when not converged."""
    rule = _rule(spec, d)
    cost += rule.kz_nodes
    value, error, converged = math.nan, math.inf, False
    if rule.first * cost <= _MAX_POINTS:
        values, errors, ok, _ = _transverse_average(rule, make_f(), cfg, [cost])
        value, error, converged = float(values[0, 0]), float(errors[0, 0]), bool(ok[0])
    value, error = spec.g * value, spec.g * error
    if not converged:
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
        akz, bounds, w = _joined_modes(bc, [geom.nz])
        k = _kernel(akz)
        return lambda t, kz, rows: _mode_sum(spec, k, bounds, w, t)[:, :, None]

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

    Every row reads the one stored transverse rule of (s, am, d) (_rule),
    so each level's values of t and kz average are built once per process,
    when the first row of any call asks, and every row charges them to its
    budget whether this call built them or an earlier one. Even orders past
    the support, more modes than s/2, are structural zeros by the aliasing
    identity: e_cas, coeff and quad_error are exactly 0.0 and e0_sum =
    e0_int = g (nz/2) A, where A is the rule's average of the kz average,
    taken when the first such row asks and stored with the rule. Those
    rows generate no modes and take no mode sum; if A is refused by the
    budget or not finite, they are not converged with e_cas NaN and
    quad_error inf. A row whose first level the budget refuses is NaN with
    quad_error inf, not converged, and builds nothing either. The
    other rows take the pointwise route together (module docstring), in
    groups of consecutive rows whose joined modes times the first level's
    values of t stay within _MAT_BUDGET, so memory does not grow with the
    sum of the thicknesses. A row the point budget admits fits a group
    alone.
    """
    rule = _rule(spec, d)
    rows: list = [None] * len(nzs)
    groups: list[list[int]] = []  # indices of the rows of the pointwise route
    joined = 0  # modes of the last group
    for i, nz in enumerate(nzs):
        n = _mode_count(bc, nz)
        if spec.s % 2 == 0 and n > spec.s // 2:
            if rule.continuum is None:
                a = math.nan  # unless the budget admits the level
                if rule.first * rule.kz_nodes <= _MAX_POINTS:
                    values = _transverse_average(rule, lambda t, kz, _: kz[None, :, None], cfg, [rule.kz_nodes])[0]
                    a = float(values[0, 0])
                rule.continuum = a
            e0 = (0.5 * nz) * rule.continuum
            if math.isfinite(e0):
                rows[i] = _row(spec, d, nz, 0.0, e0, 0.0, True)
            else:
                rows[i] = _row(spec, d, nz, math.nan, e0, math.inf, False)
        elif rule.first * (n + rule.kz_nodes) > _MAX_POINTS:
            rows[i] = _row(spec, d, nz, math.nan, math.nan, math.inf, False)
        else:
            if not groups or (joined + n) * rule.first > _MAT_BUDGET:
                groups.append([])
                joined = 0
            groups[-1].append(i)
            joined += n
    for group in groups:
        values, errors, converged, _ = _pointwise(spec, rule, bc, [nzs[i] for i in group], cfg)
        for i, (e_cas, e0_int), error, ok in zip(group, values.tolist(), errors[:, 0].tolist(), converged.tolist()):
            rows[i] = _row(spec, d, nzs[i], e_cas, e0_int, error, ok)
    return rows


def _pointwise(spec: DispersionSpec, rule: _Rule, bc: BoundaryCondition, nzs: list, cfg: QuadratureConfig) -> tuple:
    """Averages of (e_cas, e0_int) / g at the thicknesses nzs, refined
    together in one _transverse_average, as its arrays. The modes of all
    thicknesses are built in one call and their kernels taken once, and
    joined again only when a row retires."""
    akz, bounds, w = _joined_modes(bc, nzs)
    k = _kernel(akz)
    half = 0.5 * np.array(nzs, dtype=float)[:, None]  # nz/2 of each row
    # the live rows only shrink, so their number names them
    joins = {len(nzs): (k, bounds, half)}

    def f(t: np.ndarray, kz: np.ndarray, live: np.ndarray) -> np.ndarray:
        if live.size not in joins:
            joins.clear()
            joins[live.size] = (*_join([k[bounds[i] : bounds[i + 1]] for i in live]), half[live])
        joined, cols, half_live = joins[live.size]
        vals = np.empty((live.size, t.size, 2))  # (e_cas, e0_int) / g
        int_part = np.multiply(half_live, kz, out=vals[..., 1])
        np.subtract(_mode_sum(spec, joined, cols, w, t), int_part, out=vals[..., 0])
        return vals

    return _transverse_average(rule, f, cfg, [b - a + rule.kz_nodes for a, b in itertools.pairwise(bounds)])


def _row(
    spec: DispersionSpec, d: int, nz: int, e_cas: float, e0_int: float, error: float, converged: bool
) -> CasimirResult:
    """The CasimirResult of thickness nz from the averages e_cas / g and
    e0_int / g, the error of the first, and the verdict."""
    e_cas, e0_int = spec.g * e_cas, spec.g * e0_int
    alpha = (d - 1) + spec.s
    try:
        coeff = float(nz**alpha) * e_cas
    except OverflowError:  # nz**alpha passes the float range
        coeff = math.inf * e_cas if e_cas else 0.0
    return CasimirResult(nz, e0_int + e_cas, e0_int, e_cas, coeff, spec.g * error, converged)


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
