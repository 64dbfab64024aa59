"""Casimir energy of a slab with its two zero-point terms, and the one
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
as the error. The whole tanh-sinh rule is in this module: the
double-exponential nodes and weights on (0, 1) (Takahasi & Mori, Publ.
RIMS 9, 1974), nested so that each level, at half the step, adds only its
new nodes, the values of t at them, and the level sums that
quadrature._converge refines, one dot product with the weights a level
stores per value of t, step and density of states in them. The rule
converges exponentially even with algebraic or logarithmic singularities
at the interval ends, where the density of states puts all of them:

- d=1 has the single point t = 0, one exact level;
- d=2 averages kx over [0, pi] with t = 4 sin^2(kx/2);
- d=3 uses the square-lattice density rho(t) = K(m) / (2 pi^2) on [0, 8],
  sqrt(1-m) = |t-4|/4 (Economou, Green's Functions in Quantum Physics),
  split at the van Hove point t = 4 so that its logarithm sits at the
  interval ends, like the sqrt(t) cusp of the kz=0 mode at t = 0.

Both parities report at least a rounding floor of 16 ulps of the largest
integrated term, because the pointwise difference rounds at that size, and
level changes within that floor count as converged. _row alone turns a
row's averages into its flag and error: a row whose error passes a tenth
of |e_cas| is not converged, so a tail lost in that floor says so.

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

Each value of t costs the kz average, s/2+1 kz nodes for even s and the
closed form with its s//2 recurrence steps, s//2+1, for odd s, in
dispersion evaluations, plus the modes of the thickness where the mode
sum is taken. The point budget of quadrature charges that cost for a
level an earlier call built as for a new one, and work whose first level
would pass it is refused before any mode is generated or any level built.

The rule depends on s, am and d only, not on nz, g or the call, so it
lives across calls: the calls of a process with the same (s, am, d) read
and extend one table, and each result has the bits it would have from a
table of its own. The tables stay in a least-recently-used store of at
most _MAX_RULES (64) rules that holds at most _HELD_BYTES (8 MiB) of level
arrays besides the table used last, so its memory beyond 8 MiB is one
call's table, which the point budget bounds.

One kernel, _casimir_rows, computes a list of thicknesses, and
casimir_energy is its one-thickness case. The thicknesses of the pointwise
route refine level by level together: each level takes one dispersion call
over the joined mode kernels of the thicknesses still refining, one
segmented sum (np.add.reduceat) that gives each thickness the sum of its
own columns, and one vectorised convergence test. A segment's sum depends
on its own columns only, and each thickness keeps its own budget and gets
its own verdict, and retires when it converges, reaches max_refinements
or cannot afford its next level, so a sweep row is bit for bit the
casimir_energy result of its thickness. The
thicknesses go in groups whose joined modes take at most _MAT_BUDGET values
on the first level, and each dispersion call stays within that budget, so
memory does not grow with the sum of the thicknesses. A group builds the
modes of all its thicknesses in one call (modes._joined_modes) and takes
their kernels once; its values, errors and verdicts come back as arrays,
one row per thickness, and each CasimirResult is made from their floats.
"""
from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .model import BoundaryCondition, CasimirResult, DispersionSpec, Geometry, QuadratureConfig
from .modes import _joined_modes, _mode_count
from .quadrature import _EPS, _MAX_POINTS, _converge, _rounding_floor

__all__ = ["casimir_energy", "eval_from_kernel_sum"]

# elements per (values of t, joined mode kernels) temporary; the point budget
# already keeps one thickness's level, values of t times modes, within it
_MAT_BUDGET = _MAX_POINTS
_AGM_MAX_ITER = 64  # convergence is quadratic; the cap bounds NaN or inf input
_TS_REACH = 3.5  # tanh-sinh nodes at |u| <= _TS_REACH; the weights beyond are below 1e-20


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
    if s == 1:
        np.sqrt(v, out=v)
    elif s % 2 == 0:  # x**0 is 1.0 even at nan and inf, and x**1 is x
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


def _node_sum(spec: DispersionSpec, t: np.ndarray, joined: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """sum_j omega(t + k[j]) for every entry of t and every kernel k, the
    columns bounds[i]:bounds[i+1] of joined (at least one each, the last
    ending at joined.size), as a (len(bounds)-1, t.size) array.

    Each block of values of t takes one dispersion call over all columns,
    its temporary within _MAT_BUDGET elements (one value of t when joined
    alone is larger), and one segmented sum written straight into the
    result. A segment is its first value plus the numpy pairwise sum of
    the rest of its own columns, so a sum does not depend on the blocking
    or on the other kernels.
    """
    out = np.empty((len(bounds) - 1, t.size))
    step = max(1, _MAT_BUDGET // joined.size)
    for i in range(0, t.size, step):
        v = _omega_inplace(spec, t[i : i + step, None] + joined)
        np.add.reduceat(v, bounds[:-1], axis=1, out=out[:, i : i + step].T)
        del v  # before the next block is allocated
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


def _tanh_sinh_size(level: int) -> int:
    """Number of nodes that tanh-sinh level `level` adds (see _tanh_sinh_nodes)."""
    top = int(_TS_REACH * 2**level)
    return 2 * top + 1 if level == 0 else 2 * ((top + 1) // 2)


def _tanh_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes that tanh-sinh level `level` on (0, 1) adds: x, their
    complements xc = 1 - x and their weights w.

    Node u = k h maps to x = (1 + tanh(pi/2 sinh u)) / 2 with weight
    h dx/du = h pi cosh(u) x (1 - x). Both distances to the endpoints,
    lo = 1 - x and hi = x for u >= 0 (mirrored for -u), come from
    e = exp(-pi sinh u) without cancellation, so no node rounds onto an
    endpoint. Level j has step h = 2^-j and adds the odd multiples of it,
    out to |u| <= _TS_REACH.
    """
    h = math.ldexp(1.0, -level)
    top = int(_TS_REACH / h)
    u = (np.arange(0, top + 1) if level == 0 else np.arange(1, top + 1, 2)) * h
    e = np.exp(-math.pi * np.sinh(u))
    lo, hi = e / (1.0 + e), 1.0 / (1.0 + e)
    w = h * math.pi * np.cosh(u) * lo * hi  # a power of two times pi: the step scales exactly
    side = u > 0  # u = 0 is one node
    return np.concatenate([hi, lo[side]]), np.concatenate([lo, hi[side]]), np.concatenate([w, w[side]])


def _dos_level(d: int, level: int) -> tuple:
    """Tanh-sinh level `level` of the density-of-states integral in d = 2, 3:
    (w, t), one weight per value of t, the level's step 2^-level in it, and
    the values of t at the nodes the level adds.

    d=2: t = 4 sin^2(pi x / 2), the kx average over [0, pi]. d=3: t = 4x on
    [0, 4] and t = 4 + 4x on [4, 8], two values per node, where |t-4|/4 =
    sqrt(1-m) is xc and x, taken from the complements and never from t, so
    no node rounds onto t = 4; each weight carries the density 4 rho =
    1 / (pi M(1, sqrt(1-m))) of its value of t.
    """
    x, xc, w = _tanh_sinh_nodes(level)
    if d == 2:
        return w, 4.0 * np.sin(0.5 * math.pi * x) ** 2
    a, _ = _agm(np.concatenate([xc, x]), 0.0)
    return np.concatenate([w, w]) / (math.pi * a), np.concatenate([4.0 * x, 4.0 + 4.0 * x])


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
        # dispersion evaluations of the kz average at one t; odd: s//2 recurrence steps too
        self.kz_nodes = self.n if even else spec.s // 2 + 1
        self.levels: list[tuple] = []
        self.nbytes = 0  # of the level arrays
        self.continuum: float | None = None  # even s: A, once a row past the support asks

    def level(self, j: int) -> tuple:
        """Level j as (w, t, kz), read-only arrays: the weights, the values
        of t and _kz_average at each t. The one exact level of even s, and
        of odd s in d=1 (t = 0), is the uniform grid without weights
        (w = None), in _grid_average's row-major order; odd s in d = 2, 3
        take the _dos_level tanh-sinh levels."""
        if j == len(self.levels):  # callers ask for levels in order
            if self.n:
                k, t, w = _node_kernels(self.n), np.zeros(1), None
                for _ in range(self.d - 1):
                    t = (t[:, None] + k).ravel()
            else:
                w, t = _dos_level(self.d, j)
            arrays = (w, t, _kz_average(self.spec, t))
            for a in arrays:
                if a is not None:
                    a.flags.writeable = False
                    self.nbytes += a.nbytes
            self.levels.append(arrays)
        return self.levels[j]


# the rules of earlier calls by (s, am, d), least recently used first; g does
# not enter a rule
_RULES: dict[tuple, _Rule] = {}
_HELD_BYTES = 8 << 20  # level arrays kept besides those of the most recently used rule
_MAX_RULES = 64  # rules kept, the most recently used included, with or without levels


def _rule(spec: DispersionSpec, d: int) -> _Rule:
    """The transverse rule of spec in d dimensions, with the levels that
    earlier calls built. Rules live across calls, least recently used
    evicted first, so that at most _MAX_RULES are kept and the level arrays
    of all but the most recently used hold at most _HELD_BYTES; a rule
    larger than that alone goes as soon as another is asked for. A stored
    level gives the bits it gave when it was built, and callers charge the
    point budget for it all the same, so each result is the same whether
    its rule was stored or not.
    """
    key = (spec.s, spec.am, d)
    rule = _RULES.pop(key, None) or _Rule(spec, d)
    if _RULES:  # only the rule used last can have grown since the bound was kept
        last = next(reversed(_RULES))
        if _RULES[last].nbytes > _HELD_BYTES:  # too large to keep alone
            del _RULES[last]
    while len(_RULES) >= _MAX_RULES:
        del _RULES[next(iter(_RULES))]
    held = sum(r.nbytes for r in _RULES.values())
    while held > _HELD_BYTES:
        held -= _RULES.pop(next(iter(_RULES))).nbytes
    _RULES[key] = rule  # most recently used last
    return rule


def _transverse_average(rule: _Rule, f, cfg: QuadratureConfig, costs: Sequence[int]) -> tuple:
    """Transverse BZ averages of the rows of f over the levels of rule (see
    _rule), one row per entry of costs, as the arrays (values, errors,
    converged, points) of quadrature._converge: shapes (rows, ncomp),
    (rows, ncomp), (rows,) and (rows,), points the nodes per axis of the
    last level of each row.

    f(t, kz, rows) gives the integrands of the rows asked for, an index
    array, at the level's values of t (the transverse kernel sum) and kz
    (its kz average), as a (rows.size, t.size, ncomp) array. One exact
    level is the mean of each row, summed in extended precision as
    _grid_average sums, with no refinement, zero errors and every row
    converged; cfg is not consulted, and _row judges its values. Tanh-sinh
    levels refine the rows together under cfg, each half the last plus the
    dot product of its weights with f, each value of t charged costs[i]
    points against the budget of row i, and each row stops on its own
    verdict with the change between its last two levels as the error.
    Either way the error is at least the rounding floor of the largest
    component, which for the Casimir integrand is at least |e0_int|, the
    size of the terms that cancel pointwise; it is applied to all rows at
    once.
    """
    if rule.n:
        _, t, kz = rule.level(0)
        values = f(t, kz, np.arange(len(costs))).sum(axis=1, dtype=np.longdouble).astype(float) / t.size
        errors, converged, points = np.zeros_like(values), np.ones(len(costs), dtype=bool), np.full(len(costs), rule.n)
    else:
        def level(j: int, live: np.ndarray, prev) -> tuple:
            w, t, kz = rule.level(j)
            part = w @ f(t, kz, live)  # stacked: each row gets the bits of its own w @ f(...)[i]
            return (part if prev is None else 0.5 * prev + part), 2 * int(_TS_REACH * 2**j) + 1  # the rule's nodes

        # the budget counts values of t: one per node in d=2, two in d=3
        values, errors, converged, points = _converge(level, lambda j: (rule.d - 1) * _tanh_sinh_size(j), costs, cfg)
    # fmax: a NaN floor keeps the inf error
    return values, np.fmax(errors, _rounding_floor(values)[:, None]), converged, points


def _check(spec: DispersionSpec, geom: Geometry) -> None:
    if not isinstance(spec, DispersionSpec):
        raise TypeError("spec must be a DispersionSpec")
    if not isinstance(geom, Geometry):
        raise TypeError("geom must be a Geometry")


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
    e0_int = g (nz/2) A, where A is the mean of the kz average over the
    rule's exact level, taken when the first such row asks and stored with
    the rule. Those rows generate no modes and take no mode sum; A is NaN
    when the budget refuses the level. A row whose first level the budget
    refuses is NaN and builds nothing either. Every branch hands _row plain
    numbers, and _row gives each row its verdict and error. The
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
                rule.continuum = math.nan  # unless the budget admits the level
                if rule.first * rule.kz_nodes <= _MAX_POINTS:
                    kz = rule.level(0)[2]
                    rule.continuum = float(kz.sum(dtype=np.longdouble)) / kz.size
            e0 = (0.5 * nz) * rule.continuum
            rows[i] = _row(spec, d, nz, e0 - e0, e0, 0.0, True)  # mode sum = continuum term; NaN if e0 is not finite
        elif rule.first * (n + rule.kz_nodes) > _MAX_POINTS:
            rows[i] = _row(spec, d, nz, math.nan, math.nan, math.nan, False)
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
    e0_int / g, the error of the first, and the verdict of their refinement.

    Every row's flag and error are decided here, on the reported (g-scaled)
    values: a non-finite e_cas or e0_int gives quad_error inf, and a row
    is converged only when its refinement converged, its values are finite
    and quad_error <= |e_cas| / 10. A structural zero, e_cas = quad_error =
    0.0, is converged.
    """
    e_cas, e0_int = spec.g * e_cas, spec.g * e0_int
    finite = math.isfinite(e_cas) and math.isfinite(e0_int)
    error = spec.g * error if finite else math.inf
    converged = converged and finite and error <= abs(e_cas) / 10
    alpha = (d - 1) + spec.s
    try:
        if nz > 1 and alpha * math.log2(nz) > 1100:  # past 2**1024, so not built as an integer
            raise OverflowError
        coeff = float(nz**alpha) * e_cas
    except OverflowError:  # nz**alpha passes the float range
        coeff = math.inf * e_cas if e_cas else 0.0
    return CasimirResult(nz, e0_int + e_cas, e0_int, e_cas, coeff, error, converged)


def casimir_energy(
    spec: DispersionSpec,
    geom: Geometry,
    bc: BoundaryCondition,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> CasimirResult:
    """Casimir energy of the slab, with the defining difference taken pointwise.

    A non-converged refinement, a non-finite value or a quad_error above
    |e_cas| / 10 is reported through converged=False with the best values
    and an honest quad_error; nothing is raised, the caller decides.
    """
    _check(spec, geom)
    return _casimir_rows(spec, geom.d, bc, [geom.nz], cfg)[0]
