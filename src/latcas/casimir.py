"""Casimir energy of a slab with its two zero-point terms, and the one
nearest-neighbor kernel and dispersion evaluator every energy is built on.

The Casimir energy is the mode-sum zero-point energy minus the continuum
one at equal thickness. For even orders both are integers over 2, read
from one table; for odd orders the two are combined pointwise in the
transverse integrand, mode sum minus kz average at each transverse
momentum, and the difference is integrated once. Subtracting two
separately integrated O(nz) quantities instead would lose most significant
digits: for a linear branch at nz=20 the difference is ~1e-5 while either
term is ~20. Every energy is that of one branch; a degeneracy of
branches multiplies all of them.

Even orders are exact integers (the aliasing identity). For s = 2n the
dispersion (t + 2 - 2 cos kz)^n, averaged over the transverse zone, is a
trigonometric polynomial of degree n in kz with the integer Fourier
coefficients

    F_k = (-1)^k sum_(j<=n) C(n, j) T_d(n-j) C(2j, j-k),  k = 0..n,

where T_d(m) is the zone average of t^m over the d-1 transverse axes:
T_1(m) = [m = 0], T_2(m) = C(2m, m) and
T_3(m) = sum_i C(m, i) C(2i, i) C(2m-2i, m-i). Every mode family is a
uniform rule in kz of total weight nz, the antiperiodic one shifted by
half a step, and a uniform rule of m nodes keeps the coefficients at the
multiples of m. So with m modes (nz periodic and antiperiodic, 2nz
phenomenological) e0_int = nz F_0 / 2,
e_cas = nz sum_(r>=1, r m<=n) F_(r m), with a factor (-1)^r for the
antiperiodic family, and e0_sum = e0_int + e_cas. Each is one correctly
rounded conversion of an integer, and quad_error is one ulp of e_cas,
twice the bound of that rounding. Past the support (m > n) the sum is
empty and the row is exactly 0.0 with error 0.0, the structural zero,
with no branch of its own. The table of (s, d), n+1 integers, is that
sum over the binomial rows (-1)^k C(2j, j-k) of u^j, u = 2 - 2 cos kz,
built in about n^2 integer steps when the first row asks and kept with
the rule; a row takes no modes, no grid and no kz average. The alias sum
is linear in the table, so the mass expansion aliases each row once and
takes each order as one dot product with its weights (_even_orders).

For odd s the inner kz average is a closed form in the complete elliptic
integrals K and E, evaluated by the arithmetic-geometric mean, exact up to
rounding, so its error never masquerades as a Casimir signal.

Every transverse integrand depends on the transverse momentum only through
the kernel sum t = sum_i (2 - 2 cos k_i), so the integrands take t and its
kz average. Every call reads one transverse rule, a table of levels that
hold the values of t and the kz average at each, filled as the first
thickness asks, with the integer table of even orders beside them. d=1
has the single point t = 0, one exact level with no refinement and no
QuadratureConfig. In d = 2, 3 the zone average is the one-dimensional
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

- d=2 averages kx over [0, pi] with t = 4 sin^2(kx/2);
- d=3 uses the square-lattice density rho(t) = K(m) / (2 pi^2) on [0, 8],
  sqrt(1-m) = |t-4|/4 (Economou, Green's Functions in Quantum Physics),
  split at the van Hove point t = 4 so that its logarithm sits at the
  interval ends, like the sqrt(t) cusp of the kz=0 mode at t = 0.

Odd rows report at least a rounding floor of 16 ulps of the largest
integrated term, because the pointwise difference rounds at that size, and
level changes within that floor count as converged. _row alone turns a
row's values into its flag and error: a row whose error passes a tenth
of |e_cas| is not converged, so a tail lost in that floor says so.

For odd s each value of t costs the kz average, the closed form with its
s//2 recurrence steps, s//2+1 dispersion evaluations, plus the modes of
the thickness where the mode sum is taken. The point budget of quadrature
charges that cost for a level an earlier call built as for a new one, and
work whose first level would pass it is refused before any mode is
generated or any level built. Even rows take no points and no charge: an
even s past _EVEN_S_MAX (1030), where e0_int >= (nz/2) C(s, s/2) passes
the float range, is refused before any integer work, and below it a table
takes at most 0.11 s (d = 2, 3, s = 1030, on a 2-core machine).

The rule depends on s, am and d only, not on nz or the call, so it
lives across calls: the calls of a process with the same (s, am, d) read
and extend one table, and each result has the bits it would have from a
table of its own. The tables stay in a least-recently-used store of at
most _MAX_RULES (64) rules that holds at most _HELD_BYTES (8 MiB) of level
arrays and integer tables besides the rule used last, so its memory beyond
8 MiB is one call's table, which the point budget or _EVEN_S_MAX bounds.

One kernel, _casimir_rows, computes a list of thicknesses, and
casimir_energy is its one-thickness case. It tests the parity of s once:
an even order reads every row from the table, and an odd one refuses each
row past the budget and puts the others in groups of the pointwise route.
The thicknesses of a group refine level by level together: each level
takes one dispersion call over the joined mode kernels of the thicknesses
still refining, one segmented sum (np.add.reduceat) that gives each
thickness the sum of its own columns, and one vectorised convergence test.
A segment's sum depends on its own columns only, and each thickness keeps
its own budget and gets its own verdict, and retires when it converges,
reaches max_refinements or cannot afford its next level, so a sweep row is
bit for bit the casimir_energy result of its thickness. The thicknesses go
in groups whose joined modes take at most _MAT_BUDGET values on the first
level, and each dispersion call stays within that budget, so memory does
not grow with the sum of the thicknesses. A group builds the modes of all
its thicknesses in one call (modes._joined_modes) and takes their kernels
once; its values, errors and verdicts come back as arrays, one row per
thickness, and each CasimirResult is made from their floats.
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
_EVEN_S_MAX = 1030  # past it e0_int >= (nz/2) C(s, s/2) passes the float range: C(1032, 516)/2 > 1.8e308
_REFUSED = (math.nan, math.nan, math.nan, math.nan, False)  # _row's (e0_sum, e0_int, e_cas, error, converged)


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

    Even s (rectangle_decomposition's one value of t; the energies read
    the integer table): the uniform (s/2+1)-node rule, exact for the
    degree-s/2 trigonometric polynomial. Odd s: with v = t + am^2 and q = 4/(v+4),
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
    table of levels, filled in order as callers first ask for them, and
    for even s the integer table of its rows, that _rule keeps across
    calls."""

    def __init__(self, spec: DispersionSpec, d: int):
        self.spec, self.d = spec, d
        self.n = int(d == 1)  # 1: the one exact point t = 0 of d=1; 0: tanh-sinh levels
        # values of t of level 0, which odd rows check against the budget
        self.first = 1 if self.n else (d - 1) * _tanh_sinh_size(0)
        self.levels: list[tuple] = []
        self.table: list[int] | None = None  # even s: _even_table, once a row asks
        self.nbytes = 0  # of the level arrays and the table

    def level(self, j: int) -> tuple:
        """Level j as (w, t, kz), read-only arrays: the weights, the values
        of t and _kz_average at each t. The one exact level of d=1 is the
        point t = 0 without weights (w = None); d = 2, 3 take the
        _dos_level tanh-sinh levels."""
        if j == len(self.levels):  # callers ask for levels in order
            w, t = (None, np.zeros(1)) if self.n else _dos_level(self.d, j)
            arrays = (w, t, _kz_average(self.spec, t))
            for a in arrays:
                if a is not None:
                    a.flags.writeable = False
                    self.nbytes += a.nbytes
            self.levels.append(arrays)
        return self.levels[j]


def _even_table(s: int, d: int) -> list[int]:
    """The Fourier coefficients F_k, k = 0..s/2, in kz of the transverse
    average of omega for even s in d dimensions (module docstring), as
    Python integers: the rows _binomial_row(j) summed with their _weights,
    in about (s/2)^2 integer steps."""
    n = s // 2
    table = [0] * (n + 1)
    for j, w in _weights(n, _transverse_moments(n, d)):
        table[: j + 1] = [f + w * c for f, c in zip(table, _binomial_row(j))]
    return table


def _binomial_row(j: int) -> list[int]:
    """F_k = (-1)^k C(2j, j-k), k = 0..j, the Fourier coefficients of u^j,
    each from the last by the ratio -(j-k)/(j+k+1): the even table of
    s = 2j in d=1, and the rows every even table sums."""
    row, c = [], math.comb(2 * j, j)
    for k in range(j + 1):
        row.append(c)
        c = c * (k - j) // (j + k + 1)
    return row


def _weights(n: int, moments: list[int]):
    """(j, C(n, j) T_d(n-j)) for j = n, n-1, ..., 0 while T_d(n-j) =
    moments[n-j] is not zero, past which every moment is zero: the weights
    of the rows _binomial_row(j) in the table of s = 2n, the single (n, 1)
    in d=1."""
    c = 1  # C(n, i) = C(n, j)
    for i in range(n + 1):
        if not moments[i]:
            return
        yield n - i, c * moments[i]
        c = c * (n - i) // (i + 1)


def _transverse_moments(n: int, d: int) -> list[int]:
    """T_d(m), m = 0..n (module docstring), each by one exact step:
    m T_2(m) = (4m - 2) T_2(m-1), which from T_1(1) = 0 keeps T_1(m) =
    [m = 0], and m^2 T_3(m) = 4 (3m^2 - 3m + 1) T_3(m-1) - 32 (m-1)^2
    T_3(m-2), T_3(1) = 4 (OEIS A081085)."""
    moments = [1, 2 * (d - 1)]
    for m in range(2, n + 1):
        if d < 3:
            moments.append(moments[-1] * (4 * m - 2) // m)
        else:
            moments.append((4 * (3 * m * m - 3 * m + 1) * moments[-1] - 32 * (m - 1) ** 2 * moments[-2]) // (m * m))
    return moments[: n + 1]


# the rules of earlier calls by (s, am, d), least recently used first
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
    (its kz average), as a (rows.size, t.size, ncomp) array. The one
    exact point of d=1 gives each row its value there, with no
    refinement, zero errors and every row converged; cfg is not
    consulted, and _row judges its values. Tanh-sinh
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
        values = f(t, kz, np.arange(len(costs)))[:, 0]
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
    and the parity of s picks the route of all rows once. An even row reads
    the integer table of the rule (_exact), or is NaN past _EVEN_S_MAX
    before any integer work. An odd row that the point budget does not
    admit is NaN and builds nothing; each level's values of t and kz average
    are built once per process, and every row charges them to its budget
    whether this call built them or an earlier one. The odd rows take the
    pointwise route together (module docstring), in groups of consecutive
    rows whose joined modes times the first level's values of t stay within
    _MAT_BUDGET, so memory does not grow with the sum of the thicknesses; a
    row the point budget admits fits a group alone. Every route hands _row
    plain numbers, and _row gives each row its verdict and error.
    """
    rule = _rule(spec, d)
    counts = [_mode_count(bc, nz) for nz in nzs]  # a bc of another type raises here, for refused rows too
    if spec.s % 2 == 0:
        exact = spec.s <= _EVEN_S_MAX
        return [_row(spec, d, nz, *(_exact(rule, bc, nz, m) if exact else _REFUSED)) for nz, m in zip(nzs, counts)]
    kz_nodes = spec.s // 2 + 1  # dispersion evaluations of the kz average at one t, recurrence steps too
    rows: list = [None] * len(nzs)
    groups: list[list[int]] = []  # indices of the rows of the pointwise route
    joined = 0  # modes of the last group
    for i, (nz, m) in enumerate(zip(nzs, counts)):
        if rule.first * (kz_nodes + m) > _MAX_POINTS:
            rows[i] = _row(spec, d, nz, *_REFUSED)
            continue
        if not groups or (joined + m) * rule.first > _MAT_BUDGET:
            groups.append([])
            joined = 0
        groups[-1].append(i)
        joined += m
    for group in groups:
        values, errors, converged, _ = _pointwise(spec, rule, bc, [nzs[i] for i in group], cfg)
        for i, (e_cas, e0_int), error, ok in zip(group, values.tolist(), errors[:, 0].tolist(), converged.tolist()):
            rows[i] = _row(spec, d, nzs[i], e0_int + e_cas, e0_int, e_cas, error, ok)
    return rows


def _exact(rule: _Rule, bc: BoundaryCondition, nz: int, m: int) -> tuple:
    """(e0_sum, e0_int, e_cas, error, converged) of the even row of
    thickness nz with m modes from the integer table of rule (module
    docstring): e_cas = nz sum_(r>=1) F_(r m), (-1)^r in it antiperiodic,
    e0_int = nz F_0 / 2 and e0_sum = nz (F_0 + 2 sum_(r>=1) F_(r m)) / 2,
    each one correctly rounded conversion, and e_cas exactly 0.0 past the
    support. The error is one ulp of e_cas, twice the bound of its
    rounding."""
    if rule.table is None:
        rule.table = _even_table(rule.spec.s, rule.d)
        rule.nbytes += sum(f.bit_length() for f in rule.table) // 8
    table = rule.table
    aliased = _aliased(table, bc, m)
    e_cas, e0_int = _quotient(nz * aliased), _quotient(nz * table[0], 2)
    # the same rounding as e0_int where nothing aliases, past the support
    e0_sum = _quotient(nz * (table[0] + 2 * aliased), 2) if aliased else e0_int
    return e0_sum, e0_int, e_cas, math.ulp(e_cas) if e_cas else 0.0, True


def _aliased(table: list[int], bc: BoundaryCondition, m: int) -> int:
    """sum_(r>=1) F_(r m) of an even table (or binomial row) for m modes,
    with (-1)^r in it antiperiodic: e_cas over nz."""
    if bc is BoundaryCondition.ANTIPERIODIC:
        return sum(table[2 * m :: 2 * m]) - sum(table[m :: 2 * m])
    return sum(table[m::m])


def _even_orders(d: int, bc: BoundaryCondition, nz: int, orders: int):
    """e_cas of the even orders s = 2, 4, ..., 2 min(orders, _EVEN_S_MAX // 2)
    at thickness nz, each the float _exact gives, one at a time as it is
    asked for: order n aliases the binomial row n once, then takes one dot
    product of the rows so far with its _weights, about orders^2 integer
    steps and no rule, table or mode."""
    m = _mode_count(bc, nz)
    moments = _transverse_moments(min(orders, _EVEN_S_MAX // 2), d)
    aliased = [_aliased(_binomial_row(0), bc, m)]
    for n in range(1, len(moments)):
        aliased.append(_aliased(_binomial_row(n), bc, m))
        yield _quotient(nz * sum(w * aliased[j] for j, w in _weights(n, moments)))


def _quotient(num: int, den: int = 1) -> float:
    """num / den correctly rounded, signed inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _pointwise(spec: DispersionSpec, rule: _Rule, bc: BoundaryCondition, nzs: list, cfg: QuadratureConfig) -> tuple:
    """Averages of (e_cas, e0_int) at the thicknesses nzs, refined
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
        vals = np.empty((live.size, t.size, 2))  # (e_cas, e0_int)
        int_part = np.multiply(half_live, kz, out=vals[..., 1])
        np.subtract(_mode_sum(spec, joined, cols, w, t), int_part, out=vals[..., 0])
        return vals

    return _transverse_average(rule, f, cfg, [b - a + spec.s // 2 + 1 for a, b in itertools.pairwise(bounds)])


def _row(
    spec: DispersionSpec, d: int, nz: int, e0_sum: float, e0_int: float, e_cas: float, error: float, converged: bool
) -> CasimirResult:
    """The CasimirResult of thickness nz from the values of its route, the
    error of e_cas, and the verdict of the route.

    Every row's flag and error are decided here: a non-finite e_cas,
    e0_int or e0_sum gives quad_error inf, and a row is converged only when its route
    converged, its values are finite and quad_error <= |e_cas| / 10. A
    structural zero, e_cas = quad_error = 0.0, is converged.
    """
    finite = math.isfinite(e_cas) and math.isfinite(e0_int) and math.isfinite(e0_sum)
    error = error if finite else math.inf
    converged = converged and finite and error <= abs(e_cas) / 10
    alpha = (d - 1) + spec.s
    try:
        if nz > 1 and alpha * math.log2(nz) > 1100:  # past 2**1024, so not built as an integer
            raise OverflowError
        coeff = float(nz**alpha) * e_cas
    except OverflowError:  # nz**alpha passes the float range
        coeff = math.inf * e_cas if e_cas else 0.0
    return CasimirResult(nz, e0_sum, e0_int, e_cas, coeff, error, converged)


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
