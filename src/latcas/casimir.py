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
the kernel sum t = sum_i (2 - 2 cos k_i), so the integrands take t. The
transverse average splits by parity as well. For even s the integrand is
of degree s/2 on every transverse axis too, so one uniform grid of s/2+1
points per axis is exact: no refinement and no QuadratureConfig. For odd s
the zone average is the one-dimensional integral of F(t) against the
lattice density of states, by tanh-sinh levels under QuadratureConfig with
the change between the last two levels as the error:

- d=1 has the single point t = 0;
- d=2 averages kx over [0, pi] with t = 4 sin^2(kx/2);
- d=3 uses the square-lattice density rho(t) = K(m) / (2 pi^2) on [0, 8],
  sqrt(1-m) = |t-4|/4 (Economou, Green's Functions in Quantum Physics),
  split at the van Hove point t = 4 so that its logarithm sits at the
  interval ends, like the sqrt(t) cusp of the kz=0 mode at t = 0.

Both parities report at least a rounding floor of 16 ulps of the largest
integrated term, because the pointwise difference rounds at that size.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .model import CasimirResult, DispersionSpec, Geometry, _kernel, _omega_inplace
from .modes import BoundaryCondition, ModeSet, generate_modes
from .quadrature import MultiQuadResult, QuadratureConfig, _exact_grid, _rows, _tanh_sinh

__all__ = [
    "QuadratureNonConvergence",
    "zero_point_sum",
    "zero_point_int",
    "casimir_energy",
]

_MAT_BUDGET = 1 << 24  # elements per temporary (rows of t, nodes) block
_AGM_MAX_ITER = 64  # convergence is quadratic; the cap bounds NaN or inf input
_EPS = float(np.finfo(float).eps)
_ROUNDING_ULPS = 16  # error floor, in ulps of the largest component


class QuadratureNonConvergence(RuntimeError):
    """Raised by operations that return a bare number when the refinement
    did not meet tolerance. Carries the best value and its error estimate."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(message)
        self.value = value
        self.error = error


def _node_sum(spec: DispersionSpec, t: np.ndarray, tz: np.ndarray) -> np.ndarray:
    """sum_j omega(t + tz[j]) for every entry of t.

    Rows of t go in blocks, so the (rows, nodes) temporary stays within
    _MAT_BUDGET elements, or one row when there are more nodes than that;
    each row is one numpy pairwise sum, so the result is deterministic.
    """
    out = np.empty_like(t)
    step = max(1, _MAT_BUDGET // tz.size)
    for i in range(0, t.size, step):
        out[i : i + step] = _omega_inplace(spec, t[i : i + step, None] + tz).sum(axis=1)
    return out


def _mode_sum(spec: DispersionSpec, modes: ModeSet, t: np.ndarray) -> np.ndarray:
    """(1/2) w sum_l omega(t + kernel(akz_l)) for every entry of t; every
    generate_modes family has one uniform weight w."""
    w = modes.weights[0]
    return 0.5 * (w * _node_sum(spec, t, _kernel(modes.akz)))


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
        return _node_sum(spec, t, _node_kernels(m)) / m
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
        if np.all(np.abs(c) <= _EPS * a):
            break
    return a, tail


def _node_kernels(m: int) -> np.ndarray:
    """Kernels 2 - 2 cos x at the m uniform nodes x = 2 pi j / m."""
    return _kernel(np.arange(m, dtype=float) * (2.0 * math.pi / m))


def _square_lattice_dos(f, x: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """int_0^1 of this over x is int_0^8 f(t) rho(t) dt: t = 4x on [0, 4] and
    t = 4 + 4x on [4, 8], where |t-4|/4 = sqrt(1-m) is xc and x, taken from
    the complements and never from t, so no node rounds onto t = 4."""
    vals = _rows(f(np.concatenate([4.0 * x, 4.0 + 4.0 * x])), 2 * x.size)
    a, _ = _agm(np.concatenate([xc, x]), 0.0)
    return (vals / (math.pi * a)[:, None]).reshape(2, x.size, -1).sum(axis=0)  # 4 rho = 1 / (pi a)


def _transverse_average(spec: DispersionSpec, f, d: int, cfg: QuadratureConfig) -> MultiQuadResult:
    """Transverse BZ average of f(t), t the transverse kernel sum.

    Even s: one uniform grid of s/2+1 points per axis, exact for the
    degree-s/2 trigonometric polynomial; cfg is not consulted. Odd s:
    tanh-sinh levels over the density of states of t under cfg, with the
    change between the last two levels as the error. Either way the error
    is at least _ROUNDING_ULPS ulps of the largest component, which for the
    Casimir integrand is at least |e0_int|, the size of the terms that
    cancel pointwise.
    """
    if spec.s % 2 == 0 or d == 1:  # d=1 is the single point t = 0
        n = spec.s // 2 + 1 if spec.s % 2 == 0 else 1
        r = _exact_grid(lambda k: f(_kernel(k).sum(axis=1)), d - 1, n)
    elif d == 2:
        r = _tanh_sinh(lambda x, xc: f(4.0 * np.sin(0.5 * math.pi * x) ** 2), cfg)
    else:
        r = _tanh_sinh(lambda x, xc: _square_lattice_dos(f, x, xc), cfg, width=2)
    floor = _ROUNDING_ULPS * _EPS * float(np.max(np.abs(r.values)))
    return replace(r, errors=np.fmax(r.errors, floor))  # fmax: a NaN floor keeps the inf error


def _bare_value(spec: DispersionSpec, f, d: int, cfg: QuadratureConfig, what: str) -> float:
    """g times the transverse average of the scalar integrand f; raises
    QuadratureNonConvergence with the best value when not converged."""
    r = _transverse_average(spec, f, d, cfg)
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
    modes = generate_modes(bc, geom.nz)

    def f(t: np.ndarray) -> np.ndarray:
        return _mode_sum(spec, modes, t)

    return _bare_value(spec, f, geom.d, cfg, "mode-sum")


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

    def f(t: np.ndarray) -> np.ndarray:
        return (0.5 * geom.nz) * _kz_average(spec, t)

    return _bare_value(spec, f, geom.d, cfg, "kz-average")


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
    modes = generate_modes(bc, geom.nz)

    def f(t: np.ndarray) -> np.ndarray:
        mode_part = _mode_sum(spec, modes, t)
        int_part = (0.5 * geom.nz) * _kz_average(spec, t)
        return np.stack([mode_part - int_part, int_part], axis=1)

    r = _transverse_average(spec, f, geom.d, cfg)
    e_cas = spec.g * float(r.values[0])
    e0_int = spec.g * float(r.values[1])
    e0_sum = e0_int + e_cas
    alpha = (geom.d - 1) + spec.s
    try:
        coeff = float(geom.nz**alpha) * e_cas
    except OverflowError:  # nz**alpha passes the float range
        coeff = math.inf * e_cas if e_cas else 0.0
    quad_error = spec.g * float(r.errors[0])
    return CasimirResult(geom.nz, e0_sum, e0_int, e_cas, coeff, quad_error, r.converged)

