"""Reference routes for the tests' cross-checks, independent of the package.

Nothing here imports latcas, so agreement between these values and the
package's is a check by two routes. The exact even-order values live in
moment_oracle, which keeps its own module because the benchmark imports it.
"""
from __future__ import annotations

import mpmath
import numpy as np


def uniform_grid_mean(f, d: int, n: int) -> float:
    """Mean of f(t) over the uniform grid of n points k = 2 pi j / n on each
    of the d - 1 transverse axes of the zone, where t = sum_i (2 - 2 cos k_i)
    and f maps an array of t to an array of values.

    This is the periodic trapezoidal rule in plain numpy, independent of the
    package's quadrature (its grid route and its tanh-sinh levels) and of
    its kernel helper.
    """
    kernel = 2.0 - 2.0 * np.cos(np.arange(n) * (2.0 * np.pi / n))
    t = np.zeros(1)
    for _ in range(d - 1):
        t = (t[:, None] + kernel).ravel()
    return float(np.mean(f(t)))


def direct_even_mode_sum(s: int, d: int, akz: np.ndarray, w: float) -> tuple[float, float]:
    """(e_cas, e0_int) for the even order s in d dimensions, from an
    explicit mode list akz, each mode of weight w (as generate_modes gives
    them).

    At each transverse point the mode sum (w/2) sum_l omega(t + 2 - 2 cos akz_l)
    and the continuum term, nz/2 times the mean of omega over s/2 + 1
    uniform kz nodes with nz = w len(akz), are plain float sums; both are
    averaged with uniform_grid_mean on s/2 + 1 points per transverse axis.
    Every grid here integrates the degree-s/2 trigonometric polynomial
    exactly, and nothing uses the aliasing identity (the Fourier
    coefficients at multiples of the mode count) that the package's
    integer table rests on, so agreement is a check by two routes. The
    difference rounds at the size of e0_int.
    """
    n = s // 2
    nz = w * len(akz)
    modes = 2.0 - 2.0 * np.cos(akz)
    nodes = 2.0 - 2.0 * np.cos(np.arange(n + 1) * (2.0 * np.pi / (n + 1)))

    def continuum(t: np.ndarray) -> np.ndarray:
        return 0.5 * nz * np.mean((t[:, None] + nodes) ** n, axis=1)

    def casimir(t: np.ndarray) -> np.ndarray:
        return 0.5 * w * np.sum((t[:, None] + modes) ** n, axis=1) - continuum(t)

    return uniform_grid_mean(casimir, d, n + 1), uniform_grid_mean(continuum, d, n + 1)


def dos_oracle(s: int, am: float, d: int, nz: int, bc: str) -> mpmath.mpf:
    """e_cas at 40 digits for d = 2, 3, as one mpmath integral of the
    transverse integrand F(t) of the kernel sum t.

    The mode sum runs over an explicit list of the modes of the family bc
    (a boundary condition's name) at each t, and the kz average is
    (v+4)^(s/2) 2F1(-s/2, 1/2; 1; 4/(v+4)), v = t + am^2. d=2 averages kx
    over [0, pi]; d=3 integrates over the square-lattice density of states
    rho(t) = K(m)/(2 pi^2), 1-m = (t-4)^2/16, with K from the AGM because
    ellipk is inf at the van Hove point t=4. mpmath's adaptive quadrature
    takes the integrals, so the value is independent of the package's
    tanh-sinh levels, of its elliptic kz average and its recurrence, and of
    its mode machinery (generate_modes and the joined mode kernels).
    """
    with mpmath.workdps(40):
        a2 = mpmath.mpf(am) ** 2
        nu = mpmath.mpf(s) / 2
        pi = mpmath.pi
        if bc == "periodic":
            modes = [(2 * pi * l / nz, 1) for l in range(nz)]
        elif bc == "antiperiodic":
            modes = [((2 * l + 1) * pi / nz, 1) for l in range(nz)]
        else:
            modes = [(l * pi / nz, mpmath.mpf(1) / 2) for l in range(1, 2 * nz + 1)]

        def integrand(t):
            v = t + a2
            mode_sum = mpmath.fsum(w * (v + 2 - 2 * mpmath.cos(k)) ** nu for k, w in modes)
            kz_avg = (v + 4) ** nu * mpmath.hyp2f1(-nu, 0.5, 1, 4 / (v + 4))
            return (mode_sum - nz * kz_avg) / 2

        if d == 2:
            return mpmath.quad(lambda k: integrand(2 - 2 * mpmath.cos(k)), [0, pi]) / pi
        k = lambda t: pi / (2 * mpmath.agm(1, abs(t - 4) / 4))
        return mpmath.quad(lambda t: integrand(t) * k(t) / (2 * pi**2), [0, 4, 8])
