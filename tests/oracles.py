"""Reference routes for the tests' cross-checks, independent of the package.

Nothing here imports latcas, so agreement between these values and the
package's is a check by two routes. The exact even-order values live in
moment_oracle.
"""
from __future__ import annotations

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
    """(e_cas, e0_int) at g = 1 for the even order s in d dimensions, from an
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
