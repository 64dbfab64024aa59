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
