"""Exact reference values for even-order dispersions, independent of the package.

Everything here is integer/rational arithmetic:

- the zone average of (2 - 2 cos x)^j is the central binomial coefficient
  C(2j, j);
- the Fourier coefficient of e^{ikx} in (2 - 2 cos x)^j is (-1)^k C(2j, j-k),
  so sums over the discrete mode families follow from aliasing: an N-point
  equispaced sum picks out the coefficients at multiples of N;
- transverse moments of the summed kernel follow from the binomial theorem.

None of the package quadrature machinery is used, so agreement between these
values and the package is a genuine two-route check.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

PERIODIC = "periodic"
ANTIPERIODIC = "antiperiodic"
PHENOMENOLOGICAL = "phenomenological"


@cache  # the d=3 moments ask for every C(2i, i) again for each m
def kernel_moment(j: int) -> int:
    """Zone average of (2 - 2 cos x)^j."""
    return comb(2 * j, j)


def fourier_coefficient(j: int, k: int) -> int:
    """Coefficient of e^{ikx} in (2 - 2 cos x)^j."""
    if abs(k) > j:
        return 0
    return (-1) ** (k % 2) * comb(2 * j, j - abs(k))


def transverse_moment(m: int, d: int) -> int:
    """Zone average of (sum over the d-1 transverse axes of the kernel)^m."""
    naxes = d - 1
    if naxes == 0:
        return 1 if m == 0 else 0
    if naxes == 1:
        return kernel_moment(m)
    # split one axis off and convolve binomially
    return sum(comb(m, i) * kernel_moment(i) * transverse_moment(m - i, d - 1) for i in range(m + 1))


def mode_power_sum(bc: str, nz: int, j: int) -> Fraction:
    """Exact sum over the mode family of weight * (2 - 2 cos akz)^j."""
    if bc == PERIODIC:
        total = kernel_moment(j)
        r = 1
        while r * nz <= j:
            total += 2 * fourier_coefficient(j, r * nz)
            r += 1
        return Fraction(nz * total)
    if bc == ANTIPERIODIC:
        total = kernel_moment(j)
        r = 1
        while r * nz <= j:
            total += 2 * (-1) ** r * fourier_coefficient(j, r * nz)
            r += 1
        return Fraction(nz * total)
    if bc == PHENOMENOLOGICAL:
        return Fraction(1, 2) * mode_power_sum(PERIODIC, 2 * nz, j)
    raise ValueError(f"unknown boundary condition {bc!r}")


def zero_point_sum_exact(s: int, d: int, nz: int, bc: str = PERIODIC, g: int = 1) -> Fraction:
    """Mode-sum zero-point energy for even order s (s = 0 allowed)."""
    if s % 2:
        raise ValueError("exact values exist for even orders only")
    n = s // 2
    total = Fraction(0)
    for j in range(n + 1):
        total += comb(n, j) * transverse_moment(n - j, d) * mode_power_sum(bc, nz, j)
    return Fraction(g, 2) * total


def zero_point_int_exact(s: int, d: int, nz: int, g: int = 1) -> Fraction:
    """Continuum zero-point energy for even order s."""
    if s % 2:
        raise ValueError("exact values exist for even orders only")
    n = s // 2
    total = sum(comb(n, j) * transverse_moment(n - j, d) * kernel_moment(j) for j in range(n + 1))
    return Fraction(g * nz, 2) * Fraction(total)


def casimir_exact(s: int, d: int, nz: int, bc: str = PERIODIC, g: int = 1) -> Fraction:
    """Casimir energy for even order s, exact."""
    return zero_point_sum_exact(s, d, nz, bc, g) - zero_point_int_exact(s, d, nz, g)


def mode_power_sum_float(bc: str, nz: int, j: int) -> float:
    """The same mode sum evaluated directly with trigonometry.

    Used only to cross-check the aliasing identities inside the oracle.
    """
    import math

    if bc == PERIODIC:
        nodes = [2.0 * math.pi * l / nz for l in range(nz)]
        weights = [1.0] * nz
    elif bc == ANTIPERIODIC:
        nodes = [(2.0 * l + 1.0) * math.pi / nz for l in range(nz)]
        weights = [1.0] * nz
    elif bc == PHENOMENOLOGICAL:
        nodes = [l * math.pi / nz for l in range(1, 2 * nz + 1)]
        weights = [0.5] * (2 * nz)
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return math.fsum(w * (2.0 - 2.0 * math.cos(x)) ** j for x, w in zip(nodes, weights))
