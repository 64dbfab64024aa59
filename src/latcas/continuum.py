"""Closed-form continuum Casimir energy and the zeta function it needs.

Gamma is the standard library's (math.gamma, and math.lgamma where the
product leaves the float range). The standard library has no zeta, so it
is implemented here by Euler-Maclaurin summation; its argument d + s is an
integer of at least 2.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import _is_int, _store

__all__ = ["ContinuumParams", "zeta_fn", "continuum_casimir"]

_MAX_ORDER = 2**53  # the largest s and d; floats hold the integers up to it exactly


@dataclass(frozen=True)
class ContinuumParams:
    """Inputs of the zeta-regularized formula for period length L.

    The two-branch normalization corresponds to g=2; g=1 matches the lattice
    single-branch counting used everywhere else in this package. s and d
    are at most 2**53: the formula is evaluated in floats, which past that
    round -s/2 onto a pole of gamma. L is stored as a float.
    """

    s: int
    d: int
    L: float = 1.0
    g: int = 1

    def __post_init__(self) -> None:
        _store(self, float, "L")
        if not _is_int(self.s) or self.s < 1:
            raise ValueError(f"s must be a positive integer, got {self.s!r}")
        if not _is_int(self.d) or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        if max(self.s, self.d) > _MAX_ORDER:  # no value in the message: it may not print
            raise ValueError("s and d must be at most 2**53, the integers that floats hold exactly")
        if self.d + self.s < 2:
            raise ValueError("d + s must be at least 2 for a convergent zeta argument")
        if not 0 < self.L < math.inf:
            raise ValueError(f"L must be finite and positive, got {self.L!r}")
        if not _is_int(self.g) or self.g < 1:
            raise ValueError(f"g must be a positive integer, got {self.g!r}")
        _store(self, int, "s", "d", "g")


# B_j as (numerator, denominator); int / int is correctly rounded, so a factor is B_j / j! rounded once
_BERNOULLI = {
    2: (1, 6), 4: (-1, 30), 6: (1, 42), 8: (-1, 30), 10: (5, 66), 12: (-691, 2730), 14: (7, 6), 16: (-3617, 510)
}
_EM_FACTORS = {j: n / (d * math.factorial(j)) for j, (n, d) in _BERNOULLI.items()}
_EM_CUTOFF = 18
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def zeta_fn(x: float) -> float:
    """Riemann zeta for x > 1 by Euler-Maclaurin summation."""
    x = float(x)
    if not x > 1.0:
        raise ValueError(f"zeta_fn requires x > 1, got {x}")
    k = _EM_CUTOFF
    head = math.fsum(n ** (-x) for n in range(1, k))
    tail = [0.5 * k ** (-x), k ** (1.0 - x) / (x - 1.0)]
    rising = x  # (x)(x+1)...(x+2j-2), updated per term
    for j in (2, 4, 6, 8, 10, 12, 14, 16):
        power = k ** (-x - j + 1.0)
        if power:  # an underflowed term is 0, while rising may have overflowed to inf
            tail.append(_EM_FACTORS[j] * rising * power)
        rising *= (x + j - 1.0) * (x + j)
    return head + math.fsum(tail)


def continuum_casimir(p: ContinuumParams) -> float:
    """Continuum Casimir energy for order s in d spatial dimensions, period L.

    Even s hits a gamma pole in the denominator, so the energy is returned as
    exactly zero (detected symbolically, not via overflow). Odd s never meets
    a pole: (d+s)/2 >= 1 and -s/2 is a half-integer. The product is taken
    directly; where a factor passes the float range or the product leaves
    the normal float range, it is taken again in logarithms. A value past
    the float range is the signed inf, and one below it the signed 0.0; the
    sign is that of gamma(-s/2), negative for s = 1 mod 4.
    """
    if p.s % 2 == 0:
        return 0.0
    alpha = (p.d - 1) + p.s
    try:
        value = (
            p.g
            / (4.0 * math.pi) ** ((p.d - 1) / 2.0)
            * (math.gamma((p.d + p.s) / 2.0) * zeta_fn(float(p.d + p.s)))
            / (math.sqrt(math.pi) * math.gamma(-p.s / 2.0))
            * 2.0**alpha
            / p.L**alpha
        )
    except (OverflowError, ZeroDivisionError):  # a factor left the float range
        value = math.nan
    if sys.float_info.min <= abs(value) < math.inf:  # an overflowing product is inf and raises nothing
        return value
    log_abs = (
        math.log(p.g)
        - (p.d - 1) / 2.0 * math.log(4.0 * math.pi)
        + math.lgamma((p.d + p.s) / 2.0)
        + math.log(zeta_fn(float(p.d + p.s)))
        - 0.5 * math.log(math.pi)
        - math.lgamma(-p.s / 2.0)
        + alpha * (math.log(2.0) - math.log(p.L))
    )
    magnitude = math.exp(log_abs) if log_abs < _LOG_FLOAT_MAX else math.inf
    return -magnitude if p.s % 4 == 1 else magnitude
