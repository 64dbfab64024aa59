"""Closed-form continuum Casimir energy and the special functions it needs.

The gamma and zeta evaluations are implemented here rather than imported so
the package stays dependency-light; the arguments that actually occur are
integers and half-integers in [-6, 10] and both routines hold 1e-12 relative
accuracy with a wide margin on that range.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .model import _is_int, _store_ints

__all__ = ["ContinuumParams", "GammaPoleError", "gamma_fn", "zeta_fn", "continuum_casimir"]


class GammaPoleError(ValueError):
    """Argument of gamma_fn sits on a pole (a nonpositive integer)."""


_MAX_ORDER = 2**53  # the largest s and d; floats hold the integers up to it exactly


@dataclass(frozen=True)
class ContinuumParams:
    """Inputs of the zeta-regularized formula for period length L.

    The two-branch normalization corresponds to g=2; g=1 matches the lattice
    single-branch counting used everywhere else in this package. s and d
    are at most 2**53: the formula is evaluated in floats, which past that
    round -s/2 onto a pole of gamma.
    """

    s: int
    d: int
    L: float = 1.0
    g: int = 1

    def __post_init__(self) -> None:
        if not _is_int(self.s) or self.s < 1:
            raise ValueError(f"s must be a positive integer, got {self.s!r}")
        if not _is_int(self.d) or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        if max(self.s, self.d) > _MAX_ORDER:  # no value in the message: it may not print
            raise ValueError("s and d must be at most 2**53, the integers that floats hold exactly")
        if self.d + self.s < 2:
            raise ValueError("d + s must be at least 2 for a convergent zeta argument")
        if isinstance(self.L, bool) or not 0 < self.L < math.inf:
            raise ValueError(f"L must be finite and positive, got {self.L!r}")
        if not _is_int(self.g) or self.g < 1:
            raise ValueError(f"g must be a positive integer, got {self.g!r}")
        _store_ints(self, "s", "d", "g")


# Lanczos approximation, g=7 with 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _sinpi(x: float) -> float:
    # sin(pi*x) with argument reduction, accurate near integer x
    n = round(x)
    return math.sin(math.pi * (x - n)) * (1.0 if n % 2 == 0 else -1.0)


def gamma_fn(x: float) -> float:
    """Gamma function on the reals; poles raise GammaPoleError."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise GammaPoleError(f"gamma pole at {x}")
    if x < 0.5:
        return math.pi / (_sinpi(x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}
_EM_FACTORS = {j: float(b / math.factorial(j)) for j, b in _BERNOULLI.items()}
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
    exactly zero (detected symbolically, not via overflow). A value past the
    float range is the signed inf, and one below it the signed 0.0; the sign
    is that of gamma(-s/2), negative for s = 1 mod 4.
    """
    if p.s % 2 == 0:
        return 0.0
    alpha = (p.d - 1) + p.s
    try:
        return (
            p.g
            / (4.0 * math.pi) ** ((p.d - 1) / 2.0)
            * (gamma_fn((p.d + p.s) / 2.0) * zeta_fn(float(p.d + p.s)))
            / (math.sqrt(math.pi) * gamma_fn(-p.s / 2.0))
            * 2.0**alpha
            / p.L**alpha
        )
    except (OverflowError, ZeroDivisionError):
        # a factor left the float range: take the same product in logarithms
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
