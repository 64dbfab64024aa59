"""Discrete momentum modes along the compact axis for each boundary condition."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model import _is_int
from .quadrature import _MAX_POINTS

__all__ = ["BoundaryKind", "PhenOffset", "BoundaryCondition", "ModeSet", "generate_modes"]

_TWO_PI = 2.0 * math.pi


class BoundaryKind(Enum):
    PERIODIC = "periodic"
    ANTIPERIODIC = "antiperiodic"
    PHENOMENOLOGICAL = "phenomenological"


class PhenOffset(Enum):
    """Index range for the phenomenological half-step modes l*pi/nz."""

    ONE_TO_2NZ = "1..2nz"
    ZERO_TO_2NZ_MINUS_1 = "0..2nz-1"


@dataclass(frozen=True)
class BoundaryCondition:
    kind: BoundaryKind
    phen_offset: PhenOffset = PhenOffset.ONE_TO_2NZ

    @classmethod
    def periodic(cls) -> "BoundaryCondition":
        return cls(BoundaryKind.PERIODIC)

    @classmethod
    def antiperiodic(cls) -> "BoundaryCondition":
        return cls(BoundaryKind.ANTIPERIODIC)

    @classmethod
    def phenomenological(cls, offset: PhenOffset = PhenOffset.ONE_TO_2NZ) -> "BoundaryCondition":
        return cls(BoundaryKind.PHENOMENOLOGICAL, offset)


@dataclass(frozen=True)
class ModeSet:
    """Ordered (akz, weight) pairs with akz in [0, 2pi) and sum(weights) = nz."""

    modes: tuple[tuple[float, float], ...]

    @property
    def akz(self) -> np.ndarray:
        return np.array([m[0] for m in self.modes])

    @property
    def weights(self) -> np.ndarray:
        return np.array([m[1] for m in self.modes])

    @property
    def weight_sum(self) -> float:
        return math.fsum(m[1] for m in self.modes)


def _mode_count(bc: BoundaryCondition, nz: int) -> int:
    """Number of modes generate_modes(bc, nz) gives, without generating them."""
    return 2 * nz if bc.kind is BoundaryKind.PHENOMENOLOGICAL else nz


def generate_modes(bc: BoundaryCondition, nz: int) -> ModeSet:
    """Mode set for a slab of thickness nz.

    Periodic:         akz = 2*l*pi/nz,     l = 0..nz-1, weight 1
    Antiperiodic:     akz = (2l+1)*pi/nz,  l = 0..nz-1, weight 1
    Phenomenological: akz = l*pi/nz over the chosen index range, weight 1/2;
                      the half weight makes the 2*nz modes carry the same total
                      weight nz as the other families, so zero-point sums stay
                      comparable at one normalization.

    Every akz is reduced into [0, 2pi). More than _MAX_POINTS (2^20) modes,
    the point budget of quadrature, are refused before any is built.
    """
    if not _is_int(nz) or nz < 1:
        raise ValueError(f"nz must be a positive integer, got {nz!r}")
    if _mode_count(bc, nz) > _MAX_POINTS:
        raise ValueError(f"nz = {nz} gives more than {_MAX_POINTS} modes")
    akz, _, w = _joined_modes(bc, [nz])
    return ModeSet(tuple(zip(akz.tolist(), itertools.repeat(w))))


def _joined_modes(bc: BoundaryCondition, nzs: Sequence[int]) -> tuple[np.ndarray, list[int], float]:
    """(akz, bounds, w): the akz of generate_modes(bc, nz) for every nz of
    nzs, joined in order, thickness i in the columns bounds[i]:bounds[i+1],
    and the family's one weight w. The thicknesses must be valid; callers
    check them and the point budget first.

    Each akz is the float expression of generate_modes reduced by fmod
    into [0, 2pi), which is exact, so the bits do not depend on the other
    thicknesses. One thickness takes one arange.
    """
    counts = [_mode_count(bc, nz) for nz in nzs]
    bounds = [0, *itertools.accumulate(counts)]
    if len(nzs) == 1:
        nz, l = nzs[0], np.arange(bounds[1], dtype=float)
    else:  # the index l of each column restarts at every thickness
        nz = np.repeat(np.array(nzs, dtype=float), counts)
        l = np.arange(bounds[-1], dtype=float) - np.repeat(bounds[:-1], counts)
    if bc.kind is BoundaryKind.PERIODIC:
        x = 2.0 * l * math.pi / nz
    elif bc.kind is BoundaryKind.ANTIPERIODIC:
        x = (2.0 * l + 1.0) * math.pi / nz
    else:
        if bc.phen_offset is PhenOffset.ONE_TO_2NZ:
            l += 1.0
        x = l * math.pi / nz
    w = 0.5 if bc.kind is BoundaryKind.PHENOMENOLOGICAL else 1.0
    return np.fmod(x, _TWO_PI, out=x), bounds, w  # x >= 0, so the remainder is in [0, 2pi)
