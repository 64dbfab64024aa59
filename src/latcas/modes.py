"""Discrete momentum modes along the compact axis for each boundary condition."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import _is_int

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


def _wrap(x: float) -> float:
    # reduce into [0, 2pi); dispersion periodicity makes this lossless
    r = math.fmod(x, _TWO_PI)
    return r + _TWO_PI if r < 0 else r


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
    """
    if not _is_int(nz) or nz < 1:
        raise ValueError(f"nz must be a positive integer, got {nz!r}")
    if bc.kind is BoundaryKind.PERIODIC:
        pairs = [(_wrap(2.0 * l * math.pi / nz), 1.0) for l in range(nz)]
    elif bc.kind is BoundaryKind.ANTIPERIODIC:
        pairs = [(_wrap((2.0 * l + 1.0) * math.pi / nz), 1.0) for l in range(nz)]
    else:
        if bc.phen_offset is PhenOffset.ONE_TO_2NZ:
            ls = range(1, 2 * nz + 1)
        else:
            ls = range(0, 2 * nz)
        pairs = [(_wrap(l * math.pi / nz), 0.5) for l in ls]
    return ModeSet(tuple(pairs))
