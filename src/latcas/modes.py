"""Discrete momentum modes along the compact axis for each boundary condition."""
from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .model import _MAX_POINTS, BoundaryCondition, _is_int

__all__ = ["generate_modes"]

_TWO_PI = 2.0 * math.pi


def _mode_count(bc: BoundaryCondition, nz: int) -> int:
    """Number of modes generate_modes(bc, nz) gives, without generating them;
    every route to the modes asks it first, so a bc of another type raises here."""
    if not isinstance(bc, BoundaryCondition):
        raise TypeError(f"bc must be a BoundaryCondition, got {bc!r}")
    return 2 * nz if bc is BoundaryCondition.PHENOMENOLOGICAL else nz


def generate_modes(bc: BoundaryCondition, nz: int) -> tuple[np.ndarray, float]:
    """(akz, w): the modes of a slab of thickness nz, in order, and the one
    weight w of each, so that the weights sum to nz.

    Periodic:         akz = 2*l*pi/nz,     l = 0..nz-1, weight 1
    Antiperiodic:     akz = (2l+1)*pi/nz,  l = 0..nz-1, weight 1
    Phenomenological: akz = l*pi/nz,       l = 1..2nz,  weight 1/2;
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
    return akz, w


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
    if bc is BoundaryCondition.PERIODIC:
        x = 2.0 * l * math.pi / nz
    elif bc is BoundaryCondition.ANTIPERIODIC:
        x = (2.0 * l + 1.0) * math.pi / nz
    else:
        x = (l + 1.0) * math.pi / nz
    w = 0.5 if bc is BoundaryCondition.PHENOMENOLOGICAL else 1.0
    return np.fmod(x, _TWO_PI, out=x), bounds, w  # x >= 0, so the remainder is in [0, 2pi)
