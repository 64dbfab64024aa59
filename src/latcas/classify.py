"""Classification of Casimir behavior over a thickness sweep.

Four regular outcomes: NoEffect (zero everywhere), Remnant (nonzero head,
exactly-zero tail), Damping (the last coefficient at most _DELTA_TAIL of the
largest), Lasting (the tail coefficients within _DELTA_TAIL, relative, of
the last). A tail that neither collapses nor stabilizes, and a sweep with a
non-finite e_cas or coeff in any row, are Unclassified with the sweep attached.

Each row's own fields say whether it is zero or clearly nonzero. A row is
zero when it is a structural zero (e_cas and quad_error both exactly 0.0),
and clearly nonzero when it is converged with a nonzero e_cas; a row that
is neither (its error passes a tenth of |e_cas|) is never a remnant head.
Remnant demands a sharp cliff: every head row clearly nonzero and every
tail row zero. A smoothly decaying energy (massive branch) never reaches a
structural zero, so it is never mistaken for a remnant.

The rows are the CasimirResult values of the sweep; a Classification keeps
them unchanged in `rows`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .model import BoundaryCondition, CasimirResult, DispersionSpec, QuadratureConfig
from .report import sweep

__all__ = ["BehaviorKind", "Classification", "classify_rows", "classify_behavior"]

_DELTA_TAIL = 1e-2  # relative collapse/stability margin of the coefficient tail


class BehaviorKind(Enum):
    NO_EFFECT = "NoEffect"
    LASTING = "Lasting"
    DAMPING = "Damping"
    REMNANT = "Remnant"
    UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class Classification:
    kind: BehaviorKind
    n_max: int | None = None
    coeff_limit: float | None = None
    rows: tuple[CasimirResult, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if (self.kind is BehaviorKind.REMNANT) != (self.n_max is not None):
            raise ValueError("n_max is present exactly for Remnant outcomes")
        has_limit = self.coeff_limit is not None and self.coeff_limit != 0.0
        if (self.kind is BehaviorKind.LASTING) != has_limit:
            raise ValueError("a nonzero coeff_limit is present exactly for Lasting outcomes")


def classify_rows(rows: list[CasimirResult]) -> Classification:
    """Classify precomputed sweep rows (ascending nz); the rows are kept as given."""
    if len(rows) < 2:
        raise ValueError("need at least two sweep rows to classify")
    frozen = tuple(rows)
    if not all(math.isfinite(r.e_cas) and math.isfinite(r.coeff) for r in rows):
        return Classification(BehaviorKind.UNCLASSIFIED, rows=frozen)
    is_zero = [r.e_cas == 0.0 and r.quad_error == 0.0 for r in rows]
    if all(is_zero):
        return Classification(BehaviorKind.NO_EFFECT, rows=frozen)

    last_nonzero = max(i for i, z in enumerate(is_zero) if not z)
    if last_nonzero < len(rows) - 1 and all(r.converged and r.e_cas != 0.0 for r in rows[: last_nonzero + 1]):
        return Classification(BehaviorKind.REMNANT, n_max=rows[last_nonzero].nz, rows=frozen)

    coeffs = [r.coeff for r in rows]
    peak = max(abs(c) for c in coeffs)
    tail = coeffs[-max(2, len(rows) // 4) :]
    c_end = tail[-1]
    if abs(c_end) <= _DELTA_TAIL * peak:
        return Classification(BehaviorKind.DAMPING, rows=frozen)
    if max(abs(c - c_end) for c in tail) <= _DELTA_TAIL * abs(c_end):
        return Classification(BehaviorKind.LASTING, coeff_limit=c_end, rows=frozen)
    return Classification(BehaviorKind.UNCLASSIFIED, rows=frozen)


def classify_behavior(
    spec: DispersionSpec,
    d: int,
    bc: BoundaryCondition,
    nz_max: int,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> Classification:
    """Sweep nz = 1..nz_max and classify the behavior; nz_max is at most
    2**20, the thicknesses a sweep takes."""
    if nz_max < 8:
        raise ValueError(f"nz_max must be at least 8 for a meaningful tail, got {nz_max!r}")
    rows = sweep(spec, d, bc, range(1, nz_max + 1), cfg)
    return classify_rows(rows)
