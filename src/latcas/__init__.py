"""Lattice-regularized Casimir energies for power-law dispersion relations.

Computes the zero-point energy difference between a slab with discrete
momentum modes along one axis and the same slab with a continuous momentum,
for dispersions w = |k~|^s on the nearest-neighbor kernel, under periodic,
antiperiodic, and phenomenological mode families. Includes the continuum
closed form, the massive-branch expansion into even orders, behavior
classification over thickness sweeps, and CSV/JSON reporting.
"""
from .casimir import (
    QuadratureNonConvergence,
    casimir_energy,
    zero_point_int,
    zero_point_sum,
)
from .classify import (
    BehaviorKind,
    Classification,
    ClassifyThresholds,
    classify_behavior,
    classify_rows,
)
from .continuum import ContinuumParams, GammaPoleError, continuum_casimir, gamma_fn, zeta_fn
from .massexp import (
    ConvergenceReport,
    DivergentExpansionWarning,
    ExpansionTerm,
    convergence_check,
    expansion_coefficients,
    remnant_partial_sums,
)
from .model import (
    CasimirResult,
    DispersionSpec,
    Geometry,
    eval_from_kernel_sum,
    eval_lattice_dispersion,
)
from .modes import BoundaryCondition, BoundaryKind, ModeSet, PhenOffset, generate_modes
from .quadrature import (
    MultiQuadResult,
    QuadratureConfig,
    integrate_bz_multi,
    richardson_extrapolate,
)
from .report import (
    CSV_COLUMNS,
    RectangleDecomposition,
    SweepRow,
    emit,
    rectangle_decomposition,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BehaviorKind",
    "BoundaryCondition",
    "BoundaryKind",
    "CSV_COLUMNS",
    "CasimirResult",
    "Classification",
    "ClassifyThresholds",
    "ContinuumParams",
    "ConvergenceReport",
    "DispersionSpec",
    "DivergentExpansionWarning",
    "ExpansionTerm",
    "GammaPoleError",
    "Geometry",
    "ModeSet",
    "MultiQuadResult",
    "PhenOffset",
    "QuadratureConfig",
    "QuadratureNonConvergence",
    "RectangleDecomposition",
    "SweepRow",
    "casimir_energy",
    "classify_behavior",
    "classify_rows",
    "continuum_casimir",
    "convergence_check",
    "emit",
    "eval_from_kernel_sum",
    "eval_lattice_dispersion",
    "expansion_coefficients",
    "gamma_fn",
    "generate_modes",
    "integrate_bz_multi",
    "rectangle_decomposition",
    "remnant_partial_sums",
    "richardson_extrapolate",
    "sweep",
    "zeta_fn",
    "zero_point_int",
    "zero_point_sum",
    "__version__",
]
