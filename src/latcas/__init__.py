"""Lattice-regularized Casimir energies for power-law dispersion relations.

Computes the zero-point energy difference between a slab with discrete
momentum modes along one axis and the same slab with a continuous momentum,
for dispersions w = |k~|^s on the nearest-neighbor kernel, under periodic,
antiperiodic, and phenomenological mode families. Includes the continuum
closed form, the massive-branch expansion into even orders, behavior
classification over thickness sweeps, and CSV/JSON reporting.

The public names load on first use (PEP 562): `import latcas` reads this
file only, and the first access to any name of __all__ imports every module
that holds one, numpy with them.
"""
import importlib

__version__ = "0.1.0"

# module -> the public names it holds
_EXPORTS = {
    "casimir": ("casimir_energy", "eval_from_kernel_sum"),
    "classify": ("BehaviorKind", "Classification", "classify_behavior", "classify_rows"),
    "continuum": ("ContinuumParams", "continuum_casimir", "zeta_fn"),
    "massexp": (
        "ConvergenceReport",
        "DivergentExpansionWarning",
        "ExpansionTerm",
        "convergence_check",
        "expansion_coefficients",
        "remnant_partial_sums",
    ),
    "model": ("BoundaryCondition", "CasimirResult", "DispersionSpec", "Geometry", "QuadratureConfig"),
    "modes": ("generate_modes",),
    "quadrature": ("MultiQuadResult", "integrate_bz_multi", "richardson_extrapolate"),
    "report": ("CSV_COLUMNS", "RectangleDecomposition", "SweepRow", "emit", "rectangle_decomposition", "sweep"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names) + ["__version__"]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        mod = importlib.import_module(f".{module}", __name__)
        globals().update((n, getattr(mod, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
