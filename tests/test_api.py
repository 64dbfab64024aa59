"""The public surface: the exported names and the functions the benchmark tracer wraps."""
from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import latcas

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

PUBLIC = {
    "BehaviorKind", "BoundaryCondition", "BoundaryKind", "CSV_COLUMNS", "CasimirResult",
    "Classification", "ClassifyThresholds", "ContinuumParams", "ConvergenceReport",
    "DispersionSpec", "DivergentExpansionWarning", "ExpansionTerm", "GammaPoleError",
    "Geometry", "ModeSet", "MultiQuadResult", "PhenOffset", "QuadratureConfig",
    "QuadratureNonConvergence", "RectangleDecomposition", "SweepRow", "casimir_energy",
    "classify_behavior", "classify_rows", "continuum_casimir", "convergence_check", "emit",
    "eval_from_kernel_sum", "eval_lattice_dispersion", "expansion_coefficients", "gamma_fn",
    "generate_modes", "integrate_bz_multi", "rectangle_decomposition", "remnant_partial_sums",
    "richardson_extrapolate", "sweep", "zeta_fn", "zero_point_int", "zero_point_sum",
    "__version__",
}

# positional parameters the tracer reads off each wrapped call
TRACED_PARAMS = {
    "_omega_inplace": ("spec", "v"),
    "_node_kernels": ("m",),
    "integrate_bz_multi": ("f", "d", "cfg"),
}


def test_all_is_the_pinned_surface() -> None:
    assert len(latcas.__all__) == len(set(latcas.__all__)) == 41
    assert set(latcas.__all__) == PUBLIC
    for name in latcas.__all__:
        assert hasattr(latcas, name), name


def test_every_trace_target_resolves() -> None:
    for t in spans.TARGETS:
        fn = getattr(importlib.import_module(t.module), t.attr, None)
        assert callable(fn), t
        want = TRACED_PARAMS.get(t.attr, ())
        assert tuple(inspect.signature(fn).parameters)[: len(want)] == want, t
