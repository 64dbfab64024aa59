"""The public surface: the exported names, their loading on first use, and
the functions the benchmark tracer wraps."""
from __future__ import annotations

import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import latcas

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

PUBLIC = {
    "BehaviorKind", "BoundaryCondition", "CSV_COLUMNS", "CasimirResult",
    "Classification", "ContinuumParams", "ConvergenceReport",
    "DispersionSpec", "DivergentExpansionWarning", "ExpansionTerm", "Geometry",
    "MultiQuadResult", "QuadratureConfig", "RectangleDecomposition", "SweepRow",
    "casimir_energy", "classify_behavior", "classify_rows", "continuum_casimir",
    "convergence_check", "emit", "eval_from_kernel_sum", "expansion_coefficients",
    "generate_modes", "integrate_bz_multi", "rectangle_decomposition", "remnant_partial_sums",
    "richardson_extrapolate", "sweep", "zeta_fn", "__version__",
}

# positional parameters the tracer reads off each wrapped call
TRACED_PARAMS = {
    "_omega_inplace": ("spec", "v"),
    "_node_kernels": ("m",),
    "integrate_bz_multi": ("f", "d", "cfg"),
}


def test_all_is_the_pinned_surface() -> None:
    assert len(latcas.__all__) == len(set(latcas.__all__)) == 31
    assert set(latcas.__all__) == PUBLIC
    for name in latcas.__all__:
        assert hasattr(latcas, name), name
    assert set(dir(latcas)) >= set(latcas.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        latcas.no_such_name


def test_every_trace_target_resolves() -> None:
    for t in spans.TARGETS:
        fn = getattr(importlib.import_module(t.module), t.attr, None)
        assert callable(fn), t
        want = TRACED_PARAMS.get(t.attr, ())
        assert tuple(inspect.signature(fn).parameters)[: len(want)] == want, t


# runs the CLI as `python -m latcas.cli` does; the last stderr line lists the loaded modules
_CLI = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('latcas.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(*sys.modules, file=sys.stderr)\n"
)


def _python(code: str, *argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run code in a fresh interpreter on this checkout's latcas; return the
    process and the modules that its last stderr line names."""
    src = str(Path(latcas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60)
    return proc, set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize(
    "code, argv, exit_code",
    [
        ("import latcas, sys; print(*sys.modules, file=sys.stderr)", (), 0),
        (_CLI, ("reference", "--s", "1", "--d", "3", "--L", "1", "--g", "2"), 0),
        (_CLI, ("--help",), 0),
        (_CLI, ("reference", "--no-such-flag"), 1),
    ],
    ids=["import", "reference", "help", "usage-error"],
)
def test_cold_start_loads_no_numpy(code, argv, exit_code) -> None:
    proc, modules = _python(code, *argv)
    assert proc.returncode == exit_code, proc.stderr
    assert "numpy" not in modules and "latcas.massexp" not in modules  # only mass-expansion loads it
    if "reference" in argv and exit_code == 0:
        assert float(proc.stdout) == pytest.approx(-math.pi**2 / 45.0, rel=1e-12)


def test_first_public_access_loads_every_module() -> None:
    api = {f"latcas.{m.name}" for m in pkgutil.iter_modules(latcas.__path__)} - {"latcas.cli"}
    _, modules = _python("import latcas, sys; latcas.Geometry; print(*sys.modules, file=sys.stderr)")
    assert api <= modules and "numpy" in modules
