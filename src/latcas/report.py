"""Thickness sweeps, mode-rectangle decompositions, and CSV/JSON emission.

A sweep row is the CasimirResult of that thickness, passed through as is.
CSV_COLUMNS and _row_values fix its columns once, for CSV, JSON and the CLI
table alike, converged included.
"""
from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .casimir import _casimir_rows, _check, _kz_average
from .model import CasimirResult, DispersionSpec, Geometry, _is_int, _kernel, eval_from_kernel_sum
from .modes import BoundaryCondition, _mode_count, generate_modes
from .quadrature import _MAX_POINTS, QuadratureConfig

__all__ = [
    "SweepRow",
    "RectangleDecomposition",
    "sweep",
    "rectangle_decomposition",
    "emit",
    "CSV_COLUMNS",
]

_TWO_PI = 2.0 * math.pi

# emitted columns, in CasimirResult field order; fixed so files are directly comparable
CSV_COLUMNS = ("Nz", "e0_sum", "e0_int", "e_cas", "coeff", "quad_error", "converged")

# the benchmark in perfbench/ builds rows by this name, so it stays as an alias
SweepRow = CasimirResult


def _row_values(r: CasimirResult) -> tuple:
    """The fields of r in CSV_COLUMNS order; every row format is built from it."""
    return (r.nz, r.e0_sum, r.e0_int, r.e_cas, r.coeff, r.quad_error, bool(r.converged))


@dataclass(frozen=True)
class RectangleDecomposition:
    """Mode rectangles against the continuous dispersion curve at fixed k_perp.

    Rectangle l is centered on mode akz_l with width weight_l * 2pi/nz and
    height omega(k_perp, akz_l), so sum_area/(2pi) is exactly the weighted
    mode average entering the zero-point sum. int_area is the area under the
    curve over one zone, 2pi times the exact kz average that the continuum
    zero-point energy uses; the sampled curve is for plotting only.
    """

    rects: tuple[tuple[float, float, float], ...]  # (left, width, height)
    curve: tuple[tuple[float, float], ...]  # (akz, aomega)
    sum_area: float
    int_area: float


def sweep(
    spec: DispersionSpec,
    d: int,
    bc: BoundaryCondition,
    nz_range: Iterable[int],
    cfg: QuadratureConfig = QuadratureConfig(),
) -> list[CasimirResult]:
    """One Casimir evaluation per thickness; rows keep ascending unique nz.

    Thicknesses are integers (numpy integers too; not bool or float). Each
    row is the casimir_energy result of its thickness, bit for bit. The
    thicknesses share each transverse level's values of t, density of
    states and kz average, which do not depend on nz, so those are computed
    once per sweep, for both parities. The odd-order thicknesses also
    refine level by level together: one dispersion call per level covers
    the modes of every thickness still refining, and each keeps its own
    convergence test, budget and verdict. A non-converged row is recorded
    like any other (its quad_error and converged flag tell the story) and
    the sweep continues.
    """
    nzs = []
    for nz in nz_range:
        if isinstance(nz, bool):  # an int subclass, but not a thickness
            raise TypeError(f"thicknesses must be integers, got {nz!r}")
        nzs.append(operator.index(nz))  # a float raises instead of truncating
    if not nzs:
        raise ValueError("nz_range must be nonempty")
    if sorted(set(nzs)) != nzs:
        raise ValueError("nz_range must be strictly ascending")
    _check(spec, Geometry(d, nzs[0]))  # the smallest nz; the others are larger
    return _casimir_rows(spec, d, bc, nzs, cfg)


def rectangle_decomposition(
    spec: DispersionSpec,
    nz: int,
    bc: BoundaryCondition,
    k_perp: Sequence[float] = (),
    samples: int = 512,
    d: int = 3,
) -> RectangleDecomposition:
    """Rectangles and curve for the 1D view at fixed transverse momentum.

    The default k_perp = () is the 1D illustration (no transverse kernel);
    a slab in d dimensions has at most d - 1 transverse components. The
    samples and the modes are each bounded by the quadrature point budget.
    """
    if not _is_int(samples) or not 64 <= samples <= _MAX_POINTS:
        raise ValueError(f"samples must be an integer in [64, {_MAX_POINTS}], got {samples!r}")
    Geometry(d, nz)  # rejects a bad d or nz
    k_perp = np.asarray(k_perp, dtype=float)
    if k_perp.size > d - 1:
        raise ValueError(f"a slab in d = {d} has at most {d - 1} transverse momentum components, got {k_perp.size}")
    if not np.all(np.isfinite(k_perp)):
        raise ValueError("momentum components must be finite")
    if _mode_count(bc, nz) > _MAX_POINTS:
        raise ValueError(f"nz = {nz} gives more than {_MAX_POINTS} modes")
    t_perp = float(np.sum(_kernel(k_perp)))
    modes = generate_modes(bc, nz)
    widths = modes.weights * _TWO_PI / nz
    heights = eval_from_kernel_sum(spec, t_perp + _kernel(modes.akz))
    rects = tuple((float(x - 0.5 * w), float(w), float(h)) for x, w, h in zip(modes.akz, widths, heights))
    sum_area = math.fsum(w * h for _, w, h in rects)

    xs = np.arange(samples, dtype=float) * (_TWO_PI / samples)
    ys = eval_from_kernel_sum(spec, t_perp + _kernel(xs))
    curve = tuple((float(x), float(y)) for x, y in zip(xs, ys))

    int_area = _TWO_PI * float(_kz_average(spec, np.array([t_perp]))[0])
    return RectangleDecomposition(rects, curve, sum_area, int_area)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_cell(v) -> str:
    if isinstance(v, bool):  # the JSON literal, so both formats read alike
        return "true" if v else "false"
    return str(v) if isinstance(v, int) else _g17(v)


def _rows_csv(rows: Sequence[CasimirResult]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_csv_cell(v) for v in _row_values(r)) for r in rows]
    return "\n".join(lines) + "\n"


def _rows_json(rows: Sequence[CasimirResult]) -> str:
    payload = [dict(zip(CSV_COLUMNS, _row_values(r))) for r in rows]
    return json.dumps(payload, indent=2) + "\n"


def _decomp_csv(dec: RectangleDecomposition) -> str:
    lines = ["left,width,height"]
    lines += [",".join(_g17(v) for v in rect) for rect in dec.rects]
    lines += ["", "curve", "akz,aomega"]
    lines += [",".join(_g17(v) for v in pt) for pt in dec.curve]
    lines += ["", "sum_area,int_area", f"{_g17(dec.sum_area)},{_g17(dec.int_area)}"]
    return "\n".join(lines) + "\n"


def _decomp_json(dec: RectangleDecomposition) -> str:
    payload = {
        "rects": [{"left": l, "width": w, "height": h} for l, w, h in dec.rects],
        "curve": [{"akz": x, "aomega": y} for x, y in dec.curve],
        "sum_area": dec.sum_area,
        "int_area": dec.int_area,
    }
    return json.dumps(payload, indent=2) + "\n"


def emit(data, fmt: str = "csv", destination: str | Path = "-") -> None:
    """Write result rows or a decomposition as CSV or JSON.

    destination "-" writes to stdout. Floats carry 17 significant digits so a
    parse reproduces every value bit-exactly.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if isinstance(data, RectangleDecomposition):
        text = _decomp_csv(data) if fmt == "csv" else _decomp_json(data)
    else:
        rows = list(data)
        if not all(isinstance(r, CasimirResult) for r in rows):
            raise TypeError("emit expects CasimirResult iterables or a RectangleDecomposition")
        text = _rows_csv(rows) if fmt == "csv" else _rows_json(rows)
    if destination == "-":
        sys.stdout.write(text)
        return
    try:
        Path(destination).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write output to {destination}: {exc}") from exc
