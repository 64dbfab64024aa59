"""Thickness sweeps, mode-rectangle decompositions, and CSV/JSON emission.

A sweep row is the CasimirResult of that thickness, passed through as is.
CSV_COLUMNS and _row_values, which model holds, fix its columns once, for
CSV, JSON and the CLI table alike, converged included.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .casimir import _casimir_rows, _check, _kernel, _kz_average, eval_from_kernel_sum
from .model import (_MAX_POINTS, CSV_COLUMNS, BoundaryCondition, CasimirResult, DispersionSpec, Geometry,
                    QuadratureConfig, _is_int, _row_values)
from .modes import generate_modes

__all__ = [
    "SweepRow",
    "RectangleDecomposition",
    "sweep",
    "rectangle_decomposition",
    "emit",
    "CSV_COLUMNS",
]

_TWO_PI = 2.0 * math.pi

# the benchmark in perfbench/ builds rows by this name, so it stays as an alias
SweepRow = CasimirResult


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

    Thicknesses are integers (numpy integers too; not bool or float), at
    most _MAX_POINTS (2**20) of them: a longer range is refused by its
    length before any of it is read, and another iterable after its first
    2**20 + 1 are read, so an endless one ends too. Each row is the
    casimir_energy result of its thickness, bit for bit: the energies of
    one branch. Even-order thicknesses read one table of integers per
    (s, d), and odd-order ones share each transverse level's values of t,
    density of states and kz average; none of these depends on nz, so each
    is computed once per process for each (s, am, d) and kept for later
    calls in a store bounded to 8 MiB besides the table used last. Every
    odd row charges its point budget all the same, so a row does not depend
    on what ran before. The odd-order thicknesses also refine level by level
    together: one dispersion call per level covers
    the modes of every thickness still refining, and each keeps its own
    convergence test, budget and verdict. A non-converged row is recorded
    like any other (its quad_error and converged flag tell the story) and
    the sweep continues.
    """
    if isinstance(nz_range, range) and nz_range[_MAX_POINTS:]:  # a slice, as len() fails past sys.maxsize
        raise ValueError(f"a sweep takes at most {_MAX_POINTS} thicknesses")
    nzs = []
    for nz in itertools.islice(nz_range, _MAX_POINTS + 1):
        if isinstance(nz, bool):  # an int subclass, but not a thickness
            raise TypeError(f"thicknesses must be integers, got {nz!r}")
        nzs.append(operator.index(nz))  # a float raises instead of truncating
    if not nzs:
        raise ValueError("nz_range must be nonempty")
    if len(nzs) > _MAX_POINTS:  # an even row costs no point, so the budget alone bounds nothing
        raise ValueError(f"a sweep takes at most {_MAX_POINTS} thicknesses")
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
    samples, the modes and the dispersion evaluations of the kz average,
    s//2 + 1 as the energies charge it, are each bounded by the point
    budget and refused past it before any array is built.
    """
    if not _is_int(samples) or not 64 <= samples <= _MAX_POINTS:
        raise ValueError(f"samples must be an integer in [64, {_MAX_POINTS}], got {samples!r}")
    if spec.s // 2 + 1 > _MAX_POINTS:  # no value in the message: it may not print
        raise ValueError(f"order s must be below {2 * _MAX_POINTS}: a larger one's kz average passes the point budget")
    Geometry(d, nz)  # rejects a bad d or nz
    k_perp = np.asarray(k_perp, dtype=float)
    if k_perp.size > d - 1:
        raise ValueError(f"a slab in d = {d} has at most {d - 1} transverse momentum components, got {k_perp.size}")
    if not np.all(np.isfinite(k_perp)):
        raise ValueError("momentum components must be finite")
    akz, weight = generate_modes(bc, nz)  # refuses more modes than the budget before building any
    t_perp = float(np.sum(_kernel(k_perp)))
    width = weight * _TWO_PI / nz
    heights = eval_from_kernel_sum(spec, t_perp + _kernel(akz))
    rects = tuple((float(x - 0.5 * width), width, float(h)) for x, h in zip(akz, heights))
    sum_area = math.fsum(width * h for _, _, h in rects)

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


# one record of json.dumps(rows, indent=2), with a %s for each value
_JSON_RECORD = "  {\n" + ",\n".join(f'    "{k}": %s' for k in CSV_COLUMNS) + "\n  }"


def _rows_json(rows: Sequence[CasimirResult]) -> str:
    # the text of json.dumps(records, indent=2), whose encoder is pure Python
    # with indent: the values come from the compact call, which takes json's C
    # encoder, and no value it writes holds "], [" or ", "
    if not rows:
        return "[]\n"
    text = json.dumps([_row_values(r) for r in rows])[2:-2]
    records = [_JSON_RECORD % tuple(row.split(", ")) for row in text.split("], [")]
    return "[\n" + ",\n".join(records) + "\n]\n"


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
