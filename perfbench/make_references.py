"""Generate perfbench/references.json, the reference values behind fail_frac.

Run from the repository root (needs numpy and scipy):

    python3 perfbench/make_references.py

Each entry holds an e_cas value and its own error estimate `err`. The
benchmark accepts a result when |e_cas - value| <= quad_error + err + a
rounding floor (see checks.within_reference).

- Linear branch (lasting: d=3, nz in {8,16,32}; sweep_d2: d=2, nz=1..32;
  periodic, massless): the package at three grid levels finer than any
  benchmark setting (single-level configs), Richardson-extrapolated;
  err is the distance between the limit and the finest level. Every value is
  confirmed by an independent route that uses none of the package's
  quadrature: QUADPACK over the transverse zone with the kz average in closed
  form, (2/pi) sqrt(t+4) E(4/(t+4)). The script stops if the two disagree.
- Massive branch (damping: d=3, am in {0.5,1,2,5}, nz=1..30, periodic): the
  QUADPACK + elliptic route alone, as in the unit test
  test_massive_slab_against_scipy_reference; err is QUADPACK's estimate.

Even orders need no committed values: the checks use tests/moment_oracle.py.
"""
from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.special

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from latcas import (  # noqa: E402
    BoundaryCondition,
    DispersionSpec,
    Geometry,
    QuadratureConfig,
    casimir_energy,
    richardson_extrapolate,
)

PER = BoundaryCondition.periodic()
EPS = float(np.finfo(float).eps)
LASTING_NZ = (8, 16, 32)
SWEEP_NZ = range(1, 33)
DAMPING_AM = (0.5, 1.0, 2.0, 5.0)
DAMPING_NZ = range(1, 31)
# single-level grids (points per axis) for the extrapolation
LEVELS = {3: (1024, 2048, 4096), 2: (65536, 131072, 262144)}


def _kz_average(shifted: float) -> float:
    """(1/2pi) int sqrt(shifted + 2 - 2 cos x) dx in closed form."""
    return (2.0 / math.pi) * math.sqrt(shifted + 4.0) * scipy.special.ellipe(4.0 / (shifted + 4.0))


def quadpack_route(d: int, nz: int, am: float = 0.0) -> tuple[float, float]:
    """e_cas by adaptive quadrature; the kernel is even, so [0, pi] per axis suffices."""
    tz = [2.0 - 2.0 * math.cos(2.0 * math.pi * l / nz) for l in range(nz)]
    a2 = am * am

    def diff(t: float) -> float:
        t += a2
        return 0.5 * math.fsum(math.sqrt(t + z) for z in tz) - 0.5 * nz * _kz_average(t)

    if d == 2:
        v, e = scipy.integrate.quad(
            lambda kx: diff(2.0 - 2.0 * math.cos(kx)), 0.0, math.pi,
            epsabs=1e-14, epsrel=1e-14, limit=200,
        )
        return v / math.pi, e / math.pi
    v, e = scipy.integrate.dblquad(
        lambda ky, kx: diff(4.0 - 2.0 * math.cos(kx) - 2.0 * math.cos(ky)),
        0.0, math.pi, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13,
    )
    return v / math.pi**2, e / math.pi**2


def extrapolated_route(d: int, nz: int) -> tuple[float, float, list[float]]:
    levels = [
        casimir_energy(DispersionSpec(1), Geometry(d, nz), PER,
                       QuadratureConfig(base_points=n, max_refinements=0)).e_cas
        for n in LEVELS[d]
    ]
    limit, _order = richardson_extrapolate(levels)
    return limit, abs(limit - levels[-1]), levels


def linear_entry(d: int, nz: int) -> dict:
    value, err, levels = extrapolated_route(d, nz)
    check, check_err = quadpack_route(d, nz)
    gap = abs(value - check)
    if gap > err + check_err + 64 * EPS * nz:
        raise SystemExit(f"routes disagree at d={d} nz={nz}: {value!r} vs {check!r}")
    return {"nz": nz, "value": value, "err": err, "levels": levels,
            "quadpack": check, "quadpack_err": check_err}


def massive_entry(am: float, nz: int) -> dict:
    value, err = quadpack_route(3, nz, am)
    return {"nz": nz, "value": value, "err": err}


def main() -> None:
    t0 = time.perf_counter()
    out = {
        "provenance": (
            "perfbench/make_references.py; linear: package single-level grids "
            f"{LEVELS} per axis, Richardson limit, confirmed by QUADPACK with the "
            "elliptic kz average; massive: QUADPACK with the elliptic kz average"
        ),
        "lasting": [linear_entry(3, nz) for nz in LASTING_NZ],
        "sweep_d2": [linear_entry(2, nz) for nz in SWEEP_NZ],
        "damping": {
            repr(am): [massive_entry(am, nz) for nz in DAMPING_NZ] for am in DAMPING_AM
        },
    }
    (HERE / "references.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote references.json in {time.perf_counter() - t0:.0f}s")


if __name__ == "__main__":
    main()
