"""The four benchmark workloads and the reference checks behind fail_frac.

Each workload is a list of independent jobs. A pass runs every job once, in
an order the seed permutes, through the public latcas API only. Every job
yields a known number of results; each result is checked against a
reference that does not come from the code under test, except where the
check is an acceptance rule of the repository's own test suite.

A job that raises fails all of its results. The runner also fails a job's
results when its output differs in any bit from the same job in the first
pass, so state leaking between calls shows up as a failure.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)
ORACLE_TOL = 1e-10  # absolute, even orders against the rational moment oracle
FLOOR_ULPS = 64  # rounding floor on a committed reference, in ulps of |e0_int|
LASTING_TARGET = -math.pi**2 / 90.0
LASTING_REL_TOL = 5e-3  # acceptance criterion 04
RECONSTRUCTION_REL_TOL = 0.05
BC_NAMES = ("periodic", "antiperiodic", "phenomenological")


def within_reference(result, ref: dict) -> bool:
    """|e_cas - ref| within the result's own quad_error, the reference's
    error and a rounding floor of FLOOR_ULPS ulps of |e0_int|."""
    if not (math.isfinite(result.e_cas) and math.isfinite(result.quad_error)):
        return False
    floor = ref["err"] + FLOOR_ULPS * EPS * max(1.0, abs(result.e0_int))
    return abs(result.e_cas - ref["value"]) <= result.quad_error + floor


def within_oracle(value: float, exact: float) -> bool:
    return math.isfinite(value) and abs(value - exact) <= ORACLE_TOL


class Workload:
    """Jobs plus the checks on their results.

    Subclasses set `jobs` and implement run_job, n_results and check_job;
    check_pass holds checks that span several jobs.
    """

    jobs: list

    def __init__(self, api, oracle, refs: dict, out_dir: Path, smoke: bool):
        self.api = api
        self.oracle = oracle
        self.refs = refs
        self.out_dir = out_dir
        self.smoke = smoke
        self.bcs = {
            "periodic": api.BoundaryCondition.periodic(),
            "antiperiodic": api.BoundaryCondition.antiperiodic(),
            "phenomenological": api.BoundaryCondition.phenomenological(),
        }

    def run_job(self, job):
        raise NotImplementedError

    def n_results(self, job) -> int:
        raise NotImplementedError

    def check_job(self, job, result) -> list[bool]:
        raise NotImplementedError

    def check_pass(self, results: dict) -> list[bool]:
        return []

    def rows(self, job, result) -> list:
        """Results that carry a `converged` flag."""
        return []

    def fingerprint(self, result) -> str:
        # dataclass and float reprs round-trip exactly
        return repr(result)


class Remnant(Workload):
    """Even orders: every energy against the oracle, the class and n_max
    against classify_rows applied to the oracle's own rows."""

    def __init__(self, *args):
        super().__init__(*args)
        self.nz_max = 8 if self.smoke else 16
        orders = (2, 4) if self.smoke else (2, 4, 6, 8)
        self.jobs = [(s, bc) for s in orders for bc in BC_NAMES]
        self.expected = {}
        for s, bc in self.jobs:
            rows = self.oracle_rows(s, 3, bc, range(1, self.nz_max + 1))
            self.expected[(s, bc)] = (rows, self.api.classify_rows(rows))

    def oracle_rows(self, s: int, d: int, bc: str, nzs) -> list:
        exact = self.oracle
        out = []
        for nz in nzs:
            e = float(exact.casimir_exact(s, d, nz, bc))
            out.append(self.api.SweepRow(
                nz, float(exact.zero_point_sum_exact(s, d, nz, bc)),
                float(exact.zero_point_int_exact(s, d, nz)), e,
                float(nz ** ((d - 1) + s)) * e, 0.0,
            ))
        return out

    def run_job(self, job):
        s, bc = job
        api = self.api
        return api.classify_behavior(api.DispersionSpec(s), 3, self.bcs[bc], self.nz_max)

    def n_results(self, job) -> int:
        return self.nz_max + 1

    def check_job(self, job, result) -> list[bool]:
        rows, cls = self.expected[job]
        got = {r.nz: r for r in result.rows}
        checks = [r.nz in got and within_oracle(got[r.nz].e_cas, r.e_cas) for r in rows]
        checks.append(result.kind is cls.kind and result.n_max == cls.n_max)
        return checks

    def rows(self, job, result) -> list:
        return list(result.rows)


class Lasting(Workload):
    """Massless linear branch in d=3 at the acceptance-07 setting."""

    NZ = (8, 16, 32)

    def __init__(self, *args):
        super().__init__(*args)
        self.jobs = list(self.NZ)
        self.cfg = self.api.QuadratureConfig(max_refinements=3 if self.smoke else 4)
        self.ref = {r["nz"]: r for r in self.refs["lasting"]}

    def run_job(self, nz):
        api = self.api
        return api.casimir_energy(api.DispersionSpec(1), api.Geometry(3, nz), self.bcs["periodic"], self.cfg)

    def n_results(self, job) -> int:
        return 1

    def check_job(self, nz, result) -> list[bool]:
        return [within_reference(result, self.ref[nz])]

    def check_pass(self, results: dict) -> list[bool]:
        """Acceptance 04: deviations from -pi^2/90 shrink with nz and the
        Richardson limit lies within 5e-3 of it."""
        if any(isinstance(results[nz], Exception) for nz in self.NZ):
            return [False]
        coeffs = [results[nz].coeff for nz in self.NZ]
        devs = [abs(c - LASTING_TARGET) for c in coeffs]
        limit, _ = self.api.richardson_extrapolate(coeffs)
        rel = abs(limit - LASTING_TARGET) / abs(LASTING_TARGET)
        return [devs[0] > devs[1] > devs[2] and rel < LASTING_REL_TOL]

    def rows(self, job, result) -> list:
        return [result]


class SweepD2(Workload):
    """Linear branch in d=2 at default settings, written as JSON and read back."""

    def __init__(self, *args):
        super().__init__(*args)
        self.nz_max = 8 if self.smoke else 32
        self.jobs = ["sweep"]
        self.cfg = self.api.QuadratureConfig(max_refinements=3) if self.smoke else self.api.QuadratureConfig()
        self.ref = {r["nz"]: r for r in self.refs["sweep_d2"]}
        self.path = self.out_dir / "sweep_d2.json"

    def run_job(self, job):
        api = self.api
        rows = api.sweep(api.DispersionSpec(1), 2, self.bcs["periodic"], range(1, self.nz_max + 1), self.cfg)
        api.emit(rows, "json", self.path)
        return rows, json.loads(self.path.read_text())

    def n_results(self, job) -> int:
        return self.nz_max + 1

    def check_job(self, job, result) -> list[bool]:
        rows, parsed = result
        checks = [within_reference(r, self.ref[r.nz]) for r in rows]
        fields = [(r.nz, r.e0_sum, r.e0_int, r.e_cas, r.coeff, r.quad_error) for r in rows]
        back = [(p["Nz"], p["e0_sum"], p["e0_int"], p["e_cas"], p["coeff"], p["quad_error"]) for p in parsed]
        checks.append(fields == back)
        return checks

    def rows(self, job, result) -> list:
        return list(result[0])

    def fingerprint(self, result) -> str:
        return repr(result[0])


class Damping(Workload):
    """Massive linear branch, plus the even-order reconstruction at am=5."""

    RECON_AM = 5.0

    def __init__(self, *args):
        super().__init__(*args)
        self.nz_max = 8 if self.smoke else 30
        masses = (self.RECON_AM,) if self.smoke else (0.5, 1.0, 2.0, self.RECON_AM)
        partial_nz = (1,) if self.smoke else (1, 2, 3)
        self.jobs = [("mass", am) for am in masses] + [("partial", nz) for nz in partial_nz]
        self.ref, self.kind, self.sums = {}, {}, {}
        for am in masses:
            self.ref[am] = {r["nz"]: r for r in self.refs["damping"][repr(am)]}
            rows = [
                self.api.SweepRow(nz, 0.0, 0.0, r["value"], float(nz**3) * r["value"], r["err"])
                for nz, r in sorted(self.ref[am].items()) if nz <= self.nz_max
            ]
            self.kind[am] = self.api.classify_rows(rows).kind
        for nz in partial_nz:
            sums, total = [], 0.0
            for term in self.api.expansion_coefficients(self.RECON_AM, 2 * nz + 1):
                total += term.c_n * float(self.oracle.casimir_exact(2 * term.n, 3, nz))
                sums.append(total)
            self.sums[nz] = sums

    def run_job(self, job):
        kind, x = job
        api = self.api
        if kind == "mass":
            return api.classify_behavior(api.DispersionSpec(1, am=x), 3, self.bcs["periodic"], self.nz_max)
        return api.remnant_partial_sums(self.RECON_AM, api.Geometry(3, x), self.bcs["periodic"], 2 * x + 1)

    def n_results(self, job) -> int:
        kind, x = job
        return self.nz_max + 1 if kind == "mass" else 2 * x + 1

    def check_job(self, job, result) -> list[bool]:
        kind, x = job
        if kind == "partial":
            return [within_oracle(v, e) for v, e in zip(result, self.sums[x])]
        checks = [within_reference(r, self.ref[x][r.nz]) for r in result.rows]
        checks.append(result.kind is self.kind[x])
        return checks

    def check_pass(self, results: dict) -> list[bool]:
        """The order-(2nz+1) reconstruction lies within 5% of the massive value."""
        massive = results[("mass", self.RECON_AM)]
        checks = []
        for kind, nz in self.jobs:
            if kind != "partial":
                continue
            partial = results[(kind, nz)]
            if isinstance(massive, Exception) or isinstance(partial, Exception):
                checks.append(False)
                continue
            e = next(r.e_cas for r in massive.rows if r.nz == nz)
            checks.append(abs(partial[-1] - e) <= RECONSTRUCTION_REL_TOL * abs(e))
        return checks

    def rows(self, job, result) -> list:
        return list(result.rows) if job[0] == "mass" else []


WORKLOADS = {"remnant": Remnant, "lasting": Lasting, "sweep_d2": SweepD2, "damping": Damping}
