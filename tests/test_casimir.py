from __future__ import annotations

import collections
import itertools
import math
import random
import threading
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

import latcas.casimir as casimir
from latcas import (
    BoundaryCondition,
    ContinuumParams,
    DispersionSpec,
    Geometry,
    QuadratureConfig,
    casimir_energy,
    continuum_casimir,
    expansion_coefficients,
    generate_modes,
    rectangle_decomposition,
    remnant_partial_sums,
    richardson_extrapolate,
    sweep,
)
from latcas.casimir import _join, _kernel, _kz_average, _mode_sum, _node_sum, _rule, _transverse_average
from latcas.quadrature import _MAX_POINTS

import moment_oracle as mo
import oracles

PER = BoundaryCondition.periodic()
ANTI = BoundaryCondition.antiperiodic()
PHEN = BoundaryCondition.phenomenological()
CFG = QuadratureConfig()
FAST = QuadratureConfig(max_refinements=3)

_BC = {"periodic": PER, "antiperiodic": ANTI, "phenomenological": PHEN}


def test_worked_quadratic_slab() -> None:
    r = casimir_energy(DispersionSpec(2), Geometry(3, 1), PER, CFG)
    assert r.e0_sum == pytest.approx(2.0, abs=1e-12)
    assert r.e0_int == pytest.approx(3.0, abs=1e-12)
    assert r.e_cas == pytest.approx(-1.0, abs=1e-12)
    assert r.coeff == pytest.approx(-1.0, abs=1e-12)
    assert r.converged


def test_zero_point_sum_examples() -> None:
    # the mode-sum term e0_sum of the Casimir result
    assert casimir_energy(DispersionSpec(2), Geometry(3, 1), PER, CFG).e0_sum == pytest.approx(2.0, abs=1e-12)
    assert casimir_energy(DispersionSpec(4), Geometry(3, 2), PER, CFG).e0_sum == pytest.approx(44.0, abs=1e-10)
    for nz in (1, 3, 6):
        flat = casimir_energy(DispersionSpec(0), Geometry(3, nz), PER, CFG).e0_sum
        assert flat == nz / 2.0


def test_zero_point_int_examples() -> None:
    # the continuum term e0_int of the Casimir result
    assert casimir_energy(DispersionSpec(2), Geometry(3, 1), PER, CFG).e0_int == pytest.approx(3.0, abs=1e-12)
    assert casimir_energy(DispersionSpec(2), Geometry(3, 5), PER, CFG).e0_int == pytest.approx(15.0, abs=1e-10)
    assert casimir_energy(DispersionSpec(0), Geometry(3, 4), PER, CFG).e0_int == pytest.approx(2.0, abs=1e-14)


def test_zero_point_int_ignores_boundary_condition() -> None:
    # the continuum term is the same for every family of modes, whether the
    # row takes the pointwise route or is past the support for some of them
    for spec, nz in ((DispersionSpec(4), 3), (DispersionSpec(4), 2), (DispersionSpec(2), 1), (DispersionSpec(0), 5)):
        values = {casimir_energy(spec, Geometry(3, nz), bc, CFG).e0_int for bc in (PER, ANTI, PHEN)}
        assert len(values) == 1, (spec, nz)


def test_even_orders_match_exact_oracle_everywhere() -> None:
    for s in (2, 4, 6, 8):
        for name, bc in _BC.items():
            for nz in range(1, 7):
                want = float(mo.casimir_exact(s, 3, nz, name))
                r = casimir_energy(DispersionSpec(s), Geometry(3, nz), bc, CFG)
                assert r.e_cas == pytest.approx(want, abs=1e-9 * max(1.0, abs(want))), (s, name, nz)
                assert r.converged


def test_even_order_quad_error_bounds_the_oracle_error() -> None:
    for s in range(0, 15, 2):
        for d in (1, 2, 3):
            for name, bc in _BC.items():
                for nz in range(1, 33):
                    want = mo.casimir_exact(s, d, nz, name)
                    r = casimir_energy(DispersionSpec(s), Geometry(d, nz), bc, CFG)
                    where = (s, d, name, nz)
                    assert abs(Fraction(r.e_cas) - want) <= Fraction(r.quad_error), where
                    assert r.converged, where


@pytest.mark.parametrize("s", [0, 2, 4, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_even_orders_use_one_exact_grid(monkeypatch, s: int, d: int) -> None:
    # the one exact rule of an even order is its table of integer Fourier
    # coefficients: built once per (s, d), it answers every family and
    # thickness, in the support and past it, with no modes, no transverse
    # level and no kz average, whatever the config says
    tables = []
    even_table = casimir._even_table

    def counted(s: int, d: int) -> list:
        tables.append((s, d))
        return even_table(s, d)

    monkeypatch.setattr(casimir, "_even_table", counted)
    for name in ("_joined_modes", "_kz_average", "_dos_level", "_transverse_average"):
        monkeypatch.setattr(casimir, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    cfg = QuadratureConfig(max_refinements=0)
    for name, bc in _BC.items():
        for r in sweep(DispersionSpec(s), d, bc, range(1, s // 2 + 3), cfg):
            assert r.converged and r.e_cas == float(mo.casimir_exact(s, d, r.nz, name)), (name, r.nz)
    assert tables == [(s, d)]
    assert not casimir._RULES and casimir._table.cache_info().currsize == 1  # held by the table store alone


@pytest.mark.parametrize("d", [1, 2, 3])
def test_even_rows_are_the_correctly_rounded_oracle(d: int) -> None:
    # the rounding wall of a float difference misclassified s >= 30 in d=3
    # (0.049 relative off at s=30): every value is now one rounding of an
    # integer, e0_sum too (the float sum e0_int + e_cas was one ulp off on
    # 434 of these rows, first at s=34, d=3, periodic, nz=3)
    for s in range(0, 61, 2):
        zero_point_int = {}
        for name, bc in _BC.items():
            for r in sweep(DispersionSpec(s), d, bc, range(1, s // 2 + 3), CFG):
                where = (s, name, r.nz)
                e0 = zero_point_int.setdefault(r.nz, float(mo.zero_point_int_exact(s, d, r.nz)))
                assert r.e_cas == float(mo.casimir_exact(s, d, r.nz, name)) and r.e0_int == e0, where
                assert r.e0_sum == float(mo.zero_point_sum_exact(s, d, r.nz, name)), where
                assert r.converged and r.quad_error == (math.ulp(r.e_cas) if r.e_cas else 0.0), where


@pytest.mark.parametrize("s", range(0, 9, 2))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_even_rows_match_a_direct_mode_sum(s: int, d: int) -> None:
    # a route without the aliasing identity: the explicit modes summed on
    # the exact transverse grid, whose difference rounds at the size of e0_int
    for bc in _BC.values():
        for nz in range(1, 7):
            r = casimir_energy(DispersionSpec(s), Geometry(d, nz), bc, CFG)
            e_cas, e0_int = oracles.direct_even_mode_sum(s, d, *generate_modes(bc, nz))
            tol = 16 * math.ulp(abs(r.e0_int))
            assert abs(r.e_cas - e_cas) <= tol and abs(r.e0_int - e0_int) <= tol, (s, d, bc, nz)


@pytest.mark.parametrize("s, d", [(2_000_000, 1), (1400, 2)])
def test_even_orders_past_the_float_range_are_refused_before_integer_work(monkeypatch, s: int, d: int) -> None:
    # e0_int >= (nz/2) C(s, s/2) passes the float range from s = 1032: the
    # row at s = 2,000,000 took 0.1 s of kz nodes to read -inf
    import tracemalloc

    casimir_energy(DispersionSpec(2), Geometry(d, 1), PER, CFG)  # first-call allocations
    monkeypatch.setattr(casimir, "_even_table", lambda *a: pytest.fail("table built"))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        r = casimir_energy(DispersionSpec(s), Geometry(d, 1), PER, CFG)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isnan(r.e_cas) and not r.converged and r.quad_error == math.inf
    assert elapsed < 0.1 and peak < 1 << 20


def test_the_last_even_order_in_the_float_range_is_finite() -> None:
    # e0_int = C(1030, 515) / 2 = 1.43e308, where the float difference read inf
    r = casimir_energy(DispersionSpec(1030), Geometry(1, 1), PER, CFG)
    assert r.converged and r.e0_int == float(mo.zero_point_int_exact(1030, 1, 1)) > 1.4e308
    assert r.e_cas == -r.e0_int and r.e0_sum == 0.0
    # in d=2 the integers of s = 1000 pass the float range: signed infinities, refused
    r = casimir_energy(DispersionSpec(1000), Geometry(2, 1), PER, CFG)
    assert (r.e0_int, r.e_cas, r.quad_error, r.converged) == (math.inf, -math.inf, math.inf, False)


@pytest.mark.parametrize("s, nzs", [(160, [79, 80]), (200, [2, 100]), (202, [1, 101, 102, 103])])
def test_even_rows_past_the_retired_grid_charge_are_the_correctly_rounded_oracle(s: int, nzs: list) -> None:
    # the point budget of the grid that the integer table replaced refused
    # these d=3 rows as NaN; the table answers them exactly
    for name, bc in _BC.items():
        for r in sweep(DispersionSpec(s), 3, bc, nzs, CFG):
            where = (s, name, r.nz)
            assert r.e_cas == float(mo.casimir_exact(s, 3, r.nz, name)), where
            assert r.e0_int == float(mo.zero_point_int_exact(s, 3, r.nz)), where
            assert r.converged and r.quad_error == (math.ulp(r.e_cas) if r.e_cas else 0.0), where


def test_transverse_moments_are_the_oracle_moments() -> None:
    # d=3 by a three-term recurrence in place of an O(m) sum per moment;
    # d=1 by the d=2 step from T_1(1) = 0
    for d in (1, 2, 3):
        assert casimir._transverse_moments(515, d) == [mo.transverse_moment(m, d) for m in range(516)], d
    assert casimir._transverse_moments(0, 3) == [1]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_even_tables_are_the_oracle_fourier_coefficients(d: int) -> None:
    # the binomial transform against F_k = sum_j C(n, j) T_d(n-j) [e^(ikx)] (2 - 2 cos x)^j
    # taken term by term from the oracle
    for s in (0, 2, 8, 62, 200):
        n = s // 2
        moments = [mo.transverse_moment(m, d) for m in range(n + 1)]
        coefficients = [math.comb(n, j) * moments[n - j] for j in range(n + 1)]
        expected = [sum(c * mo.fourier_coefficient(j, k) for j, c in enumerate(coefficients) if j >= k) for k in range(n + 1)]
        assert casimir._even_table(s, d) == expected, s


def test_a_row_whose_zero_point_sum_passes_the_float_range_is_not_converged() -> None:
    # e0_int (8.95e306 at nz=1) and e_cas (1.71e308) are finite, but their
    # sum is not: such a row read converged=True with e0_sum = inf
    for r in sweep(DispersionSpec(1026), 1, PHEN, range(1, 21), CFG):
        assert math.isfinite(r.e0_int) and math.isfinite(r.e_cas) and r.e0_sum == math.inf, r.nz
        assert not r.converged and r.quad_error == math.inf, r.nz


def test_nonfinite_values_are_not_converged() -> None:
    # am**2 overflows: odd order, both without (d=1) and with grid doubling
    for d in (1, 2):
        with np.errstate(all="ignore"):
            r = casimir_energy(DispersionSpec(1, am=1e160), Geometry(d, 2), PER, FAST)
        assert math.isnan(r.e_cas) and not r.converged and r.quad_error == math.inf, d
    # 4**550 overflows: an even order past the float range, refused
    with np.errstate(all="ignore"):
        r = casimir_energy(DispersionSpec(1100), Geometry(1, 1), ANTI, CFG)
    assert math.isnan(r.e_cas) and not r.converged and r.quad_error == math.inf
    # and past the support, where the continuum term alone gives the row
    with np.errstate(all="ignore"):
        r = casimir_energy(DispersionSpec(1100), Geometry(1, 600), ANTI, CFG)
    assert math.isnan(r.e_cas) and not r.converged and r.quad_error == math.inf
    assert not math.isfinite(r.e0_int)


@pytest.mark.parametrize(
    "s, am, d, nz, converged",
    [(1, 5.0, 1, 30, False), (1, 5.0, 2, 20, False), (1, 5.0, 3, 12, False), (7, 0.0, 3, 32, False),
     (4, 0.0, 3, 3, True), (4, 0.0, 3, 1, True)],
    ids=["exact-d1", "tanh-sinh-d2", "tanh-sinh-d3", "tanh-sinh-d3-s7", "structural-zero", "exact-in-support"],
)
def test_an_error_above_a_tenth_of_the_value_is_not_converged(s, am, d, nz, converged) -> None:
    # every route ends in one verdict: a finite row whose error exceeds a
    # tenth of |e_cas| (the massive tails, s=7 at nz=32) is not converged,
    # while a structural zero (e_cas = quad_error = 0.0) and an exact row
    # inside the support are
    r = casimir_energy(DispersionSpec(s, am=am), Geometry(d, nz), PER, CFG)
    assert math.isfinite(r.e_cas) and math.isfinite(r.quad_error)
    assert r.converged is converged is (r.quad_error <= abs(r.e_cas) / 10)
    if nz > s // 2 and s % 2 == 0:
        assert r.e_cas == r.quad_error == 0.0


def test_remnant_support_periodic() -> None:
    for s in (2, 4, 6):
        n = s // 2
        for nz in range(1, 9):
            e = casimir_energy(DispersionSpec(s), Geometry(3, nz), PER, CFG).e_cas
            if nz <= n:
                assert abs(e) > 1e-3, (s, nz)
            else:
                assert abs(e) < 1e-10, (s, nz)


def test_diagonal_remnants_alternate() -> None:
    # a slab as thick as the half-order keeps exactly one aliased harmonic
    for n in range(1, 6):
        want = float((-1) ** n * n)
        assert mo.casimir_exact(2 * n, 3, n) == want
        r = casimir_energy(DispersionSpec(2 * n), Geometry(3, n), PER, CFG)
        assert r.e_cas == pytest.approx(want, abs=1e-8 * max(1.0, n))


def test_antiperiodic_flips_the_quadratic_remnant() -> None:
    r = casimir_energy(DispersionSpec(2), Geometry(3, 1), ANTI, CFG)
    assert r.e_cas == pytest.approx(1.0, abs=1e-12)
    for nz in (2, 3, 4):
        e = casimir_energy(DispersionSpec(2), Geometry(3, nz), ANTI, CFG).e_cas
        assert abs(e) < 1e-10


def test_phenomenological_halves_the_doubled_slab() -> None:
    for s in (4, 6):
        for nz in (1, 2, 3):
            phen = casimir_energy(DispersionSpec(s), Geometry(3, nz), PHEN, CFG).e_cas
            per2 = casimir_energy(DispersionSpec(s), Geometry(3, 2 * nz), PER, CFG).e_cas
            assert phen == pytest.approx(0.5 * per2, abs=1e-9 * max(1.0, abs(per2)))


@pytest.mark.parametrize("s, nz", [(1, 3), (2, 10**9)], ids=["pointwise", "past-the-support"])
def test_a_boundary_condition_of_another_type_raises(s: int, nz: int) -> None:
    # both routes ask the mode count first; a string never stands for a family
    for bc in ("periodic", None):
        with pytest.raises(TypeError, match="BoundaryCondition"):
            casimir_energy(DispersionSpec(s), Geometry(3, nz), bc, CFG)
        with pytest.raises(TypeError, match="BoundaryCondition"):
            sweep(DispersionSpec(s), 3, bc, [nz], CFG)


def test_flat_band_is_inert() -> None:
    for bc in (PER, ANTI, PHEN):
        for nz in (1, 3):
            r = casimir_energy(DispersionSpec(0), Geometry(3, nz), bc, CFG)
            assert r.e_cas == 0.0
            assert r.coeff == 0.0


def test_quadratic_remnant_is_dimension_independent() -> None:
    for d in (1, 2, 3):
        r = casimir_energy(DispersionSpec(2), Geometry(d, 1), PER, CFG)
        assert r.e_cas == pytest.approx(-1.0, abs=1e-12), d


def test_difference_identity_at_rounding_level() -> None:
    for s, nz in [(2, 1), (4, 2), (6, 3)]:
        r = casimir_energy(DispersionSpec(s), Geometry(3, nz), PER, CFG)
        scale = max(abs(r.e0_sum), abs(r.e0_int), 1.0)
        assert r.e0_sum - r.e0_int == pytest.approx(r.e_cas, abs=4 * np.finfo(float).eps * scale)


def test_even_order_quadrature_error_is_rounding_level() -> None:
    for s, nz in [(2, 1), (4, 3), (6, 2), (8, 4)]:
        r = casimir_energy(DispersionSpec(s), Geometry(3, nz), PER, CFG)
        assert r.quad_error <= 1e-13 * max(1.0, abs(r.e0_sum))


def test_linear_chain_closed_form() -> None:
    # single axis: mode sum has a closed form, the zone average is 4/pi
    for nz in (1, 2, 4, 8, 16):
        r = casimir_energy(DispersionSpec(1), Geometry(1, nz), PER, CFG)
        triangle = 0.0 if nz == 1 else 1.0 / math.tan(math.pi / (2 * nz))
        want = triangle - 2.0 * nz / math.pi
        assert r.e_cas == pytest.approx(want, abs=1e-9)


def test_linear_chain_antiperiodic_closed_form() -> None:
    for nz in (1, 2, 4, 8):
        r = casimir_energy(DispersionSpec(1), Geometry(1, nz), ANTI, CFG)
        want = 1.0 / math.sin(math.pi / (2 * nz)) - 2.0 * nz / math.pi
        assert r.e_cas == pytest.approx(want, abs=1e-9)


def test_inner_average_matches_elliptic_integral() -> None:
    # (1/2pi) int sqrt(t + 2 - 2 cos x) dx = (2/pi) sqrt(t+4) E(4/(t+4))
    t = np.array([0.0, 1e-6, 0.01, 0.5, 2.0, 6.3, 8.0])
    got = _kz_average(DispersionSpec(1), t)
    want = (2.0 / math.pi) * np.sqrt(t + 4.0) * scipy.special.ellipe(4.0 / (t + 4.0))
    assert got == pytest.approx(want, rel=1e-13)


_KZ_T = [0.0, 1e-12, 1e-8, 1e-4] + [float(x) for x in np.linspace(1e-3, 12.0, 13)]


@pytest.mark.parametrize("s,am", [(1, 0.0), (3, 0.0), (5, 0.0), (7, 0.0), (1, 0.5), (1, 5.0)])
def test_odd_kz_average_matches_mpmath(s: int, am: float) -> None:
    got = _kz_average(DispersionSpec(s, am=am), np.array(_KZ_T))
    with mpmath.workdps(30):
        for t, value in zip(_KZ_T, got):
            v = mpmath.mpf(t) + mpmath.mpf(am) ** 2
            f = lambda x: (v + 2 - 2 * mpmath.cos(x)) ** (mpmath.mpf(s) / 2)
            want = mpmath.quad(f, [0, mpmath.pi / 2, mpmath.pi]) / mpmath.pi
            assert abs(value - want) <= 1e-14 * abs(want), (s, am, t)


def test_even_kz_average_matches_kernel_moments() -> None:
    # <(t + kernel)^m> = sum_j C(m, j) t^(m-j) <kernel^j>, exact in integers
    t = np.arange(6, dtype=float)
    for s in (0, 2, 4, 6, 8):
        m = s // 2
        got = _kz_average(DispersionSpec(s), t)
        for ti, value in zip(range(6), got):
            want = sum(math.comb(m, j) * ti ** (m - j) * mo.kernel_moment(j) for j in range(m + 1))
            assert value == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0.0), (s, ti)


@pytest.mark.parametrize("s", [1, 3])
def test_kz_average_returns_on_nonfinite_input(s: int) -> None:
    out = []

    def call() -> None:
        with np.errstate(invalid="ignore"):
            out.append(_kz_average(DispersionSpec(s), np.array([math.nan, math.inf, 1.0])))

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert np.isnan(out[0][:2]).all() and np.isfinite(out[0][2])


def test_massive_slab_against_scipy_reference() -> None:
    # independent route: adaptive 2D quadrature with the elliptic inner average
    am = 5.0
    r = casimir_energy(DispersionSpec(1, am=am), Geometry(3, 1), PER, CFG)

    def diff(kx: float, ky: float) -> float:
        t = 4.0 - 2.0 * math.cos(kx) - 2.0 * math.cos(ky)
        mode = 0.5 * math.sqrt(t + am * am)
        shifted = t + am * am
        inner = (2.0 / math.pi) * math.sqrt(shifted + 4.0) * scipy.special.ellipe(4.0 / (shifted + 4.0))
        return mode - 0.5 * inner

    want, quad_err = scipy.integrate.dblquad(
        diff, 0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi, epsabs=1e-12, epsrel=1e-12
    )
    want /= (2.0 * math.pi) ** 2
    assert quad_err < 1e-8
    assert r.e_cas == pytest.approx(want, abs=1e-8)


def _oracle_case_id(case) -> str:
    s, am, d, nz, bc = case
    return f"{am}-{nz}" if (s, d, bc) == (1, 3, "periodic") else f"{am}-{nz}-s{s}-d{d}-{bc}"


_ORACLE_CASES = [
    (1, 5.0, 3, 8, "periodic"),
    (1, 2.0, 3, 16, "periodic"),
    (1, 0.5, 3, 8, "periodic"),
    (1, 0.0, 3, 8, "periodic"),
    (1, 0.0, 3, 32, "periodic"),
    (3, 0.0, 3, 4, "periodic"),
    (1, 0.0, 3, 5, "antiperiodic"),
    (1, 0.0, 3, 3, "phenomenological"),
    (1, 0.0, 2, 8, "periodic"),
    (3, 0.0, 2, 5, "phenomenological"),
    (1, 0.5, 2, 6, "antiperiodic"),
]


@pytest.mark.parametrize("case", _ORACLE_CASES, ids=_oracle_case_id)
def test_odd_order_quad_error_bounds_the_dos_oracle_error(case) -> None:
    # the massive cases understated their error 6-39 times under the old grid's
    # level change alone; the rounding floor covers them. In the tails of am=5
    # at nz=8 and am=2 at nz=16 that floor exceeds a tenth of |e_cas|, so they
    # are not converged
    s, am, d, nz, bc = case
    r = casimir_energy(DispersionSpec(s, am=am), Geometry(d, nz), _BC[bc], CFG)
    assert r.converged is ((am, nz) not in ((5.0, 8), (2.0, 16)))
    assert abs(r.e_cas - oracles.dos_oracle(s, am, d, nz, bc)) <= r.quad_error


def test_dos_average_matches_the_direct_grid() -> None:
    # the same t-integrand on the uniform 2D zone grid, whose error falls as h^3
    # at the sqrt(t) cusp of the kz=0 mode, extrapolated to h = 0
    spec, nz = DispersionSpec(1), 4
    akz, w = generate_modes(PER, nz)

    def f(t: np.ndarray) -> np.ndarray:
        k = _kernel(akz)
        return _mode_sum(spec, k, (0, k.size), w, t)[0] - (0.5 * nz) * _kz_average(spec, t)

    values, _, converged, _ = _transverse_average(_rule(spec, 3), lambda t, kz, rows: f(t)[None, :, None], CFG, [1])
    assert converged.tolist() == [True]
    grids = [oracles.uniform_grid_mean(f, 3, n) for n in (128, 256, 512)]
    limit, order = richardson_extrapolate(grids)
    assert order == pytest.approx(3.0, abs=0.05)
    assert abs(grids[-1] - values[0, 0]) > 1e-9  # the finest grid alone is far off
    assert abs(limit - values[0, 0]) <= 1e-10


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("d", [2, 3])
def test_dos_levels_integrate_the_transverse_moments_exactly(d, m) -> None:
    # the zone average of t^m is an integer (moment_oracle); the stored
    # weights, step and density of states included, give it within 4 ulps,
    # and the reported error covers the true one
    exact = mo.transverse_moment(m, d)
    f = lambda t, kz, rows: (t**m)[None, :, None]
    values, errors, converged, _ = _transverse_average(_rule(DispersionSpec(1), d), f, QuadratureConfig(), [1])
    assert converged.tolist() == [True]
    assert abs(values[0, 0] - exact) <= 4 * math.ulp(exact)
    assert errors[0, 0] >= abs(values[0, 0] - exact)


def test_point_budget_ends_in_nonconvergence() -> None:
    # 60 halvings allowed, but each value of t costs nz + 1 dispersion
    # evaluations, so at nz = 20000 the budget admits two levels, which differ
    cfg = QuadratureConfig(max_refinements=60, rel_tol=1e-16, abs_tol=1e-300)
    t0 = time.perf_counter()
    r = casimir_energy(DispersionSpec(1), Geometry(3, 20000), PER, cfg)
    assert time.perf_counter() - t0 < 10.0
    assert not r.converged and math.isfinite(r.e_cas) and r.quad_error > 0.0
    seen = []

    def f(t: np.ndarray, kz: np.ndarray, rows: np.ndarray) -> np.ndarray:
        seen.append(t.size)
        return np.sin(1e6 * t)[None, :, None]  # tanh-sinh levels never agree on this

    # the budget counts the values of t: one per node in d=2, two in d=3
    for d in (2, 3):
        seen.clear()
        _, _, converged, levels = _transverse_average(_rule(DispersionSpec(1), d), f, cfg, [1])
        assert converged.tolist() == [False]
        ends = _level_ends(d, 30)
        assert sum(seen) == ends[levels[0]] <= _MAX_POINTS < ends[levels[0] + 1]


def test_levels_that_agree_at_the_rounding_floor_converge() -> None:
    # the e_cas level changes are rounding noise below 16 ulps of |e0_int|,
    # so the convergence test accepts them at that floor, which is the error
    eps = np.finfo(float).eps
    tight = QuadratureConfig(max_refinements=60, rel_tol=1e-16, abs_tol=1e-300)
    for spec, geom, cfg in (
        (DispersionSpec(9), Geometry(3, 14), CFG),
        (DispersionSpec(9), Geometry(2, 14), CFG),
        (DispersionSpec(1), Geometry(3, 2), tight),
    ):
        r = casimir_energy(spec, geom, PER, cfg)
        assert r.converged, (spec, geom)
        assert r.quad_error == 16 * eps * abs(r.e0_int), (spec, geom)


@pytest.mark.parametrize(
    "spec, geom",
    [
        (DispersionSpec(2 * 10**5), Geometry(2, 1)),
        (DispersionSpec(1), Geometry(3, 10**9)),
        (DispersionSpec(1), Geometry(2, 200000)),
        (DispersionSpec(1), Geometry(2, 10**9)),
        (DispersionSpec(2 * 10**5), Geometry(2, 10**5 + 1)),
    ],
)
def test_work_per_point_is_charged_to_the_budget(monkeypatch, spec, geom) -> None:
    # s/2 + 1 kz nodes or nz modes per value of t pass the budget on the first
    # level: refused before any mode is generated or any point evaluated; the
    # even orders are past the float range too
    import tracemalloc

    import latcas.casimir as casimir

    monkeypatch.setattr(casimir, "_joined_modes", lambda *a: pytest.fail("modes generated"))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with np.errstate(all="ignore"):
            r = casimir_energy(spec, geom, PER, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0 and peak < 1 << 20
    assert not r.converged and math.isnan(r.e_cas) and r.quad_error == math.inf


def test_even_grid_past_the_point_budget_is_not_converged() -> None:
    # past _EVEN_S_MAX: refused before any integer work
    with np.errstate(all="ignore"):
        r = casimir_energy(DispersionSpec(2 << 20), Geometry(2, 1), PER, CFG)
    assert not r.converged and math.isnan(r.e_cas) and r.quad_error == math.inf


def test_node_sum_blocking_is_bit_identical(monkeypatch) -> None:
    # each row of t is one sum whatever the block size, so blocking moves no bit
    import latcas.casimir as casimir

    cases = [
        (DispersionSpec(1), Geometry(2, 5), PHEN),
        (DispersionSpec(1, am=0.5), Geometry(2, 3), ANTI),
        (DispersionSpec(4), Geometry(3, 3), PER),
    ]
    sweeps = [
        # nz 1 and 2 share a group and, on the first levels, a call; nz 3..8
        # go alone, their values of t in blocks
        (DispersionSpec(1, am=0.5), 3, PER, range(1, 9)),
        (DispersionSpec(3), 2, PHEN, [1, 2]),  # one group; the kernels part once the levels grow
        (DispersionSpec(8), 3, ANTI, range(1, 7)),  # even rows read the integer table whatever the budget
    ]
    want = [casimir_energy(*case, FAST) for case in cases]
    want_rows = [sweep(*case, FAST) for case in sweeps]
    monkeypatch.setattr(casimir, "_MAT_BUDGET", 50)
    assert [casimir_energy(*case, FAST) for case in cases] == want
    assert [sweep(*case, FAST) for case in sweeps] == want_rows


def _level_ends(d: int, levels: int) -> list:
    """Values of t through each tanh-sinh level in d = 2, 3: two per node in d=3."""
    return list(itertools.accumulate((d - 1) * casimir._tanh_sinh_size(j) for j in range(levels)))


def test_batch_boundaries_move_no_bit(monkeypatch) -> None:
    # a run of levels gives each level the bits it has alone: runs of one
    # level past the first two, runs up to _BATCH, and runs as long as the
    # last levels allow give the same rows
    budget = QuadratureConfig(max_refinements=60, rel_tol=1e-16, abs_tol=1e-300)
    calls = [
        (spec, d, bc, range(1, 13), CFG)
        for spec in (DispersionSpec(1), DispersionSpec(1, am=0.5))
        for d in (2, 3)
        for bc in (PER, ANTI, PHEN)
    ]
    calls += [
        (DispersionSpec(1, am=5.0), 3, PER, [1, 2, 3], CFG),  # converged inside the first run of levels
        (DispersionSpec(3), 2, PHEN, [1, 2, 300, 20000], budget),  # the budget stops the rows one by one
        (DispersionSpec(1), 3, PER, [20000], budget),
        (DispersionSpec(1), 3, ANTI, [1, 5, 40], QuadratureConfig(max_refinements=0)),
        (DispersionSpec(1, am=0.5), 2, PER, [1, 5, 40], QuadratureConfig(max_refinements=1)),
    ]
    seen = collections.Counter()  # values of t each thickness of the converged call was evaluated at
    mode_sum = casimir._mode_sum

    def counted(spec, joined, bounds, w, t):
        if spec.am == 5.0:
            seen.update({b - a: t.size for a, b in zip(bounds, bounds[1:])})  # periodic: nz modes
        return mode_sum(spec, joined, bounds, w, t)

    monkeypatch.setattr(casimir, "_mode_sum", counted)
    rows = {}
    for batch in (0, casimir._BATCH, _MAX_POINTS):
        monkeypatch.setattr(casimir, "_BATCH", batch)
        casimir._RULES.clear()
        rows[batch] = repr([sweep(*call) for call in calls])
        if batch == 0:
            alone, seen = seen, collections.Counter()
    assert rows[0] == rows[casimir._BATCH] == rows[_MAX_POINTS]
    # one level a call visits only the levels each row takes; the runs take
    # levels past where a row converged, and still give its bits there
    assert any(seen[nz] > alone[nz] for nz in (1, 2, 3))
    assert all(n in _level_ends(3, 10) for n in alone.values())
    # the moments t^m converge at unequal levels: each row keeps the values,
    # error, verdict and points of its own level inside a run; a cost of 2
    # at s = 1 is one mode column per value of t, so _BATCH = 0 runs one level
    moments = lambda t, kz, rows: (t ** rows[:, None])[..., None]
    got = []
    for batch in (0, _MAX_POINTS):
        monkeypatch.setattr(casimir, "_BATCH", batch)
        arrays = _transverse_average(_rule(DispersionSpec(1), 3), moments, CFG, [2] * 12)
        got.append([a.tobytes() for a in arrays])
    assert got[0] == got[1] and len(set(arrays[3].tolist())) > 1  # two levels inside one run


def test_no_level_is_evaluated_past_a_converged_row(monkeypatch) -> None:
    # once a row has converged the others are near their own verdicts, so
    # the runs take one level each: at am = 1 two thicknesses outlive the
    # others by one level, and a run of three levels spent 4,704 dispersion
    # values on levels they never reach
    seen = []
    omega = casimir._omega_inplace

    def counted(spec, v):
        seen.append(v.size)
        return omega(spec, v)

    monkeypatch.setattr(casimir, "_omega_inplace", counted)
    spec = DispersionSpec(1, am=1.0)
    evals = {}
    for batch in (0, casimir._BATCH):
        monkeypatch.setattr(casimir, "_BATCH", batch)
        casimir._RULES.clear()
        seen.clear()
        sweep(spec, 3, PER, range(1, 31), CFG)
        evals[batch] = sum(seen)
    assert evals[0] == evals[casimir._BATCH]


def test_runs_of_levels_stop_at_the_smallest_last_level(monkeypatch) -> None:
    # the point budget gives rows of unequal costs unequal last levels; f
    # never receives a value of t past the smallest last level of the rows
    # it is asked for, however long a run _BATCH allows
    monkeypatch.setattr(casimir, "_BATCH", 1 << 62)
    cfg = QuadratureConfig(max_refinements=30, rel_tol=1e-16, abs_tol=1e-300)
    costs = [1, 40, 700, 9000]
    for d in (2, 3):
        calls = []

        def f(t: np.ndarray, kz: np.ndarray, rows: np.ndarray) -> np.ndarray:
            calls.append((t.size, rows.copy()))
            return np.sin(1e6 * t)[None, :, None].repeat(rows.size, axis=0)  # never agrees with itself

        _, _, converged, levels = _transverse_average(_rule(DispersionSpec(1), d), f, cfg, costs)
        ends = _level_ends(d, 20)
        last = levels.tolist()  # the level at which each row stops
        assert not converged.any() and last == sorted(last, reverse=True) and len(set(last)) == len(costs)
        total = 0
        for size, rows in calls:
            total += size
            assert total <= ends[min(last[i] for i in rows)]
        assert total == ends[last[0]] and len(calls) == len(set(last))  # one run per retirement


@pytest.mark.parametrize("d", [2, 3])
def test_no_refinement_evaluates_level_zero_only(monkeypatch, d) -> None:
    monkeypatch.setattr(casimir, "_BATCH", _MAX_POINTS)
    sizes = []

    def f(t: np.ndarray, kz: np.ndarray, rows: np.ndarray) -> np.ndarray:
        sizes.append(t.size)
        return (t * t)[None, :, None].repeat(rows.size, axis=0)

    _, _, converged, _ = _transverse_average(_rule(DispersionSpec(1), d), f, QuadratureConfig(max_refinements=0), [1, 2])
    assert sizes == _level_ends(d, 1) and not converged.any()


def test_any_refinement_cap_stops_at_the_point_budget() -> None:
    # the last levels are taken in Python ints: a cap past int64 gives the
    # rows the budget alone gives, as a cap of 60 does
    tight = dict(rel_tol=1e-16, abs_tol=1e-300)
    for spec, d, bc, nzs in ((DispersionSpec(1), 3, PER, [20000]), (DispersionSpec(1, am=0.5), 2, PHEN, [1, 300, 20000])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = sweep(spec, d, bc, nzs, QuadratureConfig(max_refinements=10**20, **tight))
        assert repr(huge) == repr(sweep(spec, d, bc, nzs, QuadratureConfig(max_refinements=60, **tight)))
        assert not huge[-1].converged


def _node_sum_case() -> tuple:
    # values of t at both ends of the transverse range and in between, and
    # kernels of unequal widths, one of a single column
    t = np.concatenate([[0.0, 8.0], np.random.default_rng(15).uniform(0.0, 8.0, 300)])
    families = ((PER, 1), (PHEN, 5), (ANTI, 37), (PER, 130), (PER, 1000))
    return t, [_kernel(generate_modes(bc, nz)[0]) for bc, nz in families]


_NODE_SUM_SPECS = [DispersionSpec(1), DispersionSpec(3), DispersionSpec(4), DispersionSpec(1, am=0.5)]


@pytest.mark.parametrize("spec", _NODE_SUM_SPECS, ids=["s1", "s3", "s4", "am0.5"])
def test_node_sum_is_within_four_ulps_of_an_exact_sum(spec) -> None:
    # the terms are the dispersion values of each column; only their sum rounds
    t, kernels = _node_sum_case()
    got = _node_sum(spec, t, *_join(kernels))
    for row, k in zip(got, kernels):
        for value, tv in zip(row.tolist(), t.tolist()):
            want = math.fsum(np.atleast_1d(casimir.eval_from_kernel_sum(spec, tv + k)).tolist())
            assert abs(value - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize("spec", _NODE_SUM_SPECS, ids=["s1", "s3", "s4", "am0.5"])
def test_node_sum_rows_do_not_depend_on_their_neighbours(spec) -> None:
    # a segment sums its own columns only, wherever it sits among the others
    t, kernels = _node_sum_case()
    together = _node_sum(spec, t, *_join(kernels))
    for i, k in enumerate(kernels):
        assert np.array_equal(_node_sum(spec, t, *_join([k]))[0], together[i])
        assert np.array_equal(_node_sum(spec, t, *_join(kernels[::-1]))[-1 - i], together[i])


def test_node_sum_blocks_of_t_move_no_bit(monkeypatch) -> None:
    # budgets that split t into blocks of 2, 1 (one value per call, the
    # joined columns alone past the budget) and uneven blocks of 15 values
    t, kernels = _node_sum_case()
    joined, bounds = _join(kernels)
    spec = DispersionSpec(3)
    want = _node_sum(spec, t, joined, bounds)
    for budget in (2 * joined.size, 100, 15 * joined.size + 7):
        monkeypatch.setattr(casimir, "_MAT_BUDGET", budget)
        assert np.array_equal(_node_sum(spec, t, joined, bounds), want)


def test_long_odd_sweep_keeps_its_memory_bounded(monkeypatch) -> None:
    # each dispersion call stays within _MAT_BUDGET elements and the rows go
    # in groups of joined modes within it on the first level, so memory does
    # not grow with the sum of the thicknesses: taking all 45,150 modes of
    # nz 1..300 in one call per level peaked at 43 MiB
    import tracemalloc

    import latcas.casimir as casimir

    tracemalloc.start()
    try:
        rows = sweep(DispersionSpec(1), 3, PER, range(1, 301))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.converged for r in rows)
    assert peak < 2 * 8 * casimir._MAT_BUDGET  # two float temporaries

    groups = []
    pointwise = casimir._pointwise

    def recorded(spec, rule, bc, nzs, cfg):
        groups.append((rule.first, nzs))
        return pointwise(spec, rule, bc, nzs, cfg)

    monkeypatch.setattr(casimir, "_pointwise", recorded)
    monkeypatch.setattr(casimir, "_MAT_BUDGET", 1 << 12)
    assert sweep(DispersionSpec(1), 3, PER, range(1, 301)) == rows
    assert [nz for _, nzs in groups for nz in nzs] == list(range(1, 301))
    # periodic: nz modes; a row too large to share goes alone
    assert all(len(nzs) == 1 or first * sum(nzs) <= 1 << 12 for first, nzs in groups)
    assert 1 < len(groups) < 300


def test_heavier_mass_flattens_the_band() -> None:
    light =casimir_energy(DispersionSpec(1, am=5.0), Geometry(3, 1), PER, FAST)
    heavy = casimir_energy(DispersionSpec(1, am=100.0), Geometry(3, 1), PER, FAST)
    assert abs(heavy.e_cas) < abs(light.e_cas)


def test_small_mass_limit_is_continuous() -> None:
    cfg = QuadratureConfig(max_refinements=3)
    massless = casimir_energy(DispersionSpec(1), Geometry(3, 8), PER, cfg)
    light = casimir_energy(DispersionSpec(1, am=1e-3), Geometry(3, 8), PER, cfg)
    assert light.e_cas == pytest.approx(massless.e_cas, abs=1e-7)


def test_massive_coefficient_exponent_matches_linear_branch() -> None:
    r = casimir_energy(DispersionSpec(1, am=5.0), Geometry(3, 2), PER, FAST)
    assert r.coeff == pytest.approx(2**3 * r.e_cas, rel=1e-15)


def test_massive_requires_positive_mass() -> None:
    # the massive branch is DispersionSpec(1, am > 0); am = 0 is the massless
    # branch, so the mass-expansion entry point is the one that rejects it
    with pytest.raises(ValueError):
        remnant_partial_sums(0.0, Geometry(3, 1), PER, 2)
    with pytest.raises(ValueError):
        DispersionSpec(1, am=-1.0)


def test_nonconvergence_is_soft_for_casimir_energy() -> None:
    cfg = QuadratureConfig(max_refinements=1, rel_tol=1e-16, abs_tol=1e-300)
    r = casimir_energy(DispersionSpec(1), Geometry(3, 2), PER, cfg)
    assert not r.converged
    assert r.quad_error > 0.0


def test_deterministic_bitwise_repeat() -> None:
    a = casimir_energy(DispersionSpec(1), Geometry(2, 3), PER, FAST)
    b = casimir_energy(DispersionSpec(1), Geometry(2, 3), PER, FAST)
    assert (a.e_cas, a.e0_int, a.quad_error) == (b.e_cas, b.e0_int, b.quad_error)


def test_coeff_past_the_float_range_does_not_raise() -> None:
    # nz**alpha = 4**600 passes the float range while e_cas stays finite
    r = casimir_energy(DispersionSpec(600), Geometry(1, 4), PER, CFG)
    assert r.converged and math.isfinite(r.e_cas) and r.e_cas != 0.0
    assert r.coeff == math.copysign(math.inf, r.e_cas)


@pytest.mark.parametrize("s", [10**9 + 1, 10**12], ids=["odd", "even"])
def test_huge_orders_are_refused_in_bounded_work(s: int) -> None:
    # the odd kz average costs s//2 recurrence steps per t and is charged
    # so, and nz**alpha past the float range is never built as an integer:
    # the odd row took hours, and each refused row time and memory linear in s
    import tracemalloc

    spec = DispersionSpec(s)
    casimir_energy(DispersionSpec(1), Geometry(3, 4), PER, CFG)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        start = time.perf_counter()
        r = casimir_energy(spec, Geometry(3, 4), PER, CFG)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not r.converged and math.isnan(r.e_cas) and math.isnan(r.coeff) and r.quad_error == math.inf
    assert elapsed < 1.0 and peak < 1 << 20


@pytest.mark.parametrize(
    "e_cas, want", [(0.0, 0.0), (-1e-300, -math.inf), (1e-300, math.inf), (math.nan, math.nan)]
)
def test_coeff_overflow_cases(monkeypatch, e_cas: float, want: float) -> None:
    import latcas.casimir as casimir

    def fake(rule, f, cfg, costs):
        # one exact row: (values, errors, converged, points)
        return np.array([[e_cas, 1.0]]), np.zeros((1, 2)), np.array([True]), np.array([1])

    monkeypatch.setattr(casimir, "_transverse_average", fake)
    r = casimir_energy(DispersionSpec(1101), Geometry(1, 2), PER, CFG)  # nz**alpha = 2**1101
    assert r.coeff == want or (math.isnan(want) and math.isnan(r.coeff))


# the store of transverse rules (casimir._rule) that calls share


def test_stored_rules_give_the_bits_of_cold_ones() -> None:
    # max_refinements 2, then 6, then 4: a later, deeper call extends a
    # table that a shallower one built, and a shallower one reads it
    fams = (PER, ANTI, PHEN)
    specs = [DispersionSpec(s) for s in range(8)] + [DispersionSpec(1, am=am) for am in (0.5, 2.0)]
    calls = []
    for cap, spec, d, bc in itertools.product((2, 6, 4), specs, (1, 2, 3), fams):
        calls.append((spec, d, bc, QuadratureConfig(max_refinements=cap)))

    def energies(spec, d, bc, cfg) -> str:
        return repr(sweep(spec, d, bc, [1, 2, 5], cfg))

    cold = []
    for call in calls:
        casimir._RULES.clear()
        casimir._table.cache_clear()
        cold.append(energies(*call))
    casimir._RULES.clear()
    casimir._table.cache_clear()
    assert [energies(*call) for call in calls] == cold
    order = random.Random(13).sample(range(len(calls)), len(calls))
    assert [energies(*calls[i]) for i in order] == [cold[i] for i in order]


def test_a_stored_rule_is_charged_to_the_budget_like_a_cold_one() -> None:
    # a table six levels deep does not let nz = 20000 past level 1
    spec, cfg = DispersionSpec(1, am=0.5), QuadratureConfig(max_refinements=6)
    casimir._RULES.clear()
    cold = casimir_energy(spec, Geometry(3, 20000), PER, cfg)
    casimir_energy(spec, Geometry(3, 1), PER, cfg)
    assert len(_rule(spec, 3).ends) - 1 > 2
    warm = casimir_energy(spec, Geometry(3, 20000), PER, cfg)
    assert repr(warm) == repr(cold) and not warm.converged


@pytest.mark.parametrize(
    "call, first",
    [
        (lambda: casimir_energy(DispersionSpec(1), Geometry(3, 6), PER, CFG), "kz"),
        (lambda: casimir_energy(DispersionSpec(1, am=0.5), Geometry(2, 6), PHEN, CFG), "kz"),
        (lambda: sweep(DispersionSpec(3), 3, ANTI, range(1, 9), CFG), "kz"),
        (lambda: sweep(DispersionSpec(4), 3, PER, range(1, 9), CFG), "table"),
        # past the support the row is the continuum term alone
        (lambda: casimir_energy(DispersionSpec(6), Geometry(2, 6), PER, CFG).e0_int, "table"),
        (lambda: casimir_energy(DispersionSpec(6), Geometry(2, 3), PER, CFG).e0_sum, "table"),
    ],
    ids=["energy-d3", "energy-massive-d2", "sweep-odd", "sweep-even", "zero-point-int", "zero-point-sum-even"],
)
def test_a_repeated_call_builds_no_level(monkeypatch, call, first) -> None:
    # odd orders build levels with their kz averages, even orders one
    # integer table and nothing else; a repeated call builds neither
    built = []
    kz_average, dos_level, even_table = casimir._kz_average, casimir._dos_level, casimir._even_table

    def counted_kz(spec, t):
        built.append("kz")
        return kz_average(spec, t)

    def counted_dos(d, level):
        built.append("dos")
        return dos_level(d, level)

    def counted_table(s, d):
        built.append("table")
        return even_table(s, d)

    monkeypatch.setattr(casimir, "_kz_average", counted_kz)
    monkeypatch.setattr(casimir, "_dos_level", counted_dos)
    monkeypatch.setattr(casimir, "_even_table", counted_table)
    result = call()
    assert first in built and (built == ["table"]) is (first == "table")
    built.clear()
    assert repr(call()) == repr(result)
    assert built == []


def test_even_rows_past_the_support_read_a_stored_continuum_average(monkeypatch) -> None:
    # the continuum average is F_0 of the stored integer table, built once
    # and read by every row of both sweeps; no row reads a transverse level
    # or takes a quadrature
    tables = []
    even_table = casimir._even_table

    def counted(s: int, d: int) -> list:
        tables.append((s, d))
        return even_table(s, d)

    monkeypatch.setattr(casimir, "_even_table", counted)
    monkeypatch.setattr(casimir._Rule, "grow", None)
    monkeypatch.setattr(casimir, "_transverse_average", None)
    first = sweep(DispersionSpec(4), 3, PER, range(1, 9), CFG)
    assert tables == [(4, 3)]
    for r in first[2:]:  # every row past nz = 2
        assert (r.e_cas, r.quad_error, r.coeff, r.e0_sum) == (0.0, 0.0, 0.0, r.e0_int)
        assert r.e0_int == float(mo.zero_point_int_exact(4, 3, r.nz))
    assert repr(sweep(DispersionSpec(4), 3, PER, range(1, 9), CFG)) == repr(first)
    assert tables == [(4, 3)]


def _held_bytes() -> int:
    """Bytes of the level arrays of every stored rule but the most recently used."""
    rules = list(casimir._RULES.values())[:-1]
    return sum(a.nbytes for r in rules for a in (r.w, r.t, r.kz))


def test_stored_levels_stay_within_their_bound() -> None:
    casimir._RULES.clear()
    for am in np.linspace(0.1, 5.0, 50):
        casimir_energy(DispersionSpec(1, am=float(am)), Geometry(3, 4), PER, CFG)
        assert _held_bytes() <= casimir._HELD_BYTES
    assert len(casimir._RULES) == 50
    # a mass whose square overflows gives NaN values, which never converge, so
    # this call takes levels until the budget stops it: one table of ~13 MB
    with np.errstate(invalid="ignore"):
        r = casimir_energy(DispersionSpec(1, am=1e200), Geometry(3, 1), PER, QuadratureConfig(max_refinements=16))
    assert not r.converged
    big = list(casimir._RULES.values())[-1]
    assert big.nbytes == big.w.nbytes + big.t.nbytes + big.kz.nbytes
    assert big.nbytes > casimir._HELD_BYTES and _held_bytes() <= casimir._HELD_BYTES
    casimir_energy(DispersionSpec(1, am=0.1), Geometry(3, 4), PER, CFG)
    assert big not in casimir._RULES.values()  # evicted as soon as another rule was asked for
    assert _held_bytes() <= casimir._HELD_BYTES and len(casimir._RULES) == 50


def test_stored_rules_stay_within_their_count() -> None:
    # rules whose levels hold few bytes, or none, were kept forever, and
    # each call summed the bytes of all of them: 8,000 stayed after
    # remnant_partial_sums at 8,000 orders, 7,900 of them without a level
    casimir._RULES.clear()
    masses = [float(am) for am in np.linspace(0.1, 5.0, 200)]
    for am in masses:
        casimir_energy(DispersionSpec(1, am=am), Geometry(1, 4), PER, CFG)
        assert len(casimir._RULES) <= 64
    assert list(casimir._RULES) == [(1, am, 1) for am in masses[-64:]]  # the most recently used


def test_even_orders_neither_read_nor_evict_a_rule() -> None:
    # even tables were kept inside the rules: 64 even sweeps evicted the rule
    # of an odd call, whose next call rebuilt every level
    casimir._RULES.clear()
    odd = casimir_energy(DispersionSpec(1), Geometry(3, 8), PER, CFG)
    rule = casimir._RULES[(1, 0.0, 3)]
    for s in range(2, 129, 2):
        sweep(DispersionSpec(s), 3, PER, range(1, 5), CFG)
    assert list(casimir._RULES) == [(1, 0.0, 3)] and casimir._RULES[(1, 0.0, 3)] is rule
    assert not hasattr(rule, "table") and rule.nbytes == rule.w.nbytes + rule.t.nbytes + rule.kz.nbytes
    assert repr(casimir_energy(DispersionSpec(1), Geometry(3, 8), PER, CFG)) == repr(odd)


def test_stored_tables_stay_within_their_count(monkeypatch) -> None:
    built = []
    even_table = casimir._even_table

    def counted(s: int, d: int) -> list:
        built.append((s, d))
        return even_table(s, d)

    monkeypatch.setattr(casimir, "_even_table", counted)
    keys = [(s, d) for d in (1, 2, 3) for s in range(0, 44, 2)][:65]
    for s, d in keys:
        casimir_energy(DispersionSpec(s), Geometry(d, 1), PER, CFG)
        assert casimir._table.cache_info().currsize <= 64
    assert built == keys and not casimir._RULES
    casimir_energy(DispersionSpec(keys[-1][0]), Geometry(keys[-1][1], 2), PER, CFG)  # the most recent is kept
    casimir_energy(DispersionSpec(keys[0][0]), Geometry(keys[0][1], 2), PER, CFG)  # the least recent went
    assert built == keys + [keys[0]]


_REALS = {"float32": np.float32, "fraction": lambda x: Fraction(str(x)), "float64": np.float64}


@pytest.mark.parametrize("kind", _REALS.values(), ids=_REALS.keys())
def test_a_real_mass_computes_as_the_float_it_equals(kind) -> None:
    # a float32 mass squared in float32 and kept a rule of its own, its partial
    # sums were float32 and its coefficients stopped at order 64; a Fraction
    # mass failed inside numpy
    am = kind(0.1)

    def results(mass) -> str:
        spec = DispersionSpec(1, am=mass)
        return repr([casimir_energy(spec, Geometry(3, 4), PER, CFG), sweep(spec, 2, ANTI, range(1, 5), CFG),
                     rectangle_decomposition(spec, 3, PHEN, (0.4,), 64, 2)])

    casimir._RULES.clear()
    assert results(am) == results(float(am))
    assert len(casimir._RULES) == 2  # one per d, shared by the two masses
    heavy = kind(5.0)
    sums = remnant_partial_sums(heavy, Geometry(3, 2), PER, 4)
    assert sums == remnant_partial_sums(5.0, Geometry(3, 2), PER, 4) and {type(x) for x in sums} == {float}
    terms = expansion_coefficients(heavy, 4)
    assert terms == expansion_coefficients(5.0, 4) and {type(t.c_n) for t in terms} == {float}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert len(expansion_coefficients(kind(0.5), 512)) == 512
        with pytest.raises(ValueError, match="at most 512"):
            expansion_coefficients(kind(0.5), 600)
    length = kind(0.3)
    assert continuum_casimir(ContinuumParams(1, 3, L=length)) == continuum_casimir(ContinuumParams(1, 3, float(length)))


def test_the_least_recently_used_rule_goes_first(monkeypatch) -> None:
    masses = [0.5, 1.0, 1.5, 2.0]
    for am in masses:
        casimir_energy(DispersionSpec(1, am=am), Geometry(2, 3), PER, CFG)
    sizes = [r.nbytes for r in casimir._RULES.values()]
    monkeypatch.setattr(casimir, "_HELD_BYTES", sizes[1] + sizes[3])
    casimir_energy(DispersionSpec(1, am=1.0), Geometry(2, 3), PER, CFG)  # used again: now the most recent
    casimir_energy(DispersionSpec(1, am=3.0), Geometry(2, 3), PER, CFG)
    assert [key[1] for key in casimir._RULES] == [2.0, 1.0, 3.0]


@pytest.mark.parametrize("spec, d", [(DispersionSpec(1), 3), (DispersionSpec(1), 2), (DispersionSpec(4), 3)])
def test_stored_levels_are_read_only(spec, d) -> None:
    rule = _rule(spec, d)
    rule.grow(0)
    arrays = [rule.w, rule.t, rule.kz]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0
