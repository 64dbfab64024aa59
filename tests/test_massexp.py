from __future__ import annotations

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import latcas.casimir
import latcas.massexp as massexp
from latcas import (
    BoundaryCondition,
    DispersionSpec,
    DivergentExpansionWarning,
    Geometry,
    QuadratureConfig,
    casimir_energy,
    convergence_check,
    expansion_coefficients,
    remnant_partial_sums,
)
from latcas.model import _MAX_POINTS

import moment_oracle as mo

PER = BoundaryCondition.periodic()
CFG = QuadratureConfig()


def _binomial_half(n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= (Fraction(1, 2) - i) / (i + 1)
    return out


def test_coefficients_at_am5() -> None:
    terms = expansion_coefficients(5.0, 3)
    assert [t.c_n for t in terms] == pytest.approx([0.1, -0.001, 0.00002], rel=1e-14)
    assert [t.n for t in terms] == [1, 2, 3]


def test_coefficients_trivial_cases() -> None:
    assert expansion_coefficients(1.0, 1)[0].c_n == pytest.approx(0.5)
    got = [t.c_n for t in expansion_coefficients(2.0, 2)]
    assert got == pytest.approx([0.25, -1.0 / 64.0], rel=1e-15)


def test_recurrence_matches_exact_binomials() -> None:
    am = 3.0
    for term in expansion_coefficients(am, 12):
        exact = float(_binomial_half(term.n)) * am ** (1 - 2 * term.n)
        assert term.c_n == pytest.approx(exact, rel=1e-13)


def test_signs_alternate_from_second_order() -> None:
    cs = [t.c_n for t in expansion_coefficients(5.0, 8)]
    assert cs[0] > 0
    for a, b in zip(cs[1:], cs[2:]):
        assert a * b < 0


def test_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        expansion_coefficients(0.0, 3)
    with pytest.raises(ValueError):
        expansion_coefficients(5.0, 0)
    with pytest.raises(ValueError):
        convergence_check(-1.0, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: expansion_coefficients(5.0, True),
        lambda: expansion_coefficients(math.inf, 2),
        lambda: expansion_coefficients(True, 2),
        lambda: convergence_check(math.inf, 3),
        lambda: convergence_check(5.0, True),
        lambda: remnant_partial_sums(5.0, Geometry(1, 1), PER, orders=True),
    ],
    ids=["orders-bool", "coeff-am-inf", "coeff-am-bool", "check-am-inf", "check-d-bool", "sums-orders-bool"],
)
def test_rejects_what_dispersion_spec_rejects(call) -> None:
    # a bool count and a mass that DispersionSpec(1, am=...) would refuse
    with pytest.raises(ValueError):
        call()


def _refuse_energies(monkeypatch) -> None:
    # both routes to an even-order energy: the public one and the transform of the partial sums
    monkeypatch.setattr(latcas.casimir, "casimir_energy", lambda *a: pytest.fail("energy computed"))
    monkeypatch.setattr(latcas.casimir, "_even_orders", lambda *a: pytest.fail("energy computed"))


@pytest.mark.parametrize("orders", [_MAX_POINTS + 1, 10**5000], ids=["budget-plus-one", "5001-digits"])
def test_orders_past_the_point_budget_are_refused_before_any_term(monkeypatch, orders) -> None:
    # past 2**20 every order's energy is refused; the term list alone grew
    # by about 100 B per order
    _refuse_energies(monkeypatch)
    monkeypatch.setattr(massexp, "ExpansionTerm", lambda *a: pytest.fail("term built"))
    with pytest.raises(ValueError, match="at most"):
        expansion_coefficients(5.0, orders)
    with pytest.raises(ValueError, match="at most"):
        remnant_partial_sums(5.0, Geometry(3, 1), PER, orders)


def test_orders_up_to_the_point_budget_are_accepted() -> None:
    massexp._check_orders(_MAX_POINTS)  # the terms themselves would take about 100 MB


@pytest.mark.parametrize("am", [0.5, np.float64(0.5)], ids=["float", "numpy-float"])
def test_light_mass_orders_past_the_float_range_are_refused(monkeypatch, am) -> None:
    # 0.5**(1 - 2n) passes the float range at n = 513 and ended in an
    # OverflowError traceback; a numpy float mass is taken as a float
    assert len(expansion_coefficients(am, 512)) == 512
    _refuse_energies(monkeypatch)
    with pytest.raises(ValueError, match="at most 512"):
        expansion_coefficients(am, 600)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DivergentExpansionWarning)  # refused before it is warned
        with pytest.raises(ValueError, match="at most 512"):
            remnant_partial_sums(am, Geometry(1, 1), PER, 513)


def test_convergence_domain() -> None:
    r = convergence_check(5.0, 3)
    assert r.converges
    assert r.margin == pytest.approx(0.52)
    assert not convergence_check(3.0, 3).converges
    assert convergence_check(5.0, 1).margin == pytest.approx(0.84)


def test_convergence_report_holds_plain_numbers() -> None:
    # a numpy d gave ConvergenceReport(converges=np.True_, margin=np.float64(0.52))
    for d in (3, np.int64(3), np.int32(3)):
        r = convergence_check(5.0, d)
        assert type(r.converges) is bool and type(r.margin) is float
        assert r == convergence_check(5.0, 3) and repr(r) == "ConvergenceReport(converges=True, margin=0.52)"


def test_series_reproduces_square_root() -> None:
    am, x = 5.0, 6.0
    total = am + math.fsum(t.c_n * x**t.n for t in expansion_coefficients(am, 20))
    assert total == pytest.approx(math.sqrt(x + am * am), rel=1e-6)


def test_partial_sum_vanishes_when_no_order_contributes() -> None:
    # every order up to s=6 is past its remnant support at nz=4; only
    # pointwise cancellation noise (well below 1e-12) remains
    assert remnant_partial_sums(5.0, Geometry(3, 4), PER, 3)[-1] == pytest.approx(0.0, abs=1e-12)


def test_divergent_domain_warns_but_computes() -> None:
    with pytest.warns(DivergentExpansionWarning):
        value = remnant_partial_sums(3.0, Geometry(3, 1), PER, 2)[-1]
    assert value == pytest.approx(1.0 / 6.0 * -1.0 + (-1.0 / (8 * 27)) * -11.0, rel=1e-9)


def test_partial_sums_are_cumulative() -> None:
    sums = remnant_partial_sums(5.0, Geometry(3, 1), PER, 3)
    assert sums == pytest.approx([-0.1, -0.089, -0.09112], rel=1e-9)
    assert remnant_partial_sums(5.0, Geometry(3, 1), PER, 3)[-1] == sums[-1]


def test_partial_sums_stop_at_the_first_nan(monkeypatch) -> None:
    # in d = 1 at nz = 1 the order s = 1032 of K = 516 is past the float
    # range and refused, like every higher one, so the partial sums are NaN
    # from there on; one transform gives every energy, no row past order
    # 515 is built, and the sums keep every bit of the loop over all orders
    orders, calls, rows = 530, [], []
    even_orders, binomial_row = latcas.casimir._even_orders, latcas.casimir._binomial_row
    monkeypatch.setattr(latcas.casimir, "_even_orders", lambda *a: calls.append(a) or even_orders(*a))
    monkeypatch.setattr(latcas.casimir, "_binomial_row", lambda j: rows.append(j) or binomial_row(j))
    sums = remnant_partial_sums(5.0, Geometry(1, 1), PER, orders)
    assert calls == [(1, PER, 1, orders)] and max(rows) == 515
    monkeypatch.undo()
    energy, total, every_order = casimir_energy, 0.0, []
    for term in expansion_coefficients(5.0, orders):
        total += term.c_n * energy(DispersionSpec(2 * term.n), Geometry(1, 1), PER, CFG).e_cas
        every_order.append(total)
    assert math.isnan(every_order[515]) and not math.isnan(every_order[514])
    assert np.array(sums).tobytes() == np.array(every_order).tobytes()


@pytest.mark.parametrize("d, first_nan", [(2, 345), (3, 290)])
def test_partial_sums_build_no_row_past_the_first_nan(monkeypatch, d, first_nan) -> None:
    # at nz = 1 an energy of order first_nan passes the float range; the
    # rows of the orders past it, which no sum reads, took about half the
    # time of the sums when every row to order 515 was aliased up front
    rows, binomial_row = [], latcas.casimir._binomial_row
    monkeypatch.setattr(latcas.casimir, "_binomial_row", lambda j: rows.append(j) or binomial_row(j))
    sums = remnant_partial_sums(5.0, Geometry(d, 1), PER, 1000)
    assert math.isnan(sums[first_nan - 1]) and not math.isnan(sums[first_nan - 2])
    assert rows == list(range(first_nan + 1))


def test_partial_sums_build_no_term_past_the_first_nan() -> None:
    # in d = 1 at nz = 1 every partial sum from K = 516 on is NaN; the
    # 2**20 terms built up front used to peak at about 170 MiB, where the
    # returned list itself takes 8 MiB
    remnant_partial_sums(5.0, Geometry(1, 1), PER, 2)  # numpy's first use outside the trace
    tracemalloc.start()
    try:
        sums = remnant_partial_sums(5.0, Geometry(1, 1), PER, _MAX_POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sums) == _MAX_POINTS and math.isnan(sums[515]) and not math.isnan(sums[514])
    assert peak < 32 << 20


def test_partial_sums_in_d3_run_past_the_retired_grid_charge() -> None:
    # the even orders of d = 3 were refused from s = 202 (K = 101) by the
    # point budget of the grid that the integer table replaced; the partial
    # sums now run on to the float range (the first NaN is at K = 290)
    sums = remnant_partial_sums(5.0, Geometry(3, 1), PER, 102)
    assert all(math.isfinite(x) for x in sums)


@pytest.mark.parametrize(
    "geom, bc", [("x", PER), (None, PER), (Geometry(3, 1), "periodic"), (Geometry(3, 1), None)],
    ids=["geom-str", "geom-none", "bc-str", "bc-none"],
)
def test_ill_typed_geometry_or_family_is_refused_before_the_warning(monkeypatch, geom, bc) -> None:
    # a str geometry ended in an AttributeError, and a str family raised
    # only after the divergent domain of am = 3 in d = 3 had been warned of
    _refuse_energies(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DivergentExpansionWarning)
        with pytest.raises(TypeError, match="geom must be a Geometry" if bc is PER else "bc must be a BoundaryCondition"):
            remnant_partial_sums(3.0, geom, bc, 2)


def test_partial_sums_compute_no_energy_and_store_no_rule(monkeypatch) -> None:
    # one energy per order went through casimir_energy, each building an
    # integer table and storing a rule of its own
    rules = len(latcas.casimir._RULES)
    monkeypatch.setattr(latcas.casimir, "casimir_energy", lambda *a: pytest.fail("energy computed"))
    monkeypatch.setattr(latcas.casimir, "_even_table", lambda *a: pytest.fail("table built"))
    for d in (1, 2, 3):
        assert len(remnant_partial_sums(5.0, Geometry(d, 2), PER, 40)) == 40
    assert len(latcas.casimir._RULES) == rules


@pytest.mark.parametrize("d", [1, 2, 3])
def test_even_orders_are_the_energies_of_casimir_energy(d: int) -> None:
    # every order of one transform has the bits of its own casimir_energy,
    # and a sample of them is the exact oracle rounded once
    for name in ("periodic", "antiperiodic", "phenomenological"):
        bc = BoundaryCondition(name)
        for nz in (1, 2, 3, 5):
            energies = list(latcas.casimir._even_orders(d, bc, nz, 60))
            assert len(energies) == 60 and {type(e) for e in energies} == {float}
            for n, e_cas in enumerate(energies, 1):
                assert repr(e_cas) == repr(casimir_energy(DispersionSpec(2 * n), Geometry(d, nz), bc).e_cas), (name, nz, n)
            for n in (1, nz, nz + 1, 2 * nz + 3, 60):
                assert energies[n - 1] == float(mo.casimir_exact(2 * n, d, nz, name)), (name, nz, n)


def test_reconstruction_error_shrinks_with_order() -> None:
    for nz in (1, 2, 3):
        geom = Geometry(3, nz)
        massive = casimir_energy(DispersionSpec(1, am=5.0), geom, PER, CFG).e_cas
        sums = remnant_partial_sums(5.0, geom, PER, nz + 3)
        errors = [abs(s - massive) for s in sums[nz - 1 :]]
        assert all(a > b for a, b in zip(errors, errors[1:])), (nz, errors)


def test_reconstruction_converges_to_massive_value() -> None:
    # by K = 2 nz + 1 the truncation sits below five percent for am = 5
    for nz in (1, 2, 3):
        geom = Geometry(3, nz)
        massive = casimir_energy(DispersionSpec(1, am=5.0), geom, PER, CFG).e_cas
        partial = remnant_partial_sums(5.0, geom, PER, 2 * nz + 1)[-1]
        assert abs(partial - massive) / abs(massive) < 0.05, nz
