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


@pytest.mark.parametrize("orders", [_MAX_POINTS + 1, 10**5000], ids=["budget-plus-one", "5001-digits"])
def test_orders_past_the_point_budget_are_refused_before_any_term(monkeypatch, orders) -> None:
    # past 2**20 every order's energy is refused; the term list alone grew
    # by about 100 B per order
    import latcas.casimir

    monkeypatch.setattr(latcas.casimir, "casimir_energy", lambda *a: pytest.fail("energy computed"))
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
    import latcas.casimir

    assert len(expansion_coefficients(am, 512)) == 512
    monkeypatch.setattr(latcas.casimir, "casimir_energy", lambda *a: pytest.fail("energy computed"))
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


def test_series_reproduces_square_root() -> None:
    am, x = 5.0, 6.0
    total = am + math.fsum(t.c_n * x**t.n for t in expansion_coefficients(am, 20))
    assert total == pytest.approx(math.sqrt(x + am * am), rel=1e-6)


def test_partial_sum_vanishes_when_no_order_contributes() -> None:
    # every order up to s=6 is past its remnant support at nz=4; only
    # pointwise cancellation noise (well below 1e-12) remains
    assert remnant_partial_sums(5.0, Geometry(3, 4), PER, 3, CFG)[-1] == pytest.approx(0.0, abs=1e-12)


def test_divergent_domain_warns_but_computes() -> None:
    with pytest.warns(DivergentExpansionWarning):
        value = remnant_partial_sums(3.0, Geometry(3, 1), PER, 2, CFG)[-1]
    assert value == pytest.approx(1.0 / 6.0 * -1.0 + (-1.0 / (8 * 27)) * -11.0, rel=1e-9)


def test_partial_sums_are_cumulative() -> None:
    sums = remnant_partial_sums(5.0, Geometry(3, 1), PER, 3, CFG)
    assert sums == pytest.approx([-0.1, -0.089, -0.09112], rel=1e-9)
    assert remnant_partial_sums(5.0, Geometry(3, 1), PER, 3, CFG)[-1] == sums[-1]


def test_partial_sums_stop_at_the_first_nan(monkeypatch) -> None:
    # in d = 1 at nz = 1 the order s = 1032 of K = 516 is past the float
    # range and refused, like every higher one, so the partial sums are NaN
    # from there on; no energy past that order is computed, and the sums
    # keep every bit of the loop over all orders
    energy, orders, calls = casimir_energy, 530, []
    monkeypatch.setattr(latcas.casimir, "casimir_energy", lambda spec, *a: calls.append(spec.s) or energy(spec, *a))
    sums = remnant_partial_sums(5.0, Geometry(1, 1), PER, orders, CFG)
    assert calls == [2 * n for n in range(1, 517)]
    total, every_order = 0.0, []
    for term in expansion_coefficients(5.0, orders):
        total += term.c_n * energy(DispersionSpec(2 * term.n), Geometry(1, 1), PER, CFG).e_cas
        every_order.append(total)
    assert math.isnan(every_order[515]) and not math.isnan(every_order[514])
    assert np.array(sums).tobytes() == np.array(every_order).tobytes()


def test_partial_sums_build_no_term_past_the_first_nan() -> None:
    # in d = 1 at nz = 1 every partial sum from K = 516 on is NaN; the
    # 2**20 terms built up front used to peak at about 170 MiB, where the
    # returned list itself takes 8 MiB
    remnant_partial_sums(5.0, Geometry(1, 1), PER, 2, CFG)  # numpy's first use outside the trace
    tracemalloc.start()
    try:
        sums = remnant_partial_sums(5.0, Geometry(1, 1), PER, _MAX_POINTS, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sums) == _MAX_POINTS and math.isnan(sums[515]) and not math.isnan(sums[514])
    assert peak < 32 << 20


def test_partial_sums_in_d3_run_past_the_retired_grid_charge() -> None:
    # the even orders of d = 3 were refused from s = 202 (K = 101) by the
    # point budget of the grid that the integer table replaced; the partial
    # sums now run on to the float range (the first NaN is at K = 290)
    sums = remnant_partial_sums(5.0, Geometry(3, 1), PER, 102, CFG)
    assert all(math.isfinite(x) for x in sums)


def test_reconstruction_error_shrinks_with_order() -> None:
    for nz in (1, 2, 3):
        geom = Geometry(3, nz)
        massive = casimir_energy(DispersionSpec(1, am=5.0), geom, PER, CFG).e_cas
        sums = remnant_partial_sums(5.0, geom, PER, nz + 3, CFG)
        errors = [abs(s - massive) for s in sums[nz - 1 :]]
        assert all(a > b for a, b in zip(errors, errors[1:])), (nz, errors)


def test_reconstruction_converges_to_massive_value() -> None:
    # by K = 2 nz + 1 the truncation sits below five percent for am = 5
    for nz in (1, 2, 3):
        geom = Geometry(3, nz)
        massive = casimir_energy(DispersionSpec(1, am=5.0), geom, PER, CFG).e_cas
        partial = remnant_partial_sums(5.0, geom, PER, 2 * nz + 1, CFG)[-1]
        assert abs(partial - massive) / abs(massive) < 0.05, nz
