from __future__ import annotations

import math
from fractions import Fraction

import pytest

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
