"""Property tests of casimir_energy over random orders, sizes and boundaries.

Even orders run on one exact grid and odd orders on a few hundred
tanh-sinh nodes, so every case takes milliseconds and both parities are
drawn in every dimension.
"""
from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcas import (
    BoundaryCondition,
    DispersionSpec,
    Geometry,
    QuadratureConfig,
    casimir_energy,
)

EPS = float(np.finfo(float).eps)
FAST = QuadratureConfig(max_refinements=2)
BCS = st.sampled_from(
    [BoundaryCondition.periodic(), BoundaryCondition.antiperiodic(), BoundaryCondition.phenomenological()]
)
EVEN_S = st.integers(0, 7).map(lambda h: 2 * h)


@st.composite
def cases(draw):
    """(s, d) pairs: any order up to 15 in d=1..3."""
    return draw(st.integers(0, 15)), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(1, 24), BCS, st.integers(2, 12))
def test_energies_are_linear_in_degeneracy(case, nz, bc, g) -> None:
    s, d = case
    one = casimir_energy(DispersionSpec(s), Geometry(d, nz), bc, FAST)
    many = casimir_energy(DispersionSpec(s, g=g), Geometry(d, nz), bc, FAST)
    # the integrand does not see g: the integrated fields scale exactly
    assert (many.e_cas, many.e0_int, many.quad_error) == (g * one.e_cas, g * one.e0_int, g * one.quad_error)
    assert many.converged == one.converged
    # e0_sum = e0_int + e_cas rounds once more on each side; the parts can
    # cancel (s=7, d=2, nz=1: e0_int = 137, e_cas = -118), so the bound is
    # relative to the parts, not to e0_sum
    assert abs(many.e0_sum - g * one.e0_sum) <= 2 * EPS * (abs(many.e0_int) + abs(many.e_cas))
    # coeff carries one more rounding
    assert many.coeff == pytest.approx(g * one.coeff, rel=2 * EPS, abs=0.0)


@settings(max_examples=80, deadline=None)
@given(EVEN_S, st.integers(1, 3), BCS, st.integers(1, 40))
def test_even_orders_vanish_beyond_half_the_order(s, d, bc, extra) -> None:
    # more modes than s/2 integrate the degree-s/2 integrand exactly (the
    # aliasing identity): a structural zero, not a cancellation to rounding
    modes_past_support = s // 2 + extra
    nz = (modes_past_support + 1) // 2 if bc is BoundaryCondition.PHENOMENOLOGICAL else modes_past_support
    r = casimir_energy(DispersionSpec(s), Geometry(d, nz), bc)
    assert r.converged
    assert (r.e_cas, r.coeff, r.quad_error) == (0.0, 0.0, 0.0)
    assert r.e0_sum == r.e0_int


def test_even_order_past_the_support_is_free_at_any_thickness() -> None:
    # no modes are generated past the support, so 10**9 of them cost nothing
    t0 = time.perf_counter()
    r = casimir_energy(DispersionSpec(2), Geometry(3, 10**9), BoundaryCondition.periodic())
    assert time.perf_counter() - t0 < 0.01
    assert r.converged and (r.e_cas, r.quad_error) == (0.0, 0.0) and r.e0_sum == r.e0_int


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(1, 32), BCS)
def test_difference_identity_holds_at_rounding_level(case, nz, bc) -> None:
    s, d = case
    r = casimir_energy(DispersionSpec(s), Geometry(d, nz), bc, FAST)
    assert abs((r.e0_sum - r.e0_int) - r.e_cas) <= EPS * max(abs(r.e0_sum), abs(r.e0_int))


@settings(max_examples=40, deadline=None)
@given(cases(), st.integers(1, 32), BCS)
def test_repeated_calls_are_bit_identical(case, nz, bc) -> None:
    s, d = case
    first = casimir_energy(DispersionSpec(s), Geometry(d, nz), bc, FAST)
    again = casimir_energy(DispersionSpec(s), Geometry(d, nz), bc, FAST)
    assert repr(first) == repr(again)


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(1, 16))
def test_phenomenological_is_half_the_doubled_periodic_slab(case, nz) -> None:
    # the 2nz half-weight modes l pi / nz are the periodic modes of a slab of 2nz;
    # high odd orders may miss abs_tol (rounding of |e0_int| passes it), so the
    # check is against the reported errors, converged or not
    s, d = case
    phen = casimir_energy(DispersionSpec(s), Geometry(d, nz), BoundaryCondition.phenomenological())
    per = casimir_energy(DispersionSpec(s), Geometry(d, 2 * nz), BoundaryCondition.periodic())
    assert abs(phen.e_cas - 0.5 * per.e_cas) <= phen.quad_error + 0.5 * per.quad_error
