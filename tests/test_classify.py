from __future__ import annotations

import math

import pytest

import latcas.report
from latcas import (
    BehaviorKind,
    BoundaryCondition,
    CasimirResult,
    Classification,
    DispersionSpec,
    QuadratureConfig,
    classify_behavior,
    classify_rows,
)

PER = BoundaryCondition.periodic()


def _rows(e_cas_values, alpha=3):
    rows = []
    for nz, e in enumerate(e_cas_values, start=1):
        rows.append(CasimirResult(nz, 0.0, 0.0, e, nz**alpha * e, 0.0))
    return rows


def test_synthetic_remnant_cliff() -> None:
    # the tail is structural zeros: e_cas and quad_error both exactly 0.0
    c = classify_rows(_rows([5.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    assert c.kind is BehaviorKind.REMNANT
    assert c.n_max == 2
    assert c.coeff_limit is None


def test_synthetic_all_zero() -> None:
    c = classify_rows(_rows([0.0] * 8))
    assert c.kind is BehaviorKind.NO_EFFECT


def test_a_tiny_row_without_error_is_nonzero() -> None:
    # zero means a structural zero, not a small magnitude: a converged 1e-14
    # with quad_error 0.0 is a remnant head row, and its sweep is not NoEffect
    c = classify_rows(_rows([5.0, -2.0, 1e-14, 0.0, 0.0, 0.0, 0.0, 0.0]))
    assert (c.kind, c.n_max) == (BehaviorKind.REMNANT, 3)
    assert classify_rows(_rows([0.0, 1e-14, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])).kind is not BehaviorKind.NO_EFFECT


@pytest.mark.parametrize("e_cas, quad_error", [(-2.0, 0.5), (0.0, 1e-13)], ids=["head", "zero-value"])
def test_an_unresolved_row_is_never_a_remnant_head(e_cas, quad_error) -> None:
    # an error past a tenth of |e_cas| makes a row neither zero nor clearly
    # nonzero (its converged flag is False), so it can end no remnant head
    rows = _rows([5.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    rows[1] = CasimirResult(2, 0.0, 0.0, e_cas, 8 * e_cas, quad_error, converged=False)
    c = classify_rows(rows)
    assert c.kind is not BehaviorKind.REMNANT and c.n_max is None
    assert classify_rows(rows[:1] + rows[2:]).kind is BehaviorKind.REMNANT


def test_synthetic_smooth_decay_is_damping_not_remnant() -> None:
    # values cross the nonzero band smoothly, as a gapped branch does
    values = [0.1 * 36.0**-k for k in range(12)]
    c = classify_rows(_rows(values))
    assert c.kind is BehaviorKind.DAMPING
    assert c.n_max is None


def test_synthetic_stable_coefficient_is_lasting() -> None:
    values = [-0.11 / nz**3 * (1.0 + 0.05 / nz**2) for nz in range(1, 25)]
    c = classify_rows(_rows(values))
    assert c.kind is BehaviorKind.LASTING
    assert c.coeff_limit == pytest.approx(-0.11, rel=1e-2)


def test_synthetic_drifting_tail_is_unclassified() -> None:
    values = [-(0.1 + 0.05 * nz) / nz**3 for nz in range(1, 17)]
    c = classify_rows(_rows(values))
    assert c.kind is BehaviorKind.UNCLASSIFIED
    assert len(c.rows) == 16


@pytest.mark.parametrize(
    "values",
    [
        [5.0, -2.0, math.nan, 0.0, 0.0, 0.0, 0.0, 0.0],  # was Damping: the NaN broke the cliff
        [1.0, 0.5, 0.25, 0.125, math.inf, 0.01, 0.005, 0.001],  # was Damping
        [1.0, 0.5, 0.25, 0.125, 0.0625, 0.01, 0.005, -math.inf],
    ],
    ids=["nan-e_cas", "inf-e_cas", "minus-inf-tail"],
)
def test_non_finite_rows_are_unclassified(values) -> None:
    rows = _rows(values)
    c = classify_rows(rows)
    assert c.kind is BehaviorKind.UNCLASSIFIED and c.rows == tuple(rows)


def test_a_non_finite_coefficient_alone_is_unclassified() -> None:
    # a finite e_cas whose nz**alpha * e_cas passes the float range
    rows = _rows([1.0 / nz**3 for nz in range(1, 9)])
    rows[-1] = CasimirResult(8, 0.0, 0.0, rows[-1].e_cas, math.inf, 0.0)
    assert classify_rows(rows).kind is BehaviorKind.UNCLASSIFIED
    assert classify_rows(rows[:-1]).kind is BehaviorKind.LASTING


def test_rows_are_attached_to_every_outcome() -> None:
    rows = _rows([5.0, 1e-14, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    c = classify_rows(rows)
    assert c.rows == tuple(rows)


def test_determinism() -> None:
    rows = _rows([0.3 / nz**2 for nz in range(1, 13)])
    assert classify_rows(rows) == classify_rows(rows)


def test_classification_invariants_enforced() -> None:
    with pytest.raises(ValueError):
        Classification(BehaviorKind.REMNANT)  # missing n_max
    with pytest.raises(ValueError):
        Classification(BehaviorKind.DAMPING, n_max=2)
    with pytest.raises(ValueError):
        Classification(BehaviorKind.LASTING)  # missing coeff_limit


def test_nz_max_past_the_sweep_bound_is_refused(monkeypatch) -> None:
    # `latcas classify --nz-max 1000000000000` used to build a row per thickness
    monkeypatch.setattr(latcas.report, "_casimir_rows", lambda *a: pytest.fail("rows computed"))
    with pytest.raises(ValueError, match="at most 1048576 thicknesses"):
        classify_behavior(DispersionSpec(2), 3, PER, nz_max=2**20 + 1)


def test_requires_a_meaningful_sweep() -> None:
    with pytest.raises(ValueError):
        classify_behavior(DispersionSpec(2), 3, PER, nz_max=4)
    with pytest.raises(ValueError):
        classify_rows(_rows([1.0]))


# single-axis geometries make full classification cheap enough for unit tests

def test_chain_linear_branch_is_lasting() -> None:
    c = classify_behavior(DispersionSpec(1), 1, PER, nz_max=30)
    assert c.kind is BehaviorKind.LASTING
    assert c.coeff_limit == pytest.approx(-math.pi / 6.0, rel=2e-3)


def test_chain_cubic_branch_is_lasting() -> None:
    c = classify_behavior(DispersionSpec(3), 1, PER, nz_max=30)
    assert c.kind is BehaviorKind.LASTING
    assert c.coeff_limit == pytest.approx(math.pi**3 / 15.0, rel=2e-2)


def test_chain_quadratic_branch_is_remnant() -> None:
    c = classify_behavior(DispersionSpec(2), 1, PER, nz_max=12)
    assert c.kind is BehaviorKind.REMNANT
    assert c.n_max == 1


def test_chain_massive_branch_is_damping() -> None:
    c = classify_behavior(DispersionSpec(1, am=5.0), 1, PER, nz_max=16)
    assert c.kind is BehaviorKind.DAMPING


def test_chain_flat_band_is_no_effect() -> None:
    c = classify_behavior(DispersionSpec(0), 1, PER, nz_max=10)
    assert c.kind is BehaviorKind.NO_EFFECT


def test_quartic_remnant_with_reduced_quadrature() -> None:
    cfg = QuadratureConfig(max_refinements=2)
    c = classify_behavior(DispersionSpec(4), 3, PER, nz_max=10, cfg=cfg)
    assert c.kind is BehaviorKind.REMNANT
    assert c.n_max == 2


@pytest.mark.parametrize("s", range(2, 15, 2))
@pytest.mark.parametrize(
    "bc", [PER, BoundaryCondition.antiperiodic(), BoundaryCondition.phenomenological()], ids=lambda bc: bc.value
)
def test_even_orders_in_three_dimensions_are_remnants(s: int, bc: BoundaryCondition) -> None:
    # the tail past the support is structural zeros (e_cas = quad_error =
    # 0.0), which the classifier reads as zero, not rounding noise (up to
    # 5e-9 at s=14); the phenomenological support is 2nz <= s/2, empty for s=2
    n_max = s // 4 if bc == BoundaryCondition.phenomenological() else s // 2
    c = classify_behavior(DispersionSpec(s), 3, bc, 32)
    if n_max == 0:
        assert c.kind is BehaviorKind.NO_EFFECT
    else:
        assert (c.kind, c.n_max) == (BehaviorKind.REMNANT, n_max)
    assert all(r.e_cas == 0.0 for r in c.rows[n_max:])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_high_even_orders_are_remnants(d: int) -> None:
    # the support edge rows were float differences of terms of size e0_int,
    # not converged from s=30 in d=3 (s=34 in d=2, s=50 in d=1), and these
    # orders read Damping; every even row is now an exact integer, rounded once
    for s in range(4, 61, 2):
        for bc in (PER, BoundaryCondition.antiperiodic(), BoundaryCondition.phenomenological()):
            n_max = s // 4 if bc is BoundaryCondition.phenomenological() else s // 2
            c = classify_behavior(DispersionSpec(s), d, bc, max(8, s // 2 + 2))
            assert (c.kind, c.n_max) == (BehaviorKind.REMNANT, n_max), (s, bc)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_phenomenological_quadratic_order_has_no_effect(d: int) -> None:
    # 2nz modes of the phenomenological family pass s/2 = 1 at every nz
    c = classify_behavior(DispersionSpec(2), d, BoundaryCondition.phenomenological(), 8)
    assert c.kind is BehaviorKind.NO_EFFECT
    assert all(r.e_cas == r.quad_error == 0.0 for r in c.rows)
