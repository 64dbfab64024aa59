from __future__ import annotations

import math

import pytest

from latcas import (
    BehaviorKind,
    BoundaryCondition,
    Classification,
    ClassifyThresholds,
    DispersionSpec,
    QuadratureConfig,
    SweepRow,
    classify_behavior,
    classify_rows,
)

PER = BoundaryCondition.periodic()


def _rows(e_cas_values, alpha=3):
    rows = []
    for nz, e in enumerate(e_cas_values, start=1):
        rows.append(SweepRow(nz, 0.0, 0.0, e, nz**alpha * e, 0.0))
    return rows


def test_synthetic_remnant_cliff() -> None:
    c = classify_rows(_rows([5.0, -2.0, 1e-14, -3e-15, 1e-16, 0.0, 0.0, 0.0]))
    assert c.kind is BehaviorKind.REMNANT
    assert c.n_max == 2
    assert c.coeff_limit is None


def test_synthetic_all_zero() -> None:
    c = classify_rows(_rows([0.0, 1e-12, -1e-13, 0.0, 0.0, 0.0, 0.0, 0.0]))
    assert c.kind is BehaviorKind.NO_EFFECT


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
    rows[-1] = SweepRow(8, 0.0, 0.0, rows[-1].e_cas, math.inf, 0.0)
    assert classify_rows(rows).kind is BehaviorKind.UNCLASSIFIED
    assert classify_rows(rows[:-1]).kind is BehaviorKind.LASTING


def test_rows_are_attached_to_every_outcome() -> None:
    rows = _rows([5.0, 1e-14, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    c = classify_rows(rows)
    assert c.rows == tuple(rows)


def test_determinism() -> None:
    rows = _rows([0.3 / nz**2 for nz in range(1, 13)])
    assert classify_rows(rows) == classify_rows(rows)


def test_threshold_monotonicity() -> None:
    values = [1.0, 1e-2, 1e-5, 1e-8, 1e-11, 1e-13, 1e-15, 0.0]
    rows = _rows(values)
    counts = []
    for eps_zero in (1e-12, 1e-9, 1e-6, 1e-3):
        th = ClassifyThresholds(eps_zero=eps_zero, eps_nonzero=0.5, delta_tail=1e-2)
        c = classify_rows(rows, th)
        counts.append(sum(1 for r in c.rows if abs(r.e_cas) >= eps_zero))
    assert counts == sorted(counts, reverse=True)


def test_classification_invariants_enforced() -> None:
    with pytest.raises(ValueError):
        Classification(BehaviorKind.REMNANT)  # missing n_max
    with pytest.raises(ValueError):
        Classification(BehaviorKind.DAMPING, n_max=2)
    with pytest.raises(ValueError):
        Classification(BehaviorKind.LASTING)  # missing coeff_limit


def test_thresholds_validation() -> None:
    with pytest.raises(ValueError):
        ClassifyThresholds(eps_zero=1e-3, eps_nonzero=1e-9)
    with pytest.raises(ValueError):
        ClassifyThresholds(delta_tail=0.0)
    # an inf delta_tail called a Lasting branch Damping, and an inf
    # eps_nonzero called a Remnant branch Damping
    for kwargs in ({"delta_tail": math.inf}, {"eps_zero": 1e-300, "eps_nonzero": math.inf},
                   {"eps_zero": math.inf, "eps_nonzero": math.inf}, {"delta_tail": math.nan}):
        with pytest.raises(ValueError):
            ClassifyThresholds(**kwargs)


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
    cfg = QuadratureConfig(base_points=32, max_refinements=2)
    c = classify_behavior(DispersionSpec(4), 3, PER, nz_max=10, cfg=cfg)
    assert c.kind is BehaviorKind.REMNANT
    assert c.n_max == 2


@pytest.mark.parametrize("s", range(2, 15, 2))
@pytest.mark.parametrize(
    "bc", [PER, BoundaryCondition.antiperiodic(), BoundaryCondition.phenomenological()], ids=lambda bc: bc.value
)
def test_even_orders_in_three_dimensions_are_remnants(s: int, bc: BoundaryCondition) -> None:
    # the tail past the support is exactly zero: rounding noise there reaches
    # 5e-9 at s=14, above eps_zero, and would leave the sweep Unclassified;
    # the phenomenological support is 2nz <= s/2, empty for s=2
    n_max = s // 4 if bc == BoundaryCondition.phenomenological() else s // 2
    c = classify_behavior(DispersionSpec(s), 3, bc, 32)
    if n_max == 0:
        assert c.kind is BehaviorKind.NO_EFFECT
    else:
        assert (c.kind, c.n_max) == (BehaviorKind.REMNANT, n_max)
    assert all(r.e_cas == 0.0 for r in c.rows[n_max:])
