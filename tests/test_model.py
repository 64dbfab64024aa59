from __future__ import annotations

import math
from dataclasses import astuple, fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from latcas import (
    CasimirResult,
    ContinuumParams,
    DispersionSpec,
    Geometry,
    QuadratureConfig,
    eval_from_kernel_sum,
    expansion_coefficients,
)


def _omega(spec: DispersionSpec, ak):
    """a*w at lattice momentum ak (the last axis holds the components),
    through the one evaluator: the kernel sum sum_i (2 - 2 cos ak_i)."""
    return eval_from_kernel_sum(spec, np.sum(2.0 - 2.0 * np.cos(np.asarray(ak, dtype=float)), axis=-1))


def test_quadratic_at_zone_corner() -> None:
    spec = DispersionSpec(s=2)
    assert _omega(spec, (math.pi, math.pi, math.pi)) == pytest.approx(12.0, abs=1e-12)


def test_linear_at_zone_center() -> None:
    assert _omega(DispersionSpec(s=1), (0.0, 0.0, 0.0)) == 0.0


def test_massive_at_zone_center_is_pure_mass() -> None:
    assert _omega(DispersionSpec(s=1, am=5.0), (0.0, 0.0, 0.0)) == pytest.approx(5.0)


def test_flat_band_is_unit_height() -> None:
    spec = DispersionSpec(s=0)
    for ak in [(0.0,), (1.3, -2.0), (0.5, 1.5, 2.5)]:
        assert _omega(spec, ak) == 1.0


def test_vectorized_evaluation_shape() -> None:
    spec = DispersionSpec(s=2)
    ak = np.zeros((5, 7, 3))
    out = _omega(spec, ak)
    assert out.shape == (5, 7)
    assert np.all(out == 0.0)


def test_rejects_invalid_specs() -> None:
    with pytest.raises(ValueError):
        DispersionSpec(s=-1)
    with pytest.raises(ValueError):
        DispersionSpec(s=1, am=-0.5)
    with pytest.raises(ValueError):
        DispersionSpec(s=2, am=1.0)  # mass only combines with the linear branch
    for am in (math.nan, math.inf, -math.inf, True):
        with pytest.raises(ValueError):
            DispersionSpec(s=1, am=am)
    for flag in (True, np.True_):
        with pytest.raises(ValueError):
            DispersionSpec(s=flag)


def test_spec_is_one_branch_without_degeneracy() -> None:
    # a degeneracy only multiplied every energy; the caller applies it
    assert [f.name for f in fields(DispersionSpec)] == ["s", "am"]
    with pytest.raises(TypeError):
        DispersionSpec(1, g=2)


def test_geometry_validation() -> None:
    Geometry(3, 1)
    with pytest.raises(ValueError):
        Geometry(4, 1)
    with pytest.raises(ValueError):
        Geometry(2, 0)
    for d, nz in ((True, 1), (3, True), (2.0, 1), (np.True_, 1), (3, np.True_), (3, np.float64(4.0))):
        with pytest.raises(ValueError):
            Geometry(d, nz)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_numpy_integers_are_stored_as_int(kind) -> None:
    # as sweep takes np.arange thicknesses; stored as int, so no integer
    # arithmetic downstream (nz**alpha, JSON output) sees a numpy integer
    geom = Geometry(kind(3), kind(4))
    spec = DispersionSpec(kind(2))
    assert geom == Geometry(3, 4) and spec == DispersionSpec(2)
    assert all(type(v) is int for v in (geom.d, geom.nz, spec.s))


def _real_fields(x) -> list:
    """The real fields of every boundary type, built from x."""
    return [
        DispersionSpec(1, am=x).am,
        ContinuumParams(1, 3, L=x).L,
        *astuple(QuadratureConfig(rel_tol=x, abs_tol=x))[2:],
    ]


@pytest.mark.parametrize("kind", [float, np.float32, np.float64, Fraction, int, np.int64])
def test_real_fields_are_stored_as_float(kind) -> None:
    # a float32 field computed in float32, and a Fraction failed inside numpy
    values = _real_fields(kind(1))
    assert len(values) == 4 and all(type(v) is float and v == 1.0 for v in values)


@pytest.mark.parametrize(
    "value", [True, np.True_, "1", Decimal("0.1"), None], ids=["bool", "numpy-bool", "str", "decimal", "none"]
)
def test_real_fields_refuse_what_is_not_a_real_number(value) -> None:
    calls = [
        lambda: DispersionSpec(1, am=value),
        lambda: expansion_coefficients(value, 2),
        lambda: ContinuumParams(1, 3, L=value),
        lambda: QuadratureConfig(rel_tol=value),
        lambda: QuadratureConfig(abs_tol=value),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="real number"):
            call()


def test_real_fields_past_the_float_range_are_refused() -> None:
    # float(10**400) raises OverflowError; the message carries no value, which may not print
    for value in (10**400, Fraction(10**400, 3)):
        with pytest.raises(ValueError, match="within the float range"):
            DispersionSpec(1, am=value)


def test_periodicity_to_machine_precision() -> None:
    spec = DispersionSpec(s=1)
    points = [(0.3, 1.1, -2.4), (2.0, 0.0, 0.7), (-1.0, -1.0, -1.0)]
    for ak in points:
        base = _omega(spec, ak)
        for axis in range(3):
            shifted = list(ak)
            shifted[axis] += 2.0 * math.pi
            assert _omega(spec, shifted) == pytest.approx(base, rel=1e-13, abs=1e-13)


def test_reflection_and_permutation_symmetry() -> None:
    spec = DispersionSpec(s=3)
    ak = (0.4, 1.7, 2.9)
    base = _omega(spec, ak)
    assert _omega(spec, tuple(-x for x in ak)) == pytest.approx(base, rel=1e-14)
    assert _omega(spec, (ak[2], ak[0], ak[1])) == pytest.approx(base, rel=1e-14)


def test_nonnegative_on_a_grid() -> None:
    grid = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
    pts = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    for s, am in [(0, 0.0), (1, 0.0), (2, 0.0), (5, 0.0), (1, 2.0)]:
        vals = _omega(DispersionSpec(s=s, am=am), pts)
        assert np.all(vals >= 0.0)


def test_mass_monotonicity() -> None:
    ak = (0.9, 0.2, 1.4)
    values = [_omega(DispersionSpec(s=1, am=am), ak) for am in (0.0, 0.5, 2.0, 5.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_kernel_sum_evaluation_matches_momentum_form() -> None:
    spec = DispersionSpec(s=4)
    ak = np.array([0.3, 2.2, 5.0])
    t = float(np.sum(2.0 - 2.0 * np.cos(ak)))
    khat2 = float(np.sum(4.0 * np.sin(0.5 * ak) ** 2))  # the lattice momentum squared, (2 sin(ak/2))^2
    assert eval_from_kernel_sum(spec, t) == pytest.approx(khat2**2, rel=1e-14)


def test_kernel_sum_evaluation_leaves_its_input_alone() -> None:
    t = np.array([0.0, 1.5, 7.25])
    for spec in (DispersionSpec(0), DispersionSpec(1, am=0.5), DispersionSpec(3), DispersionSpec(4)):
        eval_from_kernel_sum(spec, t)
        assert t.tolist() == [0.0, 1.5, 7.25]
    assert isinstance(eval_from_kernel_sum(DispersionSpec(2), 1.5), float)
    # even orders take one power: x**0 is 1.0 and x**1 is x, at inf and nan too
    t = np.array([0.0, 4.0, 12.0, math.inf, math.nan])
    assert eval_from_kernel_sum(DispersionSpec(0), t).tolist() == [1.0] * 5
    np.testing.assert_array_equal(eval_from_kernel_sum(DispersionSpec(2), t), t)


def test_result_carries_fields() -> None:
    r = CasimirResult(1, 2.0, 3.0, -1.0, -1.0, 0.0)
    assert r.converged
    assert r.e_cas == r.e0_sum - r.e0_int
