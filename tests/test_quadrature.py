from __future__ import annotations

import math

import numpy as np
import pytest

from latcas import QuadratureConfig, integrate_bz_multi, richardson_extrapolate
from latcas.quadrature import _MAX_POINTS

from moment_oracle import kernel_moment

CFG = QuadratureConfig()


def kernel(x: np.ndarray) -> np.ndarray:
    return 2.0 - 2.0 * np.cos(x)


def integrate_kz(f, cfg: QuadratureConfig):
    """Average of a 2pi-periodic f(x): the d=2 BZ average of f(pts[:, 0])."""
    return integrate_bz_multi(lambda pts: f(pts[:, 0]), d=2, cfg=cfg)


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        QuadratureConfig(base_points=2)
    with pytest.raises(ValueError):
        QuadratureConfig(max_refinements=-1)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-3)
    with pytest.raises(ValueError):
        QuadratureConfig(base_points=True)
    with pytest.raises(ValueError):
        QuadratureConfig(max_refinements=True)
    with pytest.raises(ValueError):
        QuadratureConfig(max_refinements=False)
    for tol in (True, math.inf, math.nan, 0, -1e-3):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=tol)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=tol)


def test_kz_moments_are_central_binomials() -> None:
    for n in range(7):
        r = integrate_kz(lambda x, n=n: kernel(x) ** n, CFG)
        assert r.converged
        assert r.values[0] == pytest.approx(kernel_moment(n), rel=1e-13)


def test_kz_cubed_kernel() -> None:
    r = integrate_kz(lambda x: kernel(x) ** 3, CFG)
    assert r.values[0] == pytest.approx(20.0, rel=1e-13)


def test_kz_zero_integrand() -> None:
    r = integrate_kz(lambda x: np.zeros_like(x), CFG)
    assert r.values[0] == 0.0
    assert r.errors[0] == 0.0


def test_bz_single_axis_kernel() -> None:
    r = integrate_bz_multi(lambda k: kernel(k[:, 0]), d=3, cfg=CFG)
    assert r.converged
    assert r.values[0] == pytest.approx(2.0, rel=1e-13)
    assert r.errors[0] <= 1e-13 * 2.0


def test_bz_constant_is_exact() -> None:
    for d in (1, 2, 3):
        r = integrate_bz_multi(lambda k: np.full(k.shape[0], 0.7), d=d, cfg=CFG)
        assert r.values[0] == 0.7


def test_bz_squared_transverse_kernel() -> None:
    r = integrate_bz_multi(lambda k: (kernel(k[:, 0]) + kernel(k[:, 1])) ** 2, d=3, cfg=CFG)
    assert r.values[0] == pytest.approx(20.0, rel=1e-13)


def test_d1_transverse_integral_is_identity() -> None:
    r = integrate_bz_multi(lambda k: np.full(k.shape[0], 1.25), d=1, cfg=CFG)
    assert r.values[0] == 1.25
    assert r.converged
    assert r.errors[0] == 0.0


def test_nonfinite_integrand_is_not_converged() -> None:
    for d in (1, 2):
        r = integrate_bz_multi(lambda k: np.full(k.shape[0], math.nan), d=d, cfg=CFG)
        assert not r.converged and math.isinf(r.errors[0]), d


def test_one_level_exact_for_subresolution_harmonics() -> None:
    # degree 63 trig polynomial on a 64-point base grid: no refinement drift
    def f(x: np.ndarray) -> np.ndarray:
        return 3.0 + np.cos(5.0 * x) - 0.25 * np.sin(11.0 * x) + np.cos(63.0 * x)

    r = integrate_kz(f, QuadratureConfig(base_points=64, max_refinements=1))
    assert r.values[0] == pytest.approx(3.0, abs=10 * np.finfo(float).eps * 3.0)
    assert r.errors[0] <= 1e-13 * 3.0


def test_translation_invariance() -> None:
    base = integrate_kz(lambda x: kernel(x) ** 2, CFG)
    shifted = integrate_kz(lambda x: kernel(x + 0.37) ** 2, CFG)
    want, err = base.values[0], base.errors[0]
    assert shifted.values[0] == pytest.approx(want, abs=max(err, 1e-13 * want))


def test_nonconvergence_is_a_soft_outcome() -> None:
    # kinked integrand, unreachable tolerance, almost no refinements allowed
    cfg = QuadratureConfig(base_points=8, max_refinements=2, rel_tol=1e-16, abs_tol=1e-300)
    r = integrate_kz(lambda x: np.abs(np.sin(x / 2.0)), cfg)
    assert not r.converged
    assert r.values[0] == pytest.approx(2.0 / math.pi, rel=1e-2)
    assert r.errors[0] > 0.0
    assert r.points_per_axis == 32


def test_grid_levels_stop_at_the_point_budget() -> None:
    # unreachable tolerance, 60 doublings allowed: the budget ends the refinement
    seen = []

    def f(pts: np.ndarray) -> np.ndarray:
        seen.append(pts.shape[0])
        return np.abs(np.sin(pts[:, 0] / 2.0)) * np.abs(np.sin(pts[:, 1] / 2.0))

    cfg = QuadratureConfig(base_points=8, max_refinements=60, rel_tol=1e-16, abs_tol=1e-300)
    r = integrate_bz_multi(f, d=3, cfg=cfg)
    assert not r.converged and math.isfinite(r.values[0]) and r.errors[0] > 0.0
    assert sum(seen) <= _MAX_POINTS < sum(seen) + (2 * r.points_per_axis) ** 2


def test_base_grid_past_the_point_budget_is_not_converged() -> None:
    seen = []

    def f(pts: np.ndarray) -> np.ndarray:
        seen.append(pts.shape[0])
        return np.stack([np.ones(pts.shape[0])] * 2, axis=1)

    r = integrate_bz_multi(f, d=3, cfg=QuadratureConfig(base_points=2048))
    assert not r.converged and r.points_per_axis == 0
    assert np.isnan(r.values).all() and r.values.shape == (2,) and np.isinf(r.errors).all()
    assert seen == [0]  # only the empty call that counts the components


def test_zero_refinements_reports_unverified() -> None:
    r = integrate_kz(lambda x: kernel(x), QuadratureConfig(max_refinements=0))
    assert not r.converged
    assert math.isinf(r.errors[0])
    assert r.values[0] == pytest.approx(2.0, rel=1e-13)


def test_error_estimate_is_last_refinement_change() -> None:
    r = integrate_kz(lambda x: np.exp(np.cos(x)), CFG)
    assert r.converged
    assert 0.0 <= r.errors[0] <= max(CFG.abs_tol, CFG.rel_tol * abs(r.values[0]))


def test_multi_component_integration() -> None:
    def f(k: np.ndarray) -> np.ndarray:
        a = kernel(k[:, 0])
        return np.stack([a, a * a], axis=1)

    r = integrate_bz_multi(f, d=2, cfg=CFG)
    assert r.converged
    assert r.values == pytest.approx([2.0, 6.0], rel=1e-13)


def test_dimension_validation() -> None:
    with pytest.raises(ValueError):
        integrate_bz_multi(lambda k: k[:, 0], d=5, cfg=CFG)


def test_determinism_bitwise() -> None:
    f = lambda x: np.sqrt(kernel(x) + 0.3)
    a = integrate_kz(f, CFG)
    b = integrate_kz(f, CFG)
    assert a.values[0] == b.values[0]
    assert a.errors[0] == b.errors[0]


def test_richardson_recovers_limit_and_order() -> None:
    limit, c = -0.25, 3.7
    values = [limit + c * 0.25**k for k in range(4)]
    est, order = richardson_extrapolate(values)
    assert est == pytest.approx(limit, abs=1e-12)
    assert order == pytest.approx(2.0, abs=1e-9)


def test_richardson_guards() -> None:
    with pytest.raises(ValueError):
        richardson_extrapolate([1.0, 2.0])
    est, order = richardson_extrapolate([1.0, 2.0, 4.0])  # diverging differences
    assert est == 4.0
    assert math.isnan(order)
    est, order = richardson_extrapolate([1.0, 1.0, 1.0])
    assert est == 1.0
    assert math.isinf(order)
