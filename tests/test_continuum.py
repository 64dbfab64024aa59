from __future__ import annotations

import math

import mpmath
import pytest

from latcas import ContinuumParams, GammaPoleError, continuum_casimir, gamma_fn, zeta_fn


def test_gamma_standard_values() -> None:
    assert gamma_fn(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)
    assert gamma_fn(4.0) == pytest.approx(6.0, rel=1e-12)
    assert gamma_fn(-1.5) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-12)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)


def test_gamma_poles_raise() -> None:
    for x in (0.0, -1.0, -2.0, -6.0):
        with pytest.raises(GammaPoleError):
            gamma_fn(x)


def test_gamma_twelve_digits_on_working_range() -> None:
    mpmath.mp.dps = 30
    xs = [x / 8.0 for x in range(-48, 81)]
    for x in xs:
        if x <= 0 and x == int(x):
            continue
        want = float(mpmath.gamma(x))
        assert gamma_fn(x) == pytest.approx(want, rel=1e-12), x


def test_gamma_keeps_accuracy_near_poles() -> None:
    mpmath.mp.dps = 40
    for x in (-5.9999, -3.000001, -0.9999999):
        want = float(mpmath.gamma(x))
        assert gamma_fn(x) == pytest.approx(want, rel=1e-11), x


def test_gamma_recurrence() -> None:
    for x in (-5.5, -2.3, 0.7, 3.25):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


def test_zeta_closed_forms() -> None:
    assert zeta_fn(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    assert zeta_fn(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-13)
    assert zeta_fn(6.0) == pytest.approx(math.pi**6 / 945.0, rel=1e-13)


def test_zeta_against_mpmath() -> None:
    mpmath.mp.dps = 30
    for x in [1.5, 2.0, 2.5, 3.0, 5.0, 7.3, 9.0, 12.0, 15.0, 16.0]:
        assert zeta_fn(x) == pytest.approx(float(mpmath.zeta(x)), rel=1e-13), x


def test_zeta_of_large_arguments_is_its_head_sum() -> None:
    # the Euler-Maclaurin factor overflows to inf where its power underflows
    for x in (1e21, 1e300, math.inf):
        assert zeta_fn(x) == 1.0, x


def test_zeta_rejects_nonconvergent_arguments() -> None:
    for x in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            zeta_fn(x)


def test_even_orders_vanish_identically() -> None:
    for s in (2, 4, 6, 8, 10, 12):
        for d in (1, 2, 3):
            assert continuum_casimir(ContinuumParams(s=s, d=d, L=2.5, g=2)) == 0.0


def test_linear_branch_reference_values() -> None:
    two_branch = continuum_casimir(ContinuumParams(s=1, d=3, L=1.0, g=2))
    assert two_branch == pytest.approx(-math.pi**2 / 45.0, abs=1e-10)
    one_branch = continuum_casimir(ContinuumParams(s=1, d=3, L=1.0, g=1))
    assert one_branch == pytest.approx(-math.pi**2 / 90.0, abs=1e-10)


def test_single_axis_textbook_value() -> None:
    assert continuum_casimir(ContinuumParams(s=1, d=1, L=1.0, g=1)) == pytest.approx(
        -math.pi / 6.0, rel=1e-12
    )


def test_power_law_scaling() -> None:
    for s, d in [(1, 3), (3, 3), (5, 2), (1, 1)]:
        ref = continuum_casimir(ContinuumParams(s=s, d=d, L=1.0))
        alpha = (d - 1) + s
        for L in (0.5, 2.0, 7.0):
            val = continuum_casimir(ContinuumParams(s=s, d=d, L=L))
            assert val * L**alpha == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs, want",
    [
        ({"s": 1, "L": 1e-320}, -math.inf),
        ({"s": 1, "L": 1e300}, -0.0),
        ({"s": 3, "L": 1e300}, 0.0),
        ({"s": 100000001}, -math.inf),
        ({"s": 100000003}, math.inf),
        ({"s": 1, "L": 1e140, "g": 10**400}, -math.pi**2 / 90.0 * 1e-20),
    ],
    ids=["L-underflows", "L-overflows", "L-overflows-s3", "s-huge", "s-huge-s3", "g-huge"],
)
def test_values_past_the_float_range_keep_their_sign(kwargs, want) -> None:
    # these raised ZeroDivisionError or OverflowError; the last is finite
    # although g itself passes the float range
    got = continuum_casimir(ContinuumParams(d=3, **kwargs))
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs", [{"s": 10**401 + 1}, {"d": 10**400}, {"s": 2**53 + 1}, {"d": 2**53 + 1}],
    ids=["s-401-digits", "d-401-digits", "s-past-2**53", "d-past-2**53"],
)
def test_params_refuse_orders_past_exact_floats(kwargs) -> None:
    # continuum_casimir raised OverflowError (int too large to convert to
    # float) for the first two; past 2**53, -s/2 rounds onto a gamma pole
    with pytest.raises(ValueError, match=r"2\*\*53"):
        ContinuumParams(**{"s": 1, "d": 3, **kwargs})


@pytest.mark.parametrize(
    "kwargs, want",
    [({"s": 2**53 - 1}, math.inf), ({"s": 1, "d": 2**53}, -math.inf), ({"s": 1, "d": 2**53, "L": 1e300}, -0.0)],
    ids=["s-at-bound", "d-at-bound", "d-at-bound-long"],
)
def test_orders_at_the_bound_keep_their_sign(kwargs, want) -> None:
    got = continuum_casimir(ContinuumParams(**{"d": 3, **kwargs}))
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_params_validation() -> None:
    with pytest.raises(ValueError):
        ContinuumParams(s=0, d=3)
    with pytest.raises(ValueError):
        ContinuumParams(s=1, d=0)
    with pytest.raises(ValueError):
        ContinuumParams(s=1, d=3, L=0.0)
    with pytest.raises(ValueError):
        ContinuumParams(s=1, d=3, g=0)


@pytest.mark.parametrize(
    "kwargs",
    [{"s": True}, {"d": True}, {"g": True}, {"L": math.inf}, {"L": math.nan}, {"L": True}],
    ids=["s-bool", "d-bool", "g-bool", "L-inf", "L-nan", "L-bool"],
)
def test_params_reject_bools_and_nonfinite_lengths(kwargs) -> None:
    # L = inf used to give -0.0 and s = True passed as s = 1
    with pytest.raises(ValueError):
        ContinuumParams(**{"s": 1, "d": 3, **kwargs})
