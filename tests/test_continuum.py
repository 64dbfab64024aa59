from __future__ import annotations

import math
import sys
from fractions import Fraction

import mpmath
import pytest

from latcas import ContinuumParams, continuum, continuum_casimir, zeta_fn


def test_zeta_closed_forms() -> None:
    assert zeta_fn(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    assert zeta_fn(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-13)
    assert zeta_fn(6.0) == pytest.approx(math.pi**6 / 945.0, rel=1e-13)


def test_zeta_against_mpmath() -> None:
    mpmath.mp.dps = 30
    for x in [1.5, 2.0, 2.5, 3.0, 5.0, 7.3, 9.0, 12.0, 15.0, 16.0]:
        assert zeta_fn(x) == pytest.approx(float(mpmath.zeta(x)), rel=1e-13), x


def test_euler_maclaurin_factors_are_the_exact_ratios_rounded() -> None:
    # integer pairs divided once give the float nearest B_j / j!, the bits
    # of the exact rational route
    assert sorted(continuum._EM_FACTORS) == list(range(2, 17, 2))
    for j, (n, d) in continuum._BERNOULLI.items():
        assert Fraction(n, d) == Fraction(*map(int, mpmath.bernfrac(j))), j
        assert continuum._EM_FACTORS[j] == float(Fraction(n, d) / math.factorial(j)), j


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


def _continuum_mp(s: int, d: int, L: float) -> mpmath.mpf:
    # the zeta-regularized closed form at 40 digits, g = 1
    x = mpmath.mpf(d + s) / 2
    return (
        mpmath.gamma(x) * mpmath.zeta(d + s) / (4 * mpmath.pi) ** (mpmath.mpf(d - 1) / 2)
        / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(-mpmath.mpf(s) / 2)) * (2 / mpmath.mpf(L)) ** (d - 1 + s)
    )


@pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_odd_orders_match_mpmath_over_the_float_range(d: int, L: float) -> None:
    # a direct product that overflowed gave inf and raised nothing, so
    # s = 171, d = 1, L = 3 (about 1.02e227) came back inf
    with mpmath.workdps(40):
        for s in range(1, 400, 2):
            want = _continuum_mp(s, d, L)
            if not sys.float_info.min <= abs(want) <= sys.float_info.max:
                continue
            got = continuum_casimir(ContinuumParams(s, d, L))
            assert abs((got - want) / want) <= 1e-12, (s, got, mpmath.nstr(want, 17))


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
