from __future__ import annotations

import math

import numpy as np
import pytest

from latcas import BoundaryCondition, BoundaryKind, PhenOffset, generate_modes

from moment_oracle import kernel_moment


def test_periodic_nz4() -> None:
    ms = generate_modes(BoundaryCondition.periodic(), 4)
    assert ms.akz == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert all(w == 1.0 for w in ms.weights)


def test_antiperiodic_nz2() -> None:
    ms = generate_modes(BoundaryCondition.antiperiodic(), 2)
    assert ms.akz == pytest.approx([math.pi / 2, 3 * math.pi / 2])
    assert all(w == 1.0 for w in ms.weights)


def test_phenomenological_nz1_wraps_final_mode() -> None:
    ms = generate_modes(BoundaryCondition.phenomenological(), 1)
    assert ms.akz == pytest.approx([math.pi, 0.0])
    assert all(w == 0.5 for w in ms.weights)


def test_phenomenological_index_variants_agree_as_sets() -> None:
    for nz in (1, 2, 5):
        a = generate_modes(BoundaryCondition.phenomenological(PhenOffset.ONE_TO_2NZ), nz)
        b = generate_modes(BoundaryCondition.phenomenological(PhenOffset.ZERO_TO_2NZ_MINUS_1), nz)
        assert np.allclose(sorted(a.akz), sorted(b.akz), atol=1e-12)
        assert a.weight_sum == b.weight_sum


def test_weight_sum_equals_nz_for_all_kinds() -> None:
    for kind in BoundaryKind:
        bc = BoundaryCondition(kind)
        for nz in range(1, 13):
            ms = generate_modes(bc, nz)
            assert ms.weight_sum == pytest.approx(nz, abs=1e-12)


def test_values_lie_in_first_zone() -> None:
    for kind in BoundaryKind:
        for nz in (1, 3, 8):
            ms = generate_modes(BoundaryCondition(kind), nz)
            assert np.all(ms.akz >= 0.0)
            assert np.all(ms.akz < 2.0 * math.pi)


def test_periodic_and_antiperiodic_interleave() -> None:
    for nz in (1, 2, 4, 7):
        combined = np.concatenate(
            [
                generate_modes(BoundaryCondition.periodic(), nz).akz,
                generate_modes(BoundaryCondition.antiperiodic(), nz).akz,
            ]
        )
        doubled = generate_modes(BoundaryCondition.periodic(), 2 * nz).akz
        assert np.allclose(np.sort(combined), np.sort(doubled), atol=1e-12)


def test_periodic_mode_average_is_trapezoidal_rule() -> None:
    # weighted mode average of (2-2cos)^j equals the zone average for j < nz
    for nz in (2, 3, 5, 8):
        ms = generate_modes(BoundaryCondition.periodic(), nz)
        for j in range(nz):
            avg = math.fsum(
                w * (2.0 - 2.0 * math.cos(x)) ** j for x, w in zip(ms.akz, ms.weights)
            ) / nz
            assert avg == pytest.approx(kernel_moment(j), rel=1e-13, abs=1e-13)


def test_pure_harmonics_below_nz_average_to_zero() -> None:
    for nz in (3, 6):
        ms = generate_modes(BoundaryCondition.periodic(), nz)
        for k in range(1, nz):
            avg = math.fsum(w * math.cos(k * x) for x, w in zip(ms.akz, ms.weights)) / nz
            assert avg == pytest.approx(0.0, abs=1e-14)


def test_rejects_nz_zero() -> None:
    with pytest.raises(ValueError):
        generate_modes(BoundaryCondition.periodic(), 0)


@pytest.mark.parametrize("nz", [True, 2.0, -1])
def test_rejects_non_integer_thickness(nz) -> None:
    # True is an int subclass but not a thickness
    with pytest.raises(ValueError):
        generate_modes(BoundaryCondition.periodic(), nz)


@pytest.mark.parametrize(
    "bc, nz",
    [(BoundaryCondition.periodic(), 2**20 + 1), (BoundaryCondition.phenomenological(), 2**19 + 1)],
    ids=["periodic", "phenomenological"],
)
def test_rejects_more_modes_than_the_point_budget(bc, nz) -> None:
    # 2^20 + 1 modes, refused before any is built
    with pytest.raises(ValueError, match="modes"):
        generate_modes(bc, nz)


_FAMILIES = [
    BoundaryCondition.periodic(),
    BoundaryCondition.antiperiodic(),
    BoundaryCondition.phenomenological(PhenOffset.ONE_TO_2NZ),
    BoundaryCondition.phenomenological(PhenOffset.ZERO_TO_2NZ_MINUS_1),
]


def _scalar_akz(bc: BoundaryCondition, nz: int) -> list[float]:
    """The modes one float expression at a time, reduced by math.fmod."""
    if bc.kind is BoundaryKind.PERIODIC:
        xs = [2.0 * l * math.pi / nz for l in range(nz)]
    elif bc.kind is BoundaryKind.ANTIPERIODIC:
        xs = [(2.0 * l + 1.0) * math.pi / nz for l in range(nz)]
    else:
        start = 1 if bc.phen_offset is PhenOffset.ONE_TO_2NZ else 0
        xs = [l * math.pi / nz for l in range(start, start + 2 * nz)]
    return [math.fmod(x, 2.0 * math.pi) for x in xs]


@pytest.mark.parametrize("bc", _FAMILIES, ids=["periodic", "antiperiodic", "phen-1..2nz", "phen-0..2nz-1"])
def test_joined_modes_are_the_modes_of_each_thickness(bc) -> None:
    # one call over nz = 1..64 gives each thickness the bits of its own mode set
    from latcas.modes import _joined_modes

    nzs = list(range(1, 65))
    akz, bounds, w = _joined_modes(bc, nzs)
    assert len(bounds) == len(nzs) + 1 and bounds[-1] == akz.size
    for nz, lo, hi in zip(nzs, bounds, bounds[1:]):
        modes = generate_modes(bc, nz)
        assert modes.akz.tolist() == _scalar_akz(bc, nz), nz
        assert akz[lo:hi].tobytes() == modes.akz.tobytes(), nz
        assert np.all(modes.weights == w), nz
        one, one_bounds, one_w = _joined_modes(bc, [nz])  # the single-thickness call
        assert one.tobytes() == modes.akz.tobytes() and one_bounds == [0, hi - lo] and one_w == w, nz
