from __future__ import annotations

import collections
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from latcas import (
    BoundaryCondition,
    CasimirResult,
    DispersionSpec,
    Geometry,
    QuadratureConfig,
    SweepRow,
    casimir_energy,
    emit,
    generate_modes,
    rectangle_decomposition,
    sweep,
)
from latcas.quadrature import _MAX_POINTS
import latcas.report as report
from latcas.report import CSV_COLUMNS, _row_values

import moment_oracle as mo

PER = BoundaryCondition.periodic()
CFG = QuadratureConfig()


def test_sweep_rows_are_the_casimir_results() -> None:
    # bit for bit (repr, so NaN and signed zeros count too), although the
    # odd-order thicknesses share their tanh-sinh levels
    assert SweepRow is CasimirResult
    nzs = [1, 2, 3, 5, 8]
    specs = (DispersionSpec(4), DispersionSpec(1), DispersionSpec(1, am=2.0), DispersionSpec(3))
    bcs = (PER, BoundaryCondition.antiperiodic(), BoundaryCondition.phenomenological())
    for spec, d, bc in itertools.product(specs, (2, 3), bcs):
        rows = sweep(spec, d, bc, nzs, CFG)
        alone = [casimir_energy(spec, Geometry(d, nz), bc, CFG) for nz in nzs]
        assert repr(rows) == repr(alone), (spec, d, bc)


def test_odd_sweep_takes_one_kz_average_per_level(monkeypatch) -> None:
    # the kz average does not depend on nz: one call per tanh-sinh level that
    # the deepest thickness visits, however many thicknesses read it. Alone,
    # one level at a time, each call builds only the levels it visits; the
    # sweep, in runs of levels, builds no level past the deepest of them
    import latcas.casimir as casimir

    calls = []
    kz_average = casimir._kz_average

    def counted(spec, t):
        calls.append(t.size)
        return kz_average(spec, t)

    monkeypatch.setattr(casimir, "_kz_average", counted)
    monkeypatch.setattr(casimir, "_BATCH", 0)
    alone = []
    for nz in range(1, 13):
        casimir._RULES.clear()  # each call alone builds its own levels
        calls.clear()
        casimir_energy(DispersionSpec(1), Geometry(3, nz), PER, CFG)
        alone.append(len(calls))
    monkeypatch.undo()
    monkeypatch.setattr(casimir, "_kz_average", counted)
    casimir._RULES.clear()
    calls.clear()
    rows = sweep(DispersionSpec(1), 3, PER, range(1, 13), CFG)
    assert all(r.converged for r in rows)
    assert len(calls) == max(alone) < sum(alone)
    assert len(set(calls)) == len(calls)  # each level once


@pytest.mark.parametrize("cap, small", [(3, (False, 3)), (4, (True, 4))], ids=["cap-3", "cap-4"])
def test_odd_sweep_rows_retire_on_their_own(monkeypatch, cap, small) -> None:
    # the thicknesses refine together, but each stops on its own verdict:
    # nz <= 16 needs four levels, so cap 3 cuts them unconverged; nz 200 and
    # 1000 stop at level 3, before cap 4, but their error, the rounding floor,
    # is about 200 times |e_cas|, so they are not converged; nz = 20000
    # affords levels 0 and 1 only. Each row is still the casimir_energy
    # result of its thickness.
    import latcas.casimir as casimir

    seen = collections.Counter()  # values of t each thickness was evaluated at
    mode_sum = casimir._mode_sum

    def counted(spec, joined, bounds, w, t):
        seen.update({b - a: t.size for a, b in zip(bounds, bounds[1:])})  # periodic: nz modes
        return mode_sum(spec, joined, bounds, w, t)

    monkeypatch.setattr(casimir, "_mode_sum", counted)
    spec, cfg = DispersionSpec(1, am=0.5), QuadratureConfig(max_refinements=cap)
    nzs = [1, 2, 4, 8, 16, 200, 1000, 20000]
    rows = sweep(spec, 3, PER, nzs, cfg)
    level_ends = list(itertools.accumulate(2 * casimir._tanh_sinh_size(j) for j in range(8)))  # two per node in d=3
    got = {r.nz: (r.converged, level_ends.index(seen[r.nz])) for r in rows}
    assert got == {**dict.fromkeys(nzs[:5], small), 200: (False, 3), 1000: (False, 3), 20000: (False, 1)}
    monkeypatch.undo()
    for r in rows:
        assert repr(r) == repr(casimir_energy(spec, Geometry(3, r.nz), PER, cfg)), r.nz


@pytest.mark.parametrize("s, d", [(1, 2), (3, 3)])
def test_odd_sweep_takes_one_dispersion_call_per_run_of_levels(monkeypatch, s, d) -> None:
    # the live thicknesses share one dispersion call over their joined mode
    # kernels, where each thickness used to take its own, and that call covers
    # a run of consecutive levels: each level is evaluated once, and a run
    # takes more than one level only within _BATCH values of t times columns,
    # or levels 0 and 1, as no thickness is judged on level 0 alone
    import latcas.casimir as casimir

    omega_calls, levels = [], []
    omega, dos_level = casimir._omega_inplace, casimir._dos_level

    def counted_omega(spec, v):
        omega_calls.append(v.shape)
        return omega(spec, v)

    def counted_level(d, level):
        levels.append(level)
        return dos_level(d, level)

    monkeypatch.setattr(casimir, "_omega_inplace", counted_omega)
    monkeypatch.setattr(casimir, "_dos_level", counted_level)
    rows = sweep(DispersionSpec(s), d, BoundaryCondition.phenomenological(), range(1, 13), CFG)
    assert all(r.converged for r in rows)
    assert levels == list(range(len(levels)))
    level_ends = list(itertools.accumulate((d - 1) * casimir._tanh_sinh_size(j) for j in levels))
    run_ends = list(itertools.accumulate(t for t, _ in omega_calls))
    assert set(run_ends) <= set(level_ends) and run_ends[-1] == level_ends[-1]  # whole levels, each once
    starts = [0, *level_ends]
    for (t, cols), end in zip(omega_calls, run_ends):
        first, last = starts.index(end - t), level_ends.index(end)
        assert t * cols <= casimir._BATCH or last == first or (first, last) == (0, 1)
    assert len(omega_calls) < len(levels) < len(rows)


@pytest.mark.parametrize(
    "bc, support",
    [(PER, {1, 2}), (BoundaryCondition.antiperiodic(), {1, 2}), (BoundaryCondition.phenomenological(), {1})],
    ids=["periodic", "antiperiodic", "phenomenological"],
)
def test_even_sweep_answers_the_tail_from_one_continuum_grid(monkeypatch, bc, support) -> None:
    # past nz = s/2 modes (2nz for phenomenological) the mode sum equals the
    # continuum term: every row, in the support or past it, reads one integer
    # table built once, whose F_0 is the continuum average, and no row takes
    # modes or a kz average
    import latcas.casimir as casimir

    spec = DispersionSpec(4)
    tables = []
    even_table = casimir._even_table

    def counted_table(s, d):
        tables.append((s, d))
        return even_table(s, d)

    monkeypatch.setattr(casimir, "_joined_modes", lambda *a: pytest.fail("modes generated"))
    monkeypatch.setattr(casimir, "_kz_average", lambda *a: pytest.fail("kz average taken"))
    monkeypatch.setattr(casimir, "_even_table", counted_table)
    rows = sweep(spec, 3, bc, range(1, 33), CFG)
    assert tables == [(4, 3)]
    monkeypatch.undo()
    for r in rows:
        assert repr(r) == repr(casimir_energy(spec, Geometry(3, r.nz), bc, CFG))
        if r.nz in support:
            assert r.converged and r.e_cas != 0.0 and r.quad_error == math.ulp(r.e_cas)
        else:
            assert (r.e_cas, r.coeff, r.quad_error, r.converged) == (0.0, 0.0, 0.0, True)
            assert r.e0_sum == r.e0_int


def test_sweep_quadratic_column() -> None:
    rows = sweep(DispersionSpec(2), 3, PER, range(1, 6), CFG)
    assert [r.nz for r in rows] == [1, 2, 3, 4, 5]
    assert rows[0].e_cas == pytest.approx(-1.0, abs=1e-10)
    for r in rows[1:]:
        assert abs(r.e_cas) < 1e-10


def test_sweep_flat_band_column() -> None:
    rows = sweep(DispersionSpec(0), 3, PER, range(1, 5), CFG)
    assert all(r.e_cas == 0.0 for r in rows)


def test_sweep_quartic_column() -> None:
    rows = sweep(DispersionSpec(4), 3, PER, range(1, 5), CFG)
    want = [-11.0, 2.0, 0.0, 0.0]
    for r, w in zip(rows, want):
        assert r.e_cas == pytest.approx(w, abs=1e-8)


def test_sweep_validation() -> None:
    with pytest.raises(ValueError):
        sweep(DispersionSpec(2), 3, PER, [], CFG)
    with pytest.raises(ValueError):
        sweep(DispersionSpec(2), 3, PER, [3, 2, 1], CFG)
    with pytest.raises(ValueError):
        sweep(DispersionSpec(2), 3, PER, [1, 1, 2], CFG)


def test_sweep_takes_at_most_the_point_budget_of_thicknesses(monkeypatch) -> None:
    # a structural-zero row costs no point of the budget, so the count of
    # thicknesses has its own bound; an endless iterable used to never return
    monkeypatch.setattr(report, "_casimir_rows", lambda *a: pytest.fail("rows computed"))
    nzs = itertools.count(1)
    with pytest.raises(ValueError, match="at most 1048576 thicknesses"):
        sweep(DispersionSpec(2), 3, PER, nzs, CFG)
    assert next(nzs) == _MAX_POINTS + 2  # no more than 2**20 + 1 were read


@pytest.mark.parametrize("nzs", [range(1, _MAX_POINTS + 2), range(1, 10**19 + 1)], ids=["budget-plus-one", "past-maxsize"])
def test_a_long_range_is_refused_by_its_length(monkeypatch, nzs) -> None:
    # a range is refused before any thickness is read: reading 2**20 + 1 of
    # them into a list took about 40 MiB; len() of the second raises
    # OverflowError
    monkeypatch.setattr(report, "_casimir_rows", lambda *a: pytest.fail("rows computed"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="at most 1048576 thicknesses"):
            sweep(DispersionSpec(2), 3, PER, nzs, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("nzs", [[1.9, 2.5], [True, 2], [1, 2.0]], ids=["floats", "bool", "integral-float"])
def test_sweep_rejects_non_integer_thicknesses(nzs) -> None:
    # [1.9, 2.5] used to give the rows of nz 1 and 2
    with pytest.raises(TypeError):
        sweep(DispersionSpec(2), 3, PER, nzs, CFG)


def test_sweep_accepts_numpy_integers() -> None:
    rows = sweep(DispersionSpec(2), 3, PER, np.arange(1, 4), CFG)
    assert rows == sweep(DispersionSpec(2), 3, PER, range(1, 4), CFG)
    assert all(type(r.nz) is int for r in rows)


def test_rectangles_take_up_to_d_minus_one_components() -> None:
    # d only bounds the transverse components; it does not change the numbers
    three = rectangle_decomposition(DispersionSpec(2), 3, PER, (0.7, 1.1))
    assert rectangle_decomposition(DispersionSpec(2), 3, PER, (0.7, 1.1), d=3) == three
    one = rectangle_decomposition(DispersionSpec(2), 3, PER, (0.7,), d=2)
    assert one.int_area == pytest.approx(2 * math.pi * (2 - 2 * math.cos(0.7) + 2), rel=1e-14)
    assert rectangle_decomposition(DispersionSpec(2), 3, PER, (), d=1).int_area == pytest.approx(4 * math.pi)


def test_rectangles_quadratic_two_sites() -> None:
    dec = rectangle_decomposition(DispersionSpec(2), 2, PER)
    heights = sorted(h for _, _, h in dec.rects)
    assert heights == pytest.approx([0.0, 4.0], abs=1e-14)
    assert dec.sum_area / (2 * math.pi) == pytest.approx(2.0, abs=1e-13)
    assert dec.int_area / (2 * math.pi) == pytest.approx(2.0, abs=1e-13)


def test_rectangles_linear_single_site() -> None:
    dec = rectangle_decomposition(DispersionSpec(1), 1, PER)
    assert len(dec.rects) == 1
    assert dec.rects[0][2] == 0.0
    assert dec.rects[0][1] == pytest.approx(2 * math.pi)
    assert dec.int_area > 0.0


def test_rectangles_quadratic_single_site() -> None:
    dec = rectangle_decomposition(DispersionSpec(2), 1, PER)
    assert dec.sum_area == 0.0
    assert dec.int_area / (2 * math.pi) == pytest.approx(2.0, abs=1e-13)


@pytest.mark.parametrize("nz", [1, 3, 8])
def test_rectangles_linear_int_area_is_exact(nz: int) -> None:
    # (1/2pi) int |2 sin(x/2)| dx = 4/pi: the exact kz average, cusp included
    dec = rectangle_decomposition(DispersionSpec(1), nz, PER)
    assert dec.int_area == pytest.approx(8.0, rel=1e-14)


def test_rectangle_area_identity_against_modes() -> None:
    for spec, nz, bc, k_perp in [
        (DispersionSpec(1), 3, PER, ()),
        (DispersionSpec(2), 4, BoundaryCondition.antiperiodic(), (0.7,)),
        (DispersionSpec(4), 2, BoundaryCondition.phenomenological(), (0.3, 1.1)),
    ]:
        dec = rectangle_decomposition(spec, nz, bc, k_perp)
        akz, w = generate_modes(bc, nz)
        t_perp = math.fsum(2.0 - 2.0 * math.cos(k) for k in k_perp)
        avg = math.fsum(w * float(_omega(spec, t_perp + 2.0 - 2.0 * math.cos(x))) for x in akz) / nz
        assert dec.sum_area / (2.0 * math.pi) == pytest.approx(avg, rel=1e-13, abs=1e-15)


def _omega(spec, t):
    from latcas import eval_from_kernel_sum

    return eval_from_kernel_sum(spec, t)


def test_rectangle_widths_follow_weights() -> None:
    dec = rectangle_decomposition(DispersionSpec(2), 3, BoundaryCondition.phenomenological())
    assert len(dec.rects) == 6
    for _, width, _ in dec.rects:
        assert width == pytest.approx(0.5 * 2.0 * math.pi / 3.0)


def test_rectangles_curve_sampling() -> None:
    dec = rectangle_decomposition(DispersionSpec(2), 2, PER, samples=128)
    assert len(dec.curve) == 128
    xs = [x for x, _ in dec.curve]
    assert xs[0] == 0.0
    assert xs[-1] < 2.0 * math.pi
    with pytest.raises(ValueError):
        rectangle_decomposition(DispersionSpec(2), 2, PER, samples=32)


@pytest.mark.parametrize(
    "nz, kwargs",
    [
        (4, {"samples": 10**12}),
        (4, {"samples": _MAX_POINTS + 1}),
        (4, {"samples": 64.5}),
        (4, {"samples": True}),
        (10**12, {}),
        (_MAX_POINTS // 2 + 1, {"bc": BoundaryCondition.phenomenological()}),
        (4, {"k_perp": (math.nan,)}),
        (4, {"k_perp": (0.5, math.inf)}),
        (4, {"d": 1, "k_perp": (0.5,)}),
        (4, {"d": 2, "k_perp": (0.5, 0.5)}),
        (4, {"d": 4}),
        (4, {"d": True}),
    ],
    ids=["samples-huge", "samples-over-budget", "samples-float", "samples-bool", "nz-huge",
         "phen-modes-over-budget", "k-perp-nan", "k-perp-inf", "k-perp-past-d1", "k-perp-past-d2",
         "d-4", "d-bool"],
)
def test_rectangles_reject_unbounded_or_invalid_input(monkeypatch, nz, kwargs) -> None:
    # refused before any mode or sample is allocated
    import latcas.modes as modes

    monkeypatch.setattr(modes, "_joined_modes", lambda *a: pytest.fail("modes generated"))
    kwargs = {"bc": PER, **kwargs}
    with pytest.raises(ValueError):
        rectangle_decomposition(DispersionSpec(2), nz, **kwargs)


@pytest.mark.parametrize(
    "s, d",
    [(2 * _MAX_POINTS, 1), (2 * _MAX_POINTS + 1, 2), (100000001, 3), (2 * 10**12, 1), (10**5000, 3)],
    ids=["first-even", "first-odd", "1e8-odd", "2e12-even", "5001-digits"],
)
def test_rectangles_refuse_orders_past_the_point_budget(monkeypatch, s, d) -> None:
    # the kz average takes s//2 + 1 evaluations, as the energies charge it:
    # 1e8 + 1 ran past a 20 s timeout and 2e12 would build 7.28 TiB of kz nodes
    import latcas.modes as modes
    import latcas.report as report

    monkeypatch.setattr(modes, "_joined_modes", lambda *a: pytest.fail("modes generated"))
    monkeypatch.setattr(report, "_kz_average", lambda *a: pytest.fail("kz average taken"))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="order s"):
        rectangle_decomposition(DispersionSpec(s), 4, PER, samples=64, d=d)
    assert time.perf_counter() - t0 < 1.0


def test_rectangles_take_orders_up_to_the_point_budget() -> None:
    with np.errstate(all="ignore"):  # the heights pass the float range
        dec = rectangle_decomposition(DispersionSpec(2 * _MAX_POINTS - 2), 4, PER, samples=64, d=1)
    assert len(dec.rects) == 4 and dec.int_area == math.inf


def test_csv_header_and_roundtrip(tmp_path) -> None:
    rows = sweep(DispersionSpec(2), 3, PER, range(1, 3), CFG)
    path = tmp_path / "rows.csv"
    emit(rows, "csv", path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "Nz,e0_sum,e0_int,e_cas,coeff,quad_error,converged"
    fields = lines[1].split(",")
    assert int(fields[0]) == 1
    assert float(fields[1]) == rows[0].e0_sum
    assert float(fields[3]) == rows[0].e_cas
    assert float(fields[5]) == rows[0].quad_error


def test_csv_17_digit_roundtrip_awkward_values(tmp_path) -> None:
    rows = [CasimirResult(7, 1.0 / 3.0, math.pi, -3.357443657127e-06, 0.1 + 0.2, 5e-324)]
    path = tmp_path / "awkward.csv"
    emit(rows, "csv", path)
    fields = path.read_text().strip().split("\n")[1].split(",")
    assert float(fields[1]) == 1.0 / 3.0
    assert float(fields[2]) == math.pi
    assert float(fields[3]) == -3.357443657127e-06
    assert float(fields[4]) == 0.1 + 0.2
    assert float(fields[5]) == 5e-324


def test_empty_sweep_emits_header_only(tmp_path) -> None:
    path = tmp_path / "empty.csv"
    emit([], "csv", path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_json_roundtrip_bit_exact(tmp_path) -> None:
    rows = sweep(DispersionSpec(4), 3, PER, range(1, 4), CFG)
    path = tmp_path / "rows.json"
    emit(rows, "json", path)
    parsed = json.loads(path.read_text())
    for row, rec in zip(rows, parsed):
        assert rec["Nz"] == row.nz
        assert rec["e0_sum"] == row.e0_sum
        assert rec["e_cas"] == row.e_cas
        assert rec["quad_error"] == row.quad_error


def _json_dumps_text(rows) -> str:
    return json.dumps([dict(zip(CSV_COLUMNS, _row_values(r))) for r in rows], indent=2) + "\n"


def test_json_rows_are_the_text_of_json_dumps(tmp_path) -> None:
    # written without json's pure-Python encoder, byte for byte the same
    rows = [
        CasimirResult(1, math.nan, math.inf, -math.inf, -0.0, 5e-324, True),
        CasimirResult(10**30, 0.1, -1e300, 2.0**-1074, 1e16, 123456789.0, False),
        CasimirResult(3, np.float64(1 / 3), 0, -7, np.float64(math.nan), 1.5, True),
    ]
    path = tmp_path / "rows.json"
    for case in ([], rows[:1], rows):
        emit(case, "json", path)
        assert path.read_text() == _json_dumps_text(case)
    odd = [CasimirResult(2, np.float32(0.5), 1.0, 0.0, 0.0, 0.0, True)]
    with pytest.raises(TypeError) as want:
        _json_dumps_text(odd)
    with pytest.raises(TypeError) as got:
        emit(odd, "json", path)
    assert str(got.value) == str(want.value)


def test_json_rows_carry_converged(tmp_path) -> None:
    rows = [CasimirResult(1, 2.0, 3.0, -1.0, -1.0, 0.0, True), CasimirResult(2, 1.0, 1.0, 0.0, 0.0, 0.5, False)]
    path = tmp_path / "rows.json"
    emit(rows, "json", path)
    assert [rec["converged"] for rec in json.loads(path.read_text())] == [True, False]
    assert '"converged": false' in path.read_text()
    emit(rows, "csv", path)
    assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_decomposition_emission(tmp_path) -> None:
    dec = rectangle_decomposition(DispersionSpec(2), 2, PER, samples=64)
    cpath = tmp_path / "dec.csv"
    emit(dec, "csv", cpath)
    text = cpath.read_text()
    assert text.startswith("left,width,height\n")
    assert "\ncurve\nakz,aomega\n" in text
    assert "\nsum_area,int_area\n" in text

    jpath = tmp_path / "dec.json"
    emit(dec, "json", jpath)
    parsed = json.loads(jpath.read_text())
    assert parsed["sum_area"] == dec.sum_area
    assert parsed["int_area"] == dec.int_area
    assert [r["height"] for r in parsed["rects"]] == [h for _, _, h in dec.rects]
    assert len(parsed["curve"]) == 64


def test_emit_to_stdout(capsys) -> None:
    emit([CasimirResult(1, 2.0, 3.0, -1.0, -1.0, 0.0)], "csv", "-")
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Nz,e0_sum,e0_int,e_cas,coeff,quad_error,converged"
    assert out.splitlines()[1] == "1,2,3,-1,-1,0,true"


def test_emit_validation(tmp_path) -> None:
    with pytest.raises(ValueError):
        emit([], "xml", tmp_path / "x")
    with pytest.raises(TypeError):
        emit([1, 2, 3], "csv", tmp_path / "x")
    with pytest.raises(OSError) as info:
        emit([], "csv", tmp_path / "missing-dir" / "x.csv")
    assert "missing-dir" in str(info.value)


def test_sweep_and_emission_are_reproducible(tmp_path) -> None:
    texts = []
    for name in ("a.csv", "b.csv"):
        rows = sweep(DispersionSpec(1), 2, PER, range(1, 5), QuadratureConfig(max_refinements=2))
        path = tmp_path / name
        emit(rows, "csv", path)
        texts.append(path.read_text())
    assert texts[0] == texts[1]


def test_mode_average_consistency_between_sweep_and_zero_point() -> None:
    # against the exact mode sum of the moment oracle, independent of the package
    rows = sweep(DispersionSpec(4), 3, PER, [2], CFG)
    exact = float(mo.zero_point_sum_exact(4, 3, 2))
    assert exact == 44.0 and rows[0].e0_sum == pytest.approx(exact, rel=1e-12)
