from __future__ import annotations

import json
import math
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import latcas.cli
import latcas.casimir
import latcas.modes
from latcas import QuadratureConfig
from latcas.cli import run
from latcas.massexp import DEFAULT_ORDERS


def _grab(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_compute_prints_worked_numbers(capsys) -> None:
    code = run(["compute", "--s", "2", "--d", "3", "--nz", "1", "--bc", "periodic"])
    out, _ = _grab(capsys)
    assert code == 0
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, rest = line.partition("=")
            values[key.strip()] = rest.split("(")[0].strip()
    assert float(values["e_cas"]) == pytest.approx(-1.0, abs=1e-10)
    assert float(values["e0_sum"]) == pytest.approx(2.0, abs=1e-10)
    assert float(values["e0_int"]) == pytest.approx(3.0, abs=1e-10)
    assert values["converged"] == "yes"


def test_compute_csv_output(tmp_path, capsys) -> None:
    path = tmp_path / "one.csv"
    code = run(["compute", "--s", "4", "--nz", "2", "--format", "csv", "--out", str(path)])
    _grab(capsys)
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "Nz,e0_sum,e0_int,e_cas,coeff,quad_error,converged"
    fields = lines[1].split(",")
    assert int(fields[0]) == 2
    assert float(fields[3]) == pytest.approx(2.0, abs=1e-8)


def test_reference_even_order_prints_zero(capsys) -> None:
    code = run(["reference", "--s", "2", "--d", "3", "--L", "1", "--g", "2"])
    out, _ = _grab(capsys)
    assert code == 0
    assert out.strip() == "0"


def test_reference_linear_two_branch(capsys) -> None:
    code = run(["reference", "--s", "1", "--d", "3", "--L", "1", "--g", "2"])
    out, _ = _grab(capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(-math.pi**2 / 45.0, abs=1e-10)


def test_classify_reports_remnant_headline(capsys) -> None:
    code = run(["classify", "--s", "6", "--d", "3", "--bc", "periodic", "--nz-max", "16"])
    out, _ = _grab(capsys)
    assert code == 0
    assert out.splitlines()[0] == "Remnant n_max=3"


def test_sweep_csv_to_stdout(capsys) -> None:
    code = run(["sweep", "--s", "2", "--d", "3", "--nz-max", "4", "--format", "csv"])
    out, _ = _grab(capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Nz,e0_sum,e0_int,e_cas,coeff,quad_error,converged"
    assert len(lines) == 5
    assert float(lines[1].split(",")[3]) == pytest.approx(-1.0, abs=1e-10)


def test_mass_expansion_output(capsys) -> None:
    code = run(["mass-expansion", "--am", "5", "--d", "3", "--nz", "1", "--orders", "3"])
    out, _ = _grab(capsys)
    assert code == 0
    assert "massive e_cas" in out
    assert "convergent" in out
    # three partial-sum rows
    rows = [line for line in out.splitlines() if line.strip() and line.split()[0].isdigit()]
    assert len(rows) == 3
    assert float(rows[0].split()[1]) == pytest.approx(-0.1, rel=1e-9)


def test_mass_expansion_rejects_zero_mass_before_any_energy(monkeypatch, capsys) -> None:
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("no energy may be computed for am <= 0")

    monkeypatch.setattr(latcas.casimir, "casimir_energy", spy)
    monkeypatch.setattr(latcas.casimir, "_even_orders", spy)
    code = run(["mass-expansion", "--am", "0", "--nz", "1"])
    _, err = _grab(capsys)
    assert code == 1
    assert calls == []
    assert "am must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mass-expansion", "--am", "5", "--d", "3", "--nz", "1", "--orders", "1048577"],
        ["compute", "--s", "1", "--d", "3", "--nz", "4", "--g", "9007199254740993"],
        ["compute", "--s", "1", "--d", "3", "--nz", "4", "--g", "9" * 401],
    ],
    ids=["orders-past-budget", "removed-g-past-2**53", "removed-g-401-digits"],
)
def test_unbounded_counts_exit_one_before_any_energy(monkeypatch, capsys, argv) -> None:
    # the massive energy was computed before the orders were looked at; a
    # 401-digit g ended in an OverflowError traceback, and the lattice
    # commands now take no --g at all
    monkeypatch.setattr(latcas.casimir, "casimir_energy", lambda *a: pytest.fail("energy computed"))
    monkeypatch.setattr(latcas.casimir, "_even_orders", lambda *a: pytest.fail("energy computed"))
    assert run(argv) == 1
    out, err = _grab(capsys)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_huge_odd_order_is_refused_as_not_converged(capsys) -> None:
    # its kz average is charged s//2 + 1 evaluations per point, past the budget
    assert run(["compute", "--s", "1000000001", "--d", "3", "--nz", "4"]) == 2
    assert "converged  = no" in _grab(capsys)[0]


def test_rectangles_json(tmp_path, capsys) -> None:
    path = tmp_path / "dec.json"
    code = run(["rectangles", "--s", "2", "--nz", "2", "--format", "json", "--out", str(path)])
    _grab(capsys)
    assert code == 0
    parsed = json.loads(path.read_text())
    assert parsed["sum_area"] == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_unknown_flag_exits_one(capsys) -> None:
    code = run(["compute", "--nz", "1", "--wavelength", "7"])
    _, err = _grab(capsys)
    assert code == 1
    assert "--wavelength" in err


@pytest.mark.parametrize("offset", ["one-to-2nz", "zero-to-2nz-minus-1"])
def test_phen_offset_is_no_flag(capsys, offset) -> None:
    # both index ranges gave the same modes; l = 1..2nz is the only one
    code = run(["compute", "--s", "1", "--d", "3", "--nz", "4", "--bc", "phenomenological", "--phen-offset", offset])
    out, err = _grab(capsys)
    assert code == 1
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "--phen-offset" in err


def test_unknown_command_exits_one(capsys) -> None:
    code = run(["frobnicate"])
    _, err = _grab(capsys)
    assert code == 1


def test_out_of_range_parameters_exit_one(capsys) -> None:
    assert run(["compute", "--s", "2", "--nz", "0"]) == 1
    assert run(["compute", "--s", "-3", "--nz", "1"]) == 1
    assert run(["compute", "--s", "2", "--am", "3", "--nz", "1"]) == 1
    assert run(["compute", "--s", "2", "--nz", "1", "--d", "9"]) == 1
    _grab(capsys)
    for am in ("nan", "inf"):
        assert run(["compute", "--s", "1", "--am", am, "--d", "1", "--nz", "2"]) == 1
        out, err = _grab(capsys)
        assert out == "" and "finite" in err


def test_nonconvergence_exits_two(capsys) -> None:
    code = run(["compute", "--s", "1", "--d", "2", "--nz", "4", "--max-refinements", "0"])
    out, _ = _grab(capsys)
    assert code == 2
    assert "converged  = no" in out


def test_point_budget_exits_two(capsys) -> None:
    # nz + 1 dispersion evaluations per value of t: the budget admits two levels
    argv = ["compute", "--s", "1", "--d", "3", "--nz", "20000", "--max-refinements", "60",
            "--rel-tol", "1e-16", "--abs-tol", "1e-300"]
    assert run(argv) == 2
    assert "converged  = no" in _grab(capsys)[0]


@pytest.mark.parametrize("argv", [["--s", "200000", "--d", "2", "--nz", "1"],
                                  ["--s", "1", "--d", "3", "--nz", "1000000000"]])
def test_work_past_the_point_budget_exits_two(capsys, argv) -> None:
    with np.errstate(all="ignore"):
        assert run(["compute", *argv]) == 2
    assert "converged  = no" in _grab(capsys)[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["rectangles", "--nz", "4", "--samples", "1000000000000"],
        ["rectangles", "--nz", "1000000000000"],
        ["rectangles", "--nz", "4", "--k-perp", "nan"],
        ["rectangles", "--s", "100000001", "--nz", "4", "--d", "3", "--samples", "64"],
        ["rectangles", "--s", "2000000000000", "--nz", "4", "--d", "1", "--samples", "64"],
        ["reference", "--s", "1", "--L", "inf"],
        ["mass-expansion", "--am", "0.5", "--d", "1", "--nz", "1", "--orders", "600"],
        # the classify thresholds and the degeneracy of every command but
        # reference are gone: their flags are unknown
        ["classify", "--s", "1", "--d", "2", "--nz-max", "8", "--delta-tail", "inf"],
        ["classify", "--s", "2", "--d", "2", "--nz-max", "8", "--eps-nonzero", "inf", "--eps-zero", "1e-300"],
        ["mass-expansion", "--am", "5", "--d", "3", "--nz", "1", "--g", "2"],
        ["sweep", "--s", "2", "--d", "3", "--nz-max", "8", "--g", "2"],
        ["classify", "--s", "2", "--d", "3", "--nz-max", "8", "--g", "2"],
        ["rectangles", "--s", "2", "--nz", "2", "--g", "2"],
        ["sweep", "--s", "2", "--d", "3", "--nz-max", "1048577"],
        ["classify", "--s", "2", "--d", "3", "--nz-max", "1048577"],
    ],
    ids=[
        "samples-huge", "nz-huge", "k-perp-nan", "rectangles-s-huge-odd", "rectangles-s-huge-even", "L-inf",
        "mass-expansion-light-mass-many-orders", "classify-delta-tail-inf", "classify-eps-nonzero-inf",
        "mass-expansion-g", "sweep-g", "classify-g", "rectangles-g",
        "sweep-nz-max-huge", "classify-nz-max-huge",
    ],
)
def test_unbounded_or_nonfinite_input_exits_one(monkeypatch, capsys, argv) -> None:
    # a MemoryError traceback, NaN areas and a printed -0 before; the huge
    # orders ran past a 20 s timeout or would build 7.28 TiB of kz nodes;
    # 0.5**(1 - 2n) past n = 512 ended in an OverflowError traceback; an inf
    # threshold classified a Lasting and a Remnant branch as Damping; --g 2
    # doubled the massive energy but not the partial sums it was compared with,
    # and rectangles took it and ignored it
    monkeypatch.setattr(latcas.modes, "_joined_modes", lambda *a: pytest.fail("modes generated"))
    assert run(argv) == 1
    out, err = _grab(capsys)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code, value",
    [
        (["--L", "1e-320"], 2, -math.inf),
        (["--L", "1e300"], 0, -0.0),
        (["--s", "100000001"], 2, -math.inf),
        (["--s", "201"], 2, -math.inf),
    ],
    ids=["L-underflows", "L-overflows", "s-huge", "s-201"],
)
def test_reference_past_the_float_range(capsys, argv, code, value) -> None:
    # a ZeroDivisionError, two OverflowError tracebacks and an -inf with exit 0 before
    assert run(["reference", "--s", "1", "--d", "3", *argv]) == code
    out, err = _grab(capsys)
    assert math.copysign(1.0, float(out)) == math.copysign(1.0, value) and float(out) == value
    assert err == ("warning: non-finite reference\n" if code else "")


@pytest.mark.parametrize("argv", [["--s", "1" + "0" * 400 + "1"], ["--d", "1" + "0" * 400]], ids=["s", "d"])
def test_reference_refuses_orders_past_exact_floats(capsys, argv) -> None:
    # an OverflowError traceback before
    assert run(["reference", "--s", "1", "--d", "3", "--L", "1", *argv]) == 1
    out, err = _grab(capsys)
    assert out == "" and err.startswith("error: ") and "2**53" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--s", "1", "--d", "3", "--nz", "2"],
        ["sweep", "--s", "2", "--nz-max", "2"],
        ["rectangles", "--s", "2", "--nz", "1"],
    ],
    ids=["compute", "sweep", "rectangles"],
)
def test_out_with_the_table_format_is_refused(tmp_path, monkeypatch, capsys, argv) -> None:
    # the table went to stdout and --out wrote no file
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--out", "r.txt"]) == 1
    out, err = _grab(capsys)
    assert out == "" and err.startswith("error: ") and "--out" in err
    assert not (tmp_path / "r.txt").exists()
    assert run([*argv, "--out", "r.txt", "--format", "csv"]) == 0
    assert (tmp_path / "r.txt").read_text()


@pytest.mark.parametrize(
    "argv",
    [["--d", "1", "--k-perp", "1", "2", "3", "4", "5"], ["--d", "2", "--k-perp", "0.5", "0.5"], ["--d", "4"]],
    ids=["d1-five-components", "d2-two-components", "d4"],
)
def test_rectangles_honour_d(capsys, argv) -> None:
    # --d was read by nothing: a 1D slab took five transverse components
    assert run(["rectangles", "--s", "2", "--nz", "1", *argv]) == 1
    out, err = _grab(capsys)
    assert out == "" and err.startswith("error: ")
    assert run(["rectangles", "--s", "2", "--nz", "1", "--d", "2", "--k-perp", "0.5"]) == 0


def test_parser_defaults_are_the_library_defaults() -> None:
    cfg = QuadratureConfig()
    parser = latcas.cli.build_parser()
    for argv in (["compute", "--nz", "1"], ["sweep"], ["classify"], ["mass-expansion", "--am", "5", "--nz", "1"]):
        args = parser.parse_args(argv)
        assert (args.max_refinements, args.rel_tol, args.abs_tol) == (
            cfg.max_refinements, cfg.rel_tol, cfg.abs_tol), argv
    assert parser.parse_args(["mass-expansion", "--am", "5", "--nz", "1"]).orders == DEFAULT_ORDERS


def test_nonfinite_result_exits_two(capsys) -> None:
    # am is finite but am**2 overflows: the NaN result must not pass as converged
    with np.errstate(all="ignore"):
        code = run(["compute", "--s", "1", "--am", "1e160", "--d", "1", "--nz", "2"])
    out, _ = _grab(capsys)
    assert code == 2
    assert "converged  = no" in out and "quad_error = inf" in out


def test_nonfinite_result_is_named_without_numpy_warnings(capsys) -> None:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["compute", "--s", "1100", "--d", "1", "--nz", "2"])
    _, err = _grab(capsys)
    assert code == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert len(err.splitlines()) == 1 and "e_cas" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["mass-expansion", "--am", "5", "--d", "1", "--nz", "1", "--orders", "516"], "partial_sum"),
        (["rectangles", "--s", "1", "--am", "1e200", "--nz", "2"], "height, aomega, sum_area, int_area"),
        (["rectangles", "--s", "1", "--am", "1e200", "--nz", "2", "--format", "json"],
         "height, aomega, sum_area, int_area"),
    ],
    ids=["partial-sums", "rectangles", "rectangles-json"],
)
def test_nonfinite_partial_sums_and_areas_exit_two(capsys, argv, names) -> None:
    # the s = 1032 term is past the float range and refused, so the last
    # partial sum is NaN, and am**2 overflows every height: both exited 0
    assert run(argv) == 2
    assert _grab(capsys)[1] == f"warning: non-finite {names}\n"


def test_partial_sums_past_the_first_nan_print_as_one_line(capsys) -> None:
    # every partial sum from K = 516 on is NaN (the s = 1032 term is past
    # the float range); the table printed each of the 2**20 rows
    with np.errstate(all="ignore"):
        assert run(["mass-expansion", "--am", "5", "--d", "1", "--nz", "1", "--orders", "1048576"]) == 2
    lines = _grab(capsys)[0].splitlines()
    assert len(lines) < 600
    assert lines[-2].split()[:2] == ["516", "nan"] and lines[-1] == "K = 517..1048576: nan"


def test_partial_sums_within_the_point_budget_exit_zero(capsys) -> None:
    # in the divergent domain Python's DivergentExpansionWarning, with a source
    # line of cli.py, reached stderr although the table names the domain
    for argv, domain in (
        (["--am", "5", "--d", "3", "--nz", "1", "--orders", "100"], "convergent"),
        (["--am", "0.5", "--d", "1", "--nz", "1", "--orders", "6"], "divergent"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["mass-expansion", *argv]) == 0
        out, err = _grab(capsys)
        assert caught == [] and err == "" and "nan" not in out and f"expansion domain: {domain}" in out


def test_unconverged_rows_say_so_in_every_format(capsys) -> None:
    argv = ["sweep", "--s", "1", "--d", "2", "--nz-max", "3", "--max-refinements", "0"]
    assert run(argv) == 2
    lines = _grab(capsys)[0].splitlines()
    assert [line.split()[-1] for line in lines] == ["converged", "no", "no", "no"]
    assert run(argv + ["--format", "csv"]) == 2
    lines = _grab(capsys)[0].splitlines()
    assert [line.split(",")[-1] for line in lines] == ["converged", "false", "false", "false"]
    assert run(argv + ["--format", "json"]) == 2
    assert [rec["converged"] for rec in json.loads(_grab(capsys)[0])] == [False, False, False]


def test_unresolved_damping_tail_exits_two(capsys) -> None:
    # am=2 in d=3: from nz=14 on, the rounding floor of the pointwise
    # difference passes a tenth of |e_cas|, so those rows are not converged
    assert run(["classify", "--s", "1", "--am", "2", "--d", "3", "--nz-max", "30"]) == 2
    out, err = _grab(capsys)
    lines = out.splitlines()
    assert lines[0] == "Damping" and err == ""
    assert [line.split()[-1] for line in lines[2:]] == ["yes"] * 13 + ["no"] * 17


def test_coeff_past_the_float_range_exits_cleanly(capsys) -> None:
    # nz**alpha passes the float range: NaN values exit 2, finite ones give coeff = inf
    with np.errstate(all="ignore"):
        assert run(["compute", "--s", "1100", "--d", "1", "--nz", "2"]) == 2
        out, err = _grab(capsys)
        assert "coeff      = nan" in out and "Traceback" not in err
        assert run(["compute", "--s", "600", "--d", "1", "--nz", "4"]) == 0
        out, err = _grab(capsys)
        assert "coeff      = inf" in out and "Traceback" not in err


def test_help_exits_zero(capsys) -> None:
    assert run(["--help"]) == 0
    _grab(capsys)


def test_repeat_invocations_are_byte_identical(capsys) -> None:
    run(["sweep", "--s", "4", "--nz-max", "3", "--format", "csv"])
    first, _ = _grab(capsys)
    run(["sweep", "--s", "4", "--nz-max", "3", "--format", "csv"])
    second, _ = _grab(capsys)
    assert first == second


def test_installed_entry_point_runs() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "latcas.cli", "reference", "--s", "4", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"


def _readme_cli_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("latcas ")]


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys) -> None:
    commands = _readme_cli_commands()
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv) == 0, argv
        _grab(capsys)
