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
import latcas.massexp
import latcas.report
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

    monkeypatch.setattr(latcas.cli, "casimir_energy", spy)
    monkeypatch.setattr(latcas.massexp, "casimir_energy", spy)
    code = run(["mass-expansion", "--am", "0", "--nz", "1"])
    _, err = _grab(capsys)
    assert code == 1
    assert calls == []
    assert "am must be positive" in err


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
        ["reference", "--s", "1", "--L", "inf"],
    ],
    ids=["samples-huge", "nz-huge", "k-perp-nan", "L-inf"],
)
def test_unbounded_or_nonfinite_input_exits_one(monkeypatch, capsys, argv) -> None:
    # a MemoryError traceback, NaN areas and a printed -0 before
    monkeypatch.setattr(latcas.report, "generate_modes", lambda *a: pytest.fail("modes generated"))
    assert run(argv) == 1
    out, err = _grab(capsys)
    assert out == "" and err.startswith("error: ")


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
