"""Tests of the benchmark itself, on reduced workload sizes (about a minute).

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _smoke_workload(name: str) -> workloads.Workload:
    api, oracle = run.load_program()
    refs = json.loads((HERE / "references.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](api, oracle, refs, run.OUT, True)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_workload_passes_every_check(name: str) -> None:
    out = run.run(name, seed=1, seconds=0, trace=False, smoke=True)
    assert out["correct"], out["record"]["errors"]
    assert out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_smoke_reports_every_layer_metric() -> None:
    out = run.run("damping", seed=1, seconds=0, trace=True, smoke=True)
    assert out["correct"], out["record"]["errors"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(m["value"] is not None for m in out["metrics"].values())
    assert out["metrics"]["massexp.partial_sums_s"]["value"] > 0


def test_result_shifted_by_ten_quad_errors_is_a_failure() -> None:
    wl = _smoke_workload("sweep_d2")
    plain = wl.run_job

    def shifted(job):
        rows, parsed = plain(job)
        shift = 10 * rows[3].quad_error
        parsed[3]["e_cas"] += shift
        return [dataclasses.replace(r, e_cas=r.e_cas + shift) if r.nz == 4 else r for r in rows], parsed

    wl.run_job = shifted
    runner = run.Runner(wl, seed=0)
    runner.run_pass()
    assert runner.failed == 1
    assert runner.attempted == wl.n_results("sweep")


def test_output_that_changes_between_passes_is_a_failure() -> None:
    class Leaky(workloads.Workload):
        jobs = ["a", "b"]

        def __init__(self):
            self.calls = 0

        def run_job(self, job):
            self.calls += 1
            return float(self.calls > 2 and job == "a")

        def n_results(self, job):
            return 1

        def check_job(self, job, result):
            return [True]

    runner = run.Runner(Leaky(), seed=0)
    runner.run_pass()
    assert runner.failed == 0
    runner.run_pass()
    assert runner.failed == 1


def test_seeds_permute_jobs_but_not_results() -> None:
    results = []
    for seed in (1, 2):
        runner = run.Runner(_smoke_workload("remnant"), seed)
        runner.run_pass()
        assert runner.failed == 0
        results.append((runner.order(0), runner.first))
    (order1, first1), (order2, first2) = results
    assert order1 != order2
    assert first1 == first2


def test_missing_private_name_gives_null_metrics() -> None:
    targets = tuple(t._replace(attr="_gone") if t.attr == "_mode_sum" else t for t in spans.TARGETS)
    out = run.run("damping", seed=1, seconds=0, trace=True, smoke=True, targets=targets)
    assert out["correct"]
    assert out["metrics"]["casimir.mode_sum_s"]["value"] is None
    assert out["metrics"]["casimir.kz_average_s"]["value"] is not None


def test_counts_repeat_exactly_across_traced_runs() -> None:
    counts = []
    for seed in (1, 2):
        out = run.run("remnant", seed=seed, seconds=0, trace=True, smoke=True)
        assert out["correct"]
        counts.append({m: out["metrics"][m]["value"] for m in spans.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_fails_without_the_program(tmp_path: Path) -> None:
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bench / f.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "remnant", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
