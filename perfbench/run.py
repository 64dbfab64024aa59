"""latcas benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload remnant --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; latcas is imported from its src/
and the moment oracle from its tests/. One process, no threads of its own.

--trace 0 times whole passes over the workload's jobs with tracing off and
reports the end-to-end metrics: wall_s (median pass), peak_rss_mb and
setup_s (median cold start of `python -m latcas.cli reference`).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (medians over traced passes; counts must repeat exactly).
Every pass is checked (see workloads.py). The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Spans and a run
record go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 2  # a second, differently ordered pass must reproduce the first
SETUP_SAMPLES = 7
SETUP_CMD = ("-m", "latcas.cli", "reference", "--s", "1", "--d", "3", "--L", "1", "--g", "2")
SETUP_ANSWER = -math.pi**2 / 45.0

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "trace.overhead_frac": "ratio", "fail_frac": "ratio", "unconverged_frac": "ratio",
    "quadrature.useful_frac": "ratio",
    **{m: "count" for m in spans.COUNT_METRICS},
    **{m: "s" for m in spans.LAYER_METRICS if m.endswith("_s")},
}


def load_program():
    """latcas from this checkout's src/ and the oracle from its tests/."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "latcas" / "__init__.py").is_file() or not (tests / "moment_oracle.py").is_file():
        raise SystemExit(f"perfbench: no latcas sources (src/latcas, tests/moment_oracle.py) under {ROOT}")
    for path in (str(tests), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import latcas
    import moment_oracle

    if Path(latcas.__file__).resolve().parent != src / "latcas":
        raise SystemExit(f"perfbench: imported latcas from {latcas.__file__}, not from {src}")
    return latcas, moment_oracle


def measure_setup(samples: int) -> tuple[list[float], list[bool]]:
    """Cold start to a first answer, one fresh interpreter per sample."""
    env = dict(os.environ, PYTHONPATH="src")
    times, oks = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_CMD], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        try:
            ok = proc.returncode == 0 and abs(float(proc.stdout) - SETUP_ANSWER) < 1e-10
        except ValueError:
            ok = False
        oks.append(ok)
    return times, oks


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


class Runner:
    """Runs passes of one workload and tallies its checks."""

    def __init__(self, wl: workloads.Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.rows = 0
        self.unconverged = 0
        self.walls: list[float] = []
        self.errors: list[str] = []

    def order(self, i: int) -> list:
        jobs = list(self.wl.jobs)
        random.Random(f"{self.seed}:{i}").shuffle(jobs)
        return jobs

    def run_pass(self) -> float:
        jobs = self.order(len(self.walls))
        results = {}
        t0 = time.perf_counter()
        for job in jobs:
            try:
                results[job] = self.wl.run_job(job)
            except Exception as exc:  # a failing job is counted, not fatal
                results[job] = exc
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        self.tally(results)
        return wall

    def tally(self, results: dict) -> None:
        wl = self.wl
        for job, result in results.items():
            n = wl.n_results(job)
            checks = [False] * n
            if isinstance(result, Exception):
                self.errors.append(f"{job}: {type(result).__name__}: {result}")
            else:
                fp = wl.fingerprint(result)
                if self.first.setdefault(job, fp) != fp:
                    self.errors.append(f"{job}: output differs from the first pass")
                else:
                    try:
                        checks = (wl.check_job(job, result) + checks)[:n]
                    except Exception as exc:
                        self.errors.append(f"{job}: check raised {type(exc).__name__}: {exc}")
                rows = wl.rows(job, result)
                self.rows += len(rows)
                self.unconverged += sum(not r.converged for r in rows)
            self.count(checks, str(job))
        self.count(wl.check_pass(results), "pass")

    def count(self, checks: list[bool], label: str) -> None:
        bad = checks.count(False)
        self.attempted += len(checks)
        self.failed += bad
        if bad:
            self.errors.append(f"{label}: {bad} of {len(checks)} results outside their reference")


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        targets=spans.TARGETS) -> dict:
    api, oracle = load_program()
    refs = json.loads((HERE / "references.json").read_text())
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "git_sha": git_sha(), "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "latcas": api.__version__, "loadavg_start": os.getloadavg(),
    }
    metrics: dict = {}
    setup_oks: list[bool] = []
    if not trace:
        setup_times, setup_oks = measure_setup(1 if smoke else SETUP_SAMPLES)
        record["setup_samples"] = setup_times
        metrics["setup_s"] = statistics.median(setup_times)

    wl = workloads.WORKLOADS[workload](api, oracle, refs, OUT, smoke)
    runner = Runner(wl, seed)
    tracer = spans.Tracer(targets)
    traced: list[float] = []
    untraced: list[float] = []
    deadline = time.perf_counter() + seconds
    while min(len(untraced), len(traced) if trace else MIN_PASSES) < MIN_PASSES or time.perf_counter() < deadline:
        if trace and len(traced) < len(untraced):
            tracer.begin_pass()
            tracer.install()
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.uninstall()
        else:
            untraced.append(runner.run_pass())
    if not trace:
        metrics["wall_s"] = statistics.median(untraced)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.count(setup_oks, "setup answer")

    fail_frac = runner.failed / runner.attempted
    unconverged_frac = runner.unconverged / runner.rows if runner.rows else 0.0
    if trace:
        per_pass = [tracer.pass_metrics(i) for i in range(len(traced))]
        for name in spans.LAYER_METRICS:
            vals = [p[name] for p in per_pass]
            if name in spans.COUNT_METRICS:
                metrics[name] = vals[0]
                runner.count([all(v == vals[0] for v in vals)], f"{name} repeats")
            else:
                metrics[name] = None if vals[0] is None else statistics.median(vals)
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        metrics["fail_frac"] = fail_frac
        metrics["unconverged_frac"] = unconverged_frac
        (OUT / f"{workload}.spans.json").write_text(json.dumps(tracer.dump()))

    record.update(
        loadavg_end=os.getloadavg(), untraced_walls=untraced, traced_walls=traced,
        missing_spans=sorted(tracer.missing), fail_frac=fail_frac,
        unconverged_frac=unconverged_frac, errors=runner.errors[:50],
    )
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    (OUT / f"{workload}.trace{int(trace)}.run.json").write_text(json.dumps({"record": record, **result}, indent=1))
    return {"record": record, **result}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, same code path")
    args = p.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    record = out.pop("record")
    print(json.dumps({"record": record}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
