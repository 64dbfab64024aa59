"""Spans around latcas calls, installed from outside the package.

The tracer rebinds each target function in every latcas module namespace
that holds it, so calls made by the package itself (report -> casimir_energy,
casimir -> integrate_bz_multi, ...) are traced as well as the benchmark's
own calls. Spans are kept in memory as (name, start, end, parent) and
written out when the run ends.

Targets on private names are best effort: a name that no longer exists
leaves its metrics null and the run goes on.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Target(NamedTuple):
    module: str  # module that defines the function
    attr: str
    span: str


TARGETS = (
    Target("latcas.casimir", "casimir_energy", "casimir.energy"),
    Target("latcas.casimir", "_mode_sum", "casimir.mode_sum"),
    Target("latcas.casimir", "_kz_average", "casimir.kz_average"),
    Target("latcas.casimir", "_node_kernels", "casimir.node_kernels"),
    Target("latcas.casimir", "_omega_inplace", "model.dispersion"),
    Target("latcas.modes", "generate_modes", "modes.generate"),
    Target("latcas.quadrature", "integrate_bz_multi", "quadrature.integrate"),
    Target("latcas.report", "sweep", "report.sweep"),
    Target("latcas.report", "emit", "report.emit"),
    Target("latcas.classify", "classify_rows", "classify.rows"),
    Target("latcas.massexp", "remnant_partial_sums", "massexp.partial_sums"),
)

# layer metric -> (span whose wrapper produces it, how it is read off a pass)
LAYER_METRICS = {
    "casimir.calls": ("casimir.energy", "calls"),
    "casimir.energy_s": ("casimir.energy", "time"),
    "casimir.integrand_s": ("quadrature.integrate", "integrand"),
    "casimir.mode_sum_s": ("casimir.mode_sum", "time"),
    "casimir.kz_average_s": ("casimir.kz_average", "time"),
    "casimir.node_kernels_s": ("casimir.node_kernels", "time"),
    "casimir.kz_nodes_max": ("casimir.node_kernels", "count"),
    "model.dispersion_evals": ("model.dispersion", "count"),
    "model.dispersion_s": ("model.dispersion", "time"),
    "modes.generate_s": ("modes.generate", "time"),
    "quadrature.points": ("quadrature.integrate", "count"),
    "quadrature.levels": ("quadrature.integrate", "count"),
    "quadrature.useful_frac": ("quadrature.integrate", "useful"),
    "quadrature.self_s": ("quadrature.integrate", "self"),
    "report.sweep_s": ("report.sweep", "time"),
    "report.emit_s": ("report.emit", "time"),
    "classify.rows_s": ("classify.rows", "time"),
    "massexp.partial_sums_s": ("massexp.partial_sums", "time"),
}
COUNT_METRICS = ("casimir.calls", "casimir.kz_nodes_max", "model.dispersion_evals",
                 "quadrature.points", "quadrature.levels")

_INTEGRAND = "casimir.integrand"


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Installs wrappers around TARGETS; collects one span list per pass."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing: set[str] = set()
        self.patched: list = []
        self.passes: list[list] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "latcas" or name.startswith("latcas.")]
        for t in self.targets:
            home = sys.modules.get(t.module)
            orig = getattr(home, t.attr, None)
            if orig is None:
                self.missing.add(t.span)
                continue
            wrapper = self._wrapper(t.span, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self.patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self.patched):
            setattr(mod, attr, orig)
        self.patched.clear()

    def begin_pass(self) -> None:
        self.passes.append([])
        self.counts.append(defaultdict(int))

    def _span(self, name, fn, *args, **kwargs):
        spans = self.passes[-1]
        idx = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            spans[idx] = (name, start, time.perf_counter(), parent)

    def _wrapper(self, span, orig):
        if span == "quadrature.integrate":
            return functools.wraps(orig)(lambda *a, **k: self._integrate(orig, *a, **k))

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts = self.counts[-1]
            if span == "model.dispersion":
                counts["model.dispersion_evals"] += int(np.size(_arg(args, kwargs, 1, "v")))
            elif span == "casimir.node_kernels":
                m = int(_arg(args, kwargs, 0, "m"))
                nodes = 2 * m if _arg(args, kwargs, 1, "odd", False) else m
                counts["casimir.kz_nodes_max"] = max(counts["casimir.kz_nodes_max"], nodes)
            return self._span(span, orig, *args, **kwargs)

        return wrapper

    def _integrate(self, orig, f, d, cfg, *args, **kwargs):
        counts = self.counts[-1]

        def integrand(pts):
            counts["quadrature.points"] += int(pts.shape[0])
            return self._span(_INTEGRAND, f, pts)

        r = self._span("quadrature.integrate", orig, integrand, d, cfg, *args, **kwargs)
        ndim = d - 1
        n = r.points_per_axis
        counts["quadrature.levels"] += 1 if ndim == 0 else round(math.log2(n / cfg.base_points)) + 1
        counts["quadrature.final_points"] += n**ndim
        return r

    def pass_metrics(self, i: int) -> dict:
        """Layer metrics of traced pass i; null where a target is missing."""
        time_by, calls_by = defaultdict(float), defaultdict(int)
        for name, start, end, _ in self.passes[i]:
            time_by[name] += end - start
            calls_by[name] += 1
        counts = self.counts[i]
        out = {}
        for metric, (span, kind) in LAYER_METRICS.items():
            if span in self.missing:
                out[metric] = None
            elif kind == "time":
                out[metric] = time_by[span]
            elif kind == "calls":
                out[metric] = calls_by[span]
            elif kind == "count":
                out[metric] = counts[metric]
            elif kind == "integrand":
                out[metric] = time_by[_INTEGRAND]
            elif kind == "self":
                out[metric] = time_by[span] - time_by[_INTEGRAND]
            elif kind == "useful":
                pts = counts["quadrature.points"]
                out[metric] = counts["quadrature.final_points"] / pts if pts else 0.0
        return out

    def dump(self) -> list:
        return [[list(s) for s in spans] for spans in self.passes]
