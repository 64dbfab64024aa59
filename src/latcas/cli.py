"""Command-line interface.

Every subcommand is a thin adapter over the library; identical parameters
give identical results. There is no randomness anywhere, so repeated
invocations are byte-identical.

Exit codes: 0 success, 1 invalid arguments, 2 quadrature non-convergence
or a non-finite reference value, mass-expansion partial sum or rectangles
quantity.
Result rows print in the columns of CSV_COLUMNS in every format, so
a non-converged row says so in the table, CSV and JSON alike. Non-finite
results are named in one stderr line instead of raw numpy warnings.

The module imports no numpy: each command that computes on arrays imports
the numeric layers when it runs, so reference, --help and usage errors
answer without loading them.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from typing import Sequence

from .continuum import ContinuumParams, continuum_casimir
from .model import (CSV_COLUMNS, DEFAULT_ORDERS, BoundaryCondition, CasimirResult, DispersionSpec, Geometry,
                    QuadratureConfig, _row_values)

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2); we map usage errors to 1
        raise _UsageError(message)


def _add_quadrature_flags(p: argparse.ArgumentParser) -> None:
    cfg = QuadratureConfig()  # the library's defaults
    p.add_argument("--max-refinements", type=int, default=cfg.max_refinements,
                   help="tanh-sinh step halvings allowed for odd orders (default %(default)s)")
    p.add_argument("--rel-tol", type=float, default=cfg.rel_tol,
                   help="relative tolerance on the integral (default %(default)s)")
    p.add_argument("--abs-tol", type=float, default=cfg.abs_tol,
                   help="absolute tolerance floor (default %(default)s)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", default="-", help="output path, or - for stdout")


def _quad_config(args: argparse.Namespace) -> QuadratureConfig:
    return QuadratureConfig(max_refinements=args.max_refinements, rel_tol=args.rel_tol, abs_tol=args.abs_tol)


def _spec(args: argparse.Namespace) -> DispersionSpec:
    return DispersionSpec(s=args.s, am=args.am)


def _print_result(r: CasimirResult, d: int, s: int) -> None:
    alpha = (d - 1) + s
    print(f"e0_sum     = {r.e0_sum:.12g}")
    print(f"e0_int     = {r.e0_int:.12g}")
    print(f"e_cas      = {r.e_cas:.12g}")
    print(f"coeff      = {r.coeff:.12g}  (alpha = {alpha})")
    print(f"quad_error = {r.quad_error:.6g}")
    print(f"converged  = {'yes' if r.converged else 'no'}")


# (width, format) of each CSV_COLUMNS cell in the sweep and classify tables
_TABLE_CELLS = ((4, ""), (22, ".15g"), (22, ".15g"), (22, ".15g"), (22, ".15g"), (12, ".3g"), (9, ""))


def _table_cell(v, width: int, spec: str) -> str:
    if isinstance(v, bool):
        v = "yes" if v else "no"
    return f"{v:>{width}{spec}}"


def _rows_table(rows: Sequence[CasimirResult]) -> str:
    lines = [" ".join(_table_cell(name, w, "") for name, (w, _) in zip(CSV_COLUMNS, _TABLE_CELLS))]
    for r in rows:
        lines.append(" ".join(_table_cell(v, *cell) for v, cell in zip(_row_values(r), _TABLE_CELLS)))
    return "\n".join(lines)


def _exit_code(rows: Sequence[CasimirResult], **more: Sequence[float]) -> int:
    """0 when every row converged and every value of more is finite, else 2;
    the non-finite fields of rows and quantities of more are named in one
    stderr line."""
    values = [_row_values(r) for r in rows]
    fields = [name for i, name in enumerate(CSV_COLUMNS) if not all(math.isfinite(v[i]) for v in values)]
    others = [name for name, vs in more.items() if not all(map(math.isfinite, vs))]
    if fields or others:
        print(f"warning: non-finite {', '.join(fields + others)}", file=sys.stderr)
    return 0 if all(r.converged for r in rows) and not others else 2


def _numeric(handler):
    """Run a command that computes on arrays with numpy's floating-point
    warnings off; its non-finite results are reported by _exit_code."""

    @functools.wraps(handler)
    def run_quietly(args: argparse.Namespace) -> int:
        import numpy as np

        with np.errstate(all="ignore"):
            return handler(args)

    return run_quietly


@_numeric
def _cmd_compute(args: argparse.Namespace) -> int:
    from .casimir import casimir_energy
    from .report import emit

    spec = _spec(args)
    r = casimir_energy(spec, Geometry(args.d, args.nz), BoundaryCondition(args.bc), _quad_config(args))
    if args.format == "table":
        _print_result(r, args.d, spec.s)
    else:
        emit([r], args.format, args.out)
    return _exit_code([r])


@_numeric
def _cmd_sweep(args: argparse.Namespace) -> int:
    from .report import emit, sweep

    nzs = range(args.nz_min, args.nz_max + 1)
    rows = sweep(_spec(args), args.d, BoundaryCondition(args.bc), nzs, _quad_config(args))
    if args.format == "table":
        print(_rows_table(rows))
    else:
        emit(rows, args.format, args.out)
    return _exit_code(rows)


@_numeric
def _cmd_classify(args: argparse.Namespace) -> int:
    from .classify import classify_behavior

    c = classify_behavior(_spec(args), args.d, BoundaryCondition(args.bc), args.nz_max, _quad_config(args))
    if c.n_max is not None:
        print(f"{c.kind.value} n_max={c.n_max}")
    elif c.coeff_limit is not None:
        print(f"{c.kind.value} coeff_limit={c.coeff_limit:.12g}")
    else:
        print(c.kind.value)
    print(_rows_table(c.rows))
    return _exit_code(c.rows)


@_numeric
def _cmd_mass_expansion(args: argparse.Namespace) -> int:
    from .casimir import casimir_energy
    from .massexp import DivergentExpansionWarning, convergence_check, remnant_partial_sums

    report = convergence_check(args.am, args.d)  # rejects am <= 0 before any energy
    spec = DispersionSpec(1, am=args.am)
    geom = Geometry(args.d, args.nz)
    bc = BoundaryCondition(args.bc)
    cfg = _quad_config(args)
    with warnings.catch_warnings():  # the table names a divergent domain
        warnings.simplefilter("ignore", DivergentExpansionWarning)
        partials = remnant_partial_sums(args.am, geom, bc, args.orders)  # refuses bad orders before any energy
    massive = casimir_energy(spec, geom, bc, cfg)
    print(f"massive e_cas = {massive.e_cas:.15g}")
    print(f"expansion domain: {'convergent' if report.converges else 'divergent'} "
          f"(margin {report.margin:.4g})")
    print(f"{'K':>3} {'partial_sum':>22} {'difference':>22}")
    for k, p in enumerate(partials, start=1):
        print(f"{k:>3} {p:>22.15g} {p - massive.e_cas:>22.3e}")
        if math.isnan(p) and k < len(partials):  # every later partial sum is NaN too
            print(f"K = {k + 1}..{len(partials)}: nan")
            break
    return _exit_code([massive], partial_sum=partials)


@_numeric
def _cmd_rectangles(args: argparse.Namespace) -> int:
    from .report import emit, rectangle_decomposition

    bc = BoundaryCondition(args.bc)
    dec = rectangle_decomposition(_spec(args), args.nz, bc, tuple(args.k_perp), args.samples, args.d)
    if args.format == "table":
        print(f"{'left':>22} {'width':>22} {'height':>22}")
        for left, width, height in dec.rects:
            print(f"{left:>22.15g} {width:>22.15g} {height:>22.15g}")
        print(f"sum_area = {dec.sum_area:.15g}")
        print(f"int_area = {dec.int_area:.15g}")
    else:
        emit(dec, args.format, args.out)
    return _exit_code([], height=[h for *_, h in dec.rects], aomega=[y for _, y in dec.curve],
                      sum_area=[dec.sum_area], int_area=[dec.int_area])


def _cmd_reference(args: argparse.Namespace) -> int:
    value = continuum_casimir(ContinuumParams(s=args.s, d=args.d, L=args.L, g=args.g))
    print(format(value, ".17g"))
    return _exit_code([], reference=[value])


def build_parser() -> _Parser:
    parser = _Parser(prog="latcas", description="Lattice Casimir energies for power-law dispersions")
    sub = parser.add_subparsers(dest="command", required=True)
    bc_choices = sorted(bc.value for bc in BoundaryCondition)

    def common(p):
        p.add_argument("--s", type=int, default=1, help="dispersion order (0 = flat band)")
        p.add_argument("--am", type=float, default=0.0, help="mass in lattice units (s=1 only)")
        p.add_argument("--d", type=int, default=3, help="spatial dimension (1-3)")
        p.add_argument("--bc", choices=bc_choices, default="periodic")

    p = sub.add_parser("compute", help="one Casimir energy")
    common(p)
    p.add_argument("--nz", type=int, required=True, help="lattice sites along the compact axis")
    _add_quadrature_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("sweep", help="Casimir energy over a thickness range")
    common(p)
    p.add_argument("--nz-min", type=int, default=1)
    p.add_argument("--nz-max", type=int, default=30)
    _add_quadrature_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("classify", help="behavior class over a sweep")
    common(p)
    p.add_argument("--nz-max", type=int, default=30)
    _add_quadrature_flags(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("mass-expansion", help="massive energy vs even-order reconstruction")
    p.add_argument("--am", type=float, required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--bc", choices=bc_choices, default="periodic")
    p.add_argument("--nz", type=int, required=True)
    p.add_argument("--orders", type=int, default=DEFAULT_ORDERS,
                   help="number of expansion terms (default %(default)s)")
    _add_quadrature_flags(p)
    p.set_defaults(handler=_cmd_mass_expansion)

    p = sub.add_parser("rectangles", help="mode rectangles vs dispersion curve")
    common(p)
    p.add_argument("--nz", type=int, required=True)
    p.add_argument("--k-perp", type=float, nargs="*", default=[],
                   help="fixed transverse momentum components (default: none)")
    p.add_argument("--samples", type=int, default=512)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_rectangles)

    p = sub.add_parser("reference", help="continuum closed-form value")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--g", type=int, default=1, help="branch degeneracy multiplier (2 for two branches)")
    p.set_defaults(handler=_cmd_reference)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "format", None) == "table" and args.out != "-":
            parser.error("--out takes --format csv or json; the table prints to stdout")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
