"""Command-line front end.

Subcommands: multiplicity, predict-order, deflate, solve, matrix.
Reports go to stdout (text or JSON), diagnostics to stderr. Exit codes:
0 success, 1 parse error, 2 numerical failure or out of memory, 3 dimension
mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .deflate import DEFAULT_COEFF_TOL, deflation_matrix, predict_order
from .dual import DEFAULT_MAX_DEGREE, dual_space_dz, dual_space_st
from .errors import AlreadyRegularError, DimensionMismatchError, DualDeflateError
from .errors import OrderTooLowError, ParseError
from .linalg import DEFAULT_RANK_TOL
from .parsing import parse_point, parse_system, serialize_system
from .solver import DriverConfig, deflation_driver, refine

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NUMERICAL = 2
EXIT_DIMENSION = 3


def _cnum(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _common_flags(p: argparse.ArgumentParser, point: bool = True):
    """The system file and --format; with ``point``, the point file and the
    rank tolerance of the decisions made there."""
    p.add_argument("system", help="system file ('-' for stdin)")
    if point:
        p.add_argument("point", help="point file")
        p.add_argument("--tol-rank", type=float, default=DEFAULT_RANK_TOL)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _order(text: str):
    """The --order value: auto, first, or an integer."""
    if text in ("auto", "first"):
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid --order value {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dualdeflate",
        description="Multiplicity structure and deflation of singular polynomial roots",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiplicity", help="dual-space multiplicity at a point")
    _common_flags(p)
    p.add_argument("--method", choices=("dz", "st"), default="dz")
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)

    p = sub.add_parser("predict-order", help="predict the deflation order")
    _common_flags(p)
    p.add_argument("--tol-coeff", type=float, default=DEFAULT_COEFF_TOL)
    p.add_argument("--seed", type=int, default=DriverConfig.seed)

    deflate = sub.add_parser("deflate", help="one deflation step")
    solve = sub.add_parser("solve", help="deflate until regular, then refine")
    for p in (deflate, solve):
        _common_flags(p)
        p.add_argument(
            "--order", type=_order, default="auto", help="auto, first, or an integer"
        )
        p.add_argument("--tol-coeff", type=float, default=DEFAULT_COEFF_TOL)
        p.add_argument("--seed", type=int, default=DriverConfig.seed)
    solve.add_argument("--max-stages", type=int, default=DriverConfig.max_stages)

    p = sub.add_parser("matrix", help="symbolic derivative-matrix dump")
    _common_flags(p, point=False)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--truncated", action="store_true")
    p.add_argument(
        "--rows", choices=("original", "multiples"), default="original",
        help="row set for --truncated",
    )

    return ap


def _emit(report: dict, fmt: str, timings: dict):
    report["timings"] = timings
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_text(report)


def _print_text(report: dict, indent: int = 0):
    pad = "  " * indent
    for key, value in report.items():
        if key in ("schema_version",):
            continue
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                print(f"{pad}  -")
                _print_text(item, indent + 2)
        else:
            print(f"{pad}{key}: {value}")


def _run_multiplicity(args, report, F, x0):
    fn = dual_space_dz if args.method == "dz" else dual_space_st
    result = fn(F, x0, tol=args.tol_rank, max_d=args.max_degree)
    report.update(
        method=args.method.upper(),
        multiplicity=result.multiplicity,
        degree=result.degree,
        per_degree_dims=list(result.per_degree_dims),
        initial_support=sorted(map(list, result.initial_support)),
        standard_monomials=sorted(map(list, result.initial_support)),
    )
    return EXIT_OK


def _run_predict_order(args, report, F, x0):
    """The driver's order prediction: at the refined point, with the rank
    tolerance that point supports."""
    trace, tol_rank = refine(F, x0, args.tol_rank)
    rng = np.random.default_rng(args.seed)
    pred = predict_order(F, trace.final, tol_rank, args.tol_coeff, rng)
    report.update(order=pred.d, support_degrees=sorted(pred.support_degrees))
    return EXIT_OK


def _augmented_report(aug, stage: int):
    return {
        "kind": aug.kind,
        "order": aug.order,
        "stage": stage,
        "multiplier_count": aug.multiplier_count,
        "equations": aug.system.nequations,
        "variables": aug.system.nvars,
        "system": serialize_system(aug.system),
        "lambda_estimate": [_cnum(z) for z in aug.lambda_estimate],
    }


def _driver_config(args, max_stages: int) -> DriverConfig:
    return DriverConfig(
        order_policy=args.order,
        tol_rank=args.tol_rank,
        tol_coeff=args.tol_coeff,
        max_stages=max_stages,
        seed=args.seed,
    )


def _run_deflate(args, report, F, x0):
    """The driver's first stage."""
    result = deflation_driver(F, x0, _driver_config(args, max_stages=1))
    if not result.stages:
        if result.final_regular:
            raise AlreadyRegularError("Jacobian has full rank at the refined point")
        raise OrderTooLowError("every order tried gave a full-rank derivative matrix")
    report.update(_augmented_report(result.stages[0], 1))
    return EXIT_OK


def _run_solve(args, report, F, x0):
    result = deflation_driver(F, x0, _driver_config(args, args.max_stages))
    residual = float(np.linalg.norm(F.evaluate(result.refined_point)))
    report.update(
        final_regular=result.final_regular,
        stages=[
            _augmented_report(s, k) for k, s in enumerate(result.stages, start=1)
        ],
        stage_count=result.stage_count,
        per_stage_rank=[
            {"rank": r.rank, "corank": r.corank} for r in result.per_stage_rank
        ],
        refined_point=[_cnum(z) for z in result.refined_point],
        extended_point=[_cnum(z) for z in result.extended_point],
        residual=residual,
        iterations=[len(t.iterates) - 1 for t in result.traces],
    )
    return EXIT_OK if result.final_regular else EXIT_NUMERICAL


def _run_matrix(args, report, F, x0):
    M = deflation_matrix(
        F,
        args.order,
        multiples=not args.truncated or args.rows == "multiples",
        top=args.truncated,
    )
    report.update(
        rows=M.shape[0],
        cols=M.shape[1],
        row_labels=[[list(alpha), j] for alpha, j in M.row_labels],
        col_labels=[list(b) for b in M.col_labels],
        entries=[[e.to_string(F.var_names) for e in row] for row in M.entries],
    )
    return EXIT_OK


_RUNNERS = {
    "multiplicity": _run_multiplicity,
    "predict-order": _run_predict_order,
    "deflate": _run_deflate,
    "solve": _run_solve,
    "matrix": _run_matrix,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report: dict = {"schema_version": SCHEMA_VERSION, "command": args.command}
    tolerances = {k: getattr(args, k) for k in ("tol_rank", "tol_coeff") if k in args}
    if tolerances:
        report["tolerances"] = tolerances
    if hasattr(args, "seed"):
        report["seed"] = args.seed
    start = time.perf_counter()
    try:
        F = parse_system(_read(args.system))
        x0 = parse_point(_read(args.point), F) if "point" in args else None
        code = _RUNNERS[args.command](args, report, F, x0)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (DualDeflateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL
    timings = {"total_seconds": time.perf_counter() - start}
    try:
        _emit(report, args.format, timings)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send what is left to devnull, so that the
        # interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
