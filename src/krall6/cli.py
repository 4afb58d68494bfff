"""Command-line front end: verification suites and exact artifact dumps.

    krall6 run [SUITE ...] --A 1 --B 2 --nmax 8 [--series-order 20]
               [--seed 987] [--format json|csv] [--out PATH] [--serial]
    krall6 dump poly {K|legendre} N --A .. --B ..
    krall6 dump series LABEL {+1|-1} [--order 20] --A .. --B ..
    krall6 dump matrix {operator|gram|probe|brackets} [--nmax N] --A .. --B ..

`run` may also be invoked implicitly (suite names as the first argument).
Exit status: 0 when no case fails, 1 on any verification failure, 2 on
usage errors.  Output is byte-identical across reruns with the same
configuration; when writing to a file, a single timestamp goes into a
"<out>.meta.json" sidecar, never into the report body.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .concomitant import probe_functions, boundary_condition_functions
from .extension import gkn_symmetry_check, independence_certificate, operator_matrix
from .frobenius import MIN_ORDER, SOLUTION_LABELS, solution_basis
from .inner_products import ExtendedVector, gram_matrix
from .operator import KrallParams, eigen_polynomial, legendre_type
from .polynomials import parse_rational
from .report import bundle_to_json, matrix_to_csv
from .suites import SUITE_NAMES, RunConfig, run_suites

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _add_param_options(parser, with_nmax=True):
    parser.add_argument("--A", default="1", help="parameter A as p/q (positive)")
    parser.add_argument("--B", default="1", help="parameter B as p/q (positive)")
    if with_nmax:
        parser.add_argument("--nmax", type=int, default=8, help="max polynomial index")


def build_parser() -> _Parser:
    parser = _Parser(prog="krall6", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run verification suites")
    run_p.add_argument("suites", nargs="*", default=["all"], metavar="SUITE",
                       help=f"one of: all, {', '.join(SUITE_NAMES)}")
    _add_param_options(run_p)
    run_p.add_argument("--series-order", type=int, default=20, dest="series_order")
    run_p.add_argument("--seed", type=int, default=987, help="seed for the random-polynomial cases")
    run_p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    run_p.add_argument("--out", default=None, help="write output to this path (default stdout)")
    run_p.add_argument("--serial", action="store_true",
                       help="accepted for compatibility; suites always run sequentially")

    dump_p = sub.add_parser("dump", help="dump an exact artifact")
    dump_sub = dump_p.add_subparsers(dest="kind")

    poly_p = dump_sub.add_parser("poly", help="coefficient list of an eigenpolynomial")
    poly_p.add_argument("family", choices=("K", "legendre"))
    poly_p.add_argument("n", type=int)
    _add_param_options(poly_p, with_nmax=False)
    poly_p.add_argument("--out", default=None)

    series_p = dump_sub.add_parser("series", help="Frobenius series terms")
    series_p.add_argument("label", choices=SOLUTION_LABELS)
    series_p.add_argument("endpoint", choices=("+1", "-1"))
    series_p.add_argument("--order", type=int, default=20)
    _add_param_options(series_p, with_nmax=False)
    series_p.add_argument("--out", default=None)

    matrix_p = dump_sub.add_parser("matrix", help="exact matrix as CSV")
    matrix_p.add_argument("which", choices=("operator", "gram", "probe", "brackets"))
    _add_param_options(matrix_p)
    matrix_p.add_argument("--out", default=None)

    return parser


def _parse_param(name: str, text: str):
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise SystemExit(_usage(f"--{name}: {exc}")) from None
    if value <= 0:
        raise SystemExit(_usage(f"{name} must be positive"))
    return value


def _parse_params(args) -> KrallParams:
    return KrallParams(_parse_param("A", args.A), _parse_param("B", args.B))


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w") as handle:
        handle.write(text)
    with open(out_path + ".meta.json", "w") as handle:
        json.dump({"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}, handle)
        handle.write("\n")


def _command_run(args) -> int:
    params = _parse_params(args)
    try:
        config = RunConfig(
            A=params.A,
            B=params.B,
            nmax=args.nmax,
            series_order=args.series_order,
            suites=tuple(args.suites) if args.suites else ("all",),
            seed=args.seed,
        )
        selected = config.selected_suites()
    except ValueError as exc:
        return _usage(str(exc))

    if args.fmt == "csv":
        matrix_suites = {"gram", "operator-matrix"}
        if len(selected) != 1 or selected[0] not in matrix_suites:
            return _usage("--format csv requires exactly one of the suites: gram, operator-matrix")
        if selected[0] == "gram":
            matrix = gram_matrix(config.nmax, config.params)
        else:
            matrix = operator_matrix(config.nmax, config.params)
        _emit(matrix_to_csv(matrix), args.out)
        return 0

    reports = run_suites(config)
    _emit(bundle_to_json(reports), args.out)
    failed = sum(r.failed for r in reports)
    return VERIFICATION_FAILURE if failed else 0


def _command_dump(args) -> int:
    params = _parse_params(args)
    if args.kind == "poly":
        if args.n < 0:
            return _usage("polynomial index must be non-negative")
        if args.family == "K":
            poly = eigen_polynomial(args.n, params)
        else:
            poly = legendre_type(args.n, params.A)[0]
        _emit(poly.format_coeffs() + "\n", args.out)
        return 0
    if args.kind == "series":
        if args.order < MIN_ORDER:
            return _usage(f"series order must be at least {MIN_ORDER}")
        endpoint = 1 if args.endpoint == "+1" else -1
        basis = solution_basis(endpoint, args.order, params)
        sol = next(s for s in basis if s.label == args.label)
        _emit(sol.format_series() + "\n", args.out)
        return 0
    if args.kind == "matrix":
        if args.nmax < 0:
            return _usage("nmax must be non-negative")
        if args.which == "operator":
            matrix = operator_matrix(args.nmax, params)
        elif args.which == "gram":
            matrix = gram_matrix(args.nmax, params)
        else:
            candidates = [ExtendedVector.plain(y) for y in boundary_condition_functions(params)]
            if args.which == "probe":
                probes = [ExtendedVector.plain(p) for p in probe_functions(params)]
                matrix = independence_certificate(candidates, probes, params).rows()
            else:
                matrix = gkn_symmetry_check(candidates, params)["brackets"]
        _emit(matrix_to_csv(matrix), args.out)
        return 0
    return _usage("dump needs one of: poly, series, matrix")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # suite-first shorthand: `krall6 gram --A 1` means `krall6 run gram --A 1`
    if argv and argv[0] not in ("run", "dump", "-h", "--help"):
        argv = ["run"] + argv
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return USAGE_ERROR
    try:
        if args.command == "run":
            return _command_run(args)
        return _command_dump(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except ValueError as exc:
        return _usage(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
