"""Command-line front end: verification suites and exact artifact dumps.

    krall6 run [SUITE ...] --A 1 --B 2 --nmax 8 [--series-order 20]
               [--seed 987] [--out PATH] [--serial]
    krall6 dump poly {K|legendre} N --A .. --B ..    (legendre reads --A only)
    krall6 dump series LABEL {+1|-1} [--order 20] --A .. --B ..
    krall6 dump matrix {operator|gram|probe|brackets} [--nmax N] --A .. --B ..

`run` always writes the JSON report bundle and may also be invoked
implicitly (suite names as the first argument); `dump matrix` is the only
CSV output.  Argument ranges are checked once, by the library.  Every
usage error -- one argparse finds, a malformed or out-of-range argument, an
`--out` that cannot be written -- is a ValueError that `main` turns into
exit status 2, so `main` returns 2 and never raises for one.  Exit status:
0 when no case fails, 1 on any verification failure, 2 on usage errors.
Output is byte-identical across reruns with the same configuration; when
writing to a file, a single timestamp goes into a "<out>.meta.json"
sidecar, never into the report body.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .concomitant import probe_functions, boundary_condition_functions
from .extension import gkn_symmetry_check, independence_certificate, operator_matrix
from .frobenius import SOLUTION_LABELS, series_solution
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
        raise ValueError(message)


def _add_param_options(parser, with_nmax=True):
    parser.add_argument("--A", default="1", help="parameter A as p/q (positive)")
    parser.add_argument("--B", default="1", help="parameter B as p/q (positive)")
    if with_nmax:
        parser.add_argument("--nmax", type=int, default=8, help="max polynomial index")


def build_parser() -> _Parser:
    parser = _Parser(prog="krall6", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run verification suites")
    run_p.add_argument("suites", nargs="*", default=["all"], metavar="SUITE",
                       help=f"one of: all, {', '.join(SUITE_NAMES)}")
    _add_param_options(run_p)
    run_p.add_argument("--series-order", type=int, default=20, dest="series_order")
    run_p.add_argument("--seed", type=int, default=987, help="seed for the random-polynomial cases")
    run_p.add_argument("--out", default=None, help="write output to this path (default stdout)")
    run_p.add_argument("--serial", action="store_true",
                       help="accepted for compatibility; suites always run sequentially")

    dump_p = sub.add_parser("dump", help="dump an exact artifact")
    dump_sub = dump_p.add_subparsers(dest="kind", required=True)

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
        return parse_rational(text)
    except ValueError as exc:
        raise ValueError(f"--{name}: {exc}") from None


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as handle:
            handle.write(text)
        with open(out_path + ".meta.json", "w") as handle:
            json.dump({"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}, handle)
            handle.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _command_run(args) -> int:
    config = RunConfig(
        A=_parse_param("A", args.A),
        B=_parse_param("B", args.B),
        nmax=args.nmax,
        series_order=args.series_order,
        suites=tuple(args.suites),
        seed=args.seed,
    )
    reports = run_suites(config)
    _emit(bundle_to_json(reports), args.out)
    failed = sum(r.failed for r in reports)
    return VERIFICATION_FAILURE if failed else 0


def _command_dump(args) -> int:
    A = _parse_param("A", args.A)
    if args.kind == "poly" and args.family == "legendre":
        # the fourth-order instance reads A alone
        _emit(legendre_type(args.n, A)[0].format_coeffs() + "\n", args.out)
        return 0
    params = KrallParams(A, _parse_param("B", args.B))
    if args.kind == "poly":
        _emit(eigen_polynomial(args.n, params).format_coeffs() + "\n", args.out)
        return 0
    if args.kind == "series":
        endpoint = 1 if args.endpoint == "+1" else -1
        sol = series_solution(endpoint, args.label, args.order, params)
        _emit(sol.format_series() + "\n", args.out)
        return 0
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # suite-first shorthand: `krall6 gram --A 1` means `krall6 run gram --A 1`
    if argv and argv[0] not in ("run", "dump", "-h", "--help"):
        argv = ["run"] + argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _command_run(args)
        return _command_dump(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
