"""Command-line surface.

Subcommands:

* ``verify``  -- run the full verification pipeline for one (p, n),
* ``descent`` -- run weight-descent traces for given or seeded-random starts,
* ``pseries`` -- print the multiplication-series residue table.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage error
(bad flags, unparseable input, or a configuration refused by the desk-scale
guard).  Reports are JSON by default and deterministic for fixed flags except
for the "timing" block; every report validates against the shipped schema.

Series text format (used in details, defects and traces): terms in canonical
order (graded by total formal degree, ties lexicographic on the exponent
tuple), monomials as ``x``/``a``/``u`` powers with ``^`` and ``*`` separators,
coefficients as decimal residues, compound coefficients parenthesized, e.g.
``x + y + 1*x*y*u1`` or ``(u + u^4)*a^2``.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import DeskScaleExceeded, FglabError
from .report import canonical_json
from .schema import validate_report
from .verify import run_descent_command, run_pseries_command, run_verify

USAGE_EXIT = 2
FAIL_EXIT = 1


def _common_flags(sub):
    sub.add_argument("--p", type=int, required=True, help="the prime (<= 17)")
    sub.add_argument("--n", type=int, required=True, help="height is n + 1; n >= 1")
    sub.add_argument(
        "--u-prec",
        type=int,
        default=32,
        help="u-series precision M (default 32)",
    )
    sub.add_argument(
        "--format",
        choices=["json", "text"],
        default="json",
        help="report format (default json)",
    )
    sub.add_argument(
        "--force",
        action="store_true",
        help="override the desk-scale cost guard",
    )
    sub.add_argument("--out", help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fglab",
        description=(
            "Exact verification of a p-typical formal group law's p-series "
            "congruences, Weierstrass preparation, valuation-ring weights and "
            "the weight-descent loop."
        ),
    )
    parser.add_argument("--version", action="version", version=f"fglab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    v = subs.add_parser("verify", help="run the full verification pipeline")
    _common_flags(v)
    v.add_argument(
        "--x-deg",
        type=int,
        default=0,
        help="formal degree cap (default p^(n+1) + 2)",
    )
    v.add_argument(
        "--check",
        help="only report checks whose name equals or starts with this",
    )

    d = subs.add_parser("descent", help="run weight-descent traces")
    _common_flags(d)
    d.add_argument(
        "--z",
        action="append",
        help="starting series, e.g. 'u^2', '1 + u', or coefficients '0,1,1'; repeatable",
    )
    d.add_argument("--random", type=int, default=0, help="number of seeded random starts")
    d.add_argument("--max-weight", type=int, default=20, help="largest random weight")
    d.add_argument("--seed", type=int, default=0, help="seed for the random starts")

    t = subs.add_parser("pseries", help="multiplication-series residue table")
    _common_flags(t)
    t.add_argument(
        "--i-max",
        type=int,
        default=None,
        help="largest multiplier in the table, >= 0 (default p^2 + 1)",
    )
    return parser


def emit(report, args, check_filter=None) -> int:
    payload = report.to_dict(check_filter)
    errors = validate_report(payload)
    if errors:  # a schema violation is a bug in this tool, not in the math
        print("internal error: report fails its own schema:", file=sys.stderr)
        for e in errors:
            print("  " + e, file=sys.stderr)
        return USAGE_EXIT
    if args.format == "json":
        text = canonical_json(payload)
    else:
        text = report.render_text(check_filter)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.all_ok(check_filter) else FAIL_EXIT


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version.
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            report = run_verify(
                args.p,
                args.n,
                x_deg=args.x_deg,
                u_prec=args.u_prec,
                force=args.force,
            )
            return emit(report, args, args.check)
        if args.command == "descent":
            if not args.z and not args.random:
                print("usage error: descent needs --z and/or --random", file=sys.stderr)
                return USAGE_EXIT
            report = run_descent_command(
                args.p,
                args.n,
                u_prec=args.u_prec,
                z_exprs=args.z,
                random_count=args.random,
                max_weight=args.max_weight,
                seed=args.seed,
                force=args.force,
            )
            return emit(report, args)
        if args.command == "pseries":
            report = run_pseries_command(
                args.p,
                args.n,
                i_max=args.i_max,
                u_prec=args.u_prec,
                force=args.force,
            )
            return emit(report, args)
    except DeskScaleExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except FglabError as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAIL_EXIT
    return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
