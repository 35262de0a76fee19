"""Command-line front end.

Commands::

    bridgestate surfaces ALPHA BETA [--json|--csv]
    bridgestate invariants ALPHA BETA [--json|--csv]
    bridgestate verify (ALPHA BETA | --max-alpha N)
    bridgestate census --max-alpha N [--out PATH] [--out-surfaces PATH]
                       [--json|--csv] [--jobs J]

Exit codes: 0 success, 1 a mathematical consistency check failed,
2 invalid input or I/O failure.
"""

import argparse
import os
import random
import sys

from .census import (
    KNOT_CSV_HEADER,
    census_rows,
    dumps_canonical,
    knot_csv_row,
    report_to_dict,
    rows_to_json,
    rows_to_knot_csv,
    rows_to_surface_csv,
)
from .checks import check_knot, check_negative_control, check_range
from .errors import ConsistencyError, InvalidInputError
from .invariants import full_report
from .surfaces import essential_surfaces, make_knot


def _add_format_flags(parser):
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    fmt.add_argument("--csv", action="store_true", help="emit CSV")


def cmd_surfaces(args) -> int:
    knot = make_knot(args.alpha, args.beta)
    surfaces = essential_surfaces(knot)
    if args.json:
        rows = [
            {
                "terms": list(s.expansion.terms),
                "r": s.expansion.r,
                "orientable": s.orientable,
                "genus2": s.genus_twice,
                "n_plus": s.n_plus,
                "n_minus": s.n_minus,
            }
            for s in surfaces
        ]
        out = {
            "alpha": knot.alpha,
            "beta": knot.beta,
            "surface_count": len(surfaces),
            "surfaces": rows,
        }
        sys.stdout.write(dumps_canonical(out))
    elif args.csv:
        print("alpha,beta,terms,r,orientable,genus2,n_plus,n_minus")
        for s in surfaces:
            print(
                f"{knot.alpha},{knot.beta},"
                f"{';'.join(str(n) for n in s.expansion.terms)},{s.expansion.r},"
                f"{'true' if s.orientable else 'false'},"
                f"{s.genus_twice},{s.n_plus},{s.n_minus}"
            )
    else:
        print(f"{knot}: {len(surfaces)} essential spanning surfaces")
        width = max(len(str(s.expansion)) for s in surfaces)
        for s in surfaces:
            kind = "orientable" if s.orientable else "nonorientable"
            print(
                f"  {str(s.expansion):<{width}}  {kind:<13}  "
                f"genus2={s.genus_twice}  N+={s.n_plus}  N-={s.n_minus}"
            )
    return 0


def cmd_invariants(args) -> int:
    report = full_report(make_knot(args.alpha, args.beta))
    row = report_to_dict(report)
    if args.json:
        sys.stdout.write(dumps_canonical(row))
    elif args.csv:
        print(KNOT_CSV_HEADER)
        print(knot_csv_row(row))
    else:
        knot = report.knot
        print(f"{knot}")
        print(f"  determinant      {report.determinant}")
        print(f"  signature        {report.signature}")
        print(f"  genus2           {report.genus_twice}")
        print(f"  crosscap_genus2  {report.nonorientable_genus_twice}")
        print(f"  alexander        {report.alexander.canonical}")
        print(f"  slopes           {report.slopes}")
        print(f"  surfaces ({len(report.surfaces)}):")
        width = max(len(str(r.surface.expansion)) for r in report.surfaces)
        for r in report.surfaces:
            s = r.surface
            kind = "yes" if s.orientable else "no "
            print(
                f"    {str(s.expansion):<{width}}  orientable={kind}  "
                f"genus2={s.genus_twice}  N+={s.n_plus}  N-={s.n_minus}  "
                f"sigma={r.signature:>3}  slope={r.slope:>4}  "
                f"poly: {r.polynomial.canonical}"
            )
    return 0


def cmd_verify(args) -> int:
    have_knot = args.alpha is not None and args.beta is not None
    have_any = args.alpha is not None or args.beta is not None
    if have_knot == (args.max_alpha is not None) or have_any != have_knot:
        raise InvalidInputError(
            "verify needs either ALPHA BETA or --max-alpha N (not both)"
        )
    if have_knot:
        knot = make_knot(args.alpha, args.beta)
        stats = check_knot(
            knot,
            oracle=True,
            invariance_samples=2,
            rng=random.Random(0),
        )
        stats.checks += check_negative_control()
        print(
            f"pass: {knot} - {stats.surfaces} surfaces, {stats.checks} checks"
        )
    else:
        if args.max_alpha < 3:
            raise InvalidInputError("--max-alpha must be at least 3")
        stats = check_range(
            args.max_alpha,
            oracle=True,
            invariance_samples=1,
            seed=0,
            presentation=True,
        )
        print(
            f"pass: {stats.knots} knots, {stats.surfaces} surfaces, "
            f"{stats.checks} checks (alpha <= {args.max_alpha})"
        )
    return 0


def cmd_census(args) -> int:
    if args.max_alpha < 3:
        raise InvalidInputError("--max-alpha must be at least 3")
    if args.out_surfaces and (
        os.path.abspath(args.out) == os.path.abspath(args.out_surfaces)
    ):
        raise InvalidInputError("--out and --out-surfaces must be different files")
    rows = census_rows(args.max_alpha, jobs=args.jobs)
    surface_total = sum(r["surface_count"] for r in rows)
    files = []
    payload = rows_to_json(rows) if args.json else rows_to_knot_csv(rows)
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        files.append((args.out, payload))
    if args.out_surfaces:
        if args.json:
            surf_payload = rows_to_json(
                [s for r in rows for s in _surface_records(r)]
            )
        else:
            surf_payload = rows_to_surface_csv(rows)
        files.append((args.out_surfaces, surf_payload))
    _write_files(files)
    print(
        f"census: {len(rows)} knots, {surface_total} surfaces "
        f"(alpha <= {args.max_alpha}, {'json' if args.json else 'csv'})",
        file=sys.stderr if args.out == "-" else sys.stdout,
    )
    return 0


def _write_files(files) -> None:
    """Write each (path, text) pair so that on any failure no target is
    created or changed: every text first goes to a temporary file beside
    its target, and the targets are replaced only once all are written."""
    temps = []
    try:
        for path, text in files:
            tmp = f"{path}.tmp{os.getpid()}"
            with open(tmp, "x") as fh:
                temps.append(tmp)
                fh.write(text)
        for (path, _), tmp in zip(files, temps):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _surface_records(row: dict) -> list:
    """Per-surface JSON records, each carrying its knot's (alpha, beta)."""
    out = []
    for s in row["surfaces"]:
        rec = dict(s)
        rec["alpha"] = row["alpha"]
        rec["beta"] = row["beta"]
        out.append(rec)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgestate",
        description=(
            "Exact invariants of the essential spanning surfaces of "
            "2-bridge knots K(alpha, beta)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "surfaces", help="list the essential spanning surfaces of a knot"
    )
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    _add_format_flags(p)
    p.set_defaults(func=cmd_surfaces)

    p = sub.add_parser(
        "invariants",
        help="polynomials, signatures and slopes for one knot",
    )
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    _add_format_flags(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser(
        "verify",
        help="re-derive every invariant along independent routes and compare",
    )
    p.add_argument("alpha", type=int, nargs="?")
    p.add_argument("beta", type=int, nargs="?")
    p.add_argument("--max-alpha", type=int, default=None, metavar="N",
                   help="verify every knot with determinant up to N")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "census", help="tabulate every knot with determinant up to a bound"
    )
    p.add_argument("--max-alpha", type=int, required=True, metavar="N")
    p.add_argument("--out", default="-", metavar="PATH",
                   help="output file ('-' for stdout)")
    p.add_argument("--out-surfaces", default=None, metavar="PATH",
                   help="also write one row per surface to this file")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="worker processes (output is identical for any J)")
    _add_format_flags(p)
    p.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())
