"""Command-line front end.

Commands::

    bridgestate surfaces ALPHA BETA [--json|--csv]
    bridgestate invariants ALPHA BETA [--json|--csv]
    bridgestate verify (ALPHA BETA | --max-alpha N)
    bridgestate census --max-alpha N [--out PATH] [--out-surfaces PATH]
                       [--json|--csv] [--jobs J]

Exit codes: 0 success, 1 a mathematical consistency check failed,
2 invalid input or I/O failure.  The CLI parses the arguments, dispatches
to a command and buffers stdout; every record it writes is rendered in
``census``.  ``surfaces`` and ``invariants`` read the streamed walk in
every format, and each passes the renderer its format flag picks to one
``writelines``; in JSON, and ``surfaces`` in CSV, each surface is written
as the walk yields it, so when they exit 1 stdout holds what was written
before the failure.  Every command writes stdout through a buffer; when
Python runs unbuffered (``python -u``), the CLI adds one of
``io.DEFAULT_BUFFER_SIZE`` bytes.
"""

import argparse
import contextlib
import io
import os
import sys
from itertools import chain

from .census import (
    census_rows,
    report_csv,
    report_json,
    report_text,
    surfaces_json,
    surfaces_text,
    surfaces_to_csv,
)
from .checks import check_knot, check_negative_control, check_range
from .errors import ConsistencyError, InvalidInputError
from .invariants import stream_report
from .surfaces import make_knot, stream_surfaces


def _add_format_flags(parser):
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    fmt.add_argument("--csv", action="store_true", help="emit CSV")


def cmd_surfaces(args) -> int:
    knot = make_knot(args.alpha, args.beta)
    count, surfaces = stream_surfaces(knot)
    sys.stdout.writelines(
        surfaces_json(knot, surfaces, count) if args.json
        else surfaces_to_csv(knot, surfaces) if args.csv
        else surfaces_text(knot, surfaces, count))
    return 0


def cmd_invariants(args) -> int:
    report = stream_report(make_knot(args.alpha, args.beta))
    sys.stdout.writelines(
        chain(report_json(report), "\n") if args.json
        else report_csv(report) if args.csv else report_text(report))
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
        stats = check_knot(knot, oracle=True, invariance_samples=2)
        stats.checks += check_negative_control()
        print(
            f"pass: {knot} - {stats.surfaces} surfaces, {stats.checks} checks"
        )
    else:
        stats = check_range(args.max_alpha, oracle=True,
                            invariance_samples=1)
        print(
            f"pass: {stats.knots} knots, {stats.surfaces} surfaces, "
            f"{stats.checks} checks (alpha <= {args.max_alpha})"
        )
    return 0


def cmd_census(args) -> int:
    if args.out_surfaces == "-":
        raise InvalidInputError("'-' (stdout) is only valid for --out")
    to_stdout = args.out == "-"
    if args.out_surfaces and not to_stdout and (
        os.path.realpath(args.out) == os.path.realpath(args.out_surfaces)
    ):
        raise InvalidInputError("--out and --out-surfaces must be different files")
    paths = [] if to_stdout else [args.out]
    if args.out_surfaces:
        paths.append(args.out_surfaces)
    for path in paths:
        if os.path.isdir(path):
            raise InvalidInputError(f"{path} is a directory, not a file")
    with _replaced_on_success(paths) as files:
        knot_total, surface_total = census_rows(
            args.max_alpha, [sys.stdout] + files if to_stdout else files,
            jobs=args.jobs, as_json=args.json)
        if to_stdout:
            # a closed pipe fails here, before the summary is printed and
            # before a surface file replaces its target
            sys.stdout.flush()
    print(
        f"census: {knot_total} knots, {surface_total} surfaces "
        f"(alpha <= {args.max_alpha}, {'json' if args.json else 'csv'})",
        file=sys.stderr if to_stdout else sys.stdout,
    )
    return 0


@contextlib.contextmanager
def _replaced_on_success(paths):
    """Open a temporary file beside each target path and yield the list of
    them.  The targets are replaced by their temporary files only when the
    block succeeds; on any failure the temporary files are removed, so no
    target is created or changed."""
    temps = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                tmp = f"{path}.tmp{os.getpid()}"
                try:
                    files.append(stack.enter_context(open(tmp, "x")))
                except OSError as exc:  # name the target the user gave
                    raise OSError(exc.errno, exc.strerror, path) from None
                temps.append(tmp)
            yield files
        for path, tmp in zip(paths, temps):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


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
    # coefficients pass the 4,300 digits Python >= 3.10.7 converts by default
    # once a surface has about 14,280 bands; argv is parsed under that limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        with _buffered_stdout():
            status = args.func(args)
        sys.stdout.flush()  # a reader that has gone is an I/O failure too
        return status
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            _discard_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 2


@contextlib.contextmanager
def _buffered_stdout():
    """Put an unbuffered stdout (``python -u``, ``PYTHONUNBUFFERED``) behind
    a buffer while a command runs.  Its text layer hands every write to the
    raw file, one system call per piece of output, and ignores the count the
    call returns: a write into a pipe whose reader goes away part-way is cut
    short without an error.  A ``BufferedWriter`` gathers writes into blocks
    of ``io.DEFAULT_BUFFER_SIZE`` bytes, passes a longer piece straight on,
    writes the rest of a short write again and raises what that meets.
    What it holds is written when the block ends, also when it ends with an
    error; if that write fails, the buffer is closed with the raw file under
    it and the error propagates."""
    stdout = sys.stdout
    raw = getattr(stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):  # buffered, or a stand-in
        yield
        return
    text = io.TextIOWrapper(io.BufferedWriter(raw), encoding=stdout.encoding,
                            errors=stdout.errors)
    sys.stdout = text
    try:
        yield
    finally:
        sys.stdout = stdout
        try:
            text.detach().detach()  # writes what is pending, keeps raw open
        except OSError:
            with contextlib.suppress(OSError):
                text.close()
            raise


def _discard_stdout():
    """Point stdout at the null device, so that what it still buffers for a
    closed pipe does not fail a second time when the interpreter exits."""
    with contextlib.suppress(OSError, ValueError):
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def entry_point():
    sys.exit(main())
