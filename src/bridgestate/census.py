"""Report serialization and the census sweep.

This module owns the record schema: every record any command writes is
rendered here, straight from the fields of the surfaces and reports, as
JSON, as CSV, or as the text tables of ``surfaces`` and ``invariants``.  A
listed surface (the ``surfaces`` command) holds the combinatorial fields
(terms, r, orientable, genus2, n_plus, n_minus), a reported surface adds
its signature, slope and polynomial, and a knot record holds its report's
values and surfaces.  JSON is written from one template per record kind,
its keys in sorted order, and CSV rows in the column order of the headers.
A text table's first column is the expansion, left-aligned to the widest
one, whose width a walk that keeps nothing finds first (``_text_column``).
So every single-knot output streams: the surfaces of a ``stream_report``
and of ``stream_surfaces`` are generators, and each is written as the walk
yields it and kept by none, except by the one-row CSV of
``invariants --csv``, written once the walk has ended.

Wire formats, fixed here and documented in the README:

* A polynomial serializes as the integer coefficient list of 2**k times its
  canonical representative (k = its degree, min degree always 0).  That
  keeps every file exact and integral; readers divide by 2**k to recover
  the half-integer coefficients.
* Knot CSV header:
  ``alpha,beta,surface_count,signature,genus2,crosscap_genus2,slopes,alexander``
  with ';'-joined lists inside single columns.
* Per-surface CSV (the census companion file) header:
  ``alpha,beta,terms,r,orientable,genus2,n_plus,n_minus,signature,slope,poly``;
  ``surfaces --csv`` writes its first eight columns.
* The JSON companion file is one list of surface records, each with its
  knot's alpha and beta.
* JSON is written by the templates alone, with sorted keys and two-space
  indentation: its bytes are those of ``json.dumps(obj, indent=2,
  sort_keys=True)``, so parsing and re-dumping a report reproduces it byte
  for byte.  They yield a report a surface record at a time, and a long int
  list ``PIECE_INTS`` elements at a time.

The census is one streaming pipeline over alpha blocks, the knots of one
determinant in beta order.  K(alpha, beta) and K(alpha, beta') are the same
knot exactly when beta' = beta**(+-1) mod alpha, and K(alpha, alpha - beta)
is its mirror image (Schubert), so a block splits into orbits {beta,
beta^-1, alpha - beta, alpha - beta^-1} of two or four presentations.
The orbit sweep of ``invariants._orbit_sweep`` walks a block: ``full_report``
runs once per orbit, on its least beta; each other member's report is
built by the report pass of its own knot, given the state polynomials,
which do not depend on the presentation, moved from that report along the
first move the sweep hands it.  Every report, computed or built, must
have exactly one zero slope.  Each knot's rows are rendered in the
requested format (``render_knot``) as soon as its report is ready.  On
one job the blocks run in turn and each knot's pieces are written as they
come; with more jobs one pool task is one alpha block, whose knots'
pieces come back as one list, in a process pool of at most one worker per
usable CPU, and only then is the pool's machinery imported.
``census_rows`` writes the pieces to the knot file and the surface file
in (alpha, beta) order as soon as they arrive, the CSV header or the
opening ``[`` with the first knot's pieces and the closing ``]`` after the
last.  So output bytes do not depend on --jobs, and no table is held in
memory: at most the pieces of a few alpha blocks.
"""

import operator
import os
from contextlib import ExitStack

from .continued_fractions import _expand_target, _targets
from .errors import ConsistencyError, InvalidInputError
from .invariants import (
    InvariantReport,
    StatePolynomial,
    _knot_report,
    _orbit_sweep,
    _report_pass,
    full_report,
)
from .surfaces import EssentialSurface, TwoBridgeKnot, iter_knots

KNOT_CSV_HEADER = (
    "alpha,beta,surface_count,signature,genus2,crosscap_genus2,slopes,alexander"
)
SURFACE_LIST_CSV_HEADER = "alpha,beta,terms,r,orientable,genus2,n_plus,n_minus"
SURFACE_CSV_HEADER = SURFACE_LIST_CSV_HEADER + ",signature,slope,poly"

PIECE_INTS = 256  # the most elements of an int list in one JSON piece

# Every list the JSON templates write is non-empty (a surface has k >= 1
# terms and k + 1 coefficients, a knot at least two surfaces and so a
# slope), so none is the "[]" of an empty list.


def _ints(values, level: int):
    """Yield the JSON of an int list whose brackets stand at indentation
    ``level``: whole when it has at most ``PIECE_INTS`` elements, else
    ``PIECE_INTS`` elements to a piece."""
    pad = "\n" + "  " * (level + 1)
    end = "\n" + "  " * level + "]"
    if len(values) <= PIECE_INTS:
        yield f"[{pad}{(',' + pad).join(map(str, values))}{end}"
        return
    sep = "[" + pad
    for i in range(0, len(values), PIECE_INTS):
        yield sep + ("," + pad).join(map(str, values[i:i + PIECE_INTS]))
        sep = "," + pad
    yield end


def _records(records, level: int):
    """Yield the JSON list, its brackets at indentation ``level``, of
    ``records``, each the pieces of one record."""
    sep = "[\n" + "  " * (level + 1)
    for record in records:
        yield sep
        yield from record
        sep = ",\n" + "  " * (level + 1)
    yield "\n" + "  " * level + "]"


def _poly_json(sp: StatePolynomial, level: int):
    """Yield the JSON of a polynomial, its braces at indentation ``level``."""
    pad = "\n" + "  " * (level + 1)
    yield f'{{{pad}"coeffs_2k": '
    yield from _ints(sp.coeffs_2k, level + 1)
    yield f',{pad}"k": {sp.k},{pad}"min_degree": 0\n{"  " * level}}}'


def _surface_json(s: EssentialSurface, level: int, sr=None, knot=None):
    """Yield the JSON of the surface ``s``, its braces at indentation
    ``level``: its combinatorial fields, the same in every format; given
    its report ``sr``, also its polynomial, signature and slope; given
    ``knot``, also the knot's alpha and beta, as in the census surface
    file."""
    pad = "\n" + "  " * (level + 1)
    e = s.expansion
    yield (
        (f'{{{pad}"alpha": {knot.alpha},{pad}"beta": {knot.beta},'
         if knot is not None else "{")
        + f'{pad}"genus2": {s.genus_twice},{pad}"n_minus": {s.n_minus},'
        f'{pad}"n_plus": {s.n_plus},'
        f'{pad}"orientable": {"true" if s.orientable else "false"},'
    )
    if sr is not None:
        yield f'{pad}"poly": '
        yield from _poly_json(sr.polynomial, level + 1)
        yield ","
    yield f'{pad}"r": {e.r},'
    if sr is not None:
        yield f'{pad}"signature": {sr.signature},{pad}"slope": {sr.slope},'
    yield f'{pad}"terms": '
    yield from _ints(e.terms, level + 1)
    yield "\n" + "  " * level + "}"


def report_json(report, level: int = 0):
    """Yield the JSON of a knot report, its braces at indentation ``level``
    (0 for ``invariants --json``, 1 in a census), each surface as the
    report yields it."""
    knot = report.knot
    pad = "\n" + "  " * (level + 1)
    yield f'{{{pad}"alexander": '
    yield from _poly_json(report.alexander, level + 1)
    yield (
        f',{pad}"alpha": {knot.alpha},{pad}"beta": {knot.beta},'
        f'{pad}"crosscap_genus2": {report.nonorientable_genus_twice},'
        f'{pad}"determinant": {report.determinant},'
        f'{pad}"genus2": {report.genus_twice},'
        f'{pad}"signature": {report.signature},{pad}"slopes": '
    )
    yield from _ints(report.slopes, level + 1)
    yield f',{pad}"surface_count": {report.surface_count},{pad}"surfaces": '
    yield from _records((_surface_json(sr.surface, level + 2, sr)
                         for sr in report.surfaces), level + 1)
    yield "\n" + "  " * level + "}"


def surfaces_json(knot: TwoBridgeKnot, surfaces, count: int):
    """Yield the JSON document of the ``count`` surfaces of a knot (the
    ``surfaces`` command), each surface as ``surfaces`` yields it."""
    yield (f'{{\n  "alpha": {knot.alpha},\n  "beta": {knot.beta},'
           f'\n  "surface_count": {count},\n  "surfaces": ')
    yield from _records((_surface_json(s, 2) for s in surfaces), 1)
    yield "\n}\n"


def _join(values) -> str:
    return ";".join(map(str, values))


def knot_csv_row(report: InvariantReport) -> str:
    """The knot CSV line of ``report``, without its newline, in the column
    order of ``KNOT_CSV_HEADER``."""
    knot = report.knot
    return (
        f"{knot.alpha},{knot.beta},{report.surface_count},"
        f"{report.signature},{report.genus_twice},"
        f"{report.nonorientable_genus_twice},{_join(report.slopes)},"
        f"{_join(report.alexander.coeffs_2k)}"
    )


def _surface_fields(s: EssentialSurface) -> str:
    """The CSV columns of a surface, terms to n_minus."""
    e = s.expansion
    return (
        f"{_join(e.terms)},{e.r},{'true' if s.orientable else 'false'},"
        f"{s.genus_twice},{s.n_plus},{s.n_minus}"
    )


def surface_csv_rows(report: InvariantReport) -> list:
    """The surface CSV lines of ``report``, without newlines, in the
    column order of ``SURFACE_CSV_HEADER``."""
    knot = report.knot
    head = f"{knot.alpha},{knot.beta},"
    return [
        f"{head}{_surface_fields(r.surface)},{r.signature},{r.slope},"
        f"{_join(r.polynomial.coeffs_2k)}"
        for r in report.surfaces
    ]


def surfaces_to_csv(knot: TwoBridgeKnot, surfaces):
    """Yield the CSV lines of a knot's surfaces (the ``surfaces`` command),
    header first, each ending in a newline, one per surface as
    ``surfaces`` yields it."""
    yield SURFACE_LIST_CSV_HEADER + "\n"
    head = f"{knot.alpha},{knot.beta},"
    for s in surfaces:
        yield f"{head}{_surface_fields(s)}\n"


def report_csv(report: InvariantReport):
    """Yield the CSV of ``report`` (``invariants --csv``): its header and
    its row, once the report's surfaces are walked to their end, so every
    check has run before anything is written."""
    for _ in report.surfaces:
        pass
    yield f"{KNOT_CSV_HEADER}\n{knot_csv_row(report)}\n"


def _text_column(knot: TwoBridgeKnot) -> int:
    """The width of the first column of a knot's text table, its widest
    expansion, from one walk of its expansion trees that keeps nothing: an
    expansion prints as its terms in brackets, joined by ", ", so each term
    adds its digits and two.  Known before the first row, it lets a text
    table stream like every other single-knot output."""
    return max(width for p, q in _targets(knot) for _, width in
               _expand_target(p, q, lambda w, j, n: w + len(str(n)) + 2, 0))


def surfaces_text(knot: TwoBridgeKnot, surfaces, count: int):
    """Yield the text table of the ``count`` surfaces of a knot (the
    ``surfaces`` command), each row as ``surfaces`` yields its surface."""
    width = _text_column(knot)
    yield f"{knot}: {count} essential spanning surfaces\n"
    for s in surfaces:
        kind = "orientable" if s.orientable else "nonorientable"
        yield (f"  {s.expansion!s:<{width}}  {kind:<13}  "
               f"genus2={s.genus_twice}  N+={s.n_plus}  N-={s.n_minus}\n")


def report_text(report: InvariantReport):
    """Yield the text table of a knot report (the ``invariants``
    command), each row as the report yields its surface."""
    width = _text_column(report.knot)
    yield (f"{report.knot}\n"
           f"  determinant      {report.determinant}\n"
           f"  signature        {report.signature}\n"
           f"  genus2           {report.genus_twice}\n"
           f"  crosscap_genus2  {report.nonorientable_genus_twice}\n"
           f"  alexander        {report.alexander}\n"
           f"  slopes           {list(report.slopes)}\n"
           f"  surfaces ({report.surface_count}):\n")
    for r in report.surfaces:
        s = r.surface
        yield (f"    {s.expansion!s:<{width}}  "
               f"orientable={'yes' if s.orientable else 'no '}  "
               f"genus2={s.genus_twice}  N+={s.n_plus}  N-={s.n_minus}  "
               f"sigma={r.signature:>3}  slope={r.slope:>4}  "
               f"poly: {r.polynomial}\n")


def render_knot(report: InvariantReport, as_json: bool,
                with_surfaces: bool) -> tuple:
    """One knot's census output: its piece of the knot file and its piece
    of the surface file ('' unless ``with_surfaces``).

    A CSV piece is whole lines, each ending in a newline, rendered from
    the report's fields; a JSON piece is list elements separated by a
    comma and a newline, rendered by ``report_json`` and
    ``_surface_json``.  ``census_rows`` puts the pieces of every knot
    together into the bytes of one CSV table or of one JSON list.
    """
    if as_json:
        knot = report.knot
        surfaces = ",\n".join(
            "  " + "".join(_surface_json(sr.surface, 1, sr, knot))
            for sr in report.surfaces) if with_surfaces else ""
        return "  " + "".join(report_json(report, 1)), surfaces
    lines = surface_csv_rows(report) if with_surfaces else ()
    return knot_csv_row(report) + "\n", "".join(line + "\n" for line in lines)


def _knot_pieces(alpha: int, betas, as_json: bool, with_surfaces: bool):
    """Yield (knot piece, surface piece, surface count) of K(alpha, beta)
    for each beta of the ascending ``betas``, computing the report of the
    least beta of each orbit and building the others' from their own walks
    with its polynomials (``invariants._orbit_sweep``)."""
    def report_of(knot, moved):
        return (full_report(knot) if moved is None else
                _knot_report(knot, _report_pass(knot, moved[0][1])))

    for report in _orbit_sweep(((alpha, beta) for beta in betas), report_of):
        slopes = report.slopes
        if slopes.count(0) != 1:
            raise ConsistencyError(
                f"{report.knot} has slopes {list(slopes)}: expected exactly "
                f"one zero (the Seifert surface)"
            )
        yield (*render_knot(report, as_json, with_surfaces),
               len(report.surfaces))


def _census_row_star(task) -> list:
    """One pool task: the (knot piece, surface piece, surface count) of
    every knot of the alpha block ``task`` names; see ``census_rows``."""
    return list(_knot_pieces(*task))


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def census_rows(max_alpha: int, files, jobs: int = 1,
                as_json: bool = False) -> tuple:
    """Write the census of every knot with determinant <= max_alpha (>= 3):
    the knot table to ``files[0]`` and, given a second file, the surface
    table to ``files[1]``.  Each knot's pieces (see ``render_knot``) are
    written in (alpha, beta) order as soon as they are ready, those of a
    whole alpha block at once from a pool, the first ones after the CSV
    header or '[', and the end of a JSON list follows the last.  Nothing
    is written before the first knot is ready, so a census that fails on
    it writes nothing, and no buffered output exists yet when the pool
    forks its workers.  Returns the number of knots and of surfaces.  The
    bytes are independent of ``jobs`` (>= 1; more workers than usable CPUs
    only add cost, so it is clamped)."""
    knots = iter_knots(max_alpha)
    try:
        jobs = operator.index(jobs)
    except TypeError:
        raise InvalidInputError(
            f"jobs must be an integer, got {jobs!r}") from None
    if jobs < 1:
        raise InvalidInputError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, usable_cpus())
    betas_of = {}  # the alpha blocks
    for alpha, beta in knots:
        betas_of.setdefault(alpha, []).append(beta)
    tasks = [(alpha, betas, as_json, len(files) > 1)
             for alpha, betas in betas_of.items()]
    if as_json:
        heads, sep, tail = ("[\n", "[\n"), ",\n", "\n]\n"
    else:
        heads = (KNOT_CSV_HEADER + "\n", SURFACE_CSV_HEADER + "\n")
        sep = tail = ""
    surface_total = 0
    with ExitStack() as stack:
        if jobs > 1:
            # imported here: concurrent.futures and multiprocessing cost
            # every other command about 20 ms of start-up
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=jobs)
            # on a failure, blocks not yet started are dropped, not computed
            stack.callback(pool.shutdown, cancel_futures=True)
            # one alpha block to a task (map's default chunksize): the
            # largest blocks come last, so every worker is busy to the end;
            # blocks finished ahead of the one being written wait in memory
            blocks = pool.map(_census_row_star, tasks)
        else:
            blocks = (_knot_pieces(*task) for task in tasks)
        # every knot has at least two surfaces, so no piece is empty
        for *pieces, count in (knot for block in blocks for knot in block):
            for fh, head, piece in zip(files, heads, pieces):
                fh.write(head + piece)
            heads = (sep, sep)
            surface_total += count
    for fh in files:
        fh.write(tail)
    return sum(len(task[1]) for task in tasks), surface_total
