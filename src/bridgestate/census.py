"""Report serialization and the census sweep.

This module owns the record schema: every record any command writes is
built here, and every CSV row is rendered here.  ``surface_record`` holds
the combinatorial fields of a surface (terms, r, orientable, genus2,
n_plus, n_minus) for the ``surfaces`` command, and ``report_to_dict`` adds
each surface's signature, slope and polynomial to them for the JSON of
``invariants`` and ``census``.  CSV rows are rendered straight from the
fields of the surfaces and reports, in the column order of the headers.

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
* JSON is rendered by ``canonical_pieces`` alone, with sorted keys and
  two-space indentation: its bytes are those of ``json.dumps(obj, indent=2,
  sort_keys=True)``, so parsing and re-dumping a report reproduces it byte
  for byte.  It streams a report one surface record at a time, and a long
  int list a few hundred elements at a time.  The records of a
  ``StreamedReport`` and of ``surfaces_to_dict`` are generators, so
  ``invariants`` and ``surfaces`` write each surface as the walk yields it
  and keep none.

The census is one streaming pipeline over alpha blocks, the knots of one
determinant in beta order.  K(alpha, beta) and K(alpha, beta') are the same
knot exactly when beta' = beta**(+-1) mod alpha, and K(alpha, alpha - beta)
is its mirror image (Schubert), so a block splits into orbits {beta,
beta^-1, alpha - beta, alpha - beta^-1} of two or four presentations.
``full_report`` runs once per orbit, on its least beta; each other
member's report is built by the report pass of its own knot, given the
state polynomials, which do not depend on the presentation, moved from
that report along a move ``invariants._orbit`` lists
(``invariants._moved_polys``).  Every report, computed or built, must
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
from types import GeneratorType

from .errors import ConsistencyError, InvalidInputError
from .invariants import (
    InvariantReport,
    StatePolynomial,
    StreamedReport,
    _knot_report,
    _moved_polys,
    _orbit,
    _report_pass,
    full_report,
)
from .surfaces import EssentialSurface, TwoBridgeKnot, iter_knots

KNOT_CSV_HEADER = (
    "alpha,beta,surface_count,signature,genus2,crosscap_genus2,slopes,alexander"
)
SURFACE_LIST_CSV_HEADER = "alpha,beta,terms,r,orientable,genus2,n_plus,n_minus"
SURFACE_CSV_HEADER = SURFACE_LIST_CSV_HEADER + ",signature,slope,poly"

_encode_str = None  # json.encoder's string quoting, once JSON is rendered

PIECE_INTS = 256  # the most elements of an int list in one JSON piece


class _Streamed(Exception):
    """A value that ``canonical_pieces`` streams instead of rendering it."""


def poly_to_dict(sp: StatePolynomial) -> dict:
    return {"min_degree": 0, "k": sp.k, "coeffs_2k": list(sp.coeffs_2k)}


def surface_record(s: EssentialSurface) -> dict:
    """The combinatorial fields of one surface, the same in every format."""
    return {
        "terms": list(s.expansion.terms),
        "r": s.expansion.r,
        "orientable": s.orientable,
        "genus2": s.genus_twice,
        "n_plus": s.n_plus,
        "n_minus": s.n_minus,
    }


def surfaces_to_dict(knot: TwoBridgeKnot, surfaces, count: int) -> dict:
    """JSON-ready list of the ``count`` surfaces of a knot (the ``surfaces``
    command), their records a generator over ``surfaces``."""
    return {
        "alpha": knot.alpha,
        "beta": knot.beta,
        "surface_count": count,
        "surfaces": (surface_record(s) for s in surfaces),
    }


def _report_record(sr) -> dict:
    rec = surface_record(sr.surface)
    rec["signature"] = sr.signature
    rec["slope"] = sr.slope
    rec["poly"] = poly_to_dict(sr.polynomial)
    return rec


def report_to_dict(report) -> dict:
    """JSON-ready form of a report (plain ints, strings, bools): the
    surfaces of an ``InvariantReport`` as a list of records, those of a
    ``StreamedReport`` as a generator of them, each built as the walk
    reports its surface."""
    knot = report.knot
    surfaces = (_report_record(sr) for sr in report.surfaces)
    return {
        "alpha": knot.alpha,
        "beta": knot.beta,
        "determinant": report.determinant,
        "signature": report.signature,
        "genus2": report.genus_twice,
        "crosscap_genus2": report.nonorientable_genus_twice,
        "surface_count": report.surface_count,
        "slopes": report.slopes,
        "alexander": poly_to_dict(report.alexander),
        "surfaces": surfaces if isinstance(report, StreamedReport)
        else list(surfaces),
    }


def canonical_pieces(obj, level: int = 0):
    """Yield the canonical JSON text of ``obj`` in pieces: sorted keys and
    two-space indentation, the bytes of ``json.dumps(obj, indent=2,
    sort_keys=True)``.  At level 0 the text is a whole document and ends in
    a newline; at a deeper level it is ``obj`` as it appears at that depth
    of a document, without its leading indentation or a newline.

    A list whose elements include a dict or a list yields each element as
    a piece of its own, and so does a generator, the document or a value
    of its dicts, which renders as a list: so the ``surfaces`` of a report
    stream and no whole document is ever built.  An int list longer than
    ``PIECE_INTS`` goes out ``PIECE_INTS`` elements to a piece, and so does
    the element that holds it.  Only dicts with ``str`` keys, lists, ints,
    strings, bools and None are accepted; anything else raises TypeError.
    """
    global _encode_str
    if _encode_str is None:  # the first JSON output imports the json package
        from json.encoder import encode_basestring_ascii as _encode_str

    # per tuple of keys in insertion order: (key, '"key": ') in sorted order
    heads = {}

    def items(d):
        keys = tuple(d)
        entries = heads.get(keys)
        if entries is None:
            for key in keys:
                if type(key) is not str:
                    raise TypeError(f"JSON object keys must be str, not {key!r}")
            entries = heads[keys] = [(key, _encode_str(key) + ": ")
                                     for key in sorted(keys)]
        return entries

    def render(value, level):
        kind = type(value)
        if kind is int:
            return int.__repr__(value)
        if kind is list:
            if not value:
                return "[]"
            pad = "\n" + "  " * (level + 1)
            if {*map(type, value)} == {int}:  # int.__repr__(True) is 'True'
                if len(value) > PIECE_INTS:
                    raise _Streamed
                body = ("," + pad).join(map(int.__repr__, value))
            else:
                body = ("," + pad).join([render(x, level + 1) for x in value])
            return f"[{pad}{body}\n{'  ' * level}]"
        if kind is dict:
            if not value:
                return "{}"
            pad = "\n" + "  " * (level + 1)
            parts = []  # one join copies a large value once
            sep = "{" + pad
            for key, head in items(value):
                parts += sep, head, render(value[key], level + 1)
                sep = "," + pad
            parts.append("\n" + "  " * level + "}")
            return "".join(parts)
        if kind is str:
            return _encode_str(value)
        if kind is bool:
            return "true" if value else "false"
        if value is None:
            return "null"
        raise TypeError(
            f"{kind.__name__} is not part of the record schema: {value!r}")

    def pieces(value, level):
        kind = type(value)
        if kind is dict and value:
            pad = "\n" + "  " * (level + 1)
            sep = "{" + pad
            for key, head in items(value):
                yield sep + head
                yield from pieces(value[key], level + 1)
                sep = "," + pad
            yield "\n" + "  " * level + "}"
        elif (kind is list and len(value) > PIECE_INTS
              and {*map(type, value)} == {int}):
            pad = "\n" + "  " * (level + 1)
            sep = "[" + pad
            for i in range(0, len(value), PIECE_INTS):
                yield sep + ("," + pad).join(
                    map(int.__repr__, value[i:i + PIECE_INTS]))
                sep = "," + pad
            yield "\n" + "  " * level + "]"
        elif kind is GeneratorType or kind is list and not {
                *map(type, value)}.isdisjoint((dict, list)):
            pad = "\n" + "  " * (level + 1)
            first = sep = "[" + pad
            for x in value:
                yield sep  # apart, so that no element is copied to add it
                try:
                    piece = render(x, level + 1)
                except _Streamed:
                    yield from pieces(x, level + 1)
                else:
                    yield piece
                sep = "," + pad
            yield "[]" if sep is first else "\n" + "  " * level + "]"
        else:
            yield render(value, level)

    yield from pieces(obj, level)
    if level == 0:
        yield "\n"


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


def render_knot(report: InvariantReport, as_json: bool,
                with_surfaces: bool) -> tuple:
    """One knot's census output: its piece of the knot file and its piece
    of the surface file ('' unless ``with_surfaces``).

    A CSV piece is whole lines, each ending in a newline, rendered from
    the report's fields; a JSON piece is list elements separated by a
    comma and a newline, rendered from ``report_to_dict``.  ``census_rows``
    puts the pieces of every knot together into the bytes of one CSV table
    or of one ``canonical_pieces`` list.
    """
    if as_json:
        row = report_to_dict(report)
        records = [dict(s, alpha=row["alpha"], beta=row["beta"])
                   for s in row["surfaces"]] if with_surfaces else []
        knot, *surfaces = ("  " + "".join(canonical_pieces(element, 1))
                           for element in [row] + records)
        return knot, ",\n".join(surfaces)
    lines = surface_csv_rows(report) if with_surfaces else ()
    return knot_csv_row(report) + "\n", "".join(line + "\n" for line in lines)


def _knot_pieces(alpha: int, betas, as_json: bool, with_surfaces: bool):
    """Yield (knot piece, surface piece, surface count) of K(alpha, beta)
    for each beta of the ascending ``betas``, computing the report of the
    least beta of each orbit and building the others' from their own walks
    with its polynomials (see the module docstring)."""
    pending = {}  # beta: the polynomials moved from its orbit's least beta
    for beta in betas:
        knot = TwoBridgeKnot._of(alpha, beta)
        if beta in pending:
            report = _knot_report(knot, _report_pass(knot, pending.pop(beta)))
        else:
            report = full_report(knot)
            pending.update((b, _moved_polys(report, *moves[0][1:]))
                           for b, moves in _orbit(knot).items())
        slopes = report.slopes
        if slopes.count(0) != 1:
            raise ConsistencyError(
                f"{report.knot} has slopes {slopes}: expected exactly one "
                f"zero (the Seifert surface)"
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
