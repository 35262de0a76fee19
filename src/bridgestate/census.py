"""Report serialization and the census sweep.

This module owns the record schema: every record any command writes is
built here, and every CSV row is rendered here from a record.
``surface_record`` holds the combinatorial fields of a surface (terms, r,
orientable, genus2, n_plus, n_minus) for the ``surfaces`` command, and
``report_to_dict`` adds each surface's signature, slope and polynomial to
them for ``invariants`` and ``census``.

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
* JSON is rendered with sorted keys and two-space indentation, so parsing
  and re-dumping a report reproduces it byte for byte.

The census fans per-knot work out to a process pool of at most one worker
per usable CPU; rows are emitted in (alpha, beta) order regardless of
worker count, so output bytes do not depend on --jobs.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor

from .checks import iter_knots
from .errors import ConsistencyError, InvalidInputError
from .invariants import InvariantReport, StatePolynomial, full_report
from .surfaces import EssentialSurface, TwoBridgeKnot, make_knot

KNOT_CSV_HEADER = (
    "alpha,beta,surface_count,signature,genus2,crosscap_genus2,slopes,alexander"
)
SURFACE_LIST_CSV_HEADER = "alpha,beta,terms,r,orientable,genus2,n_plus,n_minus"
SURFACE_CSV_HEADER = SURFACE_LIST_CSV_HEADER + ",signature,slope,poly"


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


def surfaces_to_dict(knot: TwoBridgeKnot, surfaces) -> dict:
    """JSON-ready list of a knot's surfaces (the ``surfaces`` command)."""
    return {
        "alpha": knot.alpha,
        "beta": knot.beta,
        "surface_count": len(surfaces),
        "surfaces": [surface_record(s) for s in surfaces],
    }


def report_to_dict(report: InvariantReport) -> dict:
    """JSON-ready form of a full report (plain ints, strings, bools)."""
    knot = report.knot
    surfaces = []
    for sr in report.surfaces:
        rec = surface_record(sr.surface)
        rec["signature"] = sr.signature
        rec["slope"] = sr.slope
        rec["poly"] = poly_to_dict(sr.polynomial)
        surfaces.append(rec)
    return {
        "alpha": knot.alpha,
        "beta": knot.beta,
        "determinant": report.determinant,
        "signature": report.signature,
        "genus2": report.genus_twice,
        "crosscap_genus2": report.nonorientable_genus_twice,
        "surface_count": len(report.surfaces),
        "slopes": report.slopes,
        "alexander": poly_to_dict(report.alexander),
        "surfaces": surfaces,
    }


def dumps_canonical(obj) -> str:
    """The one JSON rendering used everywhere (round-trips byte-for-byte)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _join(values) -> str:
    return ";".join(map(str, values))


def knot_csv_row(row: dict) -> str:
    return (
        f"{row['alpha']},{row['beta']},{row['surface_count']},"
        f"{row['signature']},{row['genus2']},{row['crosscap_genus2']},"
        f"{_join(row['slopes'])},{_join(row['alexander']['coeffs_2k'])}"
    )


def _surface_fields(s: dict) -> str:
    """The CSV columns of a ``surface_record``, terms to n_minus."""
    return (
        f"{_join(s['terms'])},{s['r']},"
        f"{'true' if s['orientable'] else 'false'},{s['genus2']},"
        f"{s['n_plus']},{s['n_minus']}"
    )


def surface_csv_rows(row: dict) -> list:
    knot = f"{row['alpha']},{row['beta']}"
    return [
        f"{knot},{_surface_fields(s)},{s['signature']},{s['slope']},"
        f"{_join(s['poly']['coeffs_2k'])}"
        for s in row["surfaces"]
    ]


def surfaces_to_csv(doc: dict) -> str:
    """CSV form of a ``surfaces_to_dict`` document."""
    knot = f"{doc['alpha']},{doc['beta']}"
    lines = [SURFACE_LIST_CSV_HEADER]
    lines.extend(f"{knot},{_surface_fields(s)}" for s in doc["surfaces"])
    return "\n".join(lines) + "\n"


def census_row(alpha: int, beta: int) -> dict:
    """One knot's serialized report, with the census-level invariant check."""
    row = report_to_dict(full_report(make_knot(alpha, beta)))
    if row["slopes"].count(0) != 1:
        raise ConsistencyError(
            f"K({alpha},{beta}) has slopes {row['slopes']}: expected exactly "
            f"one zero (the Seifert surface)"
        )
    return row


def _census_row_star(pair) -> dict:
    return census_row(*pair)


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def census_rows(max_alpha: int, jobs: int = 1) -> list:
    """Serialized reports for every knot with determinant <= max_alpha,
    sorted by (alpha, beta).  Output is independent of ``jobs`` (>= 1;
    more workers than usable CPUs only add cost, so it is clamped)."""
    if jobs < 1:
        raise InvalidInputError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, usable_cpus())
    pairs = list(iter_knots(max_alpha))
    if jobs <= 1:
        return [census_row(a, b) for a, b in pairs]
    chunk = max(1, len(pairs) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_census_row_star, pairs, chunksize=chunk))


def rows_to_knot_csv(rows) -> str:
    return "\n".join([KNOT_CSV_HEADER] + [knot_csv_row(r) for r in rows]) + "\n"


def rows_to_surface_csv(rows) -> str:
    lines = [SURFACE_CSV_HEADER]
    for r in rows:
        lines.extend(surface_csv_rows(r))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return dumps_canonical(list(rows))


def surface_records(rows) -> list:
    """One record per surface of the census rows, each with its knot's
    alpha and beta (the JSON companion file)."""
    return [dict(s, alpha=r["alpha"], beta=r["beta"])
            for r in rows for s in r["surfaces"]]
