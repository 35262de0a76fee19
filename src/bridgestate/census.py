"""Report serialization and the census sweep.

Wire formats, fixed here and documented in the README:

* A polynomial serializes as the integer coefficient list of 2**k times its
  canonical representative (k = its degree, min degree always 0).  That
  keeps every file exact and integral; readers divide by 2**k to recover
  the half-integer coefficients.
* Knot CSV header:
  ``alpha,beta,surface_count,signature,genus2,crosscap_genus2,slopes,alexander``
  with ';'-joined lists inside single columns.
* Per-surface CSV (the census companion file) header:
  ``alpha,beta,terms,r,orientable,genus2,n_plus,n_minus,signature,slope,poly``.
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
from .surfaces import make_knot

KNOT_CSV_HEADER = (
    "alpha,beta,surface_count,signature,genus2,crosscap_genus2,slopes,alexander"
)
SURFACE_CSV_HEADER = (
    "alpha,beta,terms,r,orientable,genus2,n_plus,n_minus,signature,slope,poly"
)


def poly_to_dict(sp: StatePolynomial) -> dict:
    return {"min_degree": 0, "k": sp.k, "coeffs_2k": list(sp.coeffs_2k)}


def report_to_dict(report: InvariantReport) -> dict:
    """JSON-ready form of a full report (plain ints, strings, bools)."""
    knot = report.knot
    surfaces = []
    for sr in report.surfaces:
        s = sr.surface
        surfaces.append(
            {
                "terms": list(s.expansion.terms),
                "r": s.expansion.r,
                "orientable": s.orientable,
                "genus2": s.genus_twice,
                "n_plus": s.n_plus,
                "n_minus": s.n_minus,
                "signature": sr.signature,
                "slope": sr.slope,
                "poly": poly_to_dict(sr.polynomial),
            }
        )
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


def surface_csv_rows(row: dict) -> list:
    knot = f"{row['alpha']},{row['beta']}"
    return [
        f"{knot},{_join(s['terms'])},{s['r']},"
        f"{'true' if s['orientable'] else 'false'},{s['genus2']},"
        f"{s['n_plus']},{s['n_minus']},{s['signature']},{s['slope']},"
        f"{_join(s['poly']['coeffs_2k'])}"
        for s in row["surfaces"]
    ]


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
