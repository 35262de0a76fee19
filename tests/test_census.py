import io
import json

import pytest

from bridgestate import InvalidInputError
from bridgestate.census import (
    KNOT_CSV_HEADER,
    SURFACE_CSV_HEADER,
    census_rows,
    knot_csv_row,
    report_json,
    surface_csv_rows,
)
from bridgestate.invariants import full_report
from bridgestate.surfaces import make_knot


def census_files(max_alpha, jobs=1, as_json=False):
    """The knot and surface files ``census_rows`` writes, as ``census
    --out-surfaces`` writes them, and the (knots, surfaces) counts it
    returns."""
    streams = io.StringIO(), io.StringIO()
    counts = census_rows(max_alpha, streams, jobs=jobs, as_json=as_json)
    return streams[0].getvalue(), streams[1].getvalue(), counts


def test_figure_eight_row():
    row = json.loads("".join(report_json(full_report(make_knot(5, 2)))))
    assert row["alpha"] == 5 and row["beta"] == 2
    assert row["surface_count"] == 3
    assert row["signature"] == 0
    assert row["genus2"] == 2 and row["crosscap_genus2"] == 2
    assert row["slopes"] == [-4, 0, 4]
    assert row["alexander"] == {"min_degree": 0, "k": 2, "coeffs_2k": [4, -12, 4]}


def test_knot_csv_row_rendering():
    report = full_report(make_knot(5, 2))
    assert knot_csv_row(report) == "5,2,3,0,2,2,-4;0;4,4;-12;4"


def test_surface_csv_rows_rendering():
    rows = surface_csv_rows(full_report(make_knot(5, 2)))
    assert rows[0] == "5,2,2;2,0,true,2,1,1,0,0,4;-12;4"
    assert rows[1] == "5,2,3;-2,0,false,2,2,0,2,4,6;-8;6"
    assert rows[2] == "5,2,-2;3,1,false,2,0,2,-2,-4,6;-8;6"


def test_rows_sorted_and_deterministic_across_jobs():
    knots1, surfaces1, _ = census_files(19, jobs=1)
    knots2, surfaces2, _ = census_files(19, jobs=2)
    keys = [tuple(map(int, line.split(",")[:2]))
            for line in knots1.splitlines()[1:]]
    assert keys == sorted(keys)
    assert knots1 == knots2
    assert surfaces1 == surfaces2
    assert census_files(19, jobs=1, as_json=True) == census_files(
        19, jobs=2, as_json=True)


def test_headers():
    csv, scsv, _ = census_files(5)
    assert csv.splitlines()[0] == KNOT_CSV_HEADER
    assert scsv.splitlines()[0] == SURFACE_CSV_HEADER


def test_every_knot_has_exactly_one_zero_slope():
    for row in json.loads(census_files(61, as_json=True)[0]):
        assert row["slopes"].count(0) == 1
        # the zero belongs to the orientable surface
        seifert = [s for s in row["surfaces"] if s["orientable"]]
        assert len(seifert) == 1 and seifert[0]["slope"] == 0


def test_json_round_trip_bytes():
    payload = census_files(9, as_json=True)[0]
    assert payload == json.dumps(
        json.loads(payload), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("max_alpha, jobs", [
    (5.0, 1), ("5", 1), (None, 1), (5, 2.0), (5, "2"), (1, 1), (5, 0),
])
def test_bounds_outside_the_domain_write_nothing(max_alpha, jobs):
    streams = io.StringIO(), io.StringIO()
    with pytest.raises(InvalidInputError):
        census_rows(max_alpha, streams, jobs=jobs)
    assert [s.getvalue() for s in streams] == ["", ""]
