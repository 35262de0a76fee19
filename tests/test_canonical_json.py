"""The JSON record templates: their bytes against the stdlib encoder, how
they stream, and a closed stdout."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from bridgestate.census import _surface_json, report_json
from bridgestate.checks import iter_knots
from bridgestate.invariants import full_report
from bridgestate.surfaces import make_knot
from oracles import report_fields


def stdlib(doc) -> str:
    """The reference layout: the stdlib's sorted, two-space indented JSON."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_every_census_record_to_61_matches_the_stdlib():
    knots = list(iter_knots(61))
    assert len(knots) == 788
    for alpha, beta in knots:
        report = full_report(make_knot(alpha, beta))
        row = report_fields(report)
        assert "".join(report_json(report)) + "\n" == stdlib(row)
        for sr, rec in zip(report.surfaces, row["surfaces"]):
            rec = dict(rec, alpha=alpha, beta=beta)
            assert "".join(_surface_json(sr.surface, 0, sr, report.knot)
                           ) + "\n" == stdlib(rec)


@pytest.fixture(scope="module")
def wide_report():
    # 3,329 surfaces; its JSON report is about 2.9 MB
    return full_report(make_knot(1149851, 439204))


def test_the_surfaces_of_a_report_stream(wide_report):
    pieces = list(report_json(wide_report))
    text = "".join(pieces) + "\n"
    assert text == stdlib(report_fields(wide_report))
    # a surface record as it stands in the report
    longest = max(len("".join(_surface_json(sr.surface, 2, sr)))
                  for sr in wide_report.surfaces)
    assert max(map(len, pieces)) <= longest < len(text) // 1000

    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            sink.writelines(report_json(wide_report))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < len(text) // 20


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    ["invariants", "1149851", "439204", "--json"],
    ["census", "--max-alpha", "99", "--json"],
    # about 245 KB of CSV, whose one write lost the error after a partial
    # write until its lines were written one by one
    ["surfaces", "1149851", "439204", "--csv"],
])
def test_closed_stdout_exits_2_with_one_error_line(argv, unbuffered):
    # buffered, output may still sit in stdout's buffer when the reader is
    # gone; with PYTHONUNBUFFERED one large write used to lose the error
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "bridgestate", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert len(os.read(proc.stdout.fileno(), 10)) > 0
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def run_into_closed_pipe(argv, unbuffered=""):
    """Run the CLI with stdout a pipe closed before it starts, buffered
    unless ``unbuffered`` is the value to give PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "bridgestate", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env)
    finally:
        os.close(write_end)


def test_stdout_closed_before_a_short_report_exits_2():
    # the whole report fits in stdout's buffer, so only the flush at the
    # end meets the closed pipe
    proc = run_into_closed_pipe(["invariants", "5", "2", "--json"])
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: [Errno 32] Broken pipe\n"


def test_unbuffered_stdout_closed_before_a_long_report_exits_2():
    # about 1.9 MB, so many blocks: the first write meets the closed pipe,
    # and what the buffer writes again on the way out adds no second error
    proc = run_into_closed_pipe(["invariants", "4913", "2457", "--json"],
                                unbuffered="1")
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_short_census_into_a_closed_pipe_prints_no_summary(fmt):
    # the rows fit in stdout's buffer too, and the flush that meets the
    # closed pipe must come before the summary on stderr
    proc = run_into_closed_pipe(["census", "--max-alpha", "5", *fmt])
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: [Errno 32] Broken pipe\n"
