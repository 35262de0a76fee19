"""The canonical JSON renderer: its bytes against the stdlib encoder, its
refusals, how it streams, and a closed stdout."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from bridgestate.census import canonical_pieces, report_to_dict
from bridgestate.checks import iter_knots
from bridgestate.invariants import full_report
from bridgestate.surfaces import make_knot
from oracles import dumps_canonical


def stdlib(doc) -> str:
    """The reference layout: the stdlib's sorted, two-space indented JSON."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [{}], {"a": []}, [1, True], [True, 1],
    [{"a": 1}, {"a": True}], None, False, 0, -2**200, "",
    "quote \" backslash \\ end", "\x00\x01\t\n\r\x1f\x7f", "sé",
    "\u2028", "\U0001f600", {"b": [1, [2, {}], None, "x"], "a": {"c": []}},
    {"é": 1, "e": 2, "": 3, "\"": [False]},
])
def test_explicit_documents_match_the_stdlib(doc):
    assert dumps_canonical(doc) == stdlib(doc)


@pytest.mark.parametrize("doc", [1.5, (1, 2), {1: 2}, [1, 2.0], {"a": {3}}])
def test_values_outside_the_schema_are_refused(doc):
    with pytest.raises(TypeError):
        dumps_canonical(doc)


def test_every_census_record_to_61_matches_the_stdlib():
    knots = list(iter_knots(61))
    assert len(knots) == 788
    for alpha, beta in knots:
        row = report_to_dict(full_report(make_knot(alpha, beta)))
        assert dumps_canonical(row) == stdlib(row)
        for s in row["surfaces"]:
            rec = dict(s, alpha=alpha, beta=beta)
            assert dumps_canonical(rec) == stdlib(rec)


@pytest.fixture(scope="module")
def wide_report():
    # 3,329 surfaces; its JSON report is about 2.9 MB
    return report_to_dict(full_report(make_knot(1149851, 439204)))


def test_the_surfaces_of_a_report_stream(wide_report):
    pieces = list(canonical_pieces(wide_report))
    text = "".join(pieces)
    assert text == stdlib(wide_report)
    # a surface record as it stands in the report
    longest = max(len("".join(canonical_pieces(s, 2)))
                  for s in wide_report["surfaces"])
    assert max(map(len, pieces)) <= longest < len(text) // 1000

    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            sink.writelines(canonical_pieces(wide_report))
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


def run_into_closed_pipe(argv):
    """Run the CLI, buffered, with stdout a pipe closed before it starts."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
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


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_short_census_into_a_closed_pipe_prints_no_summary(fmt):
    # the rows fit in stdout's buffer too, and the flush that meets the
    # closed pipe must come before the summary on stderr
    proc = run_into_closed_pipe(["census", "--max-alpha", "5", *fmt])
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: [Errno 32] Broken pipe\n"
