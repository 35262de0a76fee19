"""Streamed ``invariants`` and ``surfaces``: their bytes against a report
collected whole, the closing check against the summary of the expansion
DAG, the size of a JSON piece and the number of writes to stdout."""

import contextlib
import errno
import io
import json
import re

import pytest

from bridgestate.census import (
    KNOT_CSV_HEADER,
    PIECE_INTS,
    knot_csv_row,
    report_csv,
    report_json,
    report_text,
    surfaces_json,
    surfaces_text,
    surfaces_to_csv,
)
from bridgestate.cli import main
from bridgestate.errors import ConsistencyError
from bridgestate.invariants import (
    InvariantReport,
    full_report,
    stream_report,
)
from bridgestate.surfaces import iter_knots, make_knot, stream_surfaces
from oracles import essential_surfaces, report_fields, surface_fields


def run(*argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def collected_invariants(alpha, beta) -> tuple:
    """``invariants --json`` and ``--csv`` of one report collected whole,
    the JSON by the stdlib."""
    report = full_report(make_knot(alpha, beta))
    return (stdlib(report_fields(report)),
            f"{KNOT_CSV_HEADER}\n{knot_csv_row(report)}\n")


def collected_surfaces(alpha, beta) -> tuple:
    """``surfaces --json`` and ``--csv`` of the surfaces listed whole, the
    JSON by the stdlib."""
    knot = make_knot(alpha, beta)
    surfaces = essential_surfaces(knot)
    doc = {"alpha": alpha, "beta": beta, "surface_count": len(surfaces),
           "surfaces": [surface_fields(s) for s in surfaces]}
    return (stdlib(doc),
            "".join(surfaces_to_csv(knot, surfaces)))


def test_streamed_outputs_to_61_equal_the_collected_ones():
    knots = list(iter_knots(61))
    assert len(knots) == 788
    for alpha, beta in knots:
        knot = make_knot(alpha, beta)
        text, csv = collected_invariants(alpha, beta)
        assert "".join(report_json(stream_report(knot))) + "\n" == text
        report = stream_report(knot)
        # drained, the streamed report is the collected one
        fields = {name: getattr(report, name) for name in report._fields}
        fields["surfaces"] = tuple(report.surfaces)
        assert InvariantReport(**fields) == full_report(knot)
        assert len(fields["surfaces"]) == report.surface_count
        assert f"{KNOT_CSV_HEADER}\n{knot_csv_row(report)}\n" == csv
        text, csv = collected_surfaces(alpha, beta)
        count, surfaces = stream_surfaces(knot)
        assert "".join(surfaces_json(knot, surfaces, count)) == text
        assert "".join(surfaces_to_csv(knot, stream_surfaces(knot)[1])) == csv


def test_text_and_csv_renderers_to_61_equal_the_commands():
    # the renderers of a collected report and of surfaces listed whole
    # against the streamed walks the commands render
    for alpha, beta in iter_knots(61):
        knot = make_knot(alpha, beta)
        report = full_report(knot)
        surfaces = essential_surfaces(knot)
        assert run("invariants", alpha, beta) == (
            0, "".join(report_text(report)), "")
        assert run("invariants", alpha, beta, "--csv") == (
            0, "".join(report_csv(report)), "")
        assert run("surfaces", alpha, beta) == (
            0, "".join(surfaces_text(knot, surfaces, len(surfaces))), "")


@pytest.mark.parametrize("alpha,beta", [
    (1475503, 933981),  # the wide and the long knot of deep's seed 7
    (4913, 2457),
    (2489, 2488),  # the long knot of seed 3: its Seifert surface, k = 2,488
])
def test_streamed_deep_knots_equal_the_collected_ones(alpha, beta):
    text, csv = collected_invariants(alpha, beta)
    assert run("invariants", alpha, beta, "--json") == (0, text, "")
    assert run("invariants", alpha, beta, "--csv") == (0, csv, "")
    text, csv = collected_surfaces(alpha, beta)
    assert run("surfaces", alpha, beta, "--json") == (0, text, "")
    assert run("surfaces", alpha, beta, "--csv") == (0, csv, "")


class RawStdout(io.RawIOBase):
    """The file under the stdout of ``python -u``: it keeps the bytes it
    takes and counts its ``write`` calls, one system call each."""

    def __init__(self):
        super().__init__()
        self.data, self.writes = bytearray(), 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


def run_unbuffered(raw, *argv) -> tuple:
    """``run`` with stdout the text layer of ``python -u`` over ``raw``,
    which hands every write straight to it."""
    err = io.StringIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, raw.data.decode(), err.getvalue()


STREAMED = pytest.mark.parametrize("command,alpha,beta,fmt", [
    ("invariants", 1149851, 439204, "--json"),  # 3,329 surfaces
    ("invariants", 4913, 2457, "--json"),  # 2,458 coefficients of ~740 digits
    ("surfaces", 1149851, 439204, "--json"),
    ("surfaces", 1149851, 439204, "--csv"),
])


def collected(command, alpha, beta, fmt) -> str:
    return (collected_invariants if command == "invariants"
            else collected_surfaces)(alpha, beta)[fmt == "--csv"]


@STREAMED
def test_streamed_output_goes_out_in_blocks(command, alpha, beta, fmt):
    # written through, each piece would be a system call of its own; the
    # buffer writes what it holds when the next piece does not fit, so any
    # two writes in a row carry more than io.DEFAULT_BUFFER_SIZE bytes
    raw = RawStdout()
    expected = collected(command, alpha, beta, fmt)
    assert run_unbuffered(raw, command, alpha, beta, fmt) == (0, expected, "")
    assert raw.writes <= 2 * (len(raw.data) // io.DEFAULT_BUFFER_SIZE) + 2


class ReaderGoes(RawStdout):
    """A pipe whose reader goes away once ``limit`` bytes are written: the
    write that reaches the limit is taken in part, as a pipe may take a
    write longer than the 4 KiB it writes whole, and every later write
    fails."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, b):
        room = self.limit - len(self.data)
        if room <= 0:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(b[:room])


@STREAMED
def test_a_reader_gone_during_the_last_write_is_an_io_failure(
        command, alpha, beta, fmt):
    # the rest of a short write is written again, and meets the closed pipe
    expected = collected(command, alpha, beta, fmt)
    code, out, err = run_unbuffered(
        ReaderGoes(len(expected) - 1), command, alpha, beta, fmt)
    assert (code, err) == (2, "error: [Errno 32] Broken pipe\n")
    assert out == expected[:-1]


def ints_in(piece: str) -> int:
    return len(re.findall(r"(?<![\w\"])-?\d+", piece))


def test_no_json_piece_of_the_long_knot_holds_more_than_256_ints():
    # its 2,457-band surface has 2,458 coefficients of about 740 digits
    pieces = list(report_json(stream_report(make_knot(4913, 2457))))
    assert "".join(pieces) + "\n" == collected_invariants(4913, 2457)[0]
    assert PIECE_INTS == 256
    assert max(map(ints_in, pieces)) == PIECE_INTS
    assert ints_in("".join(pieces)) > 2 * 2458


def rendered_before_the_failure(pieces) -> str:
    """The pieces a renderer yields before the walk raises."""
    done = []
    with pytest.raises(ConsistencyError):
        for piece in pieces:
            done.append(piece)
    return "".join(done)


@pytest.mark.parametrize("command", ["invariants", "surfaces"])
@pytest.mark.parametrize("fmt", ["--json", "--csv",
                                 pytest.param(None, id="text")])
def test_a_walk_that_drops_a_leaf_exits_1(walk_drops_a_leaf, command, fmt):
    args = (command, 19, 7, *([fmt] if fmt else []))
    code, out, err = run(*args)
    assert code == 1
    assert "walk = expansion summary failed for K(19,7)" in err
    # every streamed output keeps what was rendered before the failure;
    # the CSV of a report is one row, written after the walk
    if (command, fmt) == ("invariants", "--csv"):
        assert out == ""
        return
    knot = make_knot(19, 7)
    count, surfaces = stream_surfaces(knot)
    report = stream_report(knot)
    pieces = {
        ("invariants", "--json"): report_json(report),
        ("invariants", None): report_text(report),
        ("surfaces", "--json"): surfaces_json(knot, surfaces, count),
        ("surfaces", "--csv"): surfaces_to_csv(knot, surfaces),
        ("surfaces", None): surfaces_text(knot, surfaces, count),
    }[command, fmt]
    assert out and out == rendered_before_the_failure(pieces)
    # a buffer over an unbuffered stdout writes what it holds on the way out
    assert run_unbuffered(RawStdout(), *args) == (code, out, err)


def test_the_seifert_surface_must_be_the_summarys_orientable_one(
        monkeypatch):
    import bridgestate.invariants as inv

    real = inv._expansion_summary

    def faulty(targets):
        summary = real(targets)
        summary[2, 0, 1] = summary.get((2, 0, 1), 0) + 1
        return summary

    monkeypatch.setattr(inv, "_expansion_summary", faulty)
    code, out, err = run("invariants", 5, 2, "--json")
    assert code == 1 and out == ""
    assert "Seifert surface = orientable surface of the summary" in err


def test_the_seifert_surface_must_have_even_genus2(monkeypatch,
                                                   report_pass_fault):
    # the Seifert surface of K(5,2), in both of its places, becomes that
    # of [2, -2, 2], orientable of genus2 3 and signature 3, and the
    # summary's orientable key moves to match: only the parity of genus2
    # is left to see it
    import bridgestate.invariants as inv
    from bridgestate import Expansion, SurfaceReport, make_surface

    odd = make_surface(Expansion((2, -2, 2)))
    seifert = []  # the first report of the pass that runs

    def fault(i, r):
        if i == 0:
            seifert[:] = [r]
        if r is seifert[0]:
            return SurfaceReport(odd, r.polynomial, 3, 0)
        return r

    real = inv._expansion_summary

    def faulty(targets):
        return {(3, 3, 1) if key[2] else key: n
                for key, n in real(targets).items()}

    report_pass_fault(fault)
    monkeypatch.setattr(inv, "_expansion_summary", faulty)
    knot = make_knot(5, 2)
    with pytest.raises(ConsistencyError, match="of even genus2"):
        full_report(knot)
    with pytest.raises(ConsistencyError, match=re.escape(
            "Seifert surface = orientable surface of the summary, of even "
            "genus2, failed for K(5,2): got (3, 3)")):
        for _ in stream_report(knot).surfaces:
            pass
