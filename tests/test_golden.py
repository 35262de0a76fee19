"""Golden bytes: the sha256 of every output format on fixed inputs, and
the exact pass lines of ``verify``.

Any change to a record field, its order in CSV, the JSON rendering or the
human table shows up here, so refactors of the record code keep the exact
bytes the command line has always written; a change to the check tallies
shows up in the pass lines.
"""

import hashlib

import pytest

from bridgestate.cli import main


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv,digest", [
    (["surfaces", "19", "7", "--json"],
     "23cb0e5051a4b0f88b200e7b8eb6ca952c6747ea2ffcd07817987fb13d49f4b9"),
    (["surfaces", "19", "7", "--csv"],
     "c04f373a99f7653dd1a91379d54f2bfdba79acbbe44fa12dbb775f7a926bed91"),
    (["invariants", "19", "7", "--json"],
     "2827446bac6833ccf2c8f7169a91ead3ac33b621d944018217bafff5451ec57a"),
    (["invariants", "19", "7", "--csv"],
     "2c9faa71540a1254512af89bc6289c7ea91d348a5678743bad114e972676cd2d"),
    (["invariants", "19", "7"],
     "a190b0672ff2064e67d377eae25f3954b30c6b7aa5de33436ec60e4f0de6ca8a"),
    # a long knot (one surface with k = 2,462) and a wide one (3,329
    # surfaces): the recurrence far past the slot widths it starts with
    (["invariants", "4925", "2463", "--json"],
     "85de51f68ab38f3d94b68d3c22991959a8e274738e2694e4c3486430b1dc5faa"),
    (["invariants", "1149851", "439204", "--json"],
     "96ad9ba79f4b3cbbbf6b4afe917f524267ed491451ed62bd5b8b1d52d488815c"),
    (["surfaces", "19", "7"],
     "45c24dd827515d49b56ffc0f9b79aaf5ac3c1c2dbc0e0884b06ac3a5879b225a"),
    # the same two knots in text, each coefficient printed reduced over
    # 2^k: up to 743 digits in the long one, 3,329 polynomials in the wide
    (["invariants", "4925", "2463"],
     "d196e8836aab08aaeff0ff0dfc6c5711fee10e06599a53a0daf65fb669ff97db"),
    (["invariants", "1149851", "439204"],
     "e6e7004e0f81c8237803f91b3eaea537c232af8a4541a2970906a89a34ec7e70"),
])
def test_single_knot_output(capsys, argv, digest):
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == digest


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt,knots,surfaces", [
    ([], "44a7145fbe1aa04435e089a8076cdaf27eed8585a18e31f0b39fd5fb3c757dca",
     "9de696a64fecabf1d16498a6bca64bb64315b161400a0c061126ffdd9dfc0167"),
    (["--json"],
     "42b3bbf7f13ac70275659543681719deb0cfd89cca46b31156ab57fe3d69fc9d",
     "abd76c4bcd5883daae6283c27890112199aa2a9f1d6b4e21896f535645be2069"),
])
def test_census_files(capsys, tmp_path, fmt, knots, surfaces, jobs):
    k, s = tmp_path / "knots", tmp_path / "surfaces"
    assert main(["census", "--max-alpha", "25", "--out", str(k),
                 "--out-surfaces", str(s), "--jobs", jobs] + fmt) == 0
    capsys.readouterr()
    assert sha256(k.read_bytes()) == knots
    assert sha256(s.read_bytes()) == surfaces


@pytest.mark.parametrize("argv,line", [
    (["verify", "19", "7"], "pass: K(19,7) - 6 surfaces, 92 checks"),
    (["verify", "--max-alpha", "35"],
     "pass: 256 knots, 984 surfaces, 13050 checks (alpha <= 35)"),
])
def test_verify_pass_line(capsys, argv, line):
    # the check tallies, pinned exactly
    assert main(argv) == 0
    assert capsys.readouterr().out == line + "\n"
