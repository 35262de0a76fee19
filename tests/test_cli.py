import json
import subprocess
import sys
from pathlib import Path

import pytest

from bridgestate.cli import main


@pytest.fixture
def least_int_digit_limit():
    """Python's least limit on the digits of an int-str conversion, 640,
    for the test; the limit it had is restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-str conversion limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSurfacesCommand:
    def test_figure_eight_listing(self, capsys):
        code, out, _ = run(capsys, "surfaces", "5", "2")
        assert code == 0
        lines = out.splitlines()
        assert "3 essential spanning surfaces" in lines[0]
        assert "[2, 2]" in lines[1] and "orientable" in lines[1]
        assert "[3, -2]" in lines[2] and "nonorientable" in lines[2]
        assert "[-2, 3]" in lines[3]

    def test_trefoil_listing(self, capsys):
        code, out, _ = run(capsys, "surfaces", "3", "1")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_even_alpha_exits_2(self, capsys):
        code, _, err = run(capsys, "surfaces", "4", "1")
        assert code == 2
        assert "odd" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "surfaces", "5", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["surface_count"] == 3
        assert [s["terms"] for s in data["surfaces"]] == [[2, 2], [3, -2], [-2, 3]]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "surfaces", "5", "2", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha,beta,terms,r,orientable,genus2,n_plus,n_minus"
        assert lines[1] == "5,2,2;2,0,true,2,1,1"


class TestInvariantsCommand:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "invariants", "5", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["slopes"] == [-4, 0, 4]
        assert data["determinant"] == 5
        assert data["signature"] == 0
        assert data["alexander"]["coeffs_2k"] == [4, -12, 4]

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run(capsys, "invariants", "7", "3", "--json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_human_table(self, capsys):
        code, out, _ = run(capsys, "invariants", "7", "3")
        assert code == 0
        assert "determinant      7" in out
        assert "[3, -2, 2]" in out

    def test_nine_two_has_the_long_expansion(self, capsys):
        code, out, _ = run(capsys, "invariants", "9", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert [-2, 2, -2, 3] in [s["terms"] for s in data["surfaces"]]
        assert data["surface_count"] == 3

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "invariants", "5", "2", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("alpha,beta,")
        assert lines[1] == "5,2,3,0,2,2,-4;0;4,4;-12;4"

    @pytest.mark.parametrize("fmt", ["--json", "--csv"])
    def test_coefficients_past_the_int_digit_limit(self, capsys,
                                                    least_int_digit_limit,
                                                    fmt):
        # 2**2200 times the Alexander polynomial of K(2201, 1) has
        # 663-digit coefficients
        code, out, _ = run(capsys, "invariants", "2201", "1", fmt)
        assert code == 0
        sys.set_int_max_str_digits(0)  # to parse them
        if fmt == "--json":
            k = json.loads(out)["alexander"]["k"]
        else:
            k = len(out.splitlines()[1].split(",")[7].split(";")) - 1
        assert k == 2200

    def test_consistency_failure_exits_1(self, capsys,
                                         step_minor_signature_plus_1):
        code, _, err = run(capsys, "invariants", "5", "2")
        assert code == 1
        assert "consistency failure" in err


class TestVerifyCommand:
    def test_single_knot(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "2")
        assert code == 0
        assert out.startswith("pass: K(5,2)")

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-alpha", "15")
        assert code == 0
        assert out.startswith("pass:")
        assert "48 knots" in out

    def test_oracle_fault_above_size_8_exits_1(self, capsys,
                                               oracle_negated_above_size_8):
        code, _, err = run(capsys, "verify", "11", "1")
        assert code == 1
        assert err == (
            "consistency failure: recurrence = oracle determinant failed for "
            "[-2, 2, -2, 2, -2, 2, -2, 2, -2, 2] of K(11,1): recurrence "
            "1 - t + t^2 - t^3 + t^4 - t^5 + t^6 - t^7 + t^8 - t^9 + t^10, "
            "oracle "
            "-1 + t - t^2 + t^3 - t^4 + t^5 - t^6 + t^7 - t^8 + t^9 - t^10\n")

    def test_step_fault_above_depth_8_exits_1(
            self, capsys, step_determinant_off_beyond_depth_8):
        code, _, err = run(capsys, "verify", "11", "1")
        assert code == 1
        assert err == (
            "consistency failure: recurrence = oracle determinant failed for "
            "[-2, 2, -2, 2, -2, 2, -2, 2, -2, 2] of K(11,1): recurrence "
            "1 - t + t^2 + t^4 - 3*t^5 + t^6 + t^8 - t^9 + t^10, "
            "oracle "
            "1 - t + t^2 - t^3 + t^4 - t^5 + t^6 - t^7 + t^8 - t^9 + t^10\n")

    def test_signature_fault_above_size_8_exits_1(
            self, capsys, signature_off_by_one_above_size_8):
        code, _, err = run(capsys, "verify", "11", "1")
        assert code == 1
        assert "gave signature" in err

    def test_reported_signature_fault_exits_1(self, capsys,
                                              report_signatures_plus_2):
        code, out, err = run(capsys, "verify", "11", "1")
        assert code == 1
        assert "pass" not in out
        assert "sigma" in err

    def test_reported_polynomial_fault_exits_1(
            self, capsys, report_polynomial_negated_above_size_8):
        code, _, err = run(capsys, "verify", "11", "1")
        assert code == 1
        assert err == (
            "consistency failure: reported polynomial = oracle class failed "
            "for [-2, 2, -2, 2, -2, 2, -2, 2, -2, 2] of K(11,1): reported "
            "-1 + t - t^2 + t^3 - t^4 + t^5 - t^6 + t^7 - t^8 + t^9 - t^10, "
            "oracle "
            "1 - t + t^2 - t^3 + t^4 - t^5 + t^6 - t^7 + t^8 - t^9 + t^10\n")

    def test_fast_check_fault_exits_1(self, capsys, fast_check_fault):
        # K(11,1) has an all-even surface with k = 10 and one with k = 1
        code, out, err = run(capsys, "verify", "11", "1")
        assert code == 1
        assert "pass" not in out
        assert f"{fast_check_fault} failed" in err

    def test_transformed_matrix_fault_exits_1(
            self, capsys, transformations_double_the_matrix):
        code, _, err = run(capsys, "verify", "11", "1")
        assert code == 1
        assert err == (
            "consistency failure: transformed matrix of [11] gave "
            "inequivalent polynomial 11 - 11*t (expected class of "
            "11/2 - 11/2*t)\n")

    def test_presentation_fault_exits_1(self, capsys,
                                        moves_swap_two_polynomials):
        # the orbit of K(5,2) is {2, 3}: the mirror move takes its
        # polynomials to K(5,3), two of them swapped, and verify compares
        # them with the report computed for K(5,3)
        code, out, err = run(capsys, "verify", "--max-alpha", "5")
        assert code == 1
        assert "pass" not in out
        assert err == (
            "consistency failure: mirror_report(K(5,2)) = computed report "
            "failed for K(5,3): terms [-3, 2] have 1 - 3*t + t^2 moved, "
            "3/2 - 2*t + 3/2*t^2 computed\n")

    def test_max_alpha_below_3_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--max-alpha", "2")
        assert code == 2
        assert out == ""
        assert "--max-alpha must be at least 3" in err

    @pytest.mark.parametrize("knot", [["5"], ["5", "3"]])
    def test_positional_with_max_alpha_exits_2(self, capsys, knot):
        code, out, err = run(capsys, "verify", *knot, "--max-alpha", "9")
        assert code == 2
        assert "not both" in err
        assert "pass" not in out

    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2
        code, _, err = run(capsys, "verify", "5", "2", "--max-alpha", "9")
        assert code == 2

    def test_mirror_presentations_flip_signs(self, capsys):
        code, out, _ = run(capsys, "invariants", "7", "3", "--json")
        ours = json.loads(out)
        capsys.readouterr()
        code, out, _ = run(capsys, "invariants", "7", "4", "--json")
        mirror = json.loads(out)
        assert [-s for s in reversed(mirror["slopes"])] == ours["slopes"]
        assert mirror["signature"] == -ours["signature"]


class TestCensusCommand:
    def test_writes_csv_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "census.csv"
        code, out, _ = run(capsys, "census", "--max-alpha", "9", "--out", str(out_path))
        assert code == 0
        assert "census: 18 knots" in out
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("alpha,beta,")
        assert len(lines) == 19
        assert any(line.startswith("5,2,") for line in lines)

    def test_stdout_mode(self, capsys):
        code, out, err = run(capsys, "census", "--max-alpha", "5")
        assert code == 0
        assert out.splitlines()[0].startswith("alpha,beta,")
        assert "census:" in err

    def test_jobs_do_not_change_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "census", "--max-alpha", "19", "--out", str(a))[0] == 0
        assert run(
            capsys, "census", "--max-alpha", "19", "--out", str(b), "--jobs", "3"
        )[0] == 0
        assert a.read_bytes() == b.read_bytes()
        # in a fresh interpreter, where the pool is first imported inside
        # the census
        proc = subprocess.run(
            [sys.executable, "-m", "bridgestate", "census", "--max-alpha",
             "19", "--jobs", "2", "--out", "-"], capture_output=True)
        assert proc.returncode == 0
        assert proc.stdout == a.read_bytes()

    def test_surface_companion_file(self, capsys, tmp_path):
        out_path = tmp_path / "census.csv"
        surf_path = tmp_path / "surfaces.csv"
        code, _, _ = run(
            capsys,
            "census", "--max-alpha", "9",
            "--out", str(out_path),
            "--out-surfaces", str(surf_path),
        )
        assert code == 0
        lines = surf_path.read_text().splitlines()
        assert lines[0].startswith("alpha,beta,terms,")
        assert len(lines) > 18

    def test_json_census(self, capsys, tmp_path):
        out_path = tmp_path / "census.json"
        code, _, _ = run(
            capsys, "census", "--max-alpha", "9", "--json", "--out", str(out_path)
        )
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert [r["alpha"] for r in rows][:2] == [3, 3]

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "census.csv"
        code, _, err = run(capsys, "census", "--max-alpha", "5", "--out", str(target))
        assert code == 2
        assert "error" in err
        # the message names the target, not the temporary file beside it
        assert str(target) in err
        assert ".tmp" not in err

    def test_max_alpha_validated(self, capsys, tmp_path):
        code, _, err = run(capsys, "census", "--max-alpha", "1")
        assert code == 2
        # checked after the temporary files are opened: none may be left
        code, _, err = run(capsys, "census", "--max-alpha", "1",
                           "--out", str(tmp_path / "k.csv"))
        assert code == 2
        assert "--max-alpha must be at least 3" in err
        assert list(tmp_path.iterdir()) == []

    def test_zero_slope_fault_exits_1(self, capsys, tmp_path,
                                      census_slopes_without_a_zero):
        code, _, err = run(capsys, "census", "--max-alpha", "5",
                           "--out", str(tmp_path / "k.csv"))
        assert code == 1
        assert "K(3,1) has slopes [6]: expected exactly one zero" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_exit_2(self, capsys, jobs):
        code, _, err = run(capsys, "census", "--max-alpha", "5", "--jobs", jobs)
        assert code == 2
        assert "jobs must be at least 1" in err

    def test_jobs_clamped_to_usable_cpus(self, capsys, tmp_path, monkeypatch):
        import concurrent.futures

        import bridgestate.census as census

        cpus = census.usable_cpus()
        real_pool = concurrent.futures.ProcessPoolExecutor
        sizes = []

        def pool(max_workers):
            # refuse before starting a worker if the clamp is missing
            assert max_workers <= cpus
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "census", "--max-alpha", "19", "--out", str(a),
                   "--jobs", "1")[0] == 0
        assert run(capsys, "census", "--max-alpha", "19", "--out", str(b),
                   "--jobs", "64")[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert sizes == ([cpus] if cpus > 1 else [])

    def test_failed_write_leaves_targets_untouched(self, capsys, tmp_path):
        # the knot file is written first; the surface file then cannot be
        # created, so neither target may be created or changed
        knots = tmp_path / "knots.csv"
        knots.write_text("previous run\n")
        surfaces = tmp_path / "no-such-dir" / "surfaces.csv"
        code, _, err = run(capsys, "census", "--max-alpha", "9",
                           "--out", str(knots), "--out-surfaces", str(surfaces))
        assert code == 2
        assert "error" in err
        assert knots.read_text() == "previous run\n"
        assert not surfaces.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["knots.csv"]

    def test_directory_target_exits_2_before_writing(self, capsys, tmp_path):
        # the knot file could be replaced before renaming onto the
        # directory failed, so a directory target is refused up front
        knots = tmp_path / "knots.csv"
        knots.write_text("previous run\n")
        (tmp_path / "surf").mkdir()
        code, _, err = run(capsys, "census", "--max-alpha", "9",
                           "--out", str(knots),
                           "--out-surfaces", str(tmp_path / "surf"))
        assert code == 2
        assert "is a directory" in err
        assert knots.read_text() == "previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["knots.csv",
                                                              "surf"]
        assert list((tmp_path / "surf").iterdir()) == []

    def test_one_path_for_both_files_exits_2(self, capsys, tmp_path):
        target = str(tmp_path / "census.csv")
        code, _, err = run(capsys, "census", "--max-alpha", "5",
                           "--out", target, "--out-surfaces", target)
        assert code == 2
        assert "different files" in err
        assert list(tmp_path.iterdir()) == []

    def test_one_file_through_a_symlink_exits_2(self, capsys, tmp_path):
        # two names of one file: replacing both would turn the link into a
        # regular file holding one table and leave the other in the target
        target, link = tmp_path / "a.csv", tmp_path / "l.csv"
        target.write_text("previous run\n")
        link.symlink_to(target.name)
        code, _, err = run(capsys, "census", "--max-alpha", "5",
                           "--out", str(target), "--out-surfaces", str(link))
        assert (code, err) == (
            2, "error: --out and --out-surfaces must be different files\n")
        assert link.is_symlink() and link.readlink() == Path("a.csv")
        assert target.read_text() == "previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv",
                                                              "l.csv"]

    def test_symlinked_targets_are_written_through(self, capsys, tmp_path,
                                                   monkeypatch):
        # the links stay links and the files they name get the tables; a
        # failed run leaves those files as they were
        import bridgestate.census as census
        from bridgestate import ConsistencyError

        def census_into(where):
            return run(capsys, "census", "--max-alpha", "9", "--out",
                       str(where / "k"), "--out-surfaces", str(where / "s"))[0]

        def tree():
            return {p.relative_to(tmp_path).as_posix():
                    p.readlink() if p.is_symlink() else p.read_bytes()
                    for p in tmp_path.rglob("*") if not p.is_dir()}

        real, links, direct = (tmp_path / d for d in ("real", "l", "direct"))
        for d in (real, links, direct):
            d.mkdir()
        for name in ("k", "s"):
            (real / name).write_text("previous run\n")
            (links / name).symlink_to(Path("..", "real", name))
        before = tree()

        def fault(knot):
            raise ConsistencyError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(census, "full_report", fault)
            assert census_into(links) == 1
        assert tree() == before
        assert census_into(links) == census_into(direct) == 0
        after = tree()
        assert {p: after[p] for p in before if p.startswith("l/")} == {
            "l/k": Path("../real/k"), "l/s": Path("../real/s")}
        assert after["real/k"] == after["direct/k"] != before["real/k"]
        assert after["real/s"] == after["direct/s"] != before["real/s"]
        assert sorted(after) == sorted([*before, "direct/k", "direct/s"])

    def test_stdout_surface_file_exits_2_before_computing(
            self, capsys, tmp_path, monkeypatch):
        # '-' means stdout for --out only; as --out-surfaces it would name
        # a file '-' in the working directory
        import bridgestate.cli as cli

        def not_reached(*args, **kwargs):
            raise AssertionError("the census was computed")

        monkeypatch.setattr(cli, "census_rows", not_reached)
        monkeypatch.chdir(tmp_path)
        for out in ("k.csv", "-"):
            code, _, err = run(capsys, "census", "--max-alpha", "5",
                               "--out", out, "--out-surfaces", "-")
            assert code == 2
            assert "only valid for --out" in err
        assert list(tmp_path.iterdir()) == []

    def test_failure_before_write_creates_no_file(self, capsys, tmp_path,
                                                   monkeypatch):
        import bridgestate.census as census
        from bridgestate import ConsistencyError

        def broken(row, as_json, with_surfaces):
            raise ConsistencyError("injected")

        monkeypatch.setattr(census, "render_knot", broken)
        knots, surfaces = tmp_path / "k.csv", tmp_path / "s.csv"
        code, _, _ = run(capsys, "census", "--max-alpha", "9",
                         "--out", str(knots), "--out-surfaces", str(surfaces))
        assert code == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_failure_on_the_first_knot_writes_nothing_to_stdout(
            self, capsys, monkeypatch, fmt):
        # the CSV header or '[' goes out only with the first knot's rows
        import bridgestate.census as census
        from bridgestate import ConsistencyError

        def broken(row, as_json, with_surfaces):
            raise ConsistencyError("injected")

        monkeypatch.setattr(census, "render_knot", broken)
        code, out, err = run(capsys, "census", "--max-alpha", "9",
                             "--out", "-", *fmt)
        assert code == 1
        assert "injected" in err
        assert out == ""

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failure_mid_sweep_leaves_targets_untouched(
            self, capsys, tmp_path, monkeypatch, jobs, fmt):
        # pool workers are forked after the patch, so they see it too;
        # K(13,5) is the least of its orbit {5, 8}, so its report is
        # computed and K(13,8)'s is built from its own walk
        import bridgestate.census as census
        from bridgestate import ConsistencyError

        real_report = census.full_report
        real_pass = census._report_pass

        def computed(knot):
            if (knot.alpha, knot.beta) == (13, 5):
                raise ConsistencyError("injected at K(13,5)")
            return real_report(knot)

        def moved(knot, polys):  # the census passes polys to moved builds
            if (knot.alpha, knot.beta) == (13, 8):
                raise ConsistencyError("injected at K(13,8)")
            return real_pass(knot, polys)

        knots, surfaces = tmp_path / "knots", tmp_path / "surfaces"
        knots.write_text("previous knots\n")
        surfaces.write_text("previous surfaces\n")
        for name, fault, knot in (("full_report", computed, "K(13,5)"),
                                  ("_report_pass", moved, "K(13,8)")):
            with monkeypatch.context() as patch:
                patch.setattr(census, name, fault)
                code, _, err = run(
                    capsys, "census", "--max-alpha", "19", "--out", str(knots),
                    "--out-surfaces", str(surfaces), "--jobs", jobs, *fmt)
            assert code == 1
            assert f"injected at {knot}" in err
            assert knots.read_text() == "previous knots\n"
            assert surfaces.read_text() == "previous surfaces\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["knots",
                                                                  "surfaces"]

    @pytest.mark.parametrize("fault", [
        "mirror_drops_a_nonorientable_surface",
        "inverse_without_negation_for_even_k"])
    def test_presentation_map_fault_exits_1(self, capsys, tmp_path, request,
                                            fault):
        # in the census, the faulty move's polynomials go to terms the walk
        # of the knot they reach does not have, or miss one it has; verify
        # compares them with the reports it computes: 2**2 = -1 mod 5, so
        # K(5,3) is the inverse presentation of K(5,2) as well as its mirror
        census_knot, identity = {
            "mirror_drops_a_nonorientable_surface": (
                "K(15,11)",
                "mirror_report(K(15,4)) = computed report failed for "
                "K(15,11)"),
            "inverse_without_negation_for_even_k": (
                "K(7,3)",
                "inverse_report(K(5,2)) = computed report failed for K(5,3)"),
        }[fault]
        request.getfixturevalue(fault)
        code, _, err = run(capsys, "census", "--max-alpha", "35",
                           "--out", str(tmp_path / "k.csv"),
                           "--out-surfaces", str(tmp_path / "s.csv"))
        assert code == 1
        assert "walk = moved surfaces failed for " in err
        assert f" of {census_knot}: " in err
        assert list(tmp_path.iterdir()) == []
        code, out, err = run(capsys, "verify", "--max-alpha", "19")
        assert code == 1
        assert out == ""
        assert f"consistency failure: {identity}: terms " in err

    def test_stdout_knots_with_dash_named_surface_file(self, capsys, tmp_path,
                                                       monkeypatch):
        # './-' is a file; only a bare '-' for --out means stdout
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "census", "--max-alpha", "9",
                             "--out", "-", "--out-surfaces", "./-")
        assert code == 0
        assert out.splitlines()[0].startswith("alpha,beta,surface_count,")
        assert "census: 18 knots" in err
        lines = (tmp_path / "-").read_text().splitlines()
        assert lines[0].startswith("alpha,beta,terms,")
        assert len(lines) > 18
        assert [p.name for p in tmp_path.iterdir()] == ["-"]


POOL_MODULES = """
import sys

started = set(sys.modules)  # a site hook may preload modules

import contextlib
import io
import json

import bridgestate.cli as cli

loaded = [set(sys.modules) - started]
for argv in (["verify", "5", "2"], ["invariants", "5", "2", "--json"],
             ["census", "--max-alpha", "9", "--jobs", "1"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        assert cli.main(argv) == 0, argv
    loaded.append(set(sys.modules) - started)
print(json.dumps([
    sorted(m for m in names
           if m.split(".")[0] in ("concurrent", "multiprocessing"))
    for names in loaded
]))
"""


def test_commands_without_a_pool_do_not_import_it():
    # concurrent.futures and multiprocessing take about 20 ms of every
    # start-up when imported with the package
    proc = subprocess.run([sys.executable, "-c", POOL_MODULES],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # after the import, then after each of the three commands
    assert json.loads(proc.stdout) == [[], [], [], []]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bridgestate", "invariants", "5", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["determinant"] == 5


def test_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["surfaces", "five", "2"])
    assert exc.value.code == 2
