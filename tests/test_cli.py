import json
import subprocess
import sys

import pytest

from bridgestate.cli import main


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

    def test_consistency_failure_exits_1(self, capsys, monkeypatch):
        import bridgestate.invariants as inv

        monkeypatch.setattr(inv, "_minor_signature", lambda terms: 10**6)
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
        assert "recurrence = oracle determinant" in err

    def test_signature_fault_above_size_8_exits_1(
            self, capsys, signature_off_by_one_above_size_8):
        code, _, err = run(capsys, "verify", "11", "1")
        assert code == 1
        assert "gave signature" in err

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

    def test_max_alpha_validated(self, capsys):
        code, _, err = run(capsys, "census", "--max-alpha", "1")
        assert code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_exit_2(self, capsys, jobs):
        code, _, err = run(capsys, "census", "--max-alpha", "5", "--jobs", jobs)
        assert code == 2
        assert "jobs must be at least 1" in err

    def test_jobs_clamped_to_usable_cpus(self, capsys, tmp_path, monkeypatch):
        import bridgestate.census as census

        cpus = census.usable_cpus()
        real_pool = census.ProcessPoolExecutor
        sizes = []

        def pool(max_workers):
            # refuse before starting a worker if the clamp is missing
            assert max_workers <= cpus
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(census, "ProcessPoolExecutor", pool)
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

    def test_one_path_for_both_files_exits_2(self, capsys, tmp_path):
        target = str(tmp_path / "census.csv")
        code, _, err = run(capsys, "census", "--max-alpha", "5",
                           "--out", target, "--out-surfaces", target)
        assert code == 2
        assert "different files" in err
        assert list(tmp_path.iterdir()) == []

    def test_failure_before_write_creates_no_file(self, capsys, tmp_path,
                                                   monkeypatch):
        import bridgestate.cli as cli
        from bridgestate import ConsistencyError

        def broken(rows):
            raise ConsistencyError("injected")

        monkeypatch.setattr(cli, "rows_to_surface_csv", broken)
        knots, surfaces = tmp_path / "k.csv", tmp_path / "s.csv"
        code, _, _ = run(capsys, "census", "--max-alpha", "9",
                         "--out", str(knots), "--out-surfaces", str(surfaces))
        assert code == 1
        assert list(tmp_path.iterdir()) == []


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
