"""Acceptance suite: one test per release criterion, timed where the
criterion carries a budget.  Run with ``pytest tests/test_acceptance.py -v``
for the per-criterion pass/fail listing; each test also prints one summary
line (visible with -s or -rA).
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from bridgestate import (
    Expansion,
    StateMatrix,
    full_report,
    make_knot,
    standard_state_matrix,
    state_polynomial,
)
from bridgestate.checks import (
    check_negative_control,
    check_range,
    check_transformation_invariance,
    iter_knots,
)
from bridgestate.cli import main
from bridgestate.continued_fractions import _expand_target, surfaces_expansions
from bridgestate.invariants import _det_scaled
from oracles import (
    brute_force_expansions,
    canonical,
    poly_equivalent,
    random_expansion,
    sign_count_signature,
    state_polynomial_det,
    state_polynomial_oracle,
)


def poly_value(coeffs_2k, k, x):
    """Evaluate a serialized polynomial (2^k-scaled coefficients) exactly."""
    return sum(Fraction(c, 2**k) * Fraction(x) ** i for i, c in enumerate(coeffs_2k))


@pytest.fixture(scope="module")
def theorem_sweep_499():
    """Shared single-worker sweep used by criteria 5 and 6."""
    t0 = time.perf_counter()
    stats = check_range(499, oracle=False, invariance_samples=0)
    return stats, time.perf_counter() - t0


def test_criterion_01_figure_eight_end_to_end(capsys):
    t0 = time.perf_counter()
    code = main(["invariants", "5", "2", "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["surface_count"] == 3
    assert data["slopes"] == [-4, 0, 4]
    assert sorted(s["signature"] for s in data["surfaces"]) == [-2, 0, 2]
    assert data["signature"] == 0
    # Alexander polynomial 1 - 3t + t^2 (canonical, 2^k-scaled serialization)
    assert data["alexander"] == {"min_degree": 0, "k": 2, "coeffs_2k": [4, -12, 4]}
    for s in data["surfaces"]:
        assert abs(poly_value(s["poly"]["coeffs_2k"], s["poly"]["k"], -1)) == 5
    assert elapsed < 0.1
    print(f"ACCEPTANCE 01 PASS ({elapsed * 1000:.1f} ms): K(5,2) end-to-end")


def test_criterion_02_five_two_knot(capsys):
    t0 = time.perf_counter()
    code = main(["invariants", "7", "3", "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert [s["terms"] for s in data["surfaces"]] == [[2, 3], [3, -2, 2], [-2, 4]]
    first = data["surfaces"][0]["poly"]
    # canonical 3/2 - 4t + (3/2)t^2, scaled by 2^2
    assert first == {"min_degree": 0, "k": 2, "coeffs_2k": [6, -16, 6]}
    assert data["alexander"] == {"min_degree": 0, "k": 2, "coeffs_2k": [8, -12, 8]}
    for s in data["surfaces"]:
        assert abs(poly_value(s["poly"]["coeffs_2k"], s["poly"]["k"], -1)) == 7
    assert elapsed < 0.1
    print(f"ACCEPTANCE 02 PASS ({elapsed * 1000:.1f} ms): K(7,3) end-to-end")


def test_criterion_03_signature_families():
    t0 = time.perf_counter()
    for m in range(1, 11):
        report = full_report(make_knot(4 * m + 1, 2 * m))
        assert report.signature == 0
        assert any(s.signature == 2 * m for s in report.surfaces)
    for ell in range(1, 11):
        report = full_report(make_knot(6 * ell + 1, 2 * ell))
        assert report.signature == 2 * ell
        assert any(s.signature == 0 for s in report.surfaces)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 03 PASS ({elapsed * 1000:.1f} ms): signature families")


def test_criterion_04_torus_knots():
    t0 = time.perf_counter()
    for m in range(3, 22, 2):
        report = full_report(make_knot(m, 1))
        band = next(
            s for s in report.surfaces if s.surface.expansion.terms == (m,)
        )
        assert band.surface.genus_twice == 1
        assert band.slope == 2 * m
        assert report.genus_twice == m - 1
        assert report.alexander.k == m - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 04 PASS ({elapsed * 1000:.1f} ms): (2,m) torus knots")


def test_criterion_05_polynomial_theorems_to_499(theorem_sweep_499):
    stats, elapsed = theorem_sweep_499
    # symmetry, value at 1, |value at -1| = alpha, degree, leading
    # coefficient and integrality ran for every surface of every knot: nine
    # checks a surface with criterion 6's, one presentation check a knot
    # and the two of the negative control
    assert stats.checks == 9 * stats.surfaces + stats.knots + 2
    assert stats.knots == sum(1 for _ in iter_knots(499))
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 05 PASS ({elapsed:.1f} s): polynomial identities on "
        f"{stats.surfaces} surfaces of {stats.knots} knots"
    )


def test_criterion_06_signature_and_slope_crosschecks_to_499(theorem_sweep_499):
    stats, elapsed = theorem_sweep_499
    # same run as criterion 5: minor-recurrence vs sign-count signature
    # (plus the signature bound) and the two slope formulas, among the nine
    # checks on each surface; every knot has at least two surfaces
    assert stats.checks == 9 * stats.surfaces + stats.knots + 2
    assert stats.surfaces >= 2 * stats.knots
    print(
        f"ACCEPTANCE 06 PASS (same {elapsed:.1f} s run): signature/slope "
        f"cross-checks on {stats.surfaces} surfaces"
    )


def test_criterion_07_invariance_under_transformations():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        e = random_expansion(rng, max_k=8)
        check_transformation_invariance(
            e, rng, samples=1, det=_det_scaled(e.terms),
            base=standard_state_matrix(e),
            sigma=sign_count_signature(e.terms))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 07 PASS ({elapsed:.1f} s): 1000 random "
        f"(expansion, transformation) pairs"
    )


def test_criterion_08_negative_control():
    # V = ((1/2, 1), (1, -3/2)), stored as the integer rows of 2 * V
    wrong = StateMatrix(2, 2, frozenset({((0, 0), 1), ((0, 1), 2),
                                         ((1, 0), 2), ((1, 1), -3)}))
    got = state_polynomial_oracle(wrong)
    # -(7/4)(1-t)^2, which is NOT +-t^j times 3/2 - 4t + (3/2)t^2
    assert got.coeffs == (Fraction(-7, 4), Fraction(7, 2), Fraction(-7, 4))
    assert not poly_equivalent(
        got, canonical(state_polynomial(Expansion((2, 3)))))
    check_negative_control()
    print("ACCEPTANCE 08 PASS: symmetric matrix is rejected as a state matrix")


def test_criterion_09_oracle_equivalence_to_60():
    t0 = time.perf_counter()
    expansions_checked = 0
    dets_checked = 0
    for alpha in range(3, 61, 2):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            knot = make_knot(alpha, beta)
            for x in (Fraction(alpha, beta), Fraction(alpha, beta - alpha)):
                got = [terms for terms, _ in
                       _expand_target(x.numerator, x.denominator)]
                assert got == brute_force_expansions(x, alpha, alpha)
                expansions_checked += len(got)
            for e in surfaces_expansions(knot):
                oracle = state_polynomial_oracle(standard_state_matrix(e))
                assert oracle == state_polynomial_det(e)
                dets_checked += 1
    rng = random.Random(60)
    for _ in range(200):
        e = random_expansion(rng, max_k=8)
        assert state_polynomial_oracle(
            standard_state_matrix(e)
        ) == state_polynomial_det(e)
        dets_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 09 PASS ({elapsed:.1f} s): {expansions_checked} expansions "
        f"vs brute force, {dets_checked} determinants vs elimination oracle"
    )


def test_criterion_10_census_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    one = tmp_path / "census-j1.csv"
    eight = tmp_path / "census-j8.csv"
    assert main(["census", "--max-alpha", "199", "--out", str(one)]) == 0
    assert main(
        ["census", "--max-alpha", "199", "--out", str(eight), "--jobs", "8"]
    ) == 0
    capsys.readouterr()
    data_one = one.read_bytes()
    assert data_one == eight.read_bytes()
    lines = data_one.decode().splitlines()
    assert lines[0].split(",")[6] == "slopes"
    for line in lines[1:]:
        slopes = line.split(",")[6].split(";")
        assert slopes.count("0") == 1
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 10 PASS ({elapsed:.1f} s): census to 199 byte-identical "
        f"for 1 and 8 workers; one zero slope in each of {len(lines) - 1} rows"
    )
