"""The values the README's Library section shows, one test per example."""

from bridgestate import (
    Expansion,
    full_report,
    gl_matrix,
    make_knot,
    standard_state_matrix,
    state_polynomial,
)


def test_full_report_of_seven_three():
    report = full_report(make_knot(7, 3))
    assert report.signature == -2
    assert report.genus_twice == 2
    assert report.nonorientable_genus_twice == 2
    assert report.slopes == (0, 4, 10)
    assert report.alexander.k == 2
    assert report.alexander.coeffs_2k == (8, -12, 8)
    assert str(report.alexander) == "2 - 3*t + 2*t^2"
    assert [(s.surface.expansion.terms, s.signature, s.slope)
            for s in report.surfaces] == [
        ((2, 3), 0, 4), ((3, -2, 2), 3, 10), ((-2, 4), -2, 0)]


def test_state_polynomial_of_two_three():
    sp = state_polynomial(Expansion((2, 3)))
    assert sp.coeffs_2k == (6, -16, 6)
    assert str(sp) == "3/2 - 4*t + 3/2*t^2"


def test_state_matrix_block():
    v = standard_state_matrix(Expansion((2, 3)))
    assert (v.den, v.scaled) == (2, ((2, 0), (2, -3)))
    assert sorted(v.nonzeros) == [((0, 0), 2), ((1, 0), 2), ((1, 1), -3)]
    gl = gl_matrix(v)
    assert (gl.den, gl.scaled) == (1, ((2, 1), (1, -3)))
