import re

import pytest

from bridgestate import (
    ConsistencyError,
    EssentialSurface,
    Expansion,
    InvalidInputError,
    SurfaceReport,
    TwoBridgeKnot,
    full_report,
    make_knot,
    make_surface,
    sign_counts,
)
from oracles import essential_surfaces


class TestMakeKnot:
    def test_already_normalized(self):
        k = make_knot(7, 3)
        assert (k.alpha, k.beta) == (7, 3)

    def test_beta_reduced_mod_alpha(self):
        assert make_knot(7, 10).beta == 3
        assert make_knot(7, -4).beta == 3

    def test_even_alpha_is_a_link(self):
        with pytest.raises(InvalidInputError, match="odd"):
            make_knot(4, 1)

    def test_small_alpha(self):
        with pytest.raises(InvalidInputError, match="at least 3"):
            make_knot(1, 1)

    def test_common_factor(self):
        with pytest.raises(InvalidInputError, match="coprime"):
            make_knot(9, 3)

    def test_beta_multiple_of_alpha(self):
        with pytest.raises(InvalidInputError, match="divisible"):
            make_knot(7, 14)

    def test_str(self):
        assert str(make_knot(5, 2)) == "K(5,2)"

    @pytest.mark.parametrize("alpha, beta, bad", [
        (5.0, 2, "alpha=5.0"), (5, 2.0, "beta=2.0"), ("5", 2, "alpha='5'")])
    def test_non_integers_rejected(self, alpha, beta, bad):
        with pytest.raises(InvalidInputError, match=f"integers.*{bad}"):
            make_knot(alpha, beta)


class TestKnotConstructor:
    @pytest.mark.parametrize("alpha, beta, message", [
        (9, 3, "alpha and beta must be coprime, got gcd(9,3) = 3"),
        (5, 7, "beta must be in (0, 5), got 7"),
        (5, -2, "beta must be in (0, 5), got -2"),
        (1, 1, "alpha must be at least 3, got 1"),
        (8, 3, "alpha must be odd, got 8 (even alpha is a 2-bridge link)"),
    ])
    def test_rejects_what_no_report_can_take(self, alpha, beta, message):
        # unchecked, each of them took full_report to a ZeroDivisionError
        # or, for K(8,3), to a ConsistencyError, the class of a bug
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            TwoBridgeKnot(alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [
        (7, 14), (5.0, 2), ("5", 2), (7, 0)])
    def test_rejects_what_make_knot_rejects(self, alpha, beta):
        with pytest.raises(InvalidInputError) as want:
            make_knot(alpha, beta)
        with pytest.raises(InvalidInputError, match=re.escape(
                str(want.value))):
            TwoBridgeKnot(alpha, beta)


class TestSignCounts:
    def test_all_matching(self):
        assert sign_counts(Expansion((3, -2, 2))) == (3, 0)

    def test_all_breaking(self):
        assert sign_counts(Expansion((-2, 4))) == (0, 2)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_genus_one_seifert_pattern(self, m):
        assert sign_counts(Expansion((2, 2 * m))) == (1, 1)


class TestMakeSurface:
    @pytest.mark.parametrize("m", [3, -3, 5, 7])
    def test_moebius_band(self, m):
        s = make_surface(Expansion((m,)))
        assert s.genus_twice == 1 and not s.orientable

    def test_orientable_even_terms(self):
        s = make_surface(Expansion((-2, 4)))
        assert s.orientable and s.genus_twice == 2

    def test_odd_term_makes_nonorientable(self):
        s = make_surface(Expansion((3, -2, 2)))
        assert not s.orientable and s.genus_twice == 3

    def test_counts_sum_to_k(self):
        s = make_surface(Expansion((3, -2, 2, -2)))
        assert s.n_plus + s.n_minus == 4


def with_surface(report, surface):
    """``report`` with ``surface`` in place of its surface."""
    return SurfaceReport(surface, report.polynomial, report.signature,
                         report.slope)


def flagged(report, orientable: bool):
    """``report`` with its surface flagged ``orientable``."""
    s = report.surface
    return with_surface(report, EssentialSurface(
        s.expansion, orientable, s.genus_twice, s.n_plus, s.n_minus))


SEIFERT_IDENTITY = ("Seifert surface = the walk's one orientable surface, "
                    "of even genus2 failed for ")


class TestFindSeifert:
    """The report pass yields the Seifert surface first, from the path of
    even terms, and ``full_report`` must find it again as the walk's one
    orientable surface, of even genus2."""

    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [(5, 2, (2, 2)), (3, 1, (-2, 2)), (7, 3, (-2, 4))],
    )
    def test_unique_even_expansion(self, alpha, beta, expected):
        report = full_report(make_knot(alpha, beta))
        assert [r.surface.expansion.terms for r in report.surfaces
                if r.surface.orientable] == [expected]

    def test_no_orientable_surface_is_a_bug(self, report_pass_fault):
        report_pass_fault(lambda i, r: flagged(r, False) if i else r)
        with pytest.raises(ConsistencyError, match=re.escape(
                SEIFERT_IDENTITY + "[2, 2] of K(5,2): the orientable "
                "surfaces are [], and it has genus2 2")):
            full_report(make_knot(5, 2))

    def test_two_orientable_surfaces_is_a_bug(self, report_pass_fault):
        report_pass_fault(lambda i, r: flagged(r, True)
                          if r.surface.expansion.terms == (3, -2) else r)
        with pytest.raises(ConsistencyError, match=re.escape(
                SEIFERT_IDENTITY + "[2, 2] of K(5,2): the orientable "
                "surfaces are ['[2, 2]', '[3, -2]'], and it has genus2 2")):
            full_report(make_knot(5, 2))

    def test_odd_length_orientable_surface_is_a_bug(self, report_pass_fault):
        odd = make_surface(Expansion((2, -2, 2)))
        report_pass_fault(lambda i, r: with_surface(r, odd)
                          if r.surface.orientable else r)
        with pytest.raises(ConsistencyError, match=re.escape(
                SEIFERT_IDENTITY + "[2, -2, 2] of K(5,2): the orientable "
                "surfaces are ['[2, -2, 2]'], and it has genus2 3")):
            full_report(make_knot(5, 2))


def test_essential_surfaces_preserve_expansion_order():
    surfaces = essential_surfaces(make_knot(5, 2))
    assert [s.expansion.terms for s in surfaces] == [(2, 2), (3, -2), (-2, 3)]
    assert [s.orientable for s in surfaces] == [True, False, False]
