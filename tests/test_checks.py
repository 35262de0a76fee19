import random
import re
from fractions import Fraction

import pytest

from bridgestate import (
    ConsistencyError,
    Expansion,
    InvalidInputError,
    make_knot,
    make_surface,
    surfaces_expansions,
)
import bridgestate.checks as checks
from bridgestate.checks import (
    _check_presentations,
    _check_surface_fast,
    check_knot,
    check_negative_control,
    check_range,
    iter_knots,
)
from bridgestate.continued_fractions import _expand_target
from bridgestate.invariants import (
    _check_identities,
    _start,
    _surface_step,
    _unpack,
    full_report,
)
from oracles import invariant_multiset, random_expansion


def test_iter_knots_small():
    assert list(iter_knots(9)) == [
        (3, 1), (3, 2),
        (5, 1), (5, 2), (5, 3), (5, 4),
        (7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6),
        (9, 1), (9, 2), (9, 4), (9, 5), (9, 7), (9, 8),
    ]


@pytest.mark.parametrize("bad", [2, 1, -5])
def test_check_range_checks_the_bound_first(monkeypatch, bad):
    # before the negative control, the one check that needs no knot
    def unreachable():
        raise AssertionError("the negative control ran")

    monkeypatch.setattr(checks, "check_negative_control", unreachable)
    with pytest.raises(InvalidInputError, match="at least 3"):
        check_range(bad)


def test_check_range_detects_disagreeing_presentations(
        inverse_without_negation_for_even_k):
    check_range(3)  # 1 and 2 are their own inverses mod 3
    # 2**2 = -1 mod 5: K(5,3) is both the mirror and the inverse
    # presentation of K(5,2), and the faulty inverse move's polynomials
    # miss the terms of a surface computed for it
    with pytest.raises(ConsistencyError, match=re.escape(
            "inverse_report(K(5,2)) = computed report failed for K(5,3): "
            "terms [2, -3] have nothing moved")):
        check_range(5)


def test_presentation_check_names_the_maps_and_the_field(monkeypatch):
    # the field is the polynomial of the first terms that differ
    real = checks._moved_polys

    def faulty(report, reverse, mirror):
        moved = real(report, reverse, mirror)
        if reverse:  # every polynomial becomes the Alexander polynomial
            moved = dict.fromkeys(moved, report.alexander)
        return moved

    monkeypatch.setattr(checks, "_moved_polys", faulty)
    # {2, 3, 4, 5} mod 7 is the first orbit of four: K(7,3) is reached
    # from K(7,2) through the inverse and then the mirror move
    pending = {}
    _check_presentations(full_report(make_knot(7, 2)), pending)
    assert sorted(pending) == [3, 4, 5]
    with pytest.raises(ConsistencyError, match=re.escape(
            "mirror_report(inverse_report(K(7,2))) = computed report failed "
            "for K(7,3): terms [2, 3] have 2 - 3*t + 2*t^2 moved, "
            "3/2 - 4*t + 3/2*t^2 computed")):
        _check_presentations(full_report(make_knot(7, 3)), pending)


def test_random_expansions_are_valid():
    rng = random.Random(0)
    for _ in range(200):
        e = random_expansion(rng, max_k=8, max_abs=9)
        assert 1 <= len(e.terms) <= 8
        assert all(2 <= abs(n) <= 9 for n in e.terms)


def test_check_knot_counts():
    stats = check_knot(make_knot(5, 2))
    assert stats.knots == 1
    assert stats.surfaces == 3
    assert stats.checks == 27


def test_check_knot_with_oracle_and_invariance():
    stats = check_knot(
        make_knot(7, 3),
        oracle=True,
        invariance_samples=2,
        seed=1,
    )
    assert stats.surfaces == 3
    assert stats.checks > 9 * 3


def test_check_knot_runs_invariance_checks_by_default_seed():
    # 3 surfaces x (9 fast + 2 oracle + 2 samples x 2 invariance checks)
    stats = check_knot(make_knot(7, 3), oracle=True, invariance_samples=2)
    assert stats.checks == 45


def test_every_transformed_matrix_is_signed_by_symmetric_signature(
        monkeypatch):
    # the core of symmetric_signature, on the matrices gl_matrix builds
    real = checks._sparse_signature
    calls = 0

    def counting(n, nonzeros):
        nonlocal calls
        calls += 1
        return real(n, nonzeros)

    monkeypatch.setattr(checks, "_sparse_signature", counting)
    stats = check_range(15, oracle=True, invariance_samples=1, seed=0)
    assert calls == stats.surfaces == 140


def test_check_range_small_sweep():
    # per surface 9 fast, 2 oracle and 2 invariance checks; per knot the
    # presentation check; 2 for the negative control
    stats = check_range(31, oracle=True, invariance_samples=1, seed=2)
    assert stats.knots == sum(1 for _ in iter_knots(31))
    assert stats.surfaces > stats.knots
    assert stats.checks == 13 * stats.surfaces + stats.knots + 2 == 10640
    plain = check_range(15)
    assert plain.checks == 9 * plain.surfaces + plain.knots + 2 == 1310


def test_presentation_independence_to_99():
    # beta and beta^-1 mod alpha present the same knot
    stats = check_range(99)
    assert stats.knots == sum(1 for _ in iter_knots(99))


def test_oracle_checks_surfaces_above_size_8(oracle_negated_above_size_8):
    # K(11,1) has a surface with k = 10; a fault seen only there is caught
    assert max(len(e.terms) for e in surfaces_expansions(make_knot(11, 1))) == 10
    check_knot(make_knot(11, 1))  # without the oracle nothing is compared
    with pytest.raises(ConsistencyError,
                       match="recurrence = oracle determinant"):
        check_knot(make_knot(11, 1), oracle=True)


def test_oracle_checks_the_shared_recurrence_above_depth_8(
        step_determinant_off_beyond_depth_8):
    # the k = 10 surface of K(11,1) is reported from a determinant that
    # keeps every identity the report pass and the fast checks test
    report = full_report(make_knot(11, 1))
    check_knot(make_knot(11, 1))
    assert max(r.polynomial.k for r in report.surfaces) == 10
    with pytest.raises(ConsistencyError,
                       match="recurrence = oracle determinant"):
        check_knot(make_knot(11, 1), oracle=True)


def test_invariance_checks_signatures_above_size_8(
        signature_off_by_one_above_size_8):
    # the k = 10 surface of K(11,1) is the only one the fault reaches
    check_knot(make_knot(11, 1), oracle=True)  # no transformed matrices
    with pytest.raises(ConsistencyError, match="gave signature"):
        check_knot(make_knot(11, 1), oracle=True, invariance_samples=2,
                   seed=0)


def test_oracle_covers_every_surface_in_a_sweep():
    stats = check_range(15, oracle=True)
    plain = check_range(15)
    # two oracle checks (exact determinant, canonical symmetry) per surface
    assert stats.checks == plain.checks + 2 * stats.surfaces


def test_negative_control():
    assert check_negative_control() == 2


def walked_leaf(p, q, terms):
    """(determinant, minor signature) of the leaf ``terms`` of the shared
    walk of p/q, read off its state as the report pass reads them."""
    cur, bits, scale, sig, _ = dict(
        _expand_target(p, q, _surface_step, _start(p)))[terms][:5]
    return (_unpack(cur, bits, len(terms) + 1), scale), sig


def test_surface_checks_catch_a_wrong_determinant():
    # the (2, 2) surface has determinant 5, not the 7 of this knot
    knot = make_knot(7, 1)
    s = make_surface(Expansion((2, 2)))
    det, sigma_minors = walked_leaf(5, 2, (2, 2))
    with pytest.raises(ConsistencyError, match="determinant identity"):
        _check_identities(knot, s, det, sigma_minors, sigma_k=0,
                          sigma_k_minors=0)


@pytest.mark.parametrize("det, identity, got", [
    # 2**2 p = 3 - 8t + 3t^2, where the surface [2, 3] of K(5,2) has
    # 6 - 16t + 6t^2: |p(-1)| = 14/4 instead of 5
    (([3, -8, 3], 2), "determinant identity |p(-1)| = alpha",
     Fraction(14, 4)),
    # 3 - 7t + 3t^2: p(1) = -1/4 instead of 1, the ends still symmetric
    (([3, -7, 3], 2), "p(1) by parity of k", Fraction(-1, 4)),
    # 5 - 6t + 5t^2: p(1) = 1, but the leading coefficient is 5/4, not 6/4
    (([5, -6, 5], 2), "leading coefficient |n1...nk| / 2^k",
     Fraction(5, 4)),
], ids=["p(-1)", "p(1)", "leading"])
def test_a_rational_in_a_failure_prints_as_its_fraction(det, identity, got):
    # the checks print these rationals from integers; the text must be the
    # reduced fraction's
    knot, e = make_knot(5, 2), Expansion((2, 3))
    with pytest.raises(ConsistencyError) as failure:
        if identity.startswith("determinant"):
            _check_identities(knot, make_surface(e), det, 0, sigma_k=0,
                              sigma_k_minors=0)
        else:
            _check_surface_fast(knot, e, det, 0)
    assert str(failure.value) == (
        f"{identity} failed for [2, 3] of K(5,2): got {got}")


def test_surface_checks_catch_an_inconsistent_reference_signature():
    knot = make_knot(5, 2)
    s = make_surface(Expansion((2, 2)))
    det, sigma_minors = walked_leaf(5, 2, (2, 2))
    # correct run for contrast
    _check_identities(knot, s, det, sigma_minors, sigma_k=0, sigma_k_minors=0)
    # a reference signature whose two routes disagree breaks the slope check
    with pytest.raises(ConsistencyError, match="slope agreement"):
        _check_identities(knot, s, det, sigma_minors, sigma_k=0,
                          sigma_k_minors=2)


def test_invariant_multiset_shape():
    ms = invariant_multiset(full_report(make_knot(5, 2)))
    assert len(ms) == 3
    slopes = sorted(slope for _, _, slope in ms)
    assert slopes == [-4, 0, 4]


def test_verify_checks_the_reported_signatures(report_signatures_plus_2):
    # K(11,1) is reported with signatures off by 2: [11] gets 3 > k = 1
    report = full_report(make_knot(11, 1))
    assert sorted({r.signature for r in report.surfaces}) == [-8, 3]
    with pytest.raises(ConsistencyError, match="sigma"):
        check_knot(make_knot(11, 1))


def test_verify_checks_the_reported_polynomials(
        report_polynomial_negated_above_size_8):
    # the k = 10 surface of K(11,1) is reported with a negated polynomial,
    # whose own degree, symmetry and presentation checks still hold
    check_knot(make_knot(11, 1))  # the fast checks see the determinant
    with pytest.raises(ConsistencyError,
                       match="reported polynomial = oracle class"):
        check_knot(make_knot(11, 1), oracle=True)
