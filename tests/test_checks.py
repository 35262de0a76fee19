import random

import pytest

from bridgestate import (
    ConsistencyError,
    Expansion,
    make_knot,
    surfaces_expansions,
)
from bridgestate.checks import (
    _check_surface_fast,
    check_knot,
    check_negative_control,
    check_range,
    invariant_multiset,
    iter_knots,
    random_expansion,
)
from bridgestate.invariants import _det_scaled


def test_iter_knots_small():
    assert list(iter_knots(9)) == [
        (3, 1), (3, 2),
        (5, 1), (5, 2), (5, 3), (5, 4),
        (7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6),
        (9, 1), (9, 2), (9, 4), (9, 5), (9, 7), (9, 8),
    ]


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
    assert stats.polynomial_checks == 18
    assert stats.signature_checks == 6
    assert stats.slope_checks == 3


def test_check_knot_with_oracle_and_invariance():
    stats = check_knot(
        make_knot(7, 3),
        oracle=True,
        invariance_samples=2,
        rng=random.Random(1),
    )
    assert stats.surfaces == 3
    assert stats.checks > 9 * 3


def test_check_range_small_sweep():
    stats = check_range(31, oracle=True, invariance_samples=1, seed=2)
    assert stats.knots == sum(1 for _ in iter_knots(31))
    assert stats.surfaces > stats.knots
    assert stats.checks == (
        stats.polynomial_checks + stats.signature_checks + stats.slope_checks
        + (stats.checks - stats.polynomial_checks - stats.signature_checks
           - stats.slope_checks)
    )


def test_presentation_independence_to_99():
    # beta and beta^-1 mod alpha present the same knot
    stats = check_range(99, presentation=True)
    assert stats.knots == sum(1 for _ in iter_knots(99))


def test_oracle_checks_surfaces_above_size_8(oracle_negated_above_size_8):
    # K(11,1) has a surface with k = 10; a fault seen only there is caught
    assert max(len(e.terms) for e in surfaces_expansions(make_knot(11, 1))) == 10
    check_knot(make_knot(11, 1))  # without the oracle nothing is compared
    with pytest.raises(ConsistencyError,
                       match="recurrence = oracle determinant"):
        check_knot(make_knot(11, 1), oracle=True)


def test_invariance_checks_signatures_above_size_8(
        signature_off_by_one_above_size_8):
    # the k = 10 surface of K(11,1) is the only one the fault reaches
    check_knot(make_knot(11, 1), oracle=True)  # no transformed matrices
    with pytest.raises(ConsistencyError, match="gave signature"):
        check_knot(make_knot(11, 1), oracle=True, invariance_samples=2,
                   rng=random.Random(0))


def test_oracle_covers_every_surface_in_a_sweep():
    stats = check_range(15, oracle=True, presentation=False)
    plain = check_range(15, presentation=False)
    # two oracle checks (exact determinant, canonical symmetry) per surface
    assert stats.checks == plain.checks + 2 * stats.surfaces


def test_negative_control():
    assert check_negative_control() == 2


def test_surface_checks_catch_a_wrong_determinant():
    knot = make_knot(5, 2)
    e = Expansion((2, 2))
    with pytest.raises(ConsistencyError, match="determinant identity"):
        _check_surface_fast(knot, e, alpha=7, sigma_k=0, sigma_k_minors=0,
                            det=_det_scaled(e.terms))


def test_surface_checks_catch_an_inconsistent_reference_signature():
    knot = make_knot(5, 2)
    e = Expansion((2, 2))
    # correct run for contrast
    _check_surface_fast(knot, e, alpha=5, sigma_k=0, sigma_k_minors=0,
                        det=_det_scaled(e.terms))
    # a reference signature whose two routes disagree breaks the slope check
    with pytest.raises(ConsistencyError, match="slope agreement"):
        _check_surface_fast(knot, e, alpha=5, sigma_k=0, sigma_k_minors=2,
                            det=_det_scaled(e.terms))


def test_invariant_multiset_shape():
    ms = invariant_multiset(make_knot(5, 2))
    assert len(ms) == 3
    slopes = sorted(slope for _, _, slope in ms)
    assert slopes == [-4, 0, 4]
