import random
from fractions import Fraction

import pytest

from bridgestate import (
    ConsistencyError,
    Expansion,
    InvalidInputError,
    alexander_polynomial,
    boundary_slope,
    boundary_slope_ht,
    canonical_representative,
    cf_value,
    flip_normal,
    flip_orientation,
    full_report,
    gl_matrix,
    knot_genus_twice,
    knot_signature,
    laurent,
    make_knot,
    nonorientable_genus_twice,
    poly_equivalent,
    standard_state_matrix,
    state_matrix,
    state_polynomial,
    state_polynomial_det,
    state_polynomial_oracle,
    state_signature,
    state_signature_minors,
    surfaces_expansions,
    symmetric_signature,
)
from bridgestate.checks import (
    check_transformation_invariance,
    invariant_multiset,
    permuted_state_matrix,
    random_expansion,
)


def F(p, q=1):
    return Fraction(p, q)


class TestStatePolynomial:
    def test_two_three(self):
        sp = state_polynomial(Expansion((2, 3)))
        assert sp.k == 2
        assert sp.canonical == laurent([F(3, 2), -4, F(3, 2)])

    def test_seifert_of_five_two_knot(self):
        sp = state_polynomial(Expansion((-2, 4)))
        assert sp.canonical == laurent([2, -3, 2])

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_single_band(self, m):
        sp = state_polynomial(Expansion((m,)))
        assert sp.canonical == laurent([F(m, 2), -F(m, 2)])

    def test_raw_determinant_of_two_three(self):
        det = state_polynomial_det(Expansion((2, 3)))
        assert det == laurent([F(-3, 2), 4, F(-3, 2)])

    def test_canonical_invariants_random(self):
        rng = random.Random(20)
        for _ in range(200):
            e = random_expansion(rng)
            k = len(e.terms)
            p = state_polynomial(e).canonical
            assert p.min_degree == 0 and p.max_degree == k
            assert p.coeffs[0] > 0
            # palindromic for even k, anti-palindromic for odd k
            sign = 1 if k % 2 == 0 else -1
            assert tuple(reversed(p.coeffs)) == tuple(sign * c for c in p.coeffs)
            assert p == canonical_representative(p.reciprocal_substitute())
            # value at 1 by parity, value at -1 the continuant's numerator
            assert abs(p.evaluate(1)) == (1 if k % 2 == 0 else 0)
            assert abs(p.evaluate(-1)) == abs(cf_value(e).numerator)
            # extreme coefficients
            prod = Fraction(1)
            for n in e.terms:
                prod *= abs(n)
            assert abs(p.coeffs[-1]) == prod / 2**k
            # 2^k-scaled coefficients are integers
            assert all((c * 2**k).denominator == 1 for c in p.coeffs)

    def test_all_even_expansions_have_integer_coefficients(self):
        rng = random.Random(21)
        for _ in range(100):
            k = rng.randint(1, 7)
            terms = tuple(rng.choice([-1, 1]) * 2 * rng.randint(1, 4) for _ in range(k))
            p = state_polynomial(Expansion(terms)).canonical
            assert all(c.denominator == 1 for c in p.coeffs)

    def test_integrality_does_not_imply_orientability(self):
        # the converse fails: [4, 3] (a surface of K(13,3)) is nonorientable
        # yet its polynomial 3 - 7t + 3t^2 is integral
        e = Expansion((4, 3))
        assert e.terms in {x.terms for x in surfaces_expansions(make_knot(13, 3))}
        p = state_polynomial(e).canonical
        assert any(n % 2 for n in e.terms)
        assert all(c.denominator == 1 for c in p.coeffs)
        assert p == laurent([3, -7, 3])


class TestCharacteristicMatrix:
    def test_pair_products_and_specialization(self):
        from oracles import characteristic_matrix

        minus_t = laurent([-1], min_degree=1)
        rng = random.Random(19)
        for _ in range(50):
            e = random_expansion(rng, max_k=6)
            v = standard_state_matrix(e)
            m = characteristic_matrix(v)
            g = gl_matrix(v).entries
            k = len(m)
            for i in range(k - 1):
                assert m[i][i + 1] * m[i + 1][i] == minus_t
            for i in range(k):
                for j in range(k):
                    assert m[i][j].evaluate(-1) == g[i][j]


class TestOracle:
    def test_matches_recurrence_on_standard_matrix(self):
        e = Expansion((2, 3))
        got = state_polynomial_oracle(standard_state_matrix(e))
        assert got == state_polynomial_det(e)

    def test_normal_flip_leaves_determinant_unchanged(self):
        e = Expansion((2, 3))
        v = flip_normal(standard_state_matrix(e), 1)
        got = state_polynomial_oracle(v)
        assert got == state_polynomial_det(e)
        assert poly_equivalent(got, state_polynomial(e).canonical)

    def test_symmetric_matrix_is_not_a_state_matrix(self):
        # the degenerate configuration with both off-diagonal entries 1
        wrong = state_matrix([[F(1, 2), 1], [1, F(-3, 2)]])
        got = state_polynomial_oracle(wrong)
        assert got == laurent([F(-7, 4), F(7, 2), F(-7, 4)])  # -(7/4)(1-t)^2
        assert not poly_equivalent(got, state_polynomial(Expansion((2, 3))).canonical)

    @pytest.mark.parametrize("seed", [198, 199])
    def test_k_198_standard_and_renumbered(self, seed):
        rng = random.Random(seed)
        e = Expansion(tuple(
            rng.choice((-1, 1)) * rng.randint(2, 9) for _ in range(198)
        ))
        want = state_polynomial_det(e)
        v = standard_state_matrix(e)
        renumbered = permuted_state_matrix(v, rng.sample(range(198), 198))
        for m in (v, renumbered):
            got = state_polynomial_oracle(m)
            assert poly_equivalent(got, want)
            # a simultaneous permutation leaves the determinant itself alone
            assert got == want

    def test_matches_cofactor_reference_on_random_matrices(self):
        from oracles import cofactor_state_polynomial

        rng = random.Random(30)
        singular = 0
        for _ in range(200):
            k = rng.randint(1, 5)
            den = rng.choice((1, 2, 3, 6))
            rows = [
                [F(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(k)]
                for _ in range(k)
            ]
            if k > 1 and rng.random() < 0.3:
                # a repeated row and column, or a zero row and column, make
                # two rows of V - t*V^T equal or zero: singular
                i, j = rng.sample(range(k), 2)
                if rng.random() < 0.5:
                    rows[i] = list(rows[j])
                    for row in rows:
                        row[i] = row[j]
                else:
                    rows[i] = [F(0)] * k
                    for row in rows:
                        row[i] = F(0)
            v = state_matrix(rows)
            want = cofactor_state_polynomial(v)
            singular += want.is_zero
            assert state_polynomial_oracle(v) == want
        assert singular > 0

    def test_matches_recurrence_random(self):
        rng = random.Random(22)
        for _ in range(200):
            e = random_expansion(rng, max_k=6)
            got = state_polynomial_oracle(standard_state_matrix(e))
            assert got == state_polynomial_det(e)


class TestPolyEquivalent:
    def test_unit_minus_one(self):
        assert poly_equivalent(laurent([-1, 3, -1]), laurent([1, -3, 1]))

    def test_unit_t_power(self):
        rng = random.Random(23)
        from oracles import random_laurent

        for _ in range(50):
            p = random_laurent(rng)
            shifted = laurent(p.coeffs, p.min_degree + rng.randint(-3, 3))
            assert poly_equivalent(shifted, p)
            assert poly_equivalent(-shifted, p)

    def test_distinct_polynomials(self):
        assert not poly_equivalent(laurent([1, -1]), laurent([1, 1]))


class TestStateSignature:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_maximal_signature_family(self, m):
        terms = (3,) + (-2, 2) * (m - 1) + (-2,)
        assert len(terms) == 2 * m
        assert state_signature(Expansion(terms)) == 2 * m

    @pytest.mark.parametrize("ell", [1, 2, 5])
    def test_balanced_family(self, ell):
        assert state_signature(Expansion((3, 2 * ell))) == 0

    def test_single_positive_band(self):
        assert state_signature(Expansion((7,))) == 1

    def test_minors_on_examples(self):
        assert state_signature_minors(standard_state_matrix(Expansion((-2, 4)))) == -2
        assert state_signature_minors(standard_state_matrix(Expansion((2, 2)))) == 0
        for m in (5, -5):
            v = standard_state_matrix(Expansion((m,)))
            assert state_signature_minors(v) == (1 if m > 0 else -1)

    def test_minors_agree_with_counts_random(self):
        rng = random.Random(24)
        for _ in range(300):
            e = random_expansion(rng, max_k=10)
            v = standard_state_matrix(e)
            assert state_signature_minors(v) == state_signature(e)

    def test_minors_reject_non_tridiagonal(self):
        v = standard_state_matrix(Expansion((2, 3, -2, 5)))
        shuffled = permuted_state_matrix(v, [2, 0, 3, 1])
        with pytest.raises(InvalidInputError):
            state_signature_minors(shuffled)

    def test_signature_bound(self):
        rng = random.Random(25)
        for _ in range(200):
            e = random_expansion(rng, max_k=10)
            assert abs(state_signature(e)) <= len(e.terms)


class TestSymmetricSignature:
    def test_known_small_matrices(self):
        assert symmetric_signature([[F(2)]]) == 1
        assert symmetric_signature([[F(0), F(1)], [F(1), F(0)]]) == 0
        assert symmetric_signature([[F(1), F(0)], [F(0), F(-1)]]) == 0
        assert symmetric_signature([[F(0), F(0)], [F(0), F(0)]]) == 0
        assert (
            symmetric_signature(
                [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
            )
            == 3
        )

    def test_rejects_non_symmetric_and_non_square(self):
        with pytest.raises(InvalidInputError, match="symmetric"):
            symmetric_signature([[1, 2], [3, 4]])
        with pytest.raises(InvalidInputError, match="square"):
            symmetric_signature([[1, 2]])

    def test_matches_fraction_reference_on_random_matrices(self):
        from oracles import fraction_signature

        fixed = [
            [[0, 1], [1, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 3], [0, 0, 0], [3, 0, F(1, 2)]],
            [[0, 2, 0], [2, 0, 1], [0, 1, 0]],
        ]
        rng = random.Random(31)
        degenerate = 0
        matrices = list(fixed)
        for _ in range(240):
            n = rng.randint(1, 12)
            den = rng.randint(1, 6)
            density = rng.choice((0.2, 0.5, 1.0))
            m = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < density:
                        m[i][j] = m[j][i] = F(rng.randint(-6, 6),
                                              rng.randint(1, den))
            if rng.random() < 0.3:
                degenerate += 1
                kind = rng.choice(("zero diagonal", "zero row", "repeat"))
                i = rng.randrange(n)
                if kind == "zero diagonal":
                    for j in rng.sample(range(n), rng.randint(1, n)):
                        m[j][j] = F(0)
                elif kind == "zero row":
                    for j in range(n):
                        m[i][j] = m[j][i] = F(0)
                elif n > 1:
                    # a repeated row and column: singular
                    j = rng.choice([j for j in range(n) if j != i])
                    m[i] = list(m[j])
                    for row in m:
                        row[i] = row[j]
            matrices.append(m)
        assert degenerate >= 60
        for m in matrices:
            assert symmetric_signature(m) == fraction_signature(m)

    @pytest.mark.parametrize("seed", [198, 199])
    def test_k_198_standard_and_renumbered(self, seed):
        rng = random.Random(seed)
        e = Expansion(tuple(
            rng.choice((-1, 1)) * rng.randint(2, 9) for _ in range(198)
        ))
        v = standard_state_matrix(e)
        renumbered = permuted_state_matrix(v, rng.sample(range(198), 198))
        for m in (v, renumbered):
            assert symmetric_signature(gl_matrix(m).scaled) == state_signature(e)

    def test_agrees_with_minor_recurrence(self):
        rng = random.Random(26)
        for _ in range(100):
            e = random_expansion(rng, max_k=8)
            v = standard_state_matrix(e)
            assert symmetric_signature(gl_matrix(v).entries) == state_signature(e)

    def test_invariant_under_permutation(self):
        rng = random.Random(27)
        for _ in range(100):
            e = random_expansion(rng, max_k=7)
            k = len(e.terms)
            v = standard_state_matrix(e)
            g = gl_matrix(permuted_state_matrix(v, rng.sample(range(k), k)))
            assert symmetric_signature(g.entries) == state_signature(e)


class TestKnotSignature:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_zero_signature_family(self, m):
        assert knot_signature(make_knot(4 * m + 1, 2 * m)) == 0

    @pytest.mark.parametrize("ell", range(1, 11))
    def test_growing_signature_family(self, ell):
        assert knot_signature(make_knot(6 * ell + 1, 2 * ell)) == 2 * ell

    def test_trefoil(self):
        assert knot_signature(make_knot(3, 1)) == -2


class TestBoundarySlope:
    def test_moebius_band_of_trefoil(self):
        assert boundary_slope(Expansion((3,)), make_knot(3, 1)) == 6

    def test_seifert_surface_has_slope_zero(self):
        assert boundary_slope(Expansion((2, 2)), make_knot(5, 2)) == 0

    def test_figure_eight_pair(self):
        assert boundary_slope(Expansion((3, -2)), make_knot(5, 2)) == 4
        assert boundary_slope(Expansion((-2, 3)), make_knot(5, 2)) == -4

    def test_foreign_expansion_rejected(self):
        with pytest.raises(InvalidInputError):
            boundary_slope(Expansion((2, 2)), make_knot(3, 1))

    def test_sign_count_formula(self):
        assert boundary_slope_ht(Expansion((3,)), Expansion((-2, 2))) == 6
        seifert = Expansion((2, 4))
        assert boundary_slope_ht(seifert, seifert) == 0
        assert boundary_slope_ht(Expansion((3, -2, 2)), Expansion((-2, 4))) == 10

    def test_sign_count_formula_needs_even_reference(self):
        with pytest.raises(InvalidInputError):
            boundary_slope_ht(Expansion((2, 2)), Expansion((3,)))

    def test_agreement_across_sample_knots(self):
        for alpha, beta in [(5, 2), (7, 3), (13, 6), (19, 7), (25, 9)]:
            knot = make_knot(alpha, beta)
            expansions = surfaces_expansions(knot)
            seifert = next(
                e for e in expansions if all(n % 2 == 0 for n in e.terms)
            )
            for e in expansions:
                assert boundary_slope(e, knot) == boundary_slope_ht(e, seifert)


class TestKnotLevel:
    @pytest.mark.parametrize(
        "alpha,beta,coeffs",
        [(3, 1, [1, -1, 1]), (5, 2, [1, -3, 1]), (7, 3, [2, -3, 2])],
    )
    def test_alexander(self, alpha, beta, coeffs):
        assert alexander_polynomial(make_knot(alpha, beta)).canonical == laurent(coeffs)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_torus_knot_genus(self, m):
        assert knot_genus_twice(make_knot(m, 1)) == m - 1

    def test_genus_one_knots(self):
        assert knot_genus_twice(make_knot(5, 2)) == 2
        assert knot_genus_twice(make_knot(9, 2)) == 2  # Seifert expansion [4, 2]

    def test_crosscap(self):
        assert nonorientable_genus_twice(make_knot(3, 1)) == 1
        assert nonorientable_genus_twice(make_knot(5, 2)) == 2

    @pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (2, 3), (4, 2)])
    def test_genus_one_family_structure(self, i, j):
        # K(4ij+1, 2j) has Seifert surface [2i, 2j] (genus one) and two
        # nonorientable companions of genera j and i, so its state
        # polynomial degrees 2j and 2i are independent of the quadratic
        # Alexander polynomial
        knot = make_knot(4 * i * j + 1, 2 * j)
        expansions = sorted(
            (e.terms for e in surfaces_expansions(knot)), key=len
        )
        by_terms = {e: e for e in expansions}
        assert (2 * i, 2 * j) in by_terms
        assert (2 * i + 1,) + (-2, 2) * (j - 1) + (-2,) in by_terms
        assert (-2, 2) * (i - 1) + (-2, 2 * j + 1) in by_terms
        assert knot_genus_twice(knot) == 2
        degrees = sorted(
            state_polynomial(Expansion(e)).k for e in expansions
        )
        assert degrees == sorted([2, 2 * i, 2 * j])

    def test_crosscap_fallback_branch(self):
        # K(15,4): nonorientable expansions all have k = 4 or 5, while the
        # Seifert surface has k = 2, so the minimum is g2 + 1 = 3.
        knot = make_knot(15, 4)
        ks = sorted(
            len(e.terms)
            for e in surfaces_expansions(knot)
            if any(n % 2 for n in e.terms)
        )
        assert ks[0] > knot_genus_twice(knot) + 1
        assert nonorientable_genus_twice(knot) == 3


class TestFullReport:
    def test_figure_eight(self):
        r = full_report(make_knot(5, 2))
        assert len(r.surfaces) == 3
        assert r.determinant == 5
        assert r.signature == 0
        assert r.slopes == [-4, 0, 4]
        assert sorted(x.signature for x in r.surfaces) == [-2, 0, 2]
        for x in r.surfaces:
            assert abs(x.polynomial.canonical.evaluate(-1)) == 5

    def test_five_two_knot(self):
        r = full_report(make_knot(7, 3))
        assert [x.surface.expansion.terms for x in r.surfaces] == [
            (2, 3),
            (3, -2, 2),
            (-2, 4),
        ]
        assert r.slopes == [0, 4, 10]
        for x in r.surfaces:
            assert abs(x.polynomial.canonical.evaluate(-1)) == 7

    def test_trefoil(self):
        r = full_report(make_knot(3, 1))
        assert len(r.surfaces) == 2
        assert r.slopes == [0, 6]
        assert r.alexander.canonical == laurent([1, -1, 1])

    def test_shared_slope(self):
        # two surfaces of K(19,7) have boundary slope 0, so the slope set
        # is shorter than the surface list
        r = full_report(make_knot(19, 7))
        assert len(r.surfaces) == 6
        assert r.slopes == [-4, 0, 4, 6, 10]
        assert sum(1 for x in r.surfaces if x.slope == 0) == 2

    def test_alexander_is_the_seifert_polynomial(self):
        r = full_report(make_knot(13, 6))
        seifert = next(x for x in r.surfaces if x.surface.orientable)
        assert r.alexander == seifert.polynomial
        assert r.genus_twice == seifert.surface.genus_twice


class TestScaledRepresentation:
    """``StatePolynomial.coeffs_2k`` against the Fraction route."""

    def test_coeffs_2k_match_fraction_route_and_oracle_to_49(self):
        from bridgestate.checks import iter_knots

        for alpha, beta in iter_knots(49):
            for x in full_report(make_knot(alpha, beta)).surfaces:
                e = x.surface.expansion
                sp = x.polynomial
                assert sp.k == len(e.terms)
                assert all(type(c) is int for c in sp.coeffs_2k)
                canon = canonical_representative(state_polynomial_det(e))
                assert list(sp.coeffs_2k) == [c * 2**sp.k for c in canon.coeffs]
                assert sp.canonical == canon
                oracle = canonical_representative(
                    state_polynomial_oracle(standard_state_matrix(e))
                )
                assert list(sp.coeffs_2k) == [
                    c * 2**sp.k for c in oracle.coeffs
                ]

    def test_integrality_check_catches_a_coarse_scale(self, monkeypatch):
        # the same polynomial over denominator 2^(k+1): only the
        # 2^k-integrality check can notice
        import bridgestate.invariants as inv

        real = inv._det_scaled

        def coarse(terms):
            coeffs, scale = real(terms)
            k = len(terms)
            return [c << (k + 1 - scale) for c in coeffs], k + 1

        monkeypatch.setattr(inv, "_det_scaled", coarse)
        with pytest.raises(ConsistencyError, match="2\\^k-integrality"):
            inv.full_report(make_knot(5, 2))


class TestInvariance:
    def test_random_transformations(self):
        rng = random.Random(28)
        for _ in range(50):
            e = random_expansion(rng, max_k=7)
            check_transformation_invariance(e, rng, samples=1)

    def test_crossing_reversal_composition(self):
        # reversing the band crossing at level i acts like a normal flip
        # followed by orientation flips of all later curves
        rng = random.Random(29)
        for _ in range(50):
            e = random_expansion(rng, max_k=6)
            k = len(e.terms)
            if k < 2:
                continue
            i = rng.randint(1, k - 1)
            v = flip_normal(standard_state_matrix(e), i)
            for j in range(i + 1, k + 1):
                v = flip_orientation(v, j)
            assert state_polynomial_oracle(v) == state_polynomial_det(e)
            assert state_signature_minors(v) == state_signature(e)


class TestPresentations:
    @pytest.mark.parametrize("alpha", [15, 21, 25, 33])
    def test_inverse_presentations_agree(self, alpha):
        from math import gcd

        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            other = pow(beta, -1, alpha)
            assert invariant_multiset(make_knot(alpha, beta)) == invariant_multiset(
                make_knot(alpha, other)
            )

    @pytest.mark.parametrize("alpha,beta", [(5, 2), (7, 3), (19, 7), (33, 7)])
    def test_mirror_negates_signatures_and_slopes(self, alpha, beta):
        ours = invariant_multiset(make_knot(alpha, beta))
        mirrored = tuple(
            sorted((key, -sigma, -slope) for key, sigma, slope in ours)
        )
        assert invariant_multiset(make_knot(alpha, alpha - beta)) == mirrored


def test_consistency_error_reports_the_failed_identity(monkeypatch):
    import bridgestate.invariants as inv

    monkeypatch.setattr(inv, "_minor_signature", lambda terms: 10**6)
    with pytest.raises(ConsistencyError, match="minor recurrence"):
        inv.full_report(make_knot(5, 2))
