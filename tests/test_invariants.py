import random
import re
from fractions import Fraction

import pytest

from bridgestate import (
    ConsistencyError,
    Expansion,
    InvalidInputError,
    SurfaceReport,
    flip_normal,
    flip_orientation,
    full_report,
    gl_matrix,
    make_knot,
    make_surface,
    standard_state_matrix,
    state_matrix,
    state_polynomial,
    surfaces_expansions,
    symmetric_signature,
)
from bridgestate.checks import check_transformation_invariance, iter_knots
from bridgestate.invariants import _det_scaled, _orbit, _start
from bridgestate.state_matrices import (
    _cuthill_mckee,
    _oracle_scaled,
    permuted_state_matrix,
)
from oracles import (
    canonical_representative,
    cf_value,
    evaluate,
    frac,
    fraction_recurrence_det,
    invariant_multiset,
    laurent,
    poly_equivalent,
    random_expansion,
    reciprocal,
    sign_count_signature,
    sign_count_slope,
    state_polynomial_det,
    state_polynomial_oracle,
)


F = frac


def surface_report(terms):
    """The ``SurfaceReport`` of the expansion ``terms`` in the full report
    of the knot it is a surface of."""
    value = cf_value(Expansion(terms))
    p, q = value.numerator, value.denominator
    # value alpha/beta (r = 0) or alpha/(beta - alpha) (r = 1)
    knot = make_knot(p, q) if p > 0 else make_knot(-p, -p - q)
    return next(r for r in full_report(knot).surfaces
                if r.surface.expansion.terms == tuple(terms))


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
            assert p.min_degree == 0 and len(p.coeffs) == k + 1
            assert p.coeffs[0] > 0
            # palindromic for even k, anti-palindromic for odd k
            sign = 1 if k % 2 == 0 else -1
            assert tuple(reversed(p.coeffs)) == tuple(sign * c for c in p.coeffs)
            assert p == canonical_representative(reciprocal(p))
            # value at 1 by parity, value at -1 the continuant's numerator
            assert abs(evaluate(p, 1)) == (1 if k % 2 == 0 else 0)
            assert abs(evaluate(p, -1)) == abs(cf_value(e).numerator)
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
        from oracles import characteristic_matrix, dict_eval, dict_mul

        minus_t = {1: -1}
        rng = random.Random(19)
        for _ in range(50):
            e = random_expansion(rng, max_k=6)
            v = standard_state_matrix(e)
            m = characteristic_matrix(v)
            g = gl_matrix(v).entries
            k = len(m)
            for i in range(k - 1):
                assert dict_mul(m[i][i + 1], m[i + 1][i]) == minus_t
            for i in range(k):
                for j in range(k):
                    assert dict_eval(m[i][j], -1) == g[i][j]


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
        singular = zero_diagonal = 0
        for _ in range(200):
            k = rng.randint(1, 6)
            den = rng.choice((1, 2, 3, 6))
            rows = [
                [F(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(k)]
                for _ in range(k)
            ]
            kind = rng.choice(("zero diagonal", "zero row", "repeat", None))
            if kind == "zero diagonal":
                # zero diagonal entries of V are zero pivots of V - t*V^T:
                # rows must be swapped, and rows that steps skipped lifted
                for i in rng.sample(range(k), rng.randint(1, k)):
                    rows[i][i] = F(0)
            elif kind and k > 1:
                # a repeated row and column, or a zero row and column, make
                # two rows of V - t*V^T equal or zero: singular
                i, j = rng.sample(range(k), 2)
                if kind == "repeat":
                    rows[i] = list(rows[j])
                    for row in rows:
                        row[i] = row[j]
                else:
                    rows[i] = [F(0)] * k
                    for row in rows:
                        row[i] = F(0)
            zero_diagonal += any(not rows[i][i] for i in range(k))
            v = state_matrix(rows)
            want = cofactor_state_polynomial(v)
            singular += want.is_zero
            assert state_polynomial_oracle(v) == want
        assert singular > 0
        assert zero_diagonal >= 40

    def test_used_rows_and_pivots_are_freed(self):
        # a used pivot row, and a pivot that no row still divides by, are
        # dropped: kept, the k = 300 steps of growing integers peak at
        # 11.8 MiB of traced memory, against 0.4 MiB dropped
        import tracemalloc

        v = standard_state_matrix(Expansion((3,) * 300))
        perm = random.Random(300).sample(range(300), 300)
        results = []
        for m in (v, permuted_state_matrix(v, perm)):
            tracemalloc.start()
            try:
                results.append(_oracle_scaled(m))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 << 20
        assert results[0] == results[1]

    def test_banded_rows_in_their_own_order_are_kept(self):
        # A - t*A^T of a standard state matrix is tridiagonal with its ends
        # at rows 0 and k-1, so Cuthill-McKee finds the identity order
        k = 6
        rows = [{j: 1 for j in (i - 1, i, i + 1) if 0 <= j < k}
                for i in range(k)]
        assert _cuthill_mckee(rows) is rows
        perm = [3, 0, 5, 1, 4, 2]
        moved = [None] * k
        for i, row in enumerate(rows):
            moved[perm[i]] = {perm[j]: x for j, x in row.items()}
        assert _cuthill_mckee(moved) == rows

    def test_matches_recurrence_random(self):
        rng = random.Random(22)
        for _ in range(200):
            e = random_expansion(rng, max_k=6)
            got = state_polynomial_oracle(standard_state_matrix(e))
            assert got == state_polynomial_det(e)


class TestPackedRecurrence:
    """``_det_scaled`` holds each polynomial as one int of signed slots,
    their width fixed by ``_start`` from |D_k|."""

    @pytest.mark.parametrize("terms", [
        (2, -2) * 300,  # |D_j| = j + 1
        (2,) * 300,
        (3,) * 200,
        (2, 2**200 + 1, 3) + (2, -2) * 50,  # one huge term
        tuple(random.Random(24).choice((2, 3, 4, 5, 6, -2, -3, -4, -5, -6))
              for _ in range(100)),
    ], ids=["alternating", "growing-even", "growing-odd", "huge-term",
            "random"])
    def test_chain_matches_both_routes(self, terms):
        coeffs, scale = _det_scaled(terms)
        det = laurent([Fraction(c, 1 << scale) for c in coeffs])
        assert det == fraction_recurrence_det(terms)
        assert det == state_polynomial_oracle(
            standard_state_matrix(Expansion(terms)))

    @pytest.mark.parametrize("alpha",
                             [3, 255, 256, 2**32 - 1, 2**32, 2**200 + 1])
    def test_start_width_holds_alpha_squared(self, alpha):
        bits = _start(alpha)[1]
        assert bits % 8 == 0 and alpha**2 < 1 << (bits - 1)
        assert bits <= 72 or alpha >= 2**32

    def test_a_72_bit_knot_matches_the_oracle_through_the_report_pass(self):
        # no census knot has slots wider than 72 bits; this alpha has 72
        # bits, so the report pass folds its walk in 152-bit slots
        report = full_report(
            make_knot(4559477258008557710025, 17880028005215534626))
        assert len(report.surfaces) == 89
        short = [r for r in report.surfaces
                 if len(r.surface.expansion.terms) <= 262]
        assert len(short) == 10
        for r in short:
            oracle = state_polynomial_oracle(
                standard_state_matrix(r.surface.expansion))
            assert poly_equivalent(oracle, r.polynomial.canonical)


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
            assert poly_equivalent(-1 * shifted, p)

    def test_distinct_polynomials(self):
        assert not poly_equivalent(laurent([1, -1]), laurent([1, 1]))


class TestStateSignature:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_maximal_signature_family(self, m):
        terms = (3,) + (-2, 2) * (m - 1) + (-2,)
        assert len(terms) == 2 * m
        assert surface_report(terms).signature == 2 * m

    @pytest.mark.parametrize("ell", [1, 2, 5])
    def test_balanced_family(self, ell):
        assert surface_report((3, 2 * ell)).signature == 0

    def test_single_positive_band(self):
        assert surface_report((7,)).signature == 1

    def test_minors_on_examples(self):
        for terms, sigma in (((-2, 4), -2), ((2, 2), 0),
                             ((5,), 1), ((-5,), -1)):
            v = standard_state_matrix(Expansion(terms))
            assert symmetric_signature(gl_matrix(v).scaled) == sigma

    def test_minors_agree_with_counts_random(self):
        rng = random.Random(24)
        for _ in range(300):
            e = random_expansion(rng, max_k=10)
            v = standard_state_matrix(e)
            sigma = symmetric_signature(gl_matrix(v).scaled)
            assert sigma == sign_count_signature(e.terms)

    def test_signature_bound(self):
        for alpha, beta in iter_knots(61):
            for r in full_report(make_knot(alpha, beta)).surfaces:
                assert abs(r.signature) <= r.surface.genus_twice


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
            assert (symmetric_signature(gl_matrix(m).scaled)
                    == sign_count_signature(e.terms))

    def test_agrees_with_minor_recurrence(self):
        rng = random.Random(26)
        for _ in range(100):
            e = random_expansion(rng, max_k=8)
            v = standard_state_matrix(e)
            assert (symmetric_signature(gl_matrix(v).entries)
                    == sign_count_signature(e.terms))

    def test_invariant_under_permutation(self):
        rng = random.Random(27)
        for _ in range(100):
            e = random_expansion(rng, max_k=7)
            k = len(e.terms)
            v = standard_state_matrix(e)
            g = gl_matrix(permuted_state_matrix(v, rng.sample(range(k), k)))
            assert (symmetric_signature(g.entries)
                    == sign_count_signature(e.terms))


class TestKnotSignature:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_zero_signature_family(self, m):
        assert full_report(make_knot(4 * m + 1, 2 * m)).signature == 0

    @pytest.mark.parametrize("ell", range(1, 11))
    def test_growing_signature_family(self, ell):
        report = full_report(make_knot(6 * ell + 1, 2 * ell))
        assert report.signature == 2 * ell

    def test_trefoil(self):
        assert full_report(make_knot(3, 1)).signature == -2


class TestBoundarySlope:
    def test_moebius_band_of_trefoil(self):
        assert surface_report((3,)).slope == 6

    def test_seifert_surface_has_slope_zero(self):
        assert surface_report((2, 2)).slope == 0

    def test_figure_eight_pair(self):
        assert surface_report((3, -2)).slope == 4
        assert surface_report((-2, 3)).slope == -4

    def test_sign_count_formula(self):
        # the reference the report's slopes are compared with below
        assert sign_count_slope((3,), (-2, 2)) == 6
        assert sign_count_slope((2, 4), (2, 4)) == 0
        assert sign_count_slope((3, -2, 2), (-2, 4)) == 10
        assert surface_report((3, -2, 2)).slope == 10

    def test_sign_count_formula_needs_even_reference(self):
        with pytest.raises(InvalidInputError):
            sign_count_slope((2, 2), (3,))

    def test_agreement_across_sample_knots(self):
        for alpha, beta in iter_knots(61):
            report = full_report(make_knot(alpha, beta))
            seifert = next(
                r.surface.expansion.terms for r in report.surfaces
                if r.surface.orientable
            )
            assert report.signature == sign_count_signature(seifert)
            for r in report.surfaces:
                e = r.surface.expansion
                assert r.slope == sign_count_slope(e.terms, seifert)
                assert r.signature == sign_count_signature(e.terms)


class TestKnotLevel:
    @pytest.mark.parametrize(
        "alpha,beta,coeffs",
        [(3, 1, [1, -1, 1]), (5, 2, [1, -3, 1]), (7, 3, [2, -3, 2])],
    )
    def test_alexander(self, alpha, beta, coeffs):
        alexander = full_report(make_knot(alpha, beta)).alexander
        assert alexander.canonical == laurent(coeffs)

    def test_alexander_has_integer_coefficients_to_61(self):
        for alpha, beta in iter_knots(61):
            alexander = full_report(make_knot(alpha, beta)).alexander
            assert all(c % 2**alexander.k == 0 for c in alexander.coeffs_2k)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_torus_knot_genus(self, m):
        assert full_report(make_knot(m, 1)).genus_twice == m - 1

    def test_genus_one_knots(self):
        assert full_report(make_knot(5, 2)).genus_twice == 2
        # Seifert expansion [4, 2]
        assert full_report(make_knot(9, 2)).genus_twice == 2

    def test_crosscap(self):
        assert full_report(make_knot(3, 1)).nonorientable_genus_twice == 1
        assert full_report(make_knot(5, 2)).nonorientable_genus_twice == 2

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
        assert full_report(knot).genus_twice == 2
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
        report = full_report(knot)
        assert ks[0] > report.genus_twice + 1
        assert report.nonorientable_genus_twice == 3


class TestFullReport:
    def test_figure_eight(self):
        r = full_report(make_knot(5, 2))
        assert len(r.surfaces) == 3
        assert r.determinant == 5
        assert r.signature == 0
        assert r.slopes == (-4, 0, 4)
        assert sorted(x.signature for x in r.surfaces) == [-2, 0, 2]
        for x in r.surfaces:
            assert abs(evaluate(x.polynomial.canonical, -1)) == 5

    def test_five_two_knot(self):
        r = full_report(make_knot(7, 3))
        assert [x.surface.expansion.terms for x in r.surfaces] == [
            (2, 3),
            (3, -2, 2),
            (-2, 4),
        ]
        assert r.slopes == (0, 4, 10)
        for x in r.surfaces:
            assert abs(evaluate(x.polynomial.canonical, -1)) == 7

    def test_trefoil(self):
        r = full_report(make_knot(3, 1))
        assert len(r.surfaces) == 2
        assert r.slopes == (0, 6)
        assert r.alexander.canonical == laurent([1, -1, 1])

    def test_shared_slope(self):
        # two surfaces of K(19,7) have boundary slope 0, so the slope set
        # is shorter than the surface list
        r = full_report(make_knot(19, 7))
        assert len(r.surfaces) == 6
        assert r.slopes == (-4, 0, 4, 6, 10)
        assert sum(1 for x in r.surfaces if x.slope == 0) == 2

    def test_alexander_is_the_seifert_polynomial(self):
        r = full_report(make_knot(13, 6))
        seifert = next(x for x in r.surfaces if x.surface.orientable)
        assert r.alexander == seifert.polynomial
        assert r.genus_twice == seifert.surface.genus_twice


class TestScaledRepresentation:
    """``StatePolynomial.coeffs_2k`` against the Fraction route."""

    def test_coeffs_2k_match_fraction_route_and_oracle_to_49(self):
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
        # at the first odd term the shared step moves d_j and d_{j-1} to a
        # denominator 8 times as large, so each surface of K(5,2) (k = 2)
        # with s >= 1 odd terms gets the same polynomial over 2^(s+3) > 2^k;
        # the all-even one stays orientable: only the 2^k-integrality check
        # can notice
        import bridgestate.invariants as inv

        real = inv._surface_step

        def coarse(state, j, n):
            new = list(real(state, j, n))
            if new[2] and not state[2]:
                for i in (0, 5):  # d_j and d_{j-1}
                    new[i] <<= 3
                new[2] += 3  # the scales of d_j and d_{j-1}
                new[6] += 3
            return tuple(new)

        monkeypatch.setattr(inv, "_surface_step", coarse)
        with pytest.raises(ConsistencyError, match="2\\^k-integrality"):
            inv.full_report(make_knot(5, 2))


class TestInvariance:
    def test_random_transformations(self):
        rng = random.Random(28)
        for _ in range(50):
            e = random_expansion(rng, max_k=7)
            check_transformation_invariance(
                e, rng, samples=1, det=_det_scaled(e.terms),
                base=standard_state_matrix(e),
                sigma=sign_count_signature(e.terms))

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
            sigma = symmetric_signature(gl_matrix(v).scaled)
            assert sigma == sign_count_signature(e.terms)


class TestPresentations:
    @pytest.mark.parametrize("alpha", [15, 21, 25, 33])
    def test_inverse_presentations_agree(self, alpha):
        from math import gcd

        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            other = pow(beta, -1, alpha)
            assert invariant_multiset(
                full_report(make_knot(alpha, beta))
            ) == invariant_multiset(full_report(make_knot(alpha, other)))

    @pytest.mark.parametrize("alpha,beta", [(5, 2), (7, 3), (19, 7), (33, 7)])
    def test_mirror_negates_signatures_and_slopes(self, alpha, beta):
        ours = invariant_multiset(full_report(make_knot(alpha, beta)))
        mirrored = tuple(
            sorted((key, -sigma, -slope) for key, sigma, slope in ours)
        )
        assert invariant_multiset(
            full_report(make_knot(alpha, alpha - beta))
        ) == mirrored


@pytest.fixture(scope="module")
def reports_to_99():
    """full_report of every presentation with alpha <= 99, by (alpha, beta)."""
    return {knot: full_report(make_knot(*knot)) for knot in iter_knots(99)}


def moved_report(report, beta, reverse, mirror):
    """The report of K(alpha, beta) as the census builds it: by its own
    report pass, given the polynomials the move (``reverse``, ``mirror``)
    of ``_moved_polys`` takes to it from ``report``."""
    import bridgestate.invariants as inv

    knot = make_knot(report.knot.alpha, beta)
    return inv._knot_report(knot, inv._report_pass(
        knot, inv._moved_polys(report, reverse, mirror)))


class TestPresentationMaps:
    def test_maps_give_the_computed_reports(self, reports_to_99):
        # from every presentation, each move _orbit lists builds the report
        # full_report computes for the knot it reaches, surface order and
        # r tags included
        two_member = {1: 0, -1: 0}
        for (alpha, beta), report in reports_to_99.items():
            for target, moves in _orbit(report.knot).items():
                for _, reverse, mirror in moves:
                    derived = moved_report(report, target, reverse, mirror)
                    assert derived.knot == make_knot(alpha, target)
                    assert derived == reports_to_99[alpha, target]
            for unit in two_member:
                two_member[unit] += (beta * beta - unit) % alpha == 0
        # the two-member orbits are covered: beta**2 = 1 (beta^-1 = beta)
        # and beta**2 = -1 (beta^-1 = alpha - beta) mod alpha
        assert two_member == {1: 138, -1: 32}

    def test_a_polynomial_with_no_leaf_is_named(self, reports_to_99,
                                                monkeypatch):
        import bridgestate.invariants as inv

        real = inv._moved_polys
        monkeypatch.setattr(inv, "_moved_polys", lambda *move: {
            **real(*move), (2, 2, 2): reports_to_99[7, 2].alexander})
        with pytest.raises(ConsistencyError, match=re.escape(
                "walk = moved surfaces failed for [2, 2, 2] of K(7,5): a "
                "surface was moved to it, and the walk does not reach it")):
            moved_report(reports_to_99[7, 2], 5, False, True)

    @pytest.mark.parametrize("fault, identity", [
        ("swap", "determinant identity |p(-1)| = alpha failed for "
                 "[2, -2, 3] of K(7,5)"),
        ("negate", "canonical polynomial of degree k failed for [-3, -2] of "
                   "K(7,5)"),
    ])
    def test_each_moved_polynomial_is_checked(self, reports_to_99,
                                              monkeypatch, fault, identity):
        # swapped: the polynomials of the first and the last surface, of
        # different k; negated: that of the first surface
        import bridgestate.invariants as inv

        real = inv._moved_polys

        def faulty(*move):
            moved = real(*move)
            first, last = list(moved)[0], list(moved)[-1]
            if fault == "swap":
                moved[first], moved[last] = moved[last], moved[first]
            else:
                poly = moved[first]
                moved[first] = inv.StatePolynomial(
                    poly.k, tuple(-c for c in poly.coeffs_2k))
            return moved

        monkeypatch.setattr(inv, "_moved_polys", faulty)
        with pytest.raises(ConsistencyError, match=re.escape(identity)):
            moved_report(reports_to_99[7, 2], 5, False, True)

    def test_a_moved_build_folds_one_walk_of_minor_steps(self, monkeypatch):
        # siblings share their prefix's steps and the Seifert path is
        # folded once: for every move at alpha <= 35, building the report
        # folds _minor_step as often as full_report of the same knot folds
        # _surface_step, and never _surface_step
        from collections import Counter

        import bridgestate.invariants as inv

        calls = Counter()
        for name in ("_surface_step", "_minor_step"):
            def counted(state, j, n, name=name, real=getattr(inv, name)):
                calls[name] += 1
                return real(state, j, n)

            monkeypatch.setattr(inv, name, counted)
        moves = 0
        for alpha, beta in iter_knots(35):
            report = full_report(make_knot(alpha, beta))
            for target, orbit_moves in _orbit(report.knot).items():
                calls.clear()
                full_report(make_knot(alpha, target))
                steps = calls["_surface_step"]
                assert steps > 0
                for _, reverse, mirror in orbit_moves:
                    calls.clear()
                    moved_report(report, target, reverse, mirror)
                    assert calls == {"_minor_step": steps}
                    moves += 1
        assert moves == 674


def test_report_pass_checks_the_seifert_expansion(report_pass_fault):
    # slopes are measured from the surface the report pass yields first, so
    # it must be the walk's one orientable surface
    first = make_surface(Expansion((3, -2)))
    report_pass_fault(lambda i, r: SurfaceReport(
        first, r.polynomial, r.signature, r.slope) if i == 0 else r)
    with pytest.raises(ConsistencyError, match=re.escape(
            "Seifert surface = the walk's one orientable surface, of even "
            "genus2 failed for [3, -2] of K(5,2): the orientable surfaces "
            "are ['[2, 2]'], and it has genus2 2")):
        full_report(make_knot(5, 2))


def test_consistency_error_reports_the_failed_identity(
        step_minor_signature_plus_1):
    with pytest.raises(ConsistencyError, match="minor recurrence"):
        full_report(make_knot(5, 2))
