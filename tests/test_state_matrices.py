import random
from fractions import Fraction

import pytest

from bridgestate import (
    Expansion,
    InvalidInputError,
    flip_normal,
    flip_orientation,
    gl_matrix,
    make_knot,
    standard_state_matrix,
    state_matrix,
    surfaces_expansions,
)
from bridgestate.checks import permuted_state_matrix, random_expansion


def F(p, q=1):
    return Fraction(p, q)


class TestStandardStateMatrix:
    def test_two_three(self):
        # the 5_2 surface matrix: half-integer diagonal, unit subdiagonal
        v = standard_state_matrix(Expansion((2, 3)))
        assert v.entries == ((F(1), F(0)), (F(1), F(-3, 2)))

    @pytest.mark.parametrize("m", [3, -5, 2])
    def test_single_band(self, m):
        v = standard_state_matrix(Expansion((m,)))
        assert v.entries == ((F(m, 2),),)

    def test_all_even(self):
        v = standard_state_matrix(Expansion((-2, 4)))
        assert v.entries == ((F(-1), F(0)), (F(1), F(-2)))

    def test_shape_invariants_random(self):
        rng = random.Random(9)
        for _ in range(100):
            e = random_expansion(rng)
            v = standard_state_matrix(e)
            k = v.size
            for i in range(k):
                sign = 1 if i % 2 == 0 else -1
                assert v.entries[i][i] == F(sign * e.terms[i], 2)
                for j in range(k):
                    if j == i - 1:
                        assert v.entries[i][j] == 1
                    elif j != i:
                        assert v.entries[i][j] == 0


class TestFlipNormal:
    def test_swaps_the_pair(self):
        v = standard_state_matrix(Expansion((2, 3)))
        assert flip_normal(v, 1).entries == ((F(1), F(1)), (F(0), F(-3, 2)))

    def test_involution(self):
        v = standard_state_matrix(Expansion((2, 3, -4)))
        assert flip_normal(flip_normal(v, 2), 2) == v

    def test_gl_unchanged(self):
        rng = random.Random(10)
        for _ in range(50):
            e = random_expansion(rng, max_k=6)
            if len(e.terms) < 2:
                continue
            v = standard_state_matrix(e)
            i = rng.randint(1, len(e.terms) - 1)
            assert gl_matrix(flip_normal(v, i)) == gl_matrix(v)

    def test_index_range(self):
        v = standard_state_matrix(Expansion((2, 3)))
        for bad in (0, 2, 5):
            with pytest.raises(InvalidInputError):
                flip_normal(v, bad)


class TestFlipOrientation:
    def test_negates_row_and_column(self):
        v = standard_state_matrix(Expansion((2, 3)))
        assert flip_orientation(v, 2).entries == ((F(1), F(0)), (F(-1), F(-3, 2)))

    def test_diagonal_pointwise_invariant(self):
        v = standard_state_matrix(Expansion((3, -2, 5)))
        for i in (1, 2, 3):
            flipped = flip_orientation(v, i)
            for j in range(3):
                assert flipped.entries[j][j] == v.entries[j][j]

    def test_involution(self):
        v = standard_state_matrix(Expansion((3, -2, 5)))
        assert flip_orientation(flip_orientation(v, 3), 3) == v

    def test_index_range(self):
        v = standard_state_matrix(Expansion((2, 3)))
        for bad in (0, 3):
            with pytest.raises(InvalidInputError):
                flip_orientation(v, bad)


class TestGLMatrix:
    def test_two_three(self):
        v = standard_state_matrix(Expansion((2, 3)))
        assert gl_matrix(v).entries == ((F(2), F(1)), (F(1), F(-3)))

    def test_single_band(self):
        v = standard_state_matrix(Expansion((5,)))
        assert gl_matrix(v).entries == ((F(5),),)

    def test_symmetric_tridiagonal_with_expected_diagonal(self):
        rng = random.Random(11)
        for _ in range(50):
            e = random_expansion(rng)
            g = gl_matrix(standard_state_matrix(e)).entries
            k = len(g)
            for i in range(k):
                sign = 1 if i % 2 == 0 else -1
                assert g[i][i] == sign * e.terms[i]
                for j in range(k):
                    assert g[i][j] == g[j][i]
                    if abs(i - j) >= 2:
                        assert g[i][j] == 0


def test_flips_never_create_the_symmetric_configuration():
    # both entries of an adjacent pair nonzero simultaneously never occurs
    rng = random.Random(12)
    for _ in range(200):
        e = random_expansion(rng, max_k=6)
        k = len(e.terms)
        v = standard_state_matrix(e)
        for _ in range(rng.randint(0, 10)):
            if rng.random() < 0.5 and k > 1:
                v = flip_normal(v, rng.randint(1, k - 1))
            else:
                v = flip_orientation(v, rng.randint(1, k))
        for i in range(k - 1):
            pair = (v.entries[i][i + 1], v.entries[i + 1][i])
            assert sorted(map(abs, pair)) == [0, 1]


def test_state_matrix_must_be_square():
    with pytest.raises(InvalidInputError):
        state_matrix([[1, 0], [1]])


def _matrices_to_49():
    """Standard state matrix of every surface of every knot with alpha <= 49."""
    from bridgestate.checks import iter_knots

    for alpha, beta in iter_knots(49):
        for e in surfaces_expansions(make_knot(alpha, beta)):
            yield e, standard_state_matrix(e)


class TestScaledRepresentation:
    """``den`` and ``scaled`` against the Fraction view and builders."""

    def test_den_is_minimal(self):
        assert state_matrix([[F(1, 3), 1], [2, F(1, 6)]]).den == 6
        assert state_matrix([[F(4, 2), 1], [0, 3]]).den == 1
        rng = random.Random(13)
        for _ in range(200):
            v = standard_state_matrix(random_expansion(rng))
            odd = any(x.denominator == 2 for row in v.entries for x in row)
            assert v.den == (2 if odd else 1)
            assert all(type(x) is int for row in v.scaled for x in row)
            assert all(
                x * v.den == y for row, srow in zip(v.entries, v.scaled)
                for x, y in zip(row, srow)
            )

    def test_round_trip_through_entries(self):
        rng = random.Random(14)
        for _ in range(100):
            e = random_expansion(rng)
            k = len(e.terms)
            v = standard_state_matrix(e)
            moved = [v, flip_orientation(v, rng.randint(1, k))]
            if k > 1:
                moved.append(flip_normal(v, rng.randint(1, k - 1)))
                moved.append(permuted_state_matrix(v, rng.sample(range(k), k)))
            for m in moved:
                assert state_matrix(m.entries) == m

    def test_entries_match_fraction_builder_to_49(self):
        from oracles import fraction_state_matrix

        for e, v in _matrices_to_49():
            want = fraction_state_matrix(e.terms)
            assert v.entries == want
            assert gl_matrix(v).entries == tuple(
                tuple(a + b for a, b in zip(row, col))
                for row, col in zip(want, zip(*want))
            )

    def test_gl_den_is_one_to_49(self):
        for _, v in _matrices_to_49():
            assert gl_matrix(v).den == 1
