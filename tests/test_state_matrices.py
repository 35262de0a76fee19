import math
import random
from fractions import Fraction

import pytest

from bridgestate import (
    Expansion,
    InvalidInputError,
    StateMatrix,
    flip_normal,
    flip_orientation,
    gl_matrix,
    make_knot,
    standard_state_matrix,
)
from bridgestate.continued_fractions import surfaces_expansions
from bridgestate.state_matrices import permuted_state_matrix
from oracles import fraction_rows, random_expansion


def F(p, q=1):
    return Fraction(p, q)


class TestStandardStateMatrix:
    def test_two_three(self):
        # the 5_2 surface matrix: half-integer diagonal, unit subdiagonal
        v = standard_state_matrix(Expansion((2, 3)))
        assert fraction_rows(v) == ((F(1), F(0)), (F(1), F(-3, 2)))

    @pytest.mark.parametrize("m", [3, -5, 2])
    def test_single_band(self, m):
        v = standard_state_matrix(Expansion((m,)))
        assert fraction_rows(v) == ((F(m, 2),),)

    def test_all_even(self):
        v = standard_state_matrix(Expansion((-2, 4)))
        assert fraction_rows(v) == ((F(-1), F(0)), (F(1), F(-2)))

    def test_shape_invariants_random(self):
        rng = random.Random(9)
        for _ in range(100):
            e = random_expansion(rng)
            rows = fraction_rows(standard_state_matrix(e))
            k = len(rows)
            for i in range(k):
                sign = 1 if i % 2 == 0 else -1
                assert rows[i][i] == F(sign * e.terms[i], 2)
                for j in range(k):
                    if j == i - 1:
                        assert rows[i][j] == 1
                    elif j != i:
                        assert rows[i][j] == 0


class TestFlipNormal:
    def test_swaps_the_pair(self):
        v = standard_state_matrix(Expansion((2, 3)))
        assert fraction_rows(flip_normal(v, 1)) == ((F(1), F(1)),
                                                    (F(0), F(-3, 2)))

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
        assert fraction_rows(flip_orientation(v, 2)) == ((F(1), F(0)),
                                                         (F(-1), F(-3, 2)))

    def test_diagonal_pointwise_invariant(self):
        v = standard_state_matrix(Expansion((3, -2, 5)))
        for i in (1, 2, 3):
            flipped = flip_orientation(v, i)
            for j in range(3):
                assert flipped.scaled[j][j] == v.scaled[j][j]

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
        assert fraction_rows(gl_matrix(v)) == ((F(2), F(1)), (F(1), F(-3)))

    def test_single_band(self):
        v = standard_state_matrix(Expansion((5,)))
        assert fraction_rows(gl_matrix(v)) == ((F(5),),)

    def test_symmetric_tridiagonal_with_expected_diagonal(self):
        rng = random.Random(11)
        for _ in range(50):
            e = random_expansion(rng)
            g = fraction_rows(gl_matrix(standard_state_matrix(e)))
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
        rows = fraction_rows(v)
        for i in range(k - 1):
            pair = (rows[i][i + 1], rows[i + 1][i])
            assert sorted(map(abs, pair)) == [0, 1]


def _matrices_to_49():
    """Standard state matrix of every surface of every knot with alpha <= 49."""
    from bridgestate.checks import iter_knots

    for alpha, beta in iter_knots(49):
        for e in surfaces_expansions(make_knot(alpha, beta)):
            yield e, standard_state_matrix(e)


class TestScaledRepresentation:
    """``den`` and ``scaled`` against the Fraction rows and builders."""

    def test_den_is_minimal(self):
        # of a standard matrix and of each move of it
        rng = random.Random(13)
        for _ in range(200):
            e = random_expansion(rng)
            k = len(e.terms)
            v = standard_state_matrix(e)
            odd = any(n % 2 for n in e.terms)
            assert v.den == (2 if odd else 1)
            moved = [v, flip_orientation(v, rng.randint(1, k))]
            if k > 1:
                moved.append(flip_normal(v, rng.randint(1, k - 1)))
                moved.append(permuted_state_matrix(v, rng.sample(range(k), k)))
            for m in moved:
                rows = fraction_rows(m)
                assert m.den == math.lcm(*(x.denominator for row in rows
                                           for x in row))
                assert all(type(x) is int and x for _, x in m.nonzeros)

    def test_round_trip_through_entries(self):
        # a matrix rebuilt from its Fraction entries, over the least common
        # denominator, equals it
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
                rows = fraction_rows(m)
                den = math.lcm(*(x.denominator for row in rows for x in row))
                nonzeros = frozenset(
                    ((i, j), int(x * den)) for i, row in enumerate(rows)
                    for j, x in enumerate(row) if x)
                assert StateMatrix(len(rows), den, nonzeros) == m

    def test_entries_match_fraction_builder_to_49(self):
        from oracles import fraction_state_matrix

        for e, v in _matrices_to_49():
            want = fraction_state_matrix(e.terms)
            assert fraction_rows(v) == want
            assert fraction_rows(gl_matrix(v)) == tuple(
                tuple(a + b for a, b in zip(row, col))
                for row, col in zip(want, zip(*want))
            )

    def test_sparse_moves_match_dense_rows_to_49(self):
        # each move and V + V^T, chained so that moved matrices are moved
        # again, against the same operation on the dense ``scaled`` rows
        from oracles import (dense_flip_normal, dense_flip_orientation,
                             dense_gl_matrix, dense_permuted)

        rng = random.Random(15)
        for _, v in _matrices_to_49():
            k = v.size
            moves = [(flip_orientation, dense_flip_orientation,
                      rng.randint(1, k))]
            if k > 1:
                moves.append((flip_normal, dense_flip_normal,
                              rng.randint(1, k - 1)))
                moves.append((permuted_state_matrix, dense_permuted,
                              rng.sample(range(k), k)))
            for sparse, dense, arg in moves:
                g = gl_matrix(v)
                assert (g.den, g.scaled) == dense_gl_matrix(v.den, v.scaled)
                moved = sparse(v, arg)
                assert (moved.size, moved.den) == (k, v.den)
                assert moved.scaled == dense(v.scaled, arg)
                v = moved
            g = gl_matrix(v)
            assert (g.den, g.scaled) == dense_gl_matrix(v.den, v.scaled)

    def test_permutation_validated(self):
        v = standard_state_matrix(Expansion((2, 3, -4)))
        for bad in ([0, 0, 1], [0, 1], [1, 2, 3]):
            with pytest.raises(InvalidInputError, match="not a permutation"):
                permuted_state_matrix(v, bad)

    def test_gl_den_is_one_to_49(self):
        for _, v in _matrices_to_49():
            assert gl_matrix(v).den == 1
