"""State matrices of essential spanning surfaces, and the moves between them.

The standard state matrix of [n1, ..., nk] is lower bidiagonal: diagonal
entry (i, i) is (-1)**(i+1) * ni/2 (a half-integer when ni is odd) and each
subdiagonal entry (i+1, i) is 1.  The two moves below realize the choices
left open by the construction: flipping the normal vector at a band crossing
exchanges the (i, i+1)/(i+1, i) pair, and reversing a curve orientation
negates a row and column.  V + V^T is independent of the normal choices and
presents the Gordon-Litherland form (it is a Goeritz matrix of the knot).

Matrices are integer-native: a rational matrix V is stored as ``den`` and
``scaled``, the rows of the integer matrix den * V, with den the lcm of the
entry denominators.  den is minimal, so the representation is canonical and
equal matrices compare equal: a state matrix has den 2 if some term is odd
and 1 otherwise, and its V + V^T has den 1.  ``entries`` is the exact
Fraction view, built on each access.

Indices follow the band numbering: 1-based, as in the n_i themselves.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .continued_fractions import Expansion
from .errors import InvalidInputError


@dataclass(frozen=True)
class _ScaledMatrix:
    """k x k rational matrix M as ``scaled``, the int rows of den * M, with
    den minimal; ``entries[i][j]`` is the Fraction at 0-based (i, j)."""

    den: int
    scaled: tuple

    @property
    def size(self) -> int:
        return len(self.scaled)

    @property
    def entries(self) -> tuple:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.scaled)


class StateMatrix(_ScaledMatrix):
    """A state matrix V."""


class GLMatrix(_ScaledMatrix):
    """Symmetric matrix of the Gordon-Litherland form, V + V^T."""


def state_matrix(rows) -> StateMatrix:
    """Build a StateMatrix from any nested sequence of ints/Fractions."""
    rows = [tuple(row) for row in rows]
    if any(len(row) != len(rows) for row in rows):
        raise InvalidInputError("state matrix must be square")
    den = math.lcm(*{x.denominator for x in chain.from_iterable(rows)})
    return StateMatrix(den, tuple(
        tuple(x.numerator * (den // x.denominator) for x in row)
        for row in rows
    ))


def standard_state_matrix(e: Expansion) -> StateMatrix:
    """The canonical state matrix of an expansion.

    >>> standard_state_matrix(Expansion((2, 3))).entries
    ((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(-3, 2)))
    """
    terms = e.terms
    k = len(terms)
    if any(n % 2 for n in terms):
        den, diag, sub = 2, list(terms), 2
    else:
        den, diag, sub = 1, [n // 2 for n in terms], 1
    rows = []
    for i, n in enumerate(diag):
        row = [0] * k
        row[i] = n if i % 2 == 0 else -n
        if i > 0:
            row[i - 1] = sub
        rows.append(tuple(row))
    return StateMatrix(den, tuple(rows))


def _check_index(i: int, lo: int, hi: int, what: str):
    if not lo <= i <= hi:
        raise InvalidInputError(f"{what} index {i} out of range [{lo}, {hi}]")


def flip_normal(v: StateMatrix, i: int) -> StateMatrix:
    """Reverse the normal vector at the crossing of bands i and i+1.

    Exchanges the entries at (i, i+1) and (i+1, i); V + V^T is unchanged.
    An involution: applying it twice restores the matrix.
    """
    _check_index(i, 1, v.size - 1, "normal flip")
    a, b = i - 1, i  # 0-based row/col positions
    rows = list(v.scaled)
    ra, rb = rows[a], rows[b]
    rows[a] = ra[:b] + (rb[a],) + ra[b + 1:]
    rows[b] = rb[:a] + (ra[b],) + rb[a + 1:]
    return StateMatrix(v.den, tuple(rows))


def flip_orientation(v: StateMatrix, i: int) -> StateMatrix:
    """Reverse the orientation of curve i: negate row i and column i.

    The diagonal entry (i, i) is negated twice, hence unchanged.
    """
    _check_index(i, 1, v.size, "orientation flip")
    a = i - 1
    rows = [r[:a] + (-r[a],) + r[a + 1:] if r[a] else r for r in v.scaled]
    rows[a] = tuple(-x for x in rows[a])
    return StateMatrix(v.den, tuple(rows))


def gl_matrix(v: StateMatrix) -> GLMatrix:
    """V + V^T, the matrix of the Gordon-Litherland form."""
    rows = [
        tuple(a + b for a, b in zip(row, col))
        for row, col in zip(v.scaled, zip(*v.scaled))
    ]
    g = math.gcd(v.den, *chain.from_iterable(rows))
    if g > 1:
        rows = [tuple(x // g for x in row) for row in rows]
    return GLMatrix(v.den // g, tuple(rows))
