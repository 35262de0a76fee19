"""State matrices of essential spanning surfaces, and the moves between them.

The standard state matrix of [n1, ..., nk] is lower bidiagonal: diagonal
entry (i, i) is (-1)**(i+1) * ni/2 (a half-integer when ni is odd) and each
subdiagonal entry (i+1, i) is 1.  The three moves below realize the choices
left open by the construction: flipping the normal vector at a band crossing
exchanges the (i, i+1)/(i+1, i) pair, reversing a curve orientation negates
a row and column, and renumbering the curves permutes rows and columns
together.  V + V^T is independent of the normal choices and presents the
Gordon-Litherland form (it is a Goeritz matrix of the knot).

Matrices are sparse and integer-native: a k x k rational matrix V is stored
as ``size`` k, ``den`` and ``nonzeros``, the frozenset of ((i, j), x) over
the nonzero entries x of the integer matrix den * V (0-based i, j), with den
the lcm of the entry denominators.  den is minimal, so equal matrices
compare equal: a state matrix has den 2 if some term is odd, else 1, and its
V + V^T has den 1.  Only this module builds matrices, in O(nonzeros) (a
state matrix has at most 2k - 1).  ``scaled``, the dense int rows of den * V,
and ``entries``, the exact Fraction rows of V, are views built on access.

The moves take band numbers: 1-based, as in the n_i themselves.
"""

import math
from itertools import chain

from .continued_fractions import Expansion
from .errors import InvalidInputError
from .values import Value


class _SparseMatrix(Value):
    """size x size rational matrix M as ``nonzeros``, the ((i, j), x) of
    den * M with x != 0, den minimal; ``scaled[i][j]`` is the int and
    ``entries[i][j]`` the Fraction at 0-based (i, j)."""

    __slots__ = ("size", "den", "nonzeros")

    @property
    def scaled(self) -> tuple:
        nz, n = dict(self.nonzeros), range(self.size)
        return tuple(tuple(nz.get((i, j), 0) for j in n) for i in n)

    @property
    def entries(self) -> tuple:
        from fractions import Fraction
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.scaled)


class StateMatrix(_SparseMatrix):
    """A state matrix V."""

    __slots__ = ()


class GLMatrix(_SparseMatrix):
    """Symmetric matrix of the Gordon-Litherland form, V + V^T."""

    __slots__ = ()


def _scaled_nonzeros(rows, what: str) -> tuple:
    """(size, den, {(i, j): x}) for the nonzero entries x of den * M, where
    M, given as ``rows``, must be a square matrix of ints/Fractions and den
    is the lcm of its entry denominators."""
    rows = [tuple(row) for row in rows]
    if any(len(row) != len(rows) for row in rows):
        raise InvalidInputError(f"{what} must be square")
    try:
        den = math.lcm(*{x.denominator for x in chain.from_iterable(rows)})
    except AttributeError:
        raise InvalidInputError(
            f"{what} entries must be ints or Fractions, got {rows!r}"
        ) from None
    return len(rows), den, {(i, j): x.numerator * (den // x.denominator)
                            for i, row in enumerate(rows)
                            for j, x in enumerate(row) if x}


def state_matrix(rows) -> StateMatrix:
    """Build a StateMatrix from any nested sequence of ints/Fractions."""
    size, den, nonzeros = _scaled_nonzeros(rows, "state matrix")
    return StateMatrix(size, den, frozenset(nonzeros.items()))


def standard_state_matrix(e: Expansion) -> StateMatrix:
    """The canonical state matrix of an expansion.

    >>> standard_state_matrix(Expansion((2, 3))).entries
    ((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(-3, 2)))
    """
    terms = e.terms
    if any(n % 2 for n in terms):
        den, diag, sub = 2, terms, 2
    else:
        den, diag, sub = 1, [n // 2 for n in terms], 1
    nonzeros = [((i, i), n if i % 2 == 0 else -n) for i, n in enumerate(diag)]
    nonzeros += [((i, i - 1), sub) for i in range(1, len(diag))]
    return StateMatrix(len(diag), den, frozenset(nonzeros))


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
    swap = {(a, b): (b, a), (b, a): (a, b)}
    return StateMatrix(v.size, v.den, frozenset(
        (swap.get(ij, ij), x) for ij, x in v.nonzeros))


def flip_orientation(v: StateMatrix, i: int) -> StateMatrix:
    """Reverse the orientation of curve i: negate row i and column i.

    The diagonal entry (i, i) is negated twice, hence unchanged.
    """
    _check_index(i, 1, v.size, "orientation flip")
    a = i - 1
    return StateMatrix(v.size, v.den, frozenset(
        ((r, c), -x if (r == a) != (c == a) else x)
        for (r, c), x in v.nonzeros))


def permuted_state_matrix(v: StateMatrix, perm) -> StateMatrix:
    """Renumber the curves: simultaneous row/column permutation, with
    0-based row ``perm[i]`` of V becoming row i."""
    if sorted(perm) != list(range(v.size)):
        raise InvalidInputError(f"renumbering {perm!r} is not a permutation")
    pos = {old: new for new, old in enumerate(perm)}
    return StateMatrix(v.size, v.den, frozenset(
        ((pos[r], pos[c]), x) for (r, c), x in v.nonzeros))


def gl_matrix(v: StateMatrix) -> GLMatrix:
    """V + V^T, the matrix of the Gordon-Litherland form."""
    sums = {}
    for (i, j), x in v.nonzeros:
        sums[i, j] = sums.get((i, j), 0) + x
        sums[j, i] = sums.get((j, i), 0) + x
    g = math.gcd(v.den, *sums.values())
    return GLMatrix(v.size, v.den // g, frozenset(
        (ij, x // g) for ij, x in sums.items() if x))
