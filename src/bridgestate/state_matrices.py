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
V + V^T has den 1.  Only this module builds and eliminates matrices; it
builds them in O(nonzeros) (a state matrix has at most 2k - 1).  ``scaled``,
the dense int rows of den * V, and ``entries``, the exact Fraction rows of
V, are views built on access.

The moves take band numbers: 1-based, as in the n_i themselves.

The elimination oracle ``_oracle_scaled`` shares neither the walk nor any
helper with the recurrence of ``invariants``, which imports nothing from
this module (``tests/test_imports.py`` keeps it so): it is exact sparse
elimination of D*(V - t*V^T) at t = 2**B on the nonzeros of the integer
matrix D*V a ``StateMatrix`` stores, with its own reading of the digits,
polynomial in k, so ``checks`` runs it on every surface.  Signatures of
transformed matrices come from exact sparse integer elimination as well
(``_sparse_signature``); the two share one row update.  Both keep only the
rows they still need: each row carries the pivot it was last divided by,
and a used pivot row is dropped, so a pivot is freed once no row divides
by it.
"""

import math
from itertools import chain

from .continued_fractions import Expansion
from .errors import ConsistencyError, InvalidInputError
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


# ---------------------------------------------------------------------------
# elimination oracle


def _bareiss_update(row: dict, x: int, prow: dict, p: int, g: int) -> None:
    """One fraction-free (Bareiss) update of the sparse ``row``, in place:
    with its entry x in the pivot column removed, it becomes exactly
    (p * row - x * prow) / g, for the pivot p, the rest ``prow`` of its row,
    and the pivot g of the step at which ``row`` last changed; zeros are
    dropped.  x = 0 lifts a row over the steps that skipped it.  g divides
    by Sylvester's identity, so a remainder is reported as a bug."""
    for j in prow:
        if j not in row:
            row[j] = 0
    for j, y in row.items():
        y = p * y - x * prow.get(j, 0)
        if g != 1:
            y, rem = divmod(y, g)
            if rem:
                raise ConsistencyError("inexact Bareiss division")
        row[j] = y
    for j in [j for j, y in row.items() if not y]:
        del row[j]


def _cuthill_mckee(rows) -> list:
    """The sparse rows (dicts column -> value) of a matrix with a symmetric
    sparsity pattern, rows and columns relabelled in Cuthill-McKee order.

    A simultaneous row and column permutation is a congruence by a
    permutation matrix: it keeps the determinant and the signature, and it
    keeps the fill-in of a (near-)banded matrix small."""
    k = len(rows)
    degree = [len(row) - (i in row) for i, row in enumerate(rows)]
    order, seen = [], [False] * k
    for start in sorted(range(k), key=degree.__getitem__):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for u in queue:
            nbrs = [j for j in rows[u] if not seen[j]]
            nbrs.sort(key=degree.__getitem__)
            for j in nbrs:
                seen[j] = True
            queue.extend(nbrs)
        order.extend(queue)
    if order == [*range(k)]:  # a banded matrix in its own order
        return rows
    pos = [0] * k
    for idx, i in enumerate(order):
        pos[i] = idx
    return [{pos[j]: x for j, x in rows[i].items()} for i in order]


def _oracle_scaled(v: StateMatrix) -> tuple:
    """(coefficients of det(A - t*A^T), den**k) for A = den * V read from
    ``v.nonzeros``, lowest degree first: k + 1 ints, all zero if singular.

    Every coefficient of det(A - t*A^T) is smaller in absolute value than
    prod_i sum_j (|A_ij| + |A_ji|) < 2**(B-1).  Substituting t = 2**B
    (Kronecker) turns the polynomial determinant into one integer
    determinant, computed by fraction-free Bareiss elimination (Math. Comp.
    22, 1968) on sparse rows in Cuthill-McKee order; its k + 1 signed
    base-2**B digits are the coefficients.  A row without the pivot column
    is swapped with the lowest row below that has it, negating the sign.
    Each row is lifted over the steps that skipped it when it becomes a
    pivot row, and dropped once its step is done.
    """
    k = v.size
    scale = v.den ** k
    zero = [0] * (k + 1), scale

    # coefficient bound, and the sparse rows of A - 2**B * A^T
    sums = [0] * k
    for (i, j), x in v.nonzeros:
        sums[i] += abs(x)
        sums[j] += abs(x)
    bound = math.prod(sums)
    if not bound:
        return zero  # a zero row and column
    bits = bound.bit_length() + 1
    m = [{} for _ in range(k)]
    for (i, j), x in v.nonzeros:
        m[i][j] = m[i].get(j, 0) + x
        m[j][i] = m[j].get(i, 0) - (x << bits)
    rows = _cuthill_mckee(m)

    # sparse Bareiss elimination with row swaps: div[i] is the pivot of the
    # step at which rows[i] last changed, p the pivot of the last step; a
    # used pivot row is dropped, and with it what nothing still divides by
    div = [1] * k
    p, sign = 1, 1
    for c in range(k):
        cand = [i for i in range(c, k) if c in rows[i]]
        if not cand:
            return zero
        r = cand[0]  # row c if it has column c, else the lowest row below
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            div[c], div[r] = div[r], div[c]
            sign = -sign
        prow, g = rows[c], div[c]
        rows[c] = div[c] = None
        if g != p:  # a row that steps skipped: lift it to step c
            _bareiss_update(prow, 0, {}, p, g)
        p = prow.pop(c)
        for i in cand[1:]:
            row = rows[i]
            _bareiss_update(row, row.pop(c), prow, p, div[i])
            div[i] = p
    det = sign * p

    # signed base-2**B digits, lowest degree first
    base, half = 1 << bits, 1 << (bits - 1)
    coeffs = []
    for _ in range(k + 1):
        digit = det & (base - 1)
        if digit >= half:
            digit -= base
        coeffs.append(digit)
        det = (det - digit) >> bits
    if det:
        raise ConsistencyError(
            f"elimination determinant of a size-{k} matrix exceeds degree {k}"
        )
    return coeffs, scale


# ---------------------------------------------------------------------------
# signatures


def symmetric_signature(rows) -> int:
    """Signature of an arbitrary symmetric matrix of ints or Fractions,
    scaled to integers by the lcm of the denominators and signed by
    ``_sparse_signature``; any other matrix raises InvalidInputError."""
    n, _, entries = _scaled_nonzeros(rows, "matrix")
    if any(entries.get((j, i)) != x for (i, j), x in entries.items()):
        raise InvalidInputError("matrix must be symmetric")
    return _sparse_signature(n, entries.items())


def _sparse_signature(n: int, nonzeros) -> int:
    """Signature of the symmetric integer n x n matrix whose nonzero
    entries are the ((i, j), x) of ``nonzeros``, such as a GLMatrix's.

    Exact sparse fraction-free (Bareiss) symmetric elimination in
    Cuthill-McKee order.  Its pivots are leading principal minors, and by
    Jacobi's rule each adds +1 if it has the sign of the one before and -1
    otherwise.  A zero pivot is met by a symmetric swap with a nonzero
    diagonal entry, else by the zero-diagonal repair move (add row and
    column r to row and column i: the diagonal entry becomes 2*a_ir), and
    a zero row is skipped; all are congruences.  A used pivot row is
    dropped.  ``checks`` signs every transformed state matrix with it,
    renumbered or not.
    """
    m = [{} for _ in range(n)]
    for (i, j), x in nonzeros:
        m[i][j] = x
    m = _cuthill_mckee(m)

    # div[i] is the pivot of the step at which m[i] last changed, p the
    # pivot of the last step; lift brings a row up to the current step, and
    # a used pivot row is dropped
    div = [1] * n
    p = 1

    def lift(i):
        row = m[i]
        if div[i] != p:
            _bareiss_update(row, 0, {}, p, div[i])
            div[i] = p
        return row

    sig = 0
    todo = list(range(n))
    while todo:
        i = next((i for i in todo if i in m[i]), None)  # symmetric swap
        if i is None:  # every diagonal entry is zero
            i = todo[0]
            if not m[i]:
                del todo[0]  # a zero row and column
                continue
            # repair: add row and column r to row and column i
            r = min(m[i])
            row, row_r = lift(i), lift(r)
            for j, x in row_r.items():
                row[j] = row.get(j, 0) + x
            for j in row_r:  # zeros this leaves go with the pivot on i
                m[j][i] = m[j].get(i, 0) + m[j][r]
        todo.remove(i)
        prow = lift(i)
        m[i] = div[i] = None
        sig += 1 if (prow[i] > 0) == (p > 0) else -1
        p = prow.pop(i)
        for j in prow:
            row = m[j]
            _bareiss_update(row, row.pop(i), prow, p, div[j])
            div[j] = p
    return sig
