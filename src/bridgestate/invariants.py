"""State polynomials, state signatures, boundary slopes, knot invariants.

Conventions, fixed once here:

* The state polynomial of a surface is det(V - t*V^T) for any of its state
  matrices; it is well defined up to a unit +-t^j.  We publish the canonical
  representative: lowest degree shifted to 0 and lowest coefficient positive.
  It always has degree k, |constant| = |leading| = |n1*...*nk| / 2^k, and
  |value at -1| equal to the knot determinant alpha.
* The state signature is the signature of V + V^T; it equals
  n_plus - n_minus of the expansion, and is recomputed independently from
  the leading principal minors as a cross-check.
* The boundary slope of a surface is 2 * (sigma_S - sigma_K), where sigma_K
  is the state signature of the unique all-even (Seifert) expansion.  The
  Seifert surface itself always has slope 0.  Mirroring the knot
  (beta -> alpha - beta) negates all signatures and slopes.

The tridiagonal determinant is computed by the three-term recurrence
d_0 = 1, d_1 = (n1/2)(1-t), d_j = (-1)**(j+1) * (nj/2)(1-t) * d_{j-1}
+ t * d_{j-2}, carried out on 2**s-scaled integer coefficient lists (s grows
only at odd terms, so s <= k).  A ``StatePolynomial`` keeps them as the
integer coefficients of 2**k times the canonical representative, so reports
never leave integer arithmetic; Fraction-valued ``LaurentPolynomial``s are
built only for display, the public oracle wrapper and failure messages.
The oracle, structurally independent of the recurrence, is exact sparse
elimination of D*(V - t*V^T) at t = 2**B on the integer matrix D*V a
``StateMatrix`` stores, polynomial in k, so it checks every surface.
Signatures of transformed matrices come from exact sparse integer
elimination as well (``symmetric_signature``).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .continued_fractions import Expansion, surfaces_expansions
from .errors import ConsistencyError, InvalidInputError
from .laurent import ZERO, LaurentPolynomial
from .state_matrices import StateMatrix, gl_matrix
from .surfaces import (
    EssentialSurface,
    TwoBridgeKnot,
    essential_surfaces,
    find_seifert,
    sign_counts,
)

# ---------------------------------------------------------------------------
# state polynomial


def _det_scaled(terms) -> tuple:
    """Integer coefficient list of 2**s * det(V - t*V^T), plus s.

    V is the standard state matrix of ``terms``; the determinant is returned
    uncanonicalized, lowest degree first (its constant term det(V) is never
    zero).  s is the number of odd terms: every denominator in the exact
    determinant divides 2**s, so the scaled coefficients are integers.
    """
    n1 = terms[0]
    if n1 % 2 == 0:
        cur, s_cur = [n1 // 2, -(n1 // 2)], 0
    else:
        cur, s_cur = [n1, -n1], 1
    prev, s_prev = [1], 0
    for j in range(2, len(terms) + 1):
        n = terms[j - 1]
        odd = n % 2 != 0
        half = n if odd else n // 2
        mult = half if j % 2 == 1 else -half
        s_new = s_cur + 1 if odd else s_cur
        shift = s_new - s_prev
        a, b = cur, prev
        if shift:
            mid = [mult * (x - y) + (z << shift) for x, y, z in zip(a[1:], a, b)]
        else:
            mid = [mult * (x - y) + z for x, y, z in zip(a[1:], a, b)]
        new = [mult * a[0]]
        new.extend(mid)
        new.append(-mult * a[-1])
        prev, s_prev, cur, s_cur = a, s_cur, new, s_new
    return cur, s_cur


def laurent_over(coeffs, den: int) -> LaurentPolynomial:
    """The polynomial sum_i coeffs[i] / den * t**i."""
    return LaurentPolynomial(0, tuple(Fraction(c, den) for c in coeffs))


def state_polynomial_det(e: Expansion) -> LaurentPolynomial:
    """det(V - t*V^T) for the standard state matrix, uncanonicalized."""
    coeffs, scale = _det_scaled(e.terms)
    return laurent_over(coeffs, 1 << scale)


def canonical_representative(p: LaurentPolynomial) -> LaurentPolynomial:
    """The representative of {+-t^j * p} with min degree 0 and positive
    lowest coefficient."""
    if p.is_zero or (p.min_degree == 0 and p.coeffs[0] > 0):
        return p
    if p.coeffs[0] < 0:
        return LaurentPolynomial(0, tuple(-c for c in p.coeffs))
    return LaurentPolynomial(0, p.coeffs)


def poly_equivalent(p: LaurentPolynomial, q: LaurentPolynomial) -> bool:
    """True iff p = +-t^j * q for some integer j."""
    return canonical_representative(p) == canonical_representative(q)


@dataclass(frozen=True)
class StatePolynomial:
    """Canonical state polynomial of a surface with k bands.

    ``coeffs_2k`` holds the integer coefficients of 2**k times the canonical
    representative, lowest degree first: k + 1 of them, the first positive
    and the last nonzero, palindromic for even k and anti-palindromic for
    odd k.  ``canonical`` is the same polynomial with exact Fraction
    coefficients, built on each access.
    """

    k: int
    coeffs_2k: tuple

    @property
    def canonical(self) -> LaurentPolynomial:
        return laurent_over(self.coeffs_2k, 1 << self.k)


def _canonical_from_scaled(coeffs, scale: int, k: int) -> StatePolynomial:
    """StatePolynomial of a ``_det_scaled`` result, with its degree and
    2**k-integrality checked."""
    if coeffs[-1] == 0 or len(coeffs) != k + 1:
        raise ConsistencyError(
            f"state polynomial of a k={k} expansion must have degree {k}"
        )
    if scale > k:
        raise ConsistencyError(
            f"2^k-integrality failed: denominator exponent {scale} > k = {k}"
        )
    mult = (-1 if coeffs[0] < 0 else 1) << (k - scale)
    return StatePolynomial(k, tuple([mult * c for c in coeffs]))


def state_polynomial(e: Expansion) -> StatePolynomial:
    """Canonical state polynomial of the surface of ``e``.

    >>> str(state_polynomial(Expansion((2, 3))).canonical)
    '3/2 - 4*t + 3/2*t^2'
    """
    return _canonical_from_scaled(*_det_scaled(e.terms), len(e.terms))


# ---------------------------------------------------------------------------
# elimination oracle


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
    pos = [0] * k
    for idx, i in enumerate(order):
        pos[i] = idx
    return [{pos[j]: x for j, x in rows[i].items()} for i in order]


def _oracle_scaled(v: StateMatrix) -> tuple:
    """(coefficients of det(A - t*A^T), den) for A = v.scaled = den * V,
    lowest degree first: k + 1 ints, all zero for a singular matrix.

    Every coefficient of det(A - t*A^T) is smaller in absolute value than
    prod_i sum_j (|A_ij| + |A_ji|) < 2**(B-1).  Substituting t = 2**B
    (Kronecker) turns the polynomial determinant into one integer
    determinant, computed by fraction-free Bareiss elimination (Math. Comp.
    22, 1968) on sparse rows in Cuthill-McKee order; its k + 1 signed
    base-2**B digits are the coefficients.
    """
    k = v.size
    a = [{j: x for j, x in enumerate(row) if x} for row in v.scaled]
    zero = [0] * (k + 1), v.den

    # coefficient bound, and the sparse rows of A - 2**B * A^T
    sums = [sum(map(abs, row.values())) for row in a]
    for row in a:
        for j, x in row.items():
            sums[j] += abs(x)
    bound = math.prod(sums)
    if not bound:
        return zero  # a zero row and column
    bits = bound.bit_length() + 1
    m = [dict(row) for row in a]
    for i, row in enumerate(a):
        for j, x in row.items():
            m[j][i] = m[j].get(i, 0) - (x << bits)
    rows = _cuthill_mckee(m)
    cols = [set() for _ in range(k)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    def exact_div(x, d):
        q, r = divmod(x, d)
        if r:
            raise ConsistencyError(f"inexact Bareiss division in a size-{k} "
                                   "elimination")
        return q

    # sparse Bareiss elimination with row pivoting: rows[i] holds the
    # Bareiss values of the step last[i] at which row i last changed
    last = [0] * k
    pivots = [1]
    perm = []
    for step in range(1, k + 1):
        c = step - 1
        cand = cols[c]
        if not cand:
            return zero
        r = c if c in cand else min(cand)
        cand.discard(r)
        prow = rows[r]
        if last[r] != c:
            # a row that steps skipped: scale it up to step c
            f, g = pivots[c], pivots[last[r]]
            prow = {j: exact_div(x * f, g) for j, x in prow.items()}
        p = prow.pop(c)
        for j in prow:
            cols[j].discard(r)
        pivots.append(p)
        perm.append(r)
        for i in cand:
            row = rows[i]
            x_ic = row.pop(c)
            g = pivots[last[i]]
            for j in prow:
                if j not in row:
                    row[j] = 0
                    cols[j].add(i)
            for j, x in row.items():
                x = p * x - x_ic * prow.get(j, 0)
                row[j] = x if g == 1 else exact_div(x, g)
            for j in [j for j, x in row.items() if not x]:
                del row[j]
                cols[j].discard(i)
            last[i] = step
        cand.clear()
    det = pivots[k]
    seen = [False] * k
    for i in range(k):
        if not seen[i]:
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
            det = -det  # one sign per cycle: sign(perm) = (-1)**(k - cycles)
    if k % 2:
        det = -det

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
    return coeffs, v.den


def state_polynomial_oracle(v: StateMatrix) -> LaurentPolynomial:
    """det(V - t*V^T) by exact sparse elimination, uncanonicalized.

    Shares no code with the recurrence and assumes no structure of V, so it
    also checks transformed and renumbered state matrices.  The elimination
    runs on the integer matrix A = v.scaled = D*V, whose determinant
    det(A - t*A^T) is D**k * det(V - t*V^T); it is exact and polynomial
    in k and the entry sizes.
    """
    coeffs, den = _oracle_scaled(v)
    return laurent_over(coeffs, den ** v.size)


# ---------------------------------------------------------------------------
# signatures


def state_signature(e: Expansion) -> int:
    """n_plus - n_minus: the signature of V + V^T for any state matrix of e."""
    plus, minus = sign_counts(e)
    return plus - minus


def _minor_signature(terms) -> int:
    """Signature of the standard V + V^T from its leading principal minors.

    D_0 = 1, D_1 = a_1, D_j = a_j * D_{j-1} - D_{j-2} with diagonal
    a_j = (-1)**(j+1) * nj (the off-diagonal pairs multiply to 1); the
    signature is the number of consecutive sign agreements minus the number
    of sign changes.  Every D_j is a product of pivots of absolute value
    > 1, so a zero minor is impossible and reported as a bug.
    """
    sig = 0
    dm, d = None, 1
    for idx, n in enumerate(terms):
        a = n if idx % 2 == 0 else -n
        new = a * d if idx == 0 else a * d - dm
        if new == 0:
            raise ConsistencyError(
                f"zero leading principal minor at size {idx + 1} for {list(terms)}"
            )
        sig += 1 if (new > 0) == (d > 0) else -1
        dm, d = d, new
    return sig


def state_signature_minors(v: StateMatrix) -> int:
    """Signature of V + V^T via the leading-principal-minor recurrence.

    Valid for any matrix produced by the constructors in state_matrices
    (V + V^T is then tridiagonal with off-diagonal pairs multiplying to 1);
    anything else is rejected.  Runs on the integer matrix D*(V + V^T),
    whose minors D**j * D_j satisfy the recurrence with the pair product
    D**2 and have the signs of the D_j.
    """
    gl = gl_matrix(v)
    ent = gl.scaled
    k = len(ent)
    if any(any(row[i + 2:]) for i, row in enumerate(ent)):
        raise InvalidInputError("minor recurrence needs a tridiagonal V + V^T")
    pair = gl.den ** 2
    for i in range(k - 1):
        if ent[i][i + 1] * ent[i + 1][i] != pair:
            raise InvalidInputError(
                "minor recurrence needs off-diagonal pairs with product 1"
            )
    sig = 0
    dm, d = None, 1
    for idx in range(k):
        a = ent[idx][idx]
        new = a * d if idx == 0 else a * d - pair * dm
        if new == 0:
            raise ConsistencyError(
                f"zero leading principal minor at size {idx + 1}"
            )
        sig += 1 if (new > 0) == (d > 0) else -1
        dm, d = d, new
    return sig


def symmetric_signature(rows) -> int:
    """Signature of an arbitrary symmetric matrix of ints or Fractions.

    Scaled to integers by the lcm of the denominators, then eliminated by
    exact sparse fraction-free (Bareiss) symmetric elimination in
    Cuthill-McKee order.  Its pivots are leading principal minors, and by
    Jacobi's rule each adds +1 if it has the sign of the one before and -1
    otherwise.  A zero pivot is met by a symmetric swap with a nonzero
    diagonal entry, else by the zero-diagonal repair move (add row and
    column r to row and column i: the diagonal entry becomes 2*a_ir), and
    a zero row is skipped; all are congruences.  For matrices that are no
    longer tridiagonal, e.g. after a renumbering of the curves.
    """
    rows = [tuple(row) for row in rows]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InvalidInputError("matrix must be square")
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    den = math.lcm(*{x.denominator for row in nonzero for _, x in row})
    m = [{j: x.numerator * (den // x.denominator) for j, x in row}
         for row in nonzero]
    if any(m[j].get(i) != x for i, row in enumerate(m) for j, x in row.items()):
        raise InvalidInputError("matrix must be symmetric")
    m = _cuthill_mckee(m)

    def exact_div(x, d):
        q, r = divmod(x, d)
        if r:
            raise ConsistencyError(f"inexact Bareiss division in a size-{n} "
                                   "symmetric elimination")
        return q

    # m[i] holds the Bareiss values of the step last[i] at which row i last
    # changed; lift brings a row up to the current step
    last = [0] * n
    pivots = [1]

    def lift(i):
        row, c = m[i], len(pivots) - 1
        if last[i] != c:
            f, g = pivots[c], pivots[last[i]]
            for j, x in row.items():
                row[j] = exact_div(x * f, g)
            last[i] = c
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
        p = prow.pop(i)
        sig += 1 if (p > 0) == (pivots[-1] > 0) else -1
        step = len(pivots)
        for j in prow:
            row = m[j]
            x_ji = row.pop(i)
            g = pivots[last[j]]
            for l in prow:
                if l not in row:
                    row[l] = 0
            for l, x in row.items():
                x = p * x - x_ji * prow.get(l, 0)
                row[l] = x if g == 1 else exact_div(x, g)
            for l in [l for l, x in row.items() if not x]:
                del row[l]
            last[j] = step
        pivots.append(p)
    return sig


# ---------------------------------------------------------------------------
# knot-level invariants


def knot_signature(knot: TwoBridgeKnot) -> int:
    """Signature of the knot: the state signature of its Seifert surface."""
    seifert = find_seifert(essential_surfaces(knot))
    return seifert.n_plus - seifert.n_minus


def boundary_slope(e: Expansion, knot: TwoBridgeKnot) -> int:
    """Boundary slope 2 * (sigma_S - sigma_K) of the surface of ``e``."""
    if e.terms not in {x.terms for x in surfaces_expansions(knot)}:
        raise InvalidInputError(
            f"{e} is not an essential-surface expansion of {knot}"
        )
    return 2 * (state_signature(e) - knot_signature(knot))


def boundary_slope_ht(e: Expansion, seifert: Expansion) -> int:
    """Boundary slope from sign counts alone:
    2*(N+ - N-) - 2*(N0+ - N0-), the Seifert expansion giving the N0 terms.
    """
    if any(n % 2 for n in seifert.terms):
        raise InvalidInputError(
            f"reference expansion {seifert} must be all even (a Seifert surface)"
        )
    plus, minus = sign_counts(e)
    plus0, minus0 = sign_counts(seifert)
    return 2 * (plus - minus) - 2 * (plus0 - minus0)


def alexander_polynomial(knot: TwoBridgeKnot) -> StatePolynomial:
    """State polynomial of the Seifert surface; integer coefficients."""
    seifert = find_seifert(essential_surfaces(knot))
    poly = state_polynomial(seifert.expansion)
    if any(c % (1 << poly.k) for c in poly.coeffs_2k):
        raise ConsistencyError(
            f"all-even expansion {seifert.expansion} gave non-integer coefficients"
        )
    return poly


def knot_genus_twice(knot: TwoBridgeKnot) -> int:
    """Twice the genus of the knot: the length of its Seifert expansion
    (equivalently, the degree of its Alexander polynomial)."""
    return find_seifert(essential_surfaces(knot)).genus_twice


def nonorientable_genus_twice(knot: TwoBridgeKnot) -> int:
    """Twice the crosscap number of the knot.

    The minimum genus among nonorientable essential surfaces if that
    minimum is at most g(K) + 1/2; otherwise g(K) + 1/2, realized by a
    crosscap added to a minimal Seifert surface.
    """
    surfaces = essential_surfaces(knot)
    return _crosscap_twice(surfaces, find_seifert(surfaces).genus_twice)


def _crosscap_twice(surfaces, g2: int) -> int:
    candidates = [s.genus_twice for s in surfaces if not s.orientable]
    return min(min(candidates, default=g2 + 1), g2 + 1)


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class SurfaceReport:
    surface: EssentialSurface
    polynomial: StatePolynomial
    signature: int
    slope: int


@dataclass(frozen=True)
class InvariantReport:
    knot: TwoBridgeKnot
    surfaces: tuple
    determinant: int
    signature: int
    alexander: StatePolynomial
    genus_twice: int
    nonorientable_genus_twice: int

    @property
    def slopes(self) -> list:
        """The knot's boundary slope set, sorted ascending.

        Distinct surfaces may share a slope (first at K(19,7), where a
        nonorientable surface joins the Seifert surface at slope 0), so
        this can be shorter than the surface list.
        """
        return sorted({r.slope for r in self.surfaces})


def _fail(what: str, knot, e, detail: str):
    raise ConsistencyError(f"{what} failed for {e} of {knot}: {detail}")


def _check_identities(knot, e, det, alpha: int, sigma_k: int,
                      sigma_k_minors: int) -> int:
    """Checks the report identities of surface ``e`` from its ``_det_scaled``
    result ``det`` and the knot signature from sign counts (sigma_k) and
    from principal minors (sigma_k_minors); returns the surface signature."""
    coeffs, scale = det
    at_minus_one = abs(sum(coeffs[::2]) - sum(coeffs[1::2]))
    if at_minus_one != alpha << scale:
        _fail("determinant identity |p(-1)| = alpha", knot, e,
              f"got {Fraction(at_minus_one, 1 << scale)}")
    plus, minus = sign_counts(e)
    sigma = plus - minus
    sigma_minors = _minor_signature(e.terms)
    if sigma_minors != sigma:
        _fail("minor recurrence signature = N+ - N-", knot, e,
              f"minors give {sigma_minors}, counts give {sigma}")
    # slope along the matrix route (signature difference, both signatures
    # from principal minors) against the pure sign-count formula
    if 2 * (sigma_minors - sigma_k_minors) != 2 * sigma - 2 * sigma_k:
        _fail("slope agreement", knot, e,
              f"signature route gives {2 * (sigma_minors - sigma_k_minors)}, "
              f"sign counts give {2 * sigma - 2 * sigma_k}")
    return sigma


def full_report(knot: TwoBridgeKnot) -> InvariantReport:
    """Everything this package computes for one knot, cross-checked.

    Before returning, every surface is verified against the identities
    that must hold for it: |p(-1)| equals the determinant alpha, the
    sign-count signature equals the minor-recurrence signature, the
    signature-difference slope equals the sign-count slope formula, and
    the polynomial has degree k and integral 2**k-scaled coefficients.
    """
    surfaces = essential_surfaces(knot)
    seifert = find_seifert(surfaces)
    sigma_k = seifert.n_plus - seifert.n_minus
    sigma_k_minors = _minor_signature(seifert.expansion.terms)
    reports = []
    alexander = None
    for s in surfaces:
        e = s.expansion
        det = _det_scaled(e.terms)
        sigma = _check_identities(knot, e, det, knot.alpha, sigma_k,
                                  sigma_k_minors)
        poly = _canonical_from_scaled(*det, len(e.terms))
        reports.append(SurfaceReport(s, poly, sigma, 2 * (sigma - sigma_k)))
        if s is seifert:
            alexander = poly
    return InvariantReport(
        knot=knot,
        surfaces=tuple(reports),
        determinant=knot.alpha,
        signature=sigma_k,
        alexander=alexander,
        genus_twice=seifert.genus_twice,
        nonorientable_genus_twice=_crosscap_twice(surfaces, seifert.genus_twice),
    )
