"""Independent reference computations the tests check the package against.

Nothing here shares code paths with the package internals it verifies:
expansions are found by exhaustive search over term sequences, Laurent
arithmetic is redone on degree->coefficient dictionaries, determinants
of small matrices are expanded by cofactors, state matrices are built and
signatures computed with dense ``Fraction`` arithmetic.
"""

from fractions import Fraction

from bridgestate import LaurentPolynomial


def brute_force_expansions(x: Fraction, max_abs_term: int, max_length: int):
    """All term sequences with value x, by exhaustive search.

    Tries every term in [-max_abs_term, -2] u [2, max_abs_term] at every
    level, up to max_length levels.  The only pruning is the independently
    provable fact that a valid tail always has absolute value > 1 (so a
    remainder x - n can only be continued if |x - n| < 1); no assumption
    about floor/ceil branching is used.  Returns sorted term tuples.
    """
    x = Fraction(x)
    found = []

    def search(p, q, prefix):
        # target p/q with q >= 1, gcd(p, q) = 1
        if len(prefix) >= max_length:
            return
        for n in range(-max_abs_term, max_abs_term + 1):
            if -2 < n < 2:
                continue
            if q == 1 and p == n:
                found.append(prefix + (n,))
                continue
            rp = p - n * q
            if rp == 0 or abs(rp) >= q:
                continue  # tail would need |value| <= 1: impossible
            if rp > 0:
                search(q, rp, prefix + (n,))
            else:
                search(-q, -rp, prefix + (n,))

    search(x.numerator, x.denominator, ())
    return sorted(found)


def poly_to_dict(p: LaurentPolynomial) -> dict:
    return {
        p.min_degree + i: c for i, c in enumerate(p.coeffs) if c != 0
    }


def dict_to_poly(d: dict) -> LaurentPolynomial:
    if not d:
        return LaurentPolynomial(0, ())
    lo = min(d)
    coeffs = [d.get(i, Fraction(0)) for i in range(lo, max(d) + 1)]
    return LaurentPolynomial(lo, tuple(coeffs))


def dict_add(d1: dict, d2: dict) -> dict:
    out = dict(d1)
    for k, v in d2.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v != 0}


def dict_mul(d1: dict, d2: dict) -> dict:
    out = {}
    for i, a in d1.items():
        for j, b in d2.items():
            out[i + j] = out.get(i + j, Fraction(0)) + a * b
    return {k: v for k, v in out.items() if v != 0}


def dict_eval(d: dict, x: Fraction) -> Fraction:
    return sum((c * Fraction(x) ** k for k, c in d.items()), Fraction(0))


def random_laurent(rng, max_span: int = 5, max_num: int = 6) -> LaurentPolynomial:
    """Random small Laurent polynomial (possibly zero)."""
    lo = rng.randint(-4, 4)
    coeffs = [
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, 4))
        for _ in range(rng.randint(1, max_span))
    ]
    return LaurentPolynomial(lo, tuple(coeffs))


def characteristic_matrix(v) -> tuple:
    """V - t*V^T as a matrix of Laurent polynomials.

    For a standard state matrix this is tridiagonal with diagonal
    (-1)**(j+1) * (nj/2) * (1 - t) and off-diagonal pairs {1, -t};
    specializing t = -1 gives the Gordon-Litherland matrix V + V^T.
    """
    ent = v.entries
    return tuple(
        tuple(LaurentPolynomial(0, (a, -b)) for a, b in zip(row, trow))
        for row, trow in zip(ent, zip(*ent))
    )


def cofactor_det(m) -> LaurentPolynomial:
    """Determinant of a square matrix of Laurent polynomials by full
    cofactor expansion along the first row; exponential in the size."""
    if not m:
        return LaurentPolynomial(0, (1,))
    if len(m) == 1:
        return m[0][0]
    total = LaurentPolynomial(0, ())
    for j, entry in enumerate(m[0]):
        if entry.is_zero:
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        term = entry * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def cofactor_state_polynomial(v) -> LaurentPolynomial:
    """det(V - t*V^T) by cofactor expansion, uncanonicalized: the reference
    the package's elimination oracle is tested against, for small sizes."""
    return cofactor_det(characteristic_matrix(v))


def fraction_state_matrix(terms) -> tuple:
    """The standard state matrix of ``terms`` as rows of Fractions:
    diagonal (-1)**(i+1) * ni/2, subdiagonal 1, zero elsewhere."""
    k = len(terms)
    rows = []
    for i, n in enumerate(terms):
        row = [Fraction(0)] * k
        row[i] = Fraction(n if i % 2 == 0 else -n, 2)
        if i > 0:
            row[i - 1] = Fraction(1)
        rows.append(tuple(row))
    return tuple(rows)


def fraction_signature(rows) -> int:
    """Signature of a symmetric matrix by dense Fraction congruence
    diagonalization: Schur-complement elimination, a symmetric swap with a
    later nonzero diagonal entry, else the zero-diagonal repair move, and
    zero rows skipped.  O(n**3) Fraction operations."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sig = 0
    for i in range(n):
        if m[i][i] == 0:
            r = next((r for r in range(i + 1, n) if m[r][r] != 0), None)
            if r is not None:
                m[i], m[r] = m[r], m[i]
                for row in m:
                    row[i], row[r] = row[r], row[i]
            else:
                r = next((r for r in range(i + 1, n) if m[i][r] != 0), None)
                if r is None:
                    continue  # zero row/column: contributes nothing
                for c in range(n):
                    m[i][c] += m[r][c]
                for rr in range(n):
                    m[rr][i] += m[rr][r]
        p = m[i][i]
        sig += 1 if p > 0 else -1
        for r in range(i + 1, n):
            f = m[r][i] / p
            if f == 0:
                continue
            for c in range(i + 1, n):
                m[r][c] -= f * m[i][c]
    return sig
