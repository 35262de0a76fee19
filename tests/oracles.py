"""Independent reference computations the tests check the package against.

Nothing here shares code paths with the package internals it verifies:
expansion values are folded from the terms, expansions are found by
exhaustive search over term sequences, Laurent arithmetic is redone on
degree->coefficient dictionaries, determinants of small matrices are
expanded by cofactors over those dictionaries, the three-term state
polynomial recurrence (run on packed big integers in the package) is rerun
over them too, state matrices are built and signatures computed with dense
``Fraction`` arithmetic, the matrix moves are redone on dense integer rows,
and signatures and slopes of expansions are counted from the signs of
their terms, signed digits are packed into one int by shifts, and a
polynomial's text is written from its ``Fraction`` coefficients
(``laurent_text``).
``LaurentPolynomial`` serves only as the container results are compared
in, and ``InvalidInputError`` as the error raised for inputs outside a
helper's domain.

Some helpers are views, not references: ``state_polynomial_det`` and
``state_polynomial_oracle`` put the integer results of the package's
recurrence and elimination oracle into that container, as ``canonical``
and ``fraction_rows`` do a state polynomial and a matrix, so the tests can
compare the two routes with each other and with the references above,
exactly and up to the units +-t^j (``poly_equivalent``).  So are
``report_fields`` and ``surface_fields``, a report's and a surface's fields
in the dicts of the record schema, whose stdlib ``json.dumps`` the tests
compare with the package's JSON; ``essential_surfaces``, the package's
enumeration collected whole; and ``invariant_multiset``, a report reduced
to what two presentations of one knot must share, which the tests use as
references for the streamed outputs and the presentation maps.
"""

import math
import random
from fractions import Fraction

from bridgestate import Expansion, InvalidInputError, make_surface
from bridgestate.continued_fractions import iter_expansions
from bridgestate.invariants import _det_scaled
from bridgestate.laurent import LaurentPolynomial
from bridgestate.state_matrices import _oracle_scaled


def frac(p: int, q: int = 1) -> Fraction:
    """Reduced fraction p/q with positive denominator."""
    if q == 0:
        raise InvalidInputError("fraction denominator must be nonzero")
    return Fraction(p, q)


def laurent(coeffs, min_degree: int = 0) -> LaurentPolynomial:
    """Shorthand constructor from a low-to-high coefficient sequence."""
    return LaurentPolynomial(min_degree, tuple(coeffs))


def cf_value(e: Expansion) -> Fraction:
    """Exact value n1 + 1/(n2 + ... + 1/nk) of an expansion, folded in
    Fraction arithmetic from the last term."""
    value = Fraction(e.terms[-1])
    for n in reversed(e.terms[:-1]):
        value = n + 1 / value
    return value


def random_expansion(rng: random.Random, max_k: int = 8,
                     max_abs: int = 9) -> Expansion:
    """Uniform-ish random valid expansion (any |ni| >= 2 sequence is one)."""
    k = rng.randint(1, max_k)
    terms = []
    for _ in range(k):
        n = rng.randint(2, max_abs)
        terms.append(n if rng.random() < 0.5 else -n)
    return Expansion(tuple(terms))


def sign_count_signature(terms) -> int:
    """N+ - N-: terms whose sign follows the pattern +,-,+,-,... count +1,
    the others -1."""
    return sum(1 if (n > 0) == (i % 2 == 0) else -1
               for i, n in enumerate(terms))


def sign_count_slope(terms, seifert_terms) -> int:
    """Boundary slope from sign counts alone, 2*(N+ - N-) - 2*(N0+ - N0-),
    with the all-even Seifert expansion giving the N0 terms."""
    if any(n % 2 for n in seifert_terms):
        raise InvalidInputError(f"reference {seifert_terms} must be all even")
    return 2 * sign_count_signature(terms) - 2 * sign_count_signature(
        seifert_terms)


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


def laurent_dict(p: LaurentPolynomial) -> dict:
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


def evaluate(p: LaurentPolynomial, x) -> Fraction:
    """Exact value of p at the nonzero rational point x."""
    return dict_eval(laurent_dict(p), x)


def reciprocal(p: LaurentPolynomial) -> LaurentPolynomial:
    """The polynomial p(1/t)."""
    return dict_to_poly({-d: c for d, c in laurent_dict(p).items()})


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


def laurent_text(p: LaurentPolynomial) -> str:
    """``p`` in the package's text layout, ``3/2 - 4*t + 3/2*t^2``, written
    term by term from its ``Fraction`` coefficients themselves: the
    reference for ``poly_text``, which prints from integers."""
    if p.is_zero:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        d = p.min_degree + i
        if d == 0:
            body = str(abs(c))
        else:
            tpow = "t" if d == 1 else f"t^{d}"
            body = tpow if abs(c) == 1 else f"{abs(c)}*{tpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def fraction_recurrence_det(terms) -> LaurentPolynomial:
    """det(V - t*V^T) for the standard state matrix V of ``terms``,
    uncanonicalized, by the three-term recurrence d_0 = 1, d_-1 = 0,
    d_j = (-1)**(j+1) * (nj/2)(1 - t) * d_{j-1} + t * d_{j-2} on
    degree->Fraction dictionaries."""
    prev, cur = {}, {0: Fraction(1)}
    for j, n in enumerate(terms, 1):
        a = Fraction(n if j % 2 else -n, 2)
        step = dict_add(dict_mul({0: a, 1: -a}, cur),
                        {d + 1: c for d, c in prev.items()})
        prev, cur = cur, step
    return dict_to_poly(cur)


def _pack(coeffs, bits: int) -> int:
    """The value at t = 2**bits of the polynomial with coefficients
    ``coeffs``, lowest degree first: the int whose signed base-2**bits
    digits they are, for |coeffs[i]| < 2**(bits-1)."""
    return sum(c << (bits * i) for i, c in enumerate(coeffs))


def state_polynomial_det(e: Expansion) -> LaurentPolynomial:
    """det(V - t*V^T) for the standard state matrix V of ``e``, from the
    package's recurrence, uncanonicalized: its 2**s-scaled integer
    coefficients over 2**s."""
    coeffs, scale = _det_scaled(e.terms)
    return laurent([Fraction(c, 1 << scale) for c in coeffs])


def canonical(sp) -> LaurentPolynomial:
    """The ``StatePolynomial`` ``sp`` in that container: its ``coeffs_2k``
    over 2**k."""
    return laurent([Fraction(c, 1 << sp.k) for c in sp.coeffs_2k])


def fraction_rows(m) -> tuple:
    """The matrix ``m`` as rows of Fractions: its ``scaled`` rows over its
    ``den``."""
    return tuple(tuple(Fraction(x, m.den) for x in row) for row in m.scaled)


def state_polynomial_oracle(v) -> LaurentPolynomial:
    """det(V - t*V^T) for the state matrix ``v``, from the package's
    elimination oracle, uncanonicalized: the oracle eliminates the integer
    matrix D*V (``v.nonzeros``), whose determinant is D**k times this one."""
    coeffs, scale = _oracle_scaled(v)
    return laurent([Fraction(c, scale) for c in coeffs])


def surface_fields(s) -> dict:
    """The fields of a listed surface, as its JSON record holds them."""
    e = s.expansion
    return {"terms": list(e.terms), "r": e.r, "orientable": s.orientable,
            "genus2": s.genus_twice, "n_plus": s.n_plus, "n_minus": s.n_minus}


def report_fields(report) -> dict:
    """The fields of a knot report, as its JSON record holds them."""
    def poly(sp):
        return {"min_degree": 0, "k": sp.k, "coeffs_2k": list(sp.coeffs_2k)}

    return {
        "alpha": report.knot.alpha, "beta": report.knot.beta,
        "determinant": report.determinant, "signature": report.signature,
        "genus2": report.genus_twice,
        "crosscap_genus2": report.nonorientable_genus_twice,
        "surface_count": report.surface_count, "slopes": report.slopes,
        "alexander": poly(report.alexander),
        "surfaces": [dict(surface_fields(sr.surface), signature=sr.signature,
                          slope=sr.slope, poly=poly(sr.polynomial))
                     for sr in report.surfaces],
    }


def essential_surfaces(knot) -> tuple:
    """All essential spanning surfaces of the knot, in expansion order."""
    return tuple(map(make_surface, iter_expansions(knot)))


def invariant_multiset(report) -> tuple:
    """Sorted multiset of (polynomial, signature, slope) over the surfaces
    of a knot's ``InvariantReport``, the polynomial as its ``coeffs_2k``.

    Equal for every presentation of the same knot; mirror presentations
    (beta -> alpha - beta) get the same polynomials with negated
    signatures and slopes.
    """
    return tuple(sorted((r.polynomial.coeffs_2k, r.signature, r.slope)
                        for r in report.surfaces))


def random_laurent(rng, max_span: int = 5, max_num: int = 6) -> LaurentPolynomial:
    """Random small Laurent polynomial (possibly zero)."""
    lo = rng.randint(-4, 4)
    coeffs = [
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, 4))
        for _ in range(rng.randint(1, max_span))
    ]
    return LaurentPolynomial(lo, tuple(coeffs))


def characteristic_matrix(v) -> tuple:
    """V - t*V^T as a matrix of degree->coefficient dictionaries.

    For a standard state matrix this is tridiagonal with diagonal
    (-1)**(j+1) * (nj/2) * (1 - t) and off-diagonal pairs {1, -t};
    specializing t = -1 gives the Gordon-Litherland matrix V + V^T.
    """
    ent = fraction_rows(v)
    return tuple(
        tuple(dict_add({0: a}, {1: -b}) for a, b in zip(row, trow))
        for row, trow in zip(ent, zip(*ent))
    )


def cofactor_det(m) -> dict:
    """Determinant of a square matrix of degree->coefficient dictionaries
    by full cofactor expansion along the first row; exponential in the
    size."""
    if not m:
        return {0: Fraction(1)}
    if len(m) == 1:
        return m[0][0]
    total = {}
    for j, entry in enumerate(m[0]):
        if not entry:
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        term = dict_mul(entry, cofactor_det(minor))
        if j % 2:
            term = {d: -c for d, c in term.items()}
        total = dict_add(total, term)
    return total


def cofactor_state_polynomial(v) -> LaurentPolynomial:
    """det(V - t*V^T) by cofactor expansion, uncanonicalized: the reference
    the package's elimination oracle is tested against, for small sizes."""
    return dict_to_poly(cofactor_det(characteristic_matrix(v)))


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


def dense_flip_normal(rows, i: int) -> tuple:
    """``flip_normal`` on the dense rows of D*V: the entries at 1-based
    (i, i+1) and (i+1, i) trade places."""
    rows = [list(row) for row in rows]
    rows[i - 1][i], rows[i][i - 1] = rows[i][i - 1], rows[i - 1][i]
    return tuple(map(tuple, rows))


def dense_flip_orientation(rows, i: int) -> tuple:
    """``flip_orientation`` on the dense rows of D*V: row i is negated, then
    column i (1-based)."""
    rows = [list(row) for row in rows]
    rows[i - 1] = [-x for x in rows[i - 1]]
    for row in rows:
        row[i - 1] = -row[i - 1]
    return tuple(map(tuple, rows))


def dense_permuted(rows, perm) -> tuple:
    """``permuted_state_matrix`` on the dense rows of D*V: entry (i, j) of
    the result is entry (perm[i], perm[j]), 0-based."""
    return tuple(tuple(rows[a][b] for b in perm) for a in perm)


def dense_gl_matrix(den: int, rows) -> tuple:
    """``gl_matrix`` on the dense rows of D*V: (den, rows) of V + V^T with
    the common factor of D and every entry of D*(V + V^T) cancelled."""
    total = [[a + b for a, b in zip(row, col)]
             for row, col in zip(rows, zip(*rows))]
    g = math.gcd(den, *(x for row in total for x in row))
    return den // g, tuple(tuple(x // g for x in row) for row in total)


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
