"""State polynomials, state signatures, boundary slopes, knot invariants.

``full_report`` is the one place they are computed for a knot: every
knot-level value (determinant, signature, Alexander polynomial, genus,
crosscap number) and every per-surface value is a field of its
``InvariantReport``, which the census writes and ``checks`` verifies.
``stream_report`` gives the same report with its ``surfaces`` an
iterator, for the ``invariants`` command.  Given the state polynomials of
a computed report, moved to another presentation of the same knot or of
its mirror image along a move ``_orbit`` lists (``_moved_polys``), the
same report pass builds that presentation's report from its own walk,
without the determinant recurrence.  ``census`` and ``verify`` meet the
presentations of each orbit in one sweep (``_orbit_sweep``).

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

The expansions of a target are the leaves of one floor/ceil tree, and the
report pass walks it once (``_expand_target``), folding ``_surface_step``
(``_minor_step`` given moved polynomials) down each path, so sibling
surfaces share the steps of their prefix.  It walks the path of even
terms first (``_even_first``), so the Seifert surface, and with it the
Alexander polynomial, comes before any other from one fold of that
path; a collected report must find it again as the walk's one orientable
surface, of even genus2.  A streamed report takes the surface count,
slopes and crosscap number, without the walk, from the summary of the
tree, whose repeated subtrees make it a DAG (``_expansion_summary``), and
must end with the walk's multiset of (genus2, signature, orientable)
equal to the summary's.  A step advances three recurrences by one term:
the leading principal minors of V + V^T, the sign counts, and the
tridiagonal determinant d_0 = 1,
d_j = (-1)**(j+1) * (nj/2)(1-t) * d_{j-1} + t * d_{j-2} on 2**s-scaled
integer coefficients (s counts the odd terms, so s <= k), each d_j one
int, its value at t = 2**B (Kronecker substitution) with the coefficients
in signed B-bit slots, so a step is a handful of big-integer operations;
B is fixed per walk from alpha, which bounds every coefficient (``_start``).
A ``StatePolynomial`` keeps the integer coefficients of 2**k times the
canonical representative, so reports never leave integer arithmetic, and
text output and failure messages print it from them (``poly_text``): no
command builds a Fraction.  The second routes that ``checks`` runs, the
elimination oracle and the sparse signature, live in ``state_matrices``,
and this module imports nothing from it.
"""

from itertools import groupby

from .continued_fractions import (
    Expansion,
    _even_first,
    _expand_target,
    _expansion_summary,
    _targets,
)
from .errors import ConsistencyError
from .laurent import poly_text
from .surfaces import (
    EssentialSurface,
    TwoBridgeKnot,
    walk_checked,
)
from .values import Value

# ---------------------------------------------------------------------------
# state polynomial


# the largest n * bits for which _unpack masks digits off one at a time
_FEW_BITS = 4096


def _unpack(packed: int, bits: int, n: int) -> list:
    """The n signed base-2**bits digits of ``packed``, lowest first, each of
    absolute value below 2**(bits-1).

    Up to ``_FEW_BITS`` bits in all, the digits are masked off one at a
    time, a negative one borrowing 1 from the rest; each shift copies what
    is left, so a longer int goes through one ``bytes`` round trip instead,
    with every slot offset to nonnegative.  The two cross over at about
    6,000 bits (Python 3.11, x86-64)."""
    if n * bits <= _FEW_BITS:
        mask, half = (1 << bits) - 1, 1 << (bits - 1)
        digits = []
        for _ in range(n):
            digit = packed & mask
            packed >>= bits
            if digit >= half:
                digit -= mask + 1
                packed += 1
            digits.append(digit)
        return digits
    size, top = bits // 8, 1 << (bits - 1)
    offset = int.from_bytes(top.to_bytes(size, "little") * n, "little")
    raw = (packed + offset).to_bytes(n * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - top
            for i in range(0, n * size, size)]


def _start(alpha: int) -> tuple:
    """The state of the empty expansion (d_0 = D_0 = 1, d_-1 = D_-1 = 0)
    for a walk of determinant alpha, in B-bit slots for the least multiple
    B of 8 above 2 * bit_length(alpha), so that alpha**2 < 2**(B-1).

    Lemma: along terms with every |ni| >= 2, the coefficients of each d_j
    alternate in sign and their absolute values sum to |D_j|.  Let
    v_i = (-1)**(i+1) * ni/2, so |v_i| >= 1, and e_j(u) = d_j(-u), the
    det(V_j + u*V_j^T) of the leading j x j block; expanding it gives
    e_j = v_j(1+u) e_{j-1} - u e_{j-2}, so f_j = e_j * sign(v_1...v_j) has
    f_j = |v_j|(1+u) f_{j-1} +- u f_{j-2}, from f_0 = 1 and f_-1 = 0.
    Induction shows, coefficient by coefficient, f_j >= f_{j-1} >= 0 and
    f_j >= u f_{j-1}, as f_j >= f_{j-1} + u(f_{j-1} - f_{j-2})
    = u f_{j-1} + (f_{j-1} - u f_{j-2}); and d_j(t) = +-f_j(-t), whose
    absolute values sum to f_j(1) = |D_j|.  At u = 1, |D_j| >= |nj|
    |D_{j-1}| - |D_{j-2}| > (|nj| - 1) |D_{j-1}|, so |D_j| grows at every
    term and more than doubles at an odd one (|nj| >= 3).  Hence
    2**s <= |D_j| <= alpha, and every coefficient of every 2**s * d_j on
    the walk is at most alpha**2.  A packed int is the exact value at
    t = 2**B whatever its digits, and only a leaf's digits are ever read.
    """
    return (1, (2 * alpha.bit_length() + 8) // 8 * 8, 0, 0, 0, 0, 0, 1, 0)


def _surface_step(state: tuple, j: int, n: int) -> tuple:
    """``state`` advanced by the j-th term n of an expansion, from
    ``_start``.  The state (cur, bits, s, sig, plus, prev, s_prev, d, dm)
    carries three recurrences:

    * cur and prev, d_j and d_{j-1} in signed bits-wide slots and scaled
      by 2**s and 2**s_prev;
    * the leading principal minors d, dm (D_j, D_{j-1}) of V + V^T, whose
      diagonal is a_j = (-1)**(j+1) * nj and whose off-diagonal pairs
      multiply to 1, so D_j = a_j * D_{j-1} - D_{j-2}; sig counts their
      sign agreements minus their sign changes;
    * plus, the number of terms with a_j > 0 (the pattern +,-,+,-,...).

    A determinant step is mult * (cur - (cur << B)) + (prev << (shift + B))
    for B = bits, set once per walk by ``_start``, whose bound keeps the
    slots from carrying into each other.  Each D_j is a product of pivots
    of absolute value > 1: a zero is a bug.
    """
    cur, bits, s, sig, plus, prev, s_prev, d, dm = state
    a = n if j % 2 else -n
    odd = n & 1
    mult = a if odd else a >> 1
    shift = s + odd - s_prev
    x = mult * cur
    if shift:  # a shift by 0 would still copy prev
        prev <<= shift
    new = a * d - dm
    if not new:
        raise ConsistencyError(f"zero leading principal minor at size {j}")
    return (x - ((x - prev) << bits), bits, s + odd,
            sig + (1 if (new > 0) == (d > 0) else -1), plus + (a > 0),
            cur, s, new, d)


def _minor_step(state: tuple, j: int, n: int) -> tuple:
    """``_surface_step`` without the determinant: ``state``, in the same
    layout, with s, sig, plus, d and dm advanced by the j-th term n and
    the packed polynomial left as it is."""
    cur, bits, s, sig, plus, prev, s_prev, d, dm = state
    a = n if j % 2 else -n
    new = a * d - dm
    if not new:
        raise ConsistencyError(f"zero leading principal minor at size {j}")
    return (cur, bits, s + (n & 1),
            sig + (1 if (new > 0) == (d > 0) else -1), plus + (a > 0),
            prev, s_prev, new, d)


def _det_scaled(terms) -> tuple:
    """Integer coefficient list of 2**s * det(V - t*V^T), plus s, by
    folding ``_surface_step`` along ``terms``, whose |n| are all >= 2.

    V is the standard state matrix of ``terms``; the determinant is returned
    uncanonicalized, lowest degree first (its constant term det(V) is never
    zero).  s is the number of odd terms: every denominator in the exact
    determinant divides 2**s, so the scaled coefficients are integers.  The
    fold starts from ``_start`` of |D_k|, the determinant of V + V^T, which
    k steps of its minor recurrence give first.
    """
    d, dm = 1, 0
    for j, n in enumerate(terms, 1):
        d, dm = (n if j % 2 else -n) * d - dm, d
    state = _start(abs(d))
    for j, n in enumerate(terms, 1):
        state = _surface_step(state, j, n)
    return _unpack(state[0], state[1], len(terms) + 1), state[2]


class StatePolynomial(Value):
    """Canonical state polynomial of a surface with k bands.

    ``coeffs_2k`` holds the integer coefficients of 2**k times the canonical
    representative, lowest degree first: k + 1 of them, the first positive
    and the last nonzero, palindromic for even k and anti-palindromic for
    odd k.  ``str`` prints it from those integers.
    """

    __slots__ = ("k", "coeffs_2k")

    def __str__(self) -> str:
        return poly_text(self.coeffs_2k, 1 << self.k)


def _canonical_from_scaled(coeffs, scale: int, k: int) -> StatePolynomial:
    """StatePolynomial of a ``_det_scaled`` result, with its degree and
    2**k-integrality checked."""
    if coeffs[0] == 0 or coeffs[-1] == 0 or len(coeffs) != k + 1:
        raise ConsistencyError(
            f"state polynomial of a k={k} expansion must have degree {k}"
        )
    if scale > k:
        raise ConsistencyError(
            f"2^k-integrality failed: denominator exponent {scale} > k = {k}"
        )
    mult = (-1 if coeffs[0] < 0 else 1) << (k - scale)
    return StatePolynomial._of(
        k, tuple([mult * c for c in coeffs]) if mult != 1 else tuple(coeffs))


def state_polynomial(e: Expansion) -> StatePolynomial:
    """Canonical state polynomial of the surface of ``e``.

    >>> str(state_polynomial(Expansion((2, 3))))
    '3/2 - 4*t + 3/2*t^2'
    """
    return _canonical_from_scaled(*_det_scaled(e.terms), len(e.terms))


# ---------------------------------------------------------------------------
# aggregation


class SurfaceReport(Value):
    __slots__ = ("surface", "polynomial", "signature", "slope")


class InvariantReport(Value):
    """The report of a knot.  ``slopes``, its boundary slope set, is a
    sorted tuple, and distinct surfaces may share a slope (first at
    K(19,7), where a nonorientable surface joins the Seifert surface at
    slope 0), so it can be shorter than ``surfaces``."""

    __slots__ = ("knot", "surfaces", "determinant", "signature", "alexander",
                 "genus_twice", "nonorientable_genus_twice", "surface_count",
                 "slopes")


def _fail(what: str, knot, e, detail: str):
    raise ConsistencyError(f"{what} failed for {e} of {knot}: {detail}")


def _check_identities(knot, s: EssentialSurface, det, sigma_minors: int,
                      sigma_k: int, sigma_k_minors: int) -> int:
    """Checks the report identities of surface ``s`` from its determinant
    ``det`` ((coefficients, scale) as ``_det_scaled`` gives them), its
    signature from principal minors (sigma_minors), its sign counts, and
    the knot signature from sign counts (sigma_k) and from principal
    minors (sigma_k_minors); returns the surface signature."""
    e = s.expansion
    coeffs, scale = det
    at_minus_one = abs(sum(coeffs[::2]) - sum(coeffs[1::2]))
    if at_minus_one != knot.alpha << scale:
        _fail("determinant identity |p(-1)| = alpha", knot, e,
              f"got {poly_text([at_minus_one], 1 << scale)}")
    sigma = s.n_plus - s.n_minus
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
    The Seifert surface, which the path of even terms ends in, must be the
    walk's one orientable surface, of even genus2.
    """
    return _knot_report(knot, _report_pass(knot))


def stream_report(knot: TwoBridgeKnot) -> InvariantReport:
    """``full_report`` of ``knot``, its ``surfaces`` an iterator, for
    output that writes each surface as the walk reports it and keeps
    none.  The surface count, slopes and crosscap number come from the
    summary of the expansion DAG, the rest from the Seifert surface, which
    the walk reports first and which must be the summary's one orientable
    surface; when the walk ends, its multiset must be the summary's
    (``walk_checked``)."""
    summary = _expansion_summary(_targets(knot))
    pairs = _report_pass(knot)
    seifert, _ = next(pairs)
    g2, sigma_k = seifert.surface.genus_twice, seifert.signature
    orientable = {key: n for key, n in summary.items() if key[2]}
    if orientable != {(g2, sigma_k, 1): 1} or g2 % 2:
        raise ConsistencyError(
            f"Seifert surface = orientable surface of the summary, of even "
            f"genus2, failed for {knot}: got {(g2, sigma_k)}, the summary "
            f"has {orientable}")
    return InvariantReport._of(
        knot, walk_checked(knot, (r for r, _ in pairs), summary), knot.alpha,
        sigma_k, seifert.polynomial, g2,
        min([g2 + 1] + [k for k, _, even in summary if not even]),
        sum(summary.values()),
        tuple(sorted({2 * (sig - sigma_k) for _, sig, _ in summary})))


def _report_pass(knot: TwoBridgeKnot, polys=None):
    """Yield (surface report, det) for the Seifert surface of ``knot``,
    then for every surface in report order, the Seifert surface again in
    its place; det is its determinant as ``_det_scaled`` gives it, so the
    checks of ``verify`` run on the reported values without the pass
    keeping every surface's determinant.

    A step is folded down every path of one walk of the expansion trees of
    alpha/beta and alpha/(beta - alpha), which takes the path of even terms
    first (``_even_first``), so that it is folded once; the knot signature
    follows from the sign counts and the minors at its end.  The step is
    ``_surface_step``, unless ``polys`` gives the state polynomials moved
    to ``knot`` from another presentation ({terms: polynomial}, as
    ``_moved_polys`` gives them): the step is then ``_minor_step``, each
    leaf pops its polynomial from ``polys``, and det is (coeffs_2k, k).  A
    moved polynomial must pass the identities and be canonical of degree
    k, and a leaf with no polynomial, or a polynomial left with no leaf
    when the walk ends, fails walk = moved surfaces.
    """
    step = _surface_step if polys is None else _minor_step
    start = _start(knot.alpha)
    (path, state), leaves = _even_first(*_targets(knot)[knot.beta & 1], step,
                                        start)
    sigma_k_minors, plus = state[3:5]
    sigma_k = 2 * plus - len(path)

    def report(r, terms, state):
        # the walk yields int terms of absolute value >= 2: its leaves are
        # built without the checks of the public constructors
        cur, bits, scale, sig, plus = state[:5]
        k = len(terms)
        s = EssentialSurface._of(Expansion._of(terms, r), scale == 0, k,
                                 plus, k - plus)
        if polys is None:
            det = _unpack(cur, bits, k + 1), scale
        else:
            poly = polys.pop(terms, None)
            if poly is None:
                _fail("walk = moved surfaces", knot, list(terms),
                      "the walk reaches it, and no surface was moved to it")
            det = poly.coeffs_2k, k
        sigma = _check_identities(knot, s, det, sig, sigma_k, sigma_k_minors)
        if polys is None:
            poly = _canonical_from_scaled(*det, k)
        else:
            coeffs = poly.coeffs_2k
            if (poly.k != k or len(coeffs) != k + 1 or coeffs[0] <= 0
                    or coeffs[-1] == 0):
                _fail("canonical polynomial of degree k", knot, s.expansion,
                      f"got k = {poly.k} and coefficients {coeffs}")
        return SurfaceReport._of(s, poly, sigma, 2 * (sigma - sigma_k)), det

    seifert = report(knot.beta & 1, path, state)
    yield seifert
    for r, (p, q) in enumerate(_targets(knot)):
        for terms, state in (leaves if r == knot.beta & 1 else
                             _expand_target(p, q, step, start)):
            yield seifert if terms is path else report(r, terms, state)
    if polys:
        _fail("walk = moved surfaces", knot, list(next(iter(polys))),
              "a surface was moved to it, and the walk does not reach it")


def _knot_report(knot: TwoBridgeKnot, pairs) -> InvariantReport:
    """The report of ``knot`` from the (surface report, det) ``pairs`` of
    its report pass.  The first is its Seifert surface, whose polynomial is
    the Alexander polynomial; it must be the one orientable surface among
    the rest, every surface in report order, and have even genus2, and the
    other knot-level values follow from it and them."""
    first, _ = next(pairs)
    reports = tuple([r for r, _ in pairs])
    seifert = first.surface
    g2 = seifert.genus_twice
    orientable = [r for r in reports if r.surface.orientable]
    if orientable != [first] or g2 % 2:
        _fail("Seifert surface = the walk's one orientable surface, of "
              "even genus2", knot, seifert.expansion,
              f"the orientable surfaces are "
              f"{[str(r.surface.expansion) for r in orientable]}, and it "
              f"has genus2 {g2}")
    # the crosscap number: the least nonorientable genus, or g(K) + 1/2 (a
    # crosscap added to a minimal Seifert surface) if that is smaller
    crosscap = min([g2 + 1] + [r.surface.genus_twice for r in reports
                               if not r.surface.orientable])
    return InvariantReport(knot, reports, knot.alpha, first.signature,
                           first.polynomial, g2, crosscap, len(reports),
                           tuple(sorted({r.slope for r in reports})))


# ---------------------------------------------------------------------------
# presentation maps
#
# K(alpha, beta) and K(alpha, beta') are the same knot exactly when
# beta' = beta**(+-1) mod alpha, and K(alpha, alpha - beta) is its mirror
# image (Schubert, Math. Z. 65, 1956).  A surface's state polynomial does
# not depend on the presentation, so only the polynomials cross from one
# presentation to another; every other value comes from the walk.


def _moved_polys(report: InvariantReport, reverse: bool,
                 mirror: bool) -> dict:
    """{terms: state polynomial} of the surfaces of ``report``, each under
    the terms of the surface it becomes in K(alpha, beta^-1 mod alpha) (the
    same knot) with ``reverse``, in K(alpha, alpha - beta) (the mirror
    image) with ``mirror``, and in K(alpha, alpha - beta^-1) with both.

    With M(n) = [[n, 1], [1, 0]], an expansion [n1, ..., nk] of p/q is
    M(n1)...M(nk) = [[p, p'], [q, q']], of determinant (-1)**k; its
    transpose is the reversed product, so the reversed terms expand p/p',
    with p' * q = (-1)**(k+1) mod p.  The surfaces of K(alpha, beta^-1) are
    therefore the reversed expansions, negated when k is even (which
    negates the value).  Negating every term negates an expansion's value,
    so it maps the expansions of alpha/beta onto those of -alpha/beta =
    alpha/((alpha - beta) - alpha) and back: those of the mirror image.  V
    becomes -V, and det(-V + t*V^T) = (-1)**k * det(V - t*V^T) has the same
    canonical representative, so each polynomial moves unchanged.
    """
    moved = {}
    for r in report.surfaces:
        terms = r.surface.expansion.terms
        if reverse:
            terms = terms[::-1]
        if mirror != (reverse and not len(terms) & 1):
            terms = tuple([-n for n in terms])
        moved[terms] = r.polynomial
    return moved


def _orbit(report: InvariantReport) -> dict:
    """The moves from the knot of ``report`` to the other members of its
    orbit {beta, beta^-1, alpha - beta, alpha - beta^-1}: {beta': [(name,
    {terms: polynomial}), ...]}, the name as a failure message gives the
    move, and the polynomials as ``_moved_polys`` moves them.  When
    beta**2 = 1 mod alpha, beta^-1 is beta: the mirror alone.  When
    beta**2 = -1, beta^-1 is alpha - beta, which the mirror and the inverse
    move both reach, the mirror first."""
    knot = report.knot
    alpha, beta = knot.alpha, knot.beta
    inverse = pow(beta, -1, alpha)
    moves = {alpha - beta: [(f"mirror_report({knot})",
                             _moved_polys(report, False, True))]}
    if inverse != beta:
        moves.setdefault(inverse, []).append(
            (f"inverse_report({knot})", _moved_polys(report, True, False)))
        if inverse != alpha - beta:
            moves[alpha - inverse] = [
                (f"mirror_report(inverse_report({knot}))",
                 _moved_polys(report, True, True))]
    return moves


def _orbit_sweep(knots, report_of):
    """Yield ``report_of(knot, moved)`` for each K(alpha, beta) of
    ``knots``, valid (alpha, beta) pairs in (alpha, beta) order.  An orbit
    lies in one alpha block and is met from its least beta, for which
    ``moved`` is None and ``report_of`` must return the report of the
    knot; for each other member, ``moved`` is the list of moves ``_orbit``
    gives to it from that report, and every move must reach its member
    before the block ends."""
    for alpha, block in groupby(knots, lambda knot: knot[0]):
        pending = {}  # beta: the moves to it from its orbit's least beta
        for _, beta in block:
            moved = pending.pop(beta, None)
            # the pairs are valid: built without the constructor's checks
            result = report_of(TwoBridgeKnot._of(alpha, beta), moved)
            if moved is None:
                pending.update(_orbit(result))
            yield result
        if pending:
            beta, ((name, _), *_) = next(iter(pending.items()))
            raise ConsistencyError(
                f"orbit = presentations failed for {name}: it moves to "
                f"K({alpha},{beta}), which the sweep of alpha = {alpha} "
                f"does not reach")
