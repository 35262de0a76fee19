"""Runtime verification of the reports ``full_report`` builds.

The checks run on the output of ``full_report``'s own pass over a knot:
its ``InvariantReport`` and the determinant-recurrence result behind each
surface.  Each check recomputes a quantity along an independent route and
fails loudly (ConsistencyError, with the witness values) on any mismatch.
The ``verify`` CLI command is a thin wrapper over this module; the test
suite reuses it for the full-census sweeps.

Per surface with expansion [n1, ..., nk] over a knot of determinant alpha,
writing p for the uncanonicalized determinant det(V - t*V^T):

* the report pass itself checks |p(-1)| = alpha, that the sign-count
  signature equals the minor-recurrence signature, that the
  signature-difference slope equals the sign-count slope formula, and
  that p has degree k and 2**k * p integer coefficients;
* degree: p has a nonzero constant term;
* symmetry: coefficient j equals (-1)**k * coefficient (k - j);
* p(1) is 1 for even k and 0 for odd k;
* |leading coefficient| = |n1 * ... * nk| / 2**k;
* all terms even => p itself integral;
* the reported signature has |sigma| <= k;
* (with ``oracle``, every surface) recurrence determinant =
  elimination-oracle determinant, the reported polynomial is the oracle
  determinant's canonical representative, and random normal, orientation
  and renumbering transformations leave the polynomial class and the
  reported signature unchanged.  These compare integer coefficient lists:
  the oracle's, of D**k * p for the integer matrix D*V, times 2**s against
  the recurrence's, of 2**s * p, times D**k, and a failure prints them with
  ``poly_text``: no Fraction is built.  Every transformed matrix, renumbered
  or not, is signed by general sparse elimination (``_sparse_signature`` on
  the nonzeros of D*(V + V^T), integral and symmetric as ``gl_matrix``
  builds it), a route independent of the minor recurrence the report pass
  uses.  Both eliminations live in ``state_matrices``, apart from that pass,
  and read the stored nonzeros: no dense rows are built on the check path.

Across presentations, K(alpha, beta^-1 mod alpha) is the same knot as
K(alpha, beta) and K(alpha, alpha - beta) its mirror image, so a surface
keeps its state polynomial: ``verify`` walks the presentations through the
census's orbit sweep (``invariants._orbit_sweep``), and the {terms:
polynomial} of the report computed for each member but an orbit's least
beta must be what every move the sweep hands it gives from the report of
that least beta, the census's moves among them.  The census builds the
report of such a member by the report pass of its own knot, given those
polynomials, so its other fields come from the same walk as here.  The
negative control checks, on integer lists too, that the oracle tells a
symmetric almost-state matrix from a state matrix.
"""

from .continued_fractions import Expansion
from .errors import ConsistencyError
from .invariants import (
    _det_scaled,  # unused here; perfbench's tracer rebinds it in this module
    _fail,
    _knot_report,
    _orbit_sweep,
    _report_pass,
    state_polynomial,
)
from .laurent import poly_text
from .state_matrices import (
    StateMatrix,
    _oracle_scaled,
    _sparse_signature,
    flip_normal,
    flip_orientation,
    gl_matrix,
    permuted_state_matrix,
    standard_state_matrix,
)
from .surfaces import iter_knots
from .values import Value


class CheckStats(Value):
    """Tallies of a check run: the knots, surfaces and checks it ran."""

    __slots__ = ("knots", "surfaces", "checks")


def _check_surface_fast(knot, e, det: tuple, sigma: int) -> None:
    """The exact integer checks on one surface that its report pass does not
    run, given the pass's ``_det_scaled`` result ``det`` (whose degree and
    2**k-integrality the pass checked) and the reported signature."""
    terms = e.terms
    k = len(terms)
    coeffs, scale = det

    if coeffs[0] == 0:
        _fail("degree = k", knot, e, f"scaled coefficients {coeffs}")
    if any(coeffs[j] != (coeffs[k - j] if k % 2 == 0 else -coeffs[k - j])
           for j in range(k + 1)):
        _fail("symmetry p(1/t) ~ p(t)", knot, e, f"scaled coefficients {coeffs}")
    at_one = sum(coeffs)
    expected_at_one = (1 << scale) if k % 2 == 0 else 0
    if at_one != expected_at_one:
        _fail("p(1) by parity of k", knot, e,
              f"got {poly_text([at_one], 1 << scale)}")
    prod = 1
    for n in terms:
        prod *= abs(n)
    if abs(coeffs[-1]) << (k - scale) != prod:
        _fail("leading coefficient |n1...nk| / 2^k", knot, e,
              f"got {poly_text([abs(coeffs[-1])], 1 << scale)}")
    if all(n % 2 == 0 for n in terms) and scale != 0:
        _fail("integrality of all-even polynomials", knot, e,
              f"denominator exponent {scale}")
    if abs(sigma) > k:
        _fail("|sigma| <= 2g", knot, e, f"sigma = {sigma}, k = {k}")


def apply_random_transformations(v: StateMatrix, rng: "random.Random"):
    """A random sequence of the three invariance moves."""
    k = v.size
    for _ in range(rng.randint(1, 6)):
        move = rng.choice(("normal", "orientation", "renumber"))
        if move == "normal" and k > 1:
            v = flip_normal(v, rng.randint(1, k - 1))
        elif move == "orientation":
            v = flip_orientation(v, rng.randint(1, k))
        elif move == "renumber" and k > 1:
            v = permuted_state_matrix(v, rng.sample(range(k), k))
    return v


def _unit_class(coeffs) -> list:
    """Integer coefficients with zero ends stripped and the lowest one made
    positive: equal for p and +-t^j * p, and scaling commutes with it."""
    nonzero = [i for i, c in enumerate(coeffs) if c]
    if not nonzero:
        return []
    body = list(coeffs[nonzero[0]:nonzero[-1] + 1])
    return body if body[0] > 0 else [-c for c in body]


def check_transformation_invariance(e: Expansion, rng: "random.Random",
                                    samples: int, det: tuple, *,
                                    base: StateMatrix, sigma: int) -> int:
    """Transformed matrices of ``base``, a state matrix of ``e``, keep the
    signature ``sigma`` and the polynomial class of the ``_det_scaled``
    result ``det``.  The oracle coefficients of den * V and the
    2**s-scaled recurrence coefficients are compared in integers, as
    oracle * 2**s against recurrence * den**k; each transformed V + V^T,
    renumbered or not, is signed by ``_sparse_signature``."""
    coeffs, scale = det
    want = _unit_class(coeffs)
    checks = 0
    for _ in range(samples):
        v = apply_random_transformations(base, rng)
        got, den_k = _oracle_scaled(v)
        if ([x << scale for x in _unit_class(got)]
                != [x * den_k for x in want]):
            raise ConsistencyError(
                f"transformed matrix of {e} gave inequivalent polynomial "
                f"{poly_text(got, den_k)} (expected class of "
                f"{poly_text(coeffs, 1 << scale)})"
            )
        g = gl_matrix(v)
        sig = _sparse_signature(g.size, g.nonzeros)
        if sig != sigma:
            raise ConsistencyError(
                f"transformed matrix of {e} gave signature {sig}, "
                f"expected {sigma}"
            )
        checks += 2
    return checks


def _check_surface_oracle(knot, e, det: tuple, v: StateMatrix,
                          poly) -> int:
    """The recurrence's ``_det_scaled`` result ``det`` against the
    elimination oracle on the standard state matrix ``v`` of ``e``,
    exactly: oracle * 2**s = recurrence * den**k; and the reported
    ``StatePolynomial`` ``poly`` against the oracle's unit class:
    2**k * class = coeffs_2k * den**k."""
    coeffs, scale = det
    got, den_k = _oracle_scaled(v)
    if [x << scale for x in got] != [x * den_k for x in coeffs]:
        _fail("recurrence = oracle determinant", knot, e,
              f"recurrence {poly_text(coeffs, 1 << scale)}, "
              f"oracle {poly_text(got, den_k)}")
    if ([x << poly.k for x in _unit_class(got)]
            != [x * den_k for x in poly.coeffs_2k]):
        _fail("reported polynomial = oracle class", knot, e,
              f"reported {poly}, oracle {poly_text(got, den_k)}")
    return 2


def check_negative_control() -> int:
    """A symmetric almost-state matrix must NOT reproduce a state polynomial.

    With both off-diagonal entries 1 (the forbidden configuration the
    constructors can never produce) the determinant degenerates to
    -(7/4)*(1-t)**2, which is not equivalent to the true state polynomial
    3/2 - 4t + (3/2)t^2 of [2, 3].  Both are compared on integer lists,
    as in the oracle checks.
    """
    # 2 * [[1/2, 1], [1, -3/2]], stored with den 2
    wrong = StateMatrix(2, 2, frozenset(
        {((0, 0), 1), ((0, 1), 2), ((1, 0), 2), ((1, 1), -3)}))
    got, den_k = _oracle_scaled(wrong)
    degenerate = [-7, 14, -7]  # 4 * -(7/4)*(1-t)**2
    if [x * 4 for x in got] != [x * den_k for x in degenerate]:
        raise ConsistencyError(
            f"negative control produced {poly_text(got, den_k)}, "
            f"expected {poly_text(degenerate, 4)}"
        )
    true_poly = state_polynomial(Expansion((2, 3)))
    if ([x << true_poly.k for x in _unit_class(got)]
            == [x * den_k for x in true_poly.coeffs_2k]):
        raise ConsistencyError(
            "symmetric matrix polynomial unexpectedly matches the state "
            f"polynomial of [2, 3]: {poly_text(got, den_k)}"
        )
    return 2


def check_knot(knot, *, oracle: bool = False, invariance_samples: int = 0,
               seed: int = 0) -> CheckStats:
    """Run every per-knot identity; raise ConsistencyError on the first
    failure, with witness values in the message.  With ``oracle``, every
    surface is also checked against the elimination oracle and under
    ``invariance_samples`` random transformations drawn from
    ``random.Random(seed)``."""
    import random
    checks, report = _check_knot(knot, oracle, invariance_samples,
                                 random.Random(seed))
    return CheckStats(1, report.surface_count, checks)


def _check_knot(knot, oracle: bool, invariance_samples: int,
                rng: "random.Random") -> tuple:
    """The number of checks ``check_knot`` runs and the ``InvariantReport``
    they check: the checks run on each surface as ``full_report``'s pass
    reports it, with the determinant-recurrence result behind it."""
    checks = 0

    def checked(pairs):
        nonlocal checks
        yield next(pairs)  # the Seifert surface, checked in its place
        for r, det in pairs:
            e = r.surface.expansion
            _check_surface_fast(knot, e, det, r.signature)
            # its six fast checks and the three identities its report pass
            # ran (|p(-1)| = alpha, minor signature and slope agreement)
            checks += 9
            if oracle:
                v = standard_state_matrix(e)
                checks += _check_surface_oracle(knot, e, det, v, r.polynomial)
                if invariance_samples:
                    checks += check_transformation_invariance(
                        e, rng, invariance_samples, det, base=v,
                        sigma=r.signature)
            yield r, det

    # built before ``checks`` is read: its walk counts them
    report = _knot_report(knot, checked(_report_pass(knot)))
    return checks, report


def check_range(max_alpha: int, *, oracle: bool = False,
                invariance_samples: int = 0, seed: int = 0) -> CheckStats:
    """Sweep every knot with determinant up to max_alpha (>= 3, checked
    first) and check that each knot's presentations agree: the report of
    every member of an orbit but its least beta is compared with the
    moves ``invariants._orbit_sweep`` gives to it."""
    import random
    knots = iter_knots(max_alpha)
    rng = random.Random(seed)
    checks = check_negative_control()

    def checked(knot, moved):
        nonlocal checks
        ran, report = _check_knot(knot, oracle, invariance_samples, rng)
        if moved is not None:
            _check_presentations(report, moved)
        checks += ran + 1
        return report

    sizes = [report.surface_count for report in _orbit_sweep(knots, checked)]
    return CheckStats(len(sizes), sum(sizes), checks)


def _check_presentations(report, moves: list) -> None:
    """Check ``report``, computed for its own presentation, against each
    of the ``moves`` (name, {terms: polynomial}) that ``_orbit`` gives to
    it from the report of the least beta of its orbit: the polynomials of
    its surfaces must be what the move gives."""
    knot = report.knot
    want = {r.surface.expansion.terms: r.polynomial for r in report.surfaces}
    for name, got in moves:
        if got == want:
            continue
        # the first terms that differ, in report order
        terms = next(t for t in [*want, *got] if got.get(t) != want.get(t))
        moved, computed = (
            "nothing" if p is None else str(p)
            for p in (got.get(terms), want.get(terms)))
        raise ConsistencyError(
            f"{name} = computed report failed for {knot}: terms "
            f"{list(terms)} have {moved} moved, {computed} computed")
