"""Runtime verification of every identity the invariants are built on.

Each check here recomputes a quantity along an independent route and fails
loudly (ConsistencyError, with the witness values) on any mismatch.  The
``verify`` CLI command is a thin wrapper over this module; the test suite
reuses it for the full-census sweeps.

Per surface with expansion [n1, ..., nk] over a knot of determinant alpha,
writing p for the uncanonicalized determinant det(V - t*V^T):

* degree: p has degree exactly k with nonzero constant term;
* symmetry: coefficient j equals (-1)**k * coefficient (k - j);
* p(1) is 1 for even k and 0 for odd k;
* |p(-1)| = alpha;
* |leading coefficient| = |n1 * ... * nk| / 2**k;
* 2**k * p has integer coefficients; all terms even => p itself integral;
* sign-count signature = minor-recurrence signature, and |sigma| <= k;
* signature-difference slope = sign-count slope formula;
* (with ``oracle``, every surface) recurrence determinant =
  elimination-oracle determinant, and random normal, orientation and
  renumbering transformations leave the polynomial class and the
  signature unchanged.  These compare integer coefficient lists: the
  oracle's, of D**k * p for the integer matrix D*V, times 2**s against the
  recurrence's, of 2**s * p, times D**k; no Fraction is built unless a
  check fails.

Across presentations, K(alpha, beta) and K(alpha, beta') with
beta * beta' = 1 mod alpha present the same knot and must produce equal
multisets of (polynomial, signature, slope).
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .continued_fractions import Expansion, surfaces_expansions
from .errors import ConsistencyError
from .laurent import LaurentPolynomial
from .invariants import (
    _canonical_from_scaled,
    _check_identities,
    _det_scaled,
    _fail,
    _minor_signature,
    _oracle_scaled,
    canonical_representative,
    laurent_over,
    poly_equivalent,
    state_polynomial,
    state_polynomial_oracle,
    state_signature_minors,
    symmetric_signature,
)
from .state_matrices import (
    StateMatrix,
    flip_normal,
    flip_orientation,
    gl_matrix,
    standard_state_matrix,
    state_matrix,
)
from .surfaces import make_knot, sign_counts


@dataclass
class CheckStats:
    knots: int = 0
    surfaces: int = 0
    checks: int = 0
    polynomial_checks: int = 0
    signature_checks: int = 0
    slope_checks: int = 0

    def __iadd__(self, other):
        self.knots += other.knots
        self.surfaces += other.surfaces
        self.checks += other.checks
        self.polynomial_checks += other.polynomial_checks
        self.signature_checks += other.signature_checks
        self.slope_checks += other.slope_checks
        return self


# tallies of the fast checks, per surface
_FAST_STATS = CheckStats(
    surfaces=1,
    checks=9,
    polynomial_checks=6,
    signature_checks=2,
    slope_checks=1,
)


def _check_surface_fast(knot, e, alpha: int, sigma_k: int,
                        sigma_k_minors: int, det: tuple) -> int:
    """The exact integer checks for one surface, given its ``_det_scaled``
    result ``det``; ``_FAST_STATS`` tallies them.  Returns the surface's
    signature N+ - N-."""
    terms = e.terms
    k = len(terms)
    coeffs, scale = det

    if len(coeffs) != k + 1 or coeffs[0] == 0 or coeffs[-1] == 0:
        _fail("degree = k", knot, e, f"scaled coefficients {coeffs}")
    if any(coeffs[j] != (coeffs[k - j] if k % 2 == 0 else -coeffs[k - j])
           for j in range(k + 1)):
        _fail("symmetry p(1/t) ~ p(t)", knot, e, f"scaled coefficients {coeffs}")
    at_one = sum(coeffs)
    expected_at_one = (1 << scale) if k % 2 == 0 else 0
    if at_one != expected_at_one:
        _fail("p(1) by parity of k", knot, e,
              f"got {Fraction(at_one, 1 << scale)}")
    if scale > k:
        _fail("2^k-integrality", knot, e, f"denominator exponent {scale} > k")
    prod = 1
    for n in terms:
        prod *= abs(n)
    if abs(coeffs[-1]) << (k - scale) != prod:
        _fail("leading coefficient |n1...nk| / 2^k", knot, e,
              f"got {Fraction(abs(coeffs[-1]), 1 << scale)}")
    if all(n % 2 == 0 for n in terms) and scale != 0:
        _fail("integrality of all-even polynomials", knot, e,
              f"denominator exponent {scale}")

    sigma = _check_identities(knot, e, det, alpha, sigma_k, sigma_k_minors)
    if abs(sigma) > k:
        _fail("|sigma| <= 2g", knot, e, f"sigma = {sigma}, k = {k}")
    return sigma


def random_expansion(rng: random.Random, max_k: int = 8, max_abs: int = 9) -> Expansion:
    """Uniform-ish random valid expansion (any |ni| >= 2 sequence is one)."""
    k = rng.randint(1, max_k)
    terms = []
    for _ in range(k):
        n = rng.randint(2, max_abs)
        terms.append(n if rng.random() < 0.5 else -n)
    return Expansion(tuple(terms))


def permuted_state_matrix(v: StateMatrix, perm) -> StateMatrix:
    """Simultaneous row/column permutation (a curve renumbering)."""
    rows = v.scaled
    return StateMatrix(v.den, tuple(
        tuple(map(rows[i].__getitem__, perm)) for i in perm
    ))


def apply_random_transformations(v: StateMatrix, rng: random.Random):
    """A random sequence of the three invariance moves.

    Returns (matrix, permuted) where ``permuted`` records whether a
    renumbering occurred (in which case V + V^T need not stay tridiagonal).
    """
    k = v.size
    permuted = False
    for _ in range(rng.randint(1, 6)):
        move = rng.choice(("normal", "orientation", "renumber"))
        if move == "normal" and k > 1:
            v = flip_normal(v, rng.randint(1, k - 1))
        elif move == "orientation":
            v = flip_orientation(v, rng.randint(1, k))
        elif move == "renumber" and k > 1:
            v = permuted_state_matrix(v, rng.sample(range(k), k))
            permuted = True
    return v, permuted


def _unit_class(coeffs) -> list:
    """Integer coefficients with zero ends stripped and the lowest one made
    positive: equal for p and +-t^j * p, and scaling commutes with it."""
    nonzero = [i for i, c in enumerate(coeffs) if c]
    if not nonzero:
        return []
    body = list(coeffs[nonzero[0]:nonzero[-1] + 1])
    return body if body[0] > 0 else [-c for c in body]


def check_transformation_invariance(e: Expansion, rng: random.Random,
                                    samples: int, det: tuple = None, *,
                                    base: StateMatrix = None,
                                    sigma: int = None) -> int:
    """Transformed matrices keep the signature ``sigma`` and the polynomial
    class of the ``_det_scaled`` result ``det``; by default these are the
    state signature and state polynomial of ``e``, and ``base`` its
    standard state matrix.  The oracle coefficients of den * V and the
    2**s-scaled recurrence coefficients are compared in integers, as
    oracle * 2**s against recurrence * den**k."""
    if base is None:
        base = standard_state_matrix(e)
    if det is None:
        det = _det_scaled(e.terms)
    if sigma is None:
        plus, minus = sign_counts(e)
        sigma = plus - minus
    coeffs, scale = det
    k = base.size
    want = _unit_class(coeffs)
    checks = 0
    for _ in range(samples):
        v, permuted = apply_random_transformations(base, rng)
        got, den = _oracle_scaled(v)
        den_k = den ** k
        if ([x << scale for x in _unit_class(got)]
                != [x * den_k for x in want]):
            raise ConsistencyError(
                f"transformed matrix of {e} gave inequivalent polynomial "
                f"{laurent_over(got, den_k)} (expected class of "
                f"{laurent_over(coeffs, 1 << scale)})"
            )
        if permuted:
            sig = symmetric_signature(gl_matrix(v).scaled)
        else:
            sig = state_signature_minors(v)
        if sig != sigma:
            raise ConsistencyError(
                f"transformed matrix of {e} gave signature {sig}, "
                f"expected {sigma}"
            )
        checks += 2
    return checks


def _check_surface_oracle(knot, e, det: tuple, v: StateMatrix) -> int:
    """The recurrence's ``_det_scaled`` result ``det`` against the
    elimination oracle on the standard state matrix ``v`` of ``e``,
    exactly: oracle * 2**s = recurrence * den**k."""
    coeffs, scale = det
    got, den = _oracle_scaled(v)
    den_k = den ** v.size
    if [x << scale for x in got] != [x * den_k for x in coeffs]:
        _fail("recurrence = oracle determinant", knot, e,
              f"recurrence {laurent_over(coeffs, 1 << scale)}, "
              f"oracle {laurent_over(got, den_k)}")
    if _unit_class(coeffs) != _unit_class(coeffs[::-1]):
        canon = canonical_representative(laurent_over(coeffs, 1 << scale))
        _fail("canonical symmetry", knot, e, f"canonical {canon}")
    return 2


def invariant_multiset(knot) -> tuple:
    """Sorted multiset of (polynomial, signature, slope) over all surfaces.

    Equal for every presentation of the same knot; mirror presentations
    (beta -> alpha - beta) get the same polynomials with negated
    signatures and slopes.  Computed alongside the fast checks of
    ``check_knot``, from the same determinants.
    """
    return _check_knot(knot)[1]


def check_negative_control() -> int:
    """A symmetric almost-state matrix must NOT reproduce a state polynomial.

    With both off-diagonal entries 1 (the forbidden configuration the
    constructors can never produce) the determinant degenerates to
    -(7/4)*(1-t)**2, which is not equivalent to the true state polynomial
    3/2 - 4t + (3/2)t^2 of [2, 3].
    """
    wrong = state_matrix([[Fraction(1, 2), 1], [1, Fraction(-3, 2)]])
    wrong_poly = state_polynomial_oracle(wrong)
    degenerate = LaurentPolynomial(
        0, (Fraction(-7, 4), Fraction(7, 2), Fraction(-7, 4))
    )
    if wrong_poly != degenerate:
        raise ConsistencyError(
            f"negative control produced {wrong_poly}, expected {degenerate}"
        )
    true_poly = state_polynomial(Expansion((2, 3))).canonical
    if poly_equivalent(wrong_poly, true_poly):
        raise ConsistencyError(
            "symmetric matrix polynomial unexpectedly matches the state "
            f"polynomial of [2, 3]: {wrong_poly}"
        )
    return 2


def check_knot(knot, *, oracle: bool = False, invariance_samples: int = 0,
               rng: random.Random = None) -> CheckStats:
    """Run every per-knot identity; raise ConsistencyError on the first
    failure, with witness values in the message.  With ``oracle``, every
    surface is also checked against the elimination oracle and, given
    ``rng``, under ``invariance_samples`` random transformations."""
    return _check_knot(knot, oracle, invariance_samples, rng)[0]


def _check_knot(knot, oracle: bool = False, invariance_samples: int = 0,
                rng: random.Random = None) -> tuple:
    """``check_knot``'s tallies and the knot's ``invariant_multiset``, all
    from one run of the determinant recurrence per surface."""
    expansions = surfaces_expansions(knot)
    alpha = knot.alpha
    evens = [e for e in expansions if all(n % 2 == 0 for n in e.terms)]
    if len(evens) != 1:
        raise ConsistencyError(
            f"{knot}: expected exactly one all-even expansion, got "
            f"{[str(e) for e in evens]}"
        )
    if len(evens[0].terms) % 2:
        raise ConsistencyError(
            f"{knot}: orientable expansion {evens[0]} has odd length "
            f"(the Seifert genus must be integral)"
        )
    plus0, minus0 = sign_counts(evens[0])
    sigma_k = plus0 - minus0
    sigma_k_minors = _minor_signature(evens[0].terms)
    stats = CheckStats(knots=1)
    multiset = []
    for e in expansions:
        det = _det_scaled(e.terms)
        sigma = _check_surface_fast(knot, e, alpha, sigma_k, sigma_k_minors,
                                    det)
        stats += _FAST_STATS
        multiset.append((_canonical_from_scaled(*det, len(e.terms)).coeffs_2k,
                         sigma, 2 * (sigma - sigma_k)))
        if oracle:
            v = standard_state_matrix(e)
            stats.checks += _check_surface_oracle(knot, e, det, v)
            if invariance_samples and rng is not None:
                stats.checks += check_transformation_invariance(
                    e, rng, invariance_samples, det, base=v, sigma=sigma
                )
    return stats, tuple(sorted(multiset))


def iter_knots(max_alpha: int):
    """All valid (alpha, beta), alpha odd, in (alpha, beta) order."""
    for alpha in range(3, max_alpha + 1, 2):
        for beta in range(1, alpha):
            if math.gcd(alpha, beta) == 1:
                yield alpha, beta


def check_range(max_alpha: int, *, oracle: bool = False,
                invariance_samples: int = 0, seed: int = 0,
                presentation: bool = True) -> CheckStats:
    """Sweep every knot with determinant up to max_alpha."""
    rng = random.Random(seed) if invariance_samples else None
    stats = CheckStats()
    stats.checks += check_negative_control()
    current_alpha = None
    multisets = {}
    for alpha, beta in iter_knots(max_alpha):
        if presentation and alpha != current_alpha:
            _check_presentations(current_alpha, multisets)
            current_alpha, multisets = alpha, {}
        knot_stats, multiset = _check_knot(
            make_knot(alpha, beta), oracle, invariance_samples, rng
        )
        stats += knot_stats
        if presentation:
            multisets[beta] = multiset
            stats.checks += 1
    if presentation:
        _check_presentations(current_alpha, multisets)
    return stats


def _check_presentations(alpha, multisets):
    """K(alpha, beta) and K(alpha, beta^-1 mod alpha) agree invariant-wise."""
    if alpha is None:
        return
    for beta, value in multisets.items():
        other = pow(beta, -1, alpha)
        if multisets[other] != value:
            raise ConsistencyError(
                f"presentations K({alpha},{beta}) and K({alpha},{other}) "
                f"disagree: {value} vs {multisets[other]}"
            )
