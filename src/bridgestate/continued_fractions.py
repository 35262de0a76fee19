"""Continued fraction expansions [n1, ..., nk] with every |ni| >= 2.

An expansion stands for the nested fraction n1 + 1/(n2 + ... + 1/nk).  With
all |ni| >= 2 the value always has absolute value > 1, each target fraction
has only finitely many expansions, and the expansions of alpha/beta and
alpha/(beta - alpha) together index the essential spanning surfaces of the
2-bridge knot K(alpha, beta) — one surface per expansion.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError


@dataclass(frozen=True)
class Expansion:
    """A term sequence [n1, ..., nk], k >= 1, with every |ni| >= 2.

    ``r`` records the integer part of the target fraction the expansion came
    from (0 for alpha/beta, 1 for alpha/(beta - alpha)); it is provenance
    only and does not affect any computed invariant.
    """

    terms: tuple
    r: int = 0

    def __post_init__(self):
        try:
            terms = tuple(map(operator.index, self.terms))
        except TypeError:
            raise InvalidInputError(
                f"expansion terms must be integers, got {self.terms!r}"
            ) from None
        if not terms:
            raise InvalidInputError("expansion needs at least one term")
        for n in terms:
            if -2 < n < 2:
                raise InvalidInputError(f"expansion term {n} has |n| < 2")
        if self.r not in (0, 1):
            raise InvalidInputError(f"expansion tag r={self.r} must be 0 or 1")
        object.__setattr__(self, "terms", terms)

    def __str__(self) -> str:
        return "[" + ", ".join(str(n) for n in self.terms) + "]"


def _expand_target(p: int, q: int) -> list:
    """All term tuples with value p/q, for gcd(p, q) = 1, q >= 1, |p| > q.

    Non-integer targets can only continue with n in {floor, ceil}: any other
    integer leaves a remainder of absolute value >= 1, whose reciprocal
    (the next target) would have absolute value <= 1 and so admits no terms.
    Remainder denominators strictly decrease, so the walk terminates.
    """
    out = []
    stack = [(p, q, ())]
    while stack:
        p, q, prefix = stack.pop()
        if q == 1:
            out.append(prefix + (p,))
            continue
        n0 = p // q
        for n in (n0, n0 + 1):
            if -2 < n < 2:
                continue
            rp = p - n * q  # remainder numerator; 0 < |rp| < q
            if rp > 0:
                stack.append((q, rp, prefix + (n,)))
            else:
                stack.append((-q, -rp, prefix + (n,)))
    return sorted(out)


def enumerate_expansions(x: Fraction, r: int = 0) -> tuple:
    """Every expansion whose value is exactly x, sorted lexicographically.

    x must satisfy |x| > 1; the result is a finite, possibly multi-element
    tuple (e.g. 5/2 has the two expansions [2, 2] and [3, -2]).
    """
    x = Fraction(x)
    if abs(x.numerator) <= x.denominator:
        raise InvalidInputError(f"target {x} must have absolute value > 1")
    return tuple(
        Expansion(terms, r) for terms in _expand_target(x.numerator, x.denominator)
    )


def surfaces_expansions(knot) -> tuple:
    """The expansions indexing the essential spanning surfaces of a knot.

    beta/alpha = r + 1/v with |v| > 1 forces r in {0, 1} and hence
    v in {alpha/beta, alpha/(beta - alpha)}; the two target values have
    opposite signs, so the two blocks are disjoint.  Each block is sorted
    lexicographically, r = 0 first.
    """
    a, b = knot.alpha, knot.beta
    return enumerate_expansions(Fraction(a, b), r=0) + enumerate_expansions(
        Fraction(a, b - a), r=1
    )
