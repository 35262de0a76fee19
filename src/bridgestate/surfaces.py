"""2-bridge knots and their essential spanning surfaces.

A 2-bridge knot is K(alpha, beta) with alpha odd (even alpha gives a link),
0 < beta < alpha and gcd = 1; alpha is the knot's determinant.  Each
essential spanning surface corresponds to one continued fraction expansion
of alpha/beta or alpha/(beta - alpha); the surface of the expansion
[n1, ..., nk] is a plumbing of k half-twisted bands, has genus k/2 (stored
doubled to stay integral) and is orientable exactly when every ni is even.
"""

import math
import operator

from .continued_fractions import (
    Expansion,
    _expansion_summary,
    _targets,
    iter_expansions,
)
from .errors import ConsistencyError, InvalidInputError
from .values import Value


class TwoBridgeKnot(Value):
    """K(alpha, beta), checked: integers, alpha odd and at least 3,
    0 < beta < alpha and gcd(alpha, beta) = 1.  ``make_knot`` reduces beta
    mod alpha first; the walks and sweeps, whose pairs are valid by
    construction, build knots with ``_of``."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        alpha, beta = _checked_alpha(alpha, beta)
        if beta % alpha == 0:
            raise InvalidInputError("beta must not be divisible by alpha")
        if not 0 < beta < alpha:
            raise InvalidInputError(
                f"beta must be in (0, {alpha}), got {beta}")
        if math.gcd(alpha, beta) != 1:
            raise InvalidInputError(
                f"alpha and beta must be coprime, got gcd({alpha},{beta}) = "
                f"{math.gcd(alpha, beta)}"
            )
        self._init(alpha, beta)

    def __str__(self) -> str:
        return f"K({self.alpha},{self.beta})"


class EssentialSurface(Value):
    """One essential spanning surface, with its derived combinatorial data.

    n_plus counts expansion terms whose sign matches the alternating pattern
    +,-,+,-,... and n_minus the rest; their difference is the surface's
    state signature.
    """

    __slots__ = ("expansion", "orientable", "genus_twice", "n_plus", "n_minus")


def _checked_alpha(alpha, beta) -> tuple:
    """(alpha, beta) as ints, with alpha odd and at least 3."""
    try:
        alpha, beta = operator.index(alpha), operator.index(beta)
    except TypeError:
        raise InvalidInputError(f"alpha and beta must be integers, got "
                                f"alpha={alpha!r}, beta={beta!r}") from None
    if alpha < 3:
        raise InvalidInputError(f"alpha must be at least 3, got {alpha}")
    if alpha % 2 == 0:
        raise InvalidInputError(
            f"alpha must be odd, got {alpha} (even alpha is a 2-bridge link)"
        )
    return alpha, beta


def make_knot(alpha: int, beta: int) -> TwoBridgeKnot:
    """Validated knot, with beta reduced mod alpha into (0, alpha)."""
    alpha, beta = _checked_alpha(alpha, beta)
    return TwoBridgeKnot(alpha, beta % alpha)


def iter_knots(max_alpha: int):
    """All valid (alpha, beta) with alpha <= max_alpha, in (alpha, beta)
    order; the bound is checked here, before the first knot."""
    try:
        max_alpha = operator.index(max_alpha)
    except TypeError:
        raise InvalidInputError(
            f"--max-alpha must be an integer, got {max_alpha!r}") from None
    if max_alpha < 3:
        raise InvalidInputError("--max-alpha must be at least 3")
    return ((alpha, beta) for alpha in range(3, max_alpha + 1, 2)
            for beta in range(1, alpha) if math.gcd(alpha, beta) == 1)


def sign_counts(e: Expansion) -> tuple:
    """(n_plus, n_minus): terms matching / breaking the pattern +,-,+,-,...

    >>> sign_counts(Expansion((3, -2, 2)))
    (3, 0)
    """
    plus = sum(1 for i, n in enumerate(e.terms) if (n > 0) == (i % 2 == 0))
    return plus, len(e.terms) - plus


def make_surface(e: Expansion) -> EssentialSurface:
    plus, minus = sign_counts(e)
    return EssentialSurface(
        expansion=e,
        orientable=all(n % 2 == 0 for n in e.terms),
        genus_twice=len(e.terms),
        n_plus=plus,
        n_minus=minus,
    )


def stream_surfaces(knot: TwoBridgeKnot) -> tuple:
    """(count, surfaces): the number of essential spanning surfaces of
    ``knot``, from the summary of its expansion DAG, and an iterator over
    them in expansion order, as the walk yields them (``walk_checked``)."""
    summary = _expansion_summary(_targets(knot))
    return sum(summary.values()), walk_checked(
        knot, map(make_surface, iter_expansions(knot)), summary)


def walk_checked(knot: TwoBridgeKnot, items, summary: dict):
    """Yield ``items``, the surfaces of ``knot`` or their reports as a walk
    yields them, then check that their multiset of (genus2, N+ - N-,
    orientable) is ``summary``, the ``_expansion_summary`` of the knot's
    targets: the closing identity of a streamed command."""
    seen = {}
    for item in items:
        s = getattr(item, "surface", item)  # the surface of a report
        key = s.genus_twice, s.n_plus - s.n_minus, s.orientable
        seen[key] = seen.get(key, 0) + 1
        yield item
    if seen != summary:
        raise ConsistencyError(
            f"walk = expansion summary failed for {knot}: (genus2, signature, "
            f"orientable) counts {sorted(seen.items())} from the walk, "
            f"{sorted(summary.items())} from the summary")
