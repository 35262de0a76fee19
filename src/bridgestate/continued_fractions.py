"""Continued fraction expansions [n1, ..., nk] with every |ni| >= 2.

An expansion stands for the nested fraction n1 + 1/(n2 + ... + 1/nk).  With
all |ni| >= 2 the value always has absolute value > 1, each target fraction
has only finitely many expansions, and the expansions of alpha/beta and
alpha/(beta - alpha) together index the essential spanning surfaces of the
2-bridge knot K(alpha, beta) — one surface per expansion.
"""

import operator
from itertools import chain

from .errors import InvalidInputError
from .values import Value


class Expansion(Value):
    """A term sequence [n1, ..., nk], k >= 1, with every |ni| >= 2.

    ``r`` records the integer part of the target fraction the expansion came
    from (0 for alpha/beta, 1 for alpha/(beta - alpha)), stored as an int;
    it is provenance only and does not affect any computed invariant.
    """

    __slots__ = ("terms", "r")

    def __init__(self, terms, r: int = 0):
        try:
            terms = tuple(map(operator.index, terms))
        except TypeError:
            raise InvalidInputError(
                f"expansion terms must be integers, got {terms!r}"
            ) from None
        if not terms:
            raise InvalidInputError("expansion needs at least one term")
        for n in terms:
            if -2 < n < 2:
                raise InvalidInputError(f"expansion term {n} has |n| < 2")
        if r not in (0, 1):
            raise InvalidInputError(f"expansion tag r={r!r} must be 0 or 1")
        self._init(terms, int(r))

    def __str__(self) -> str:
        return str(list(self.terms))


def _expand_target(p: int, q: int, step=None, state=None, path=()):
    """Every term tuple with value p/q, for gcd(p, q) = 1, q >= 1, |p| > q,
    in lexicographic order, each yielded with ``state`` folded along its
    terms by ``step(state, j, n)`` (n the j-th term), or unchanged if
    ``step`` is None; each starts with ``path``, the terms ``state`` has
    folded already.

    The tuples are the leaves of one tree.  A non-integer target can only
    continue with n in {floor, ceil}: any other integer leaves a remainder
    of absolute value >= 1, whose reciprocal (the next target) would have
    absolute value <= 1 and so admits no terms.  Remainder denominators
    strictly decrease, so the walk terminates.  It takes the floor child
    first, and no leaf is a prefix of another, so the leaves come out
    sorted.  The path from the root is one list, cut back on each return to
    a fork, and a leaf's tuple is copied from it once.  A single child is
    followed in place; only the ceil child of a fork waits on the stack,
    with the state of its prefix, so siblings share their prefix's steps.
    """
    stack, path = [], list(path)
    while True:
        n, r = divmod(p, q)
        if not r:  # an integer target is the last term
            path.append(n)
            yield tuple(path), step(state, len(path), n) if step else state
            if not stack:
                return
            p, q, j, n, state = stack.pop()
            del path[j:]
        elif n == 1:  # the floor 1 is no term: the ceil 2 only
            n, p, q = 2, -q, q - r
        else:
            if n != -2:  # the ceil -1 is no term
                stack.append((-q, q - r, len(path), n + 1, state))
            p, q = q, r
        path.append(n)
        if step:
            state = step(state, len(path), n)


def _even_first(p: int, q: int, step, state) -> tuple:
    """(leaf, leaves) for p/q with q even: the (terms, state) of its one
    expansion whose terms are all even, and an iterator over what
    ``_expand_target(p, q, step, state)`` yields, in its order, ``leaf``
    among it.  That path is folded first, taking the even one of floor and
    ceil; the other child of each fork waits with its prefix's state, a
    floor child to be walked before ``leaf`` and a ceil child after."""
    path, before, after = [], [], []
    while q != 1:
        n, r = divmod(p, q)
        if n & 1:  # the ceil n + 1 is even; the floor 1 is no term
            if n != 1:
                before.append((q, r, len(path), n, state))
            n, p, q = n + 1, -q, q - r
        else:  # the ceil -1 is no term
            if n != -2:
                after.append((-q, q - r, len(path), n + 1, state))
            p, q = q, r
        path.append(n)
        state = step(state, len(path), n)
    path.append(p)
    leaf = tuple(path), step(state, len(path), p)

    def walk(waiting):
        for p, q, j, n, state in waiting:
            yield from _expand_target(p, q, step, step(state, j + 1, n),
                                      path[:j] + [n])

    return leaf, chain(walk(before), [leaf], walk(reversed(after)))


def _expansion_summary(targets) -> dict:
    """{(k, n_plus - n_minus, 1 if every term is even else 0): count} over
    the expansions of the (p, q) ``targets``, without listing them; n_plus
    counts the terms that follow +,-,+,-,...  What lies below a node of the
    walk depends only on its target and the parity of its next term's
    index, so each such (p, q, parity) is summarised once, from its
    children's summaries, with a chain of single children followed in
    place."""
    memo, stack = {None: {(0, 0, 1): 1}}, [(p, q, 1) for p, q in targets]
    while stack:
        p, q, odd = node = stack[-1]
        k = sig = 0
        even = 1
        while True:
            n, r = divmod(p, q)
            if not r or n not in (1, -2):
                break
            # the floor 1 and the ceil -1 are no terms
            n, p, q = (2, -q, q - r) if n == 1 else (n, q, r)
            k, sig, even = k + 1, sig + (1 if (n > 0) == odd else -1), \
                even & ~n & 1
            odd ^= 1
        kids = ((n, (q, r, odd ^ 1)), (n + 1, (-q, q - r, odd ^ 1))) if r \
            else ((n, None),)  # a fork, or n is the last term
        missing = [kid for _, kid in kids if kid not in memo]
        if missing:  # summarised first; the chain is followed again
            stack += missing
            continue
        summary = memo[node] = {}
        for n, kid in kids:
            k1, sig1 = k + 1, sig + (1 if (n > 0) == odd else -1)
            for (k2, sig2, even2), count in memo[kid].items():
                key = k1 + k2, sig1 + sig2, even & ~n & 1 & even2
                summary[key] = summary.get(key, 0) + count
        stack.pop()
    total = {}
    for p, q in targets:
        for key, count in memo[p, q, 1].items():
            total[key] = total.get(key, 0) + count
    return total


def enumerate_expansions(x) -> tuple:
    """Every expansion whose value is exactly x, sorted lexicographically,
    each tagged r = 0.

    x is a rational (an int, a Fraction or a string such as '5/2') with
    |x| > 1; the result is a finite, possibly multi-element tuple (e.g. 5/2
    has the two expansions [2, 2] and [3, -2]).
    """
    from fractions import Fraction
    if isinstance(x, float):  # its exact value is rarely the one meant
        raise InvalidInputError(f"target {x!r} is a float, not a rational")
    try:
        x = Fraction(x)
    except (TypeError, ValueError, ArithmeticError):
        raise InvalidInputError(f"target {x!r} is not a rational") from None
    if abs(x.numerator) <= x.denominator:
        raise InvalidInputError(f"target {x} must have absolute value > 1")
    return tuple(Expansion._of(terms, 0) for terms, _ in
                 _expand_target(x.numerator, x.denominator))


def _targets(knot) -> tuple:
    """The two (p, q) targets of a knot's expansions, in tag order r = 0, 1.

    beta/alpha = r + 1/v with |v| > 1 forces r in {0, 1} and hence
    v in {alpha/beta, alpha/(beta - alpha)}; the two target values have
    opposite signs, so their expansions are disjoint.
    """
    a, b = knot.alpha, knot.beta
    return (a, b), (-a, a - b)


def surfaces_expansions(knot) -> tuple:
    """The expansions indexing the essential spanning surfaces of a knot:
    those of each ``_targets`` block, sorted lexicographically, r = 0 first.
    """
    return tuple(iter_expansions(knot))


def iter_expansions(knot):
    """The expansions of ``surfaces_expansions``, one at a time."""
    # the walk yields int terms of absolute value >= 2: its leaves are
    # built without the checks of the public constructor
    for r, (p, q) in enumerate(_targets(knot)):
        for terms, _ in _expand_target(p, q):
            yield Expansion._of(terms, r)
