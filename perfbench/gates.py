"""Benchmark inputs for ``deep`` and the output gates of every workload.

Nothing here imports bridgestate: the gates re-check the program's output
with code of their own.  A gate returns ``(ok, checks, reason)``, where
``checks`` is the number of checks it applied and ``reason`` explains a
failure.
"""

import csv
import hashlib
import json
import re


# ---------------------------------------------------------------------------
# independent expansion counting


def expansion_stats(p: int, q: int) -> tuple:
    """(count, sum of k, sum of k**2) over all expansions [n1, ..., nk] with
    every |ni| >= 2 and value p/q (q >= 1, |p| > q, gcd 1).

    Only n = floor(p/q) and floor(p/q) + 1 can start an expansion of a
    non-integer target, so a memoised walk over the remainders counts them
    without listing them.  The walk keeps its own stack: long knots have
    expansions with thousands of terms.
    """
    memo = {}
    stack = [(p, q)]
    while stack:
        target = stack[-1]
        if target in memo:
            stack.pop()
            continue
        tp, tq = target
        if tq == 1:
            memo[target] = (1, 1, 1)
            stack.pop()
            continue
        nexts = []
        for n in (tp // tq, tp // tq + 1):
            if not -2 < n < 2:
                r = tp - n * tq
                nexts.append((tq, r) if r > 0 else (-tq, -r))
        missing = [t for t in nexts if t not in memo]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        count = total = squares = 0
        for t in nexts:
            c, k1, k2 = memo[t]
            count += c
            total += k1 + c
            squares += k2 + 2 * k1 + c
        memo[target] = (count, total, squares)
    return memo[(p, q)]


def knot_stats(alpha: int, beta: int) -> tuple:
    """(surfaces, sum of k, sum of k**2) of K(alpha, beta)."""
    a = expansion_stats(alpha, beta)
    b = expansion_stats(alpha, beta - alpha)
    return tuple(x + y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# deep inputs

# Acceptance windows keep the work per query steady across seeds: a wide
# knot's cost follows its total band count, a long knot's the sum of k**2.
WIDE_TERMS = (56_000, 60_000)
LONG_SQUARES = (6_000_000, 6_400_000)


def _from_quotients(quotients) -> tuple:
    """(alpha, beta) with alpha/beta = [a0; a1, ..., am] (regular CF)."""
    num, den = quotients[-1], 1
    for a in reversed(quotients[:-1]):
        num, den = a * num + den, num
    return num, den


def _presentation(rng, alpha: int, beta: int) -> tuple:
    """The same knot, its mirror, or its other presentation, at random."""
    choice = rng.randrange(4)
    if choice & 1:
        beta = pow(beta, -1, alpha)
    if choice & 2:
        beta = alpha - beta
    return alpha, beta


def _draw(rng, quotients_of, lo: int, hi: int, index: int) -> dict:
    while True:
        alpha, beta = _from_quotients(quotients_of(rng))
        if alpha % 2 == 0:
            continue
        surfaces, terms, squares = knot_stats(alpha, beta)
        if lo <= (terms, squares)[index] <= hi:
            alpha, beta = _presentation(rng, alpha, beta)
            return {"alpha": alpha, "beta": beta, "surfaces": surfaces,
                    "terms": terms}


def _wide_quotients(rng):
    return [2 if rng.random() < 0.08 else 1 for _ in range(rng.randint(28, 36))]


def _long_quotients(rng):
    return [rng.randint(2000, 2600)] + [
        rng.randint(1, 4) for _ in range(rng.randint(1, 3))]


def deep_queries(rng) -> list:
    """One round of ``deep``: a wide knot, then a long one."""
    return [
        dict(_draw(rng, _wide_quotients, *WIDE_TERMS, 0), family="wide"),
        dict(_draw(rng, _long_quotients, *LONG_SQUARES, 1), family="long"),
    ]


# ---------------------------------------------------------------------------
# output gates


def _alternating_sum(coeffs) -> int:
    return sum(-c if i % 2 else c for i, c in enumerate(coeffs))


def _poly_checks(alpha: int, k: int, coeffs) -> str:
    """Reason the polynomial (coefficients of 2**k * p) is wrong, or ''."""
    if len(coeffs) != k + 1 or coeffs[-1] == 0 or coeffs[0] == 0:
        return f"degree is not {k}"
    if abs(_alternating_sum(coeffs)) != alpha << k:
        return "|p(-1)| != alpha"
    return ""


def check_invariants_reply(text: str, query: dict) -> tuple:
    """Gate for one ``invariants A B --json`` reply."""
    try:
        reply = json.loads(text)
        alpha = reply["alpha"]
        if (alpha, reply["beta"]) != (query["alpha"], query["beta"]):
            return False, 0, "reply is for another knot"
        surfaces = reply["surfaces"]
        if reply["surface_count"] != len(surfaces):
            return False, 0, "surface_count != len(surfaces)"
        if len(surfaces) != query["surfaces"]:
            return False, 0, (f"{len(surfaces)} surfaces, expected "
                              f"{query['surfaces']}")
        if sum(len(s["terms"]) for s in surfaces) != query["terms"]:
            return False, 0, "total band count differs from expected"
        checks = 4
        for s in surfaces:
            k = len(s["terms"])
            if s["poly"]["k"] != k:
                return False, checks, f"surface {s['terms']}: k != len(terms)"
            why = _poly_checks(alpha, k, s["poly"]["coeffs_2k"])
            if why:
                return False, checks, f"surface {s['terms']}: {why}"
            checks += 3
        slopes = [s["slope"] for s in surfaces if s["orientable"]]
        if slopes != [0]:
            return False, checks, "not exactly one orientable surface of slope 0"
        alex = reply["alexander"]
        why = _poly_checks(alpha, alex["k"], alex["coeffs_2k"])
        if why:
            return False, checks + 1, f"alexander: {why}"
        return True, checks + 3, ""
    except (ValueError, KeyError, TypeError) as exc:
        return False, 0, f"unreadable reply: {exc!r}"


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_census_files(knots_path, surfaces_path, ref: dict) -> tuple:
    """Gate for ``census``: both digests, then every surface row re-checked."""
    if sha256_file(knots_path) != ref["knots_sha256"]:
        return False, 0, "knot CSV digest differs from the reference"
    if sha256_file(surfaces_path) != ref["surfaces_sha256"]:
        return False, 1, "surface CSV digest differs from the reference"
    checks = 2
    with open(knots_path, newline="") as fh:
        knots = {(int(r["alpha"]), int(r["beta"])): int(r["surface_count"])
                 for r in csv.DictReader(fh)}
    seen, orientable_slopes = {}, {}
    with open(surfaces_path, newline="") as fh:
        for r in csv.DictReader(fh):
            key = (int(r["alpha"]), int(r["beta"]))
            k = len(r["terms"].split(";"))
            why = _poly_checks(key[0], k, [int(c) for c in r["poly"].split(";")])
            if why:
                return False, checks, f"K{key} {r['terms']}: {why}"
            checks += 2
            seen[key] = seen.get(key, 0) + 1
            if r["orientable"] == "true":
                orientable_slopes.setdefault(key, []).append(r["slope"])
    if seen != knots:
        return False, checks, "surface rows do not match surface_count"
    if any(orientable_slopes.get(key) != ["0"] for key in knots):
        return False, checks, "a knot lacks exactly one orientable slope-0 surface"
    return True, checks + 2 * len(knots), ""


PASS_LINE = re.compile(
    r"^pass: (\d+) knots, (\d+) surfaces, (\d+) checks \(alpha <= (\d+)\)$",
    re.M)


def check_verify_output(text: str, ref: dict) -> tuple:
    """Gate for ``verify --max-alpha M``: exact knot and surface counts.

    Returns (ok, checks stated by the program, reason)."""
    match = PASS_LINE.search(text)
    if not match:
        return False, 0, "no pass line"
    knots, surfaces, checks, bound = map(int, match.groups())
    if (knots, surfaces, bound) != (ref["knots"], ref["surfaces"],
                                    ref["max_alpha"]):
        return False, checks, (f"pass line {match.group(0)!r} does not match "
                               f"the reference counts")
    return True, checks, ""
