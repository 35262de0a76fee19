"""Property-based tests (need hypothesis): the packed recurrence, the
elimination oracle, the enumeration and the recurrences folded down its
walk, presentation and mirror invariance, and the JSON renderings."""

import contextlib
import io
import json
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bridgestate import (  # noqa: E402
    Expansion,
    flip_normal,
    flip_orientation,
    full_report,
    gl_matrix,
    make_knot,
    standard_state_matrix,
)
from bridgestate.census import (  # noqa: E402
    KNOT_CSV_HEADER,
    SURFACE_CSV_HEADER,
    knot_csv_row,
    surface_csv_rows,
)
from bridgestate.checks import iter_knots  # noqa: E402
from bridgestate.cli import main  # noqa: E402
from bridgestate.continued_fractions import (  # noqa: E402
    _even_first,
    _expand_target,
    _expansion_summary,
    _targets,
)
from bridgestate import invariants  # noqa: E402
from bridgestate.invariants import (  # noqa: E402
    _det_scaled,
    _start,
    _surface_step,
    _unpack,
)
from bridgestate.state_matrices import (  # noqa: E402
    _sparse_signature,
    permuted_state_matrix,
)
from oracles import (  # noqa: E402
    _pack,
    brute_force_expansions,
    fraction_recurrence_det,
    invariant_multiset,
    laurent,
    poly_equivalent,
    report_fields,
    sign_count_signature,
    state_polynomial_det,
    state_polynomial_oracle,
)
from test_census import census_files  # noqa: E402

# any sequence of terms with |n| >= 2 is a valid expansion
TERMS = st.lists(
    st.integers(2, 9).flatmap(lambda n: st.sampled_from((n, -n))),
    min_size=1,
    max_size=40,
)
MOVES = st.lists(st.sampled_from(("normal", "orientation", "renumber")),
                 max_size=6)


# terms of either parity up to 2**80, so the slots _det_scaled folds in,
# _start of |D_k|, run to thousands of bits
BIG_TERMS = st.integers(1, 200).flatmap(lambda k: st.lists(
    st.integers(2, 2**80).flatmap(lambda n: st.sampled_from((n, -n))),
    min_size=k,
    max_size=k,
))


@settings(max_examples=25, deadline=None)
@given(BIG_TERMS)
def test_packed_recurrence_matches_fraction_recurrence(terms):
    assert state_polynomial_det(Expansion(tuple(terms))) == \
        fraction_recurrence_det(terms)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(2, 9), st.integers(2, 2**80)).flatmap(
    lambda n: st.sampled_from((n, -n))), min_size=1, max_size=30))
def test_coefficients_alternate_and_sum_to_the_minor(terms):
    # the lemma of _start, on every prefix: the coefficients of 2**s * d_j
    # alternate in sign and their absolute values sum to 2**s * |D_j|, for
    # the minor D_j of V + V^T from its own recurrence, and 2**s <= |D_j|
    d, dm = 1, 0
    for j, n in enumerate(terms, 1):
        d, dm = (n if j % 2 else -n) * d - dm, d
        coeffs, scale = _det_scaled(terms[:j])
        sign = 1 if coeffs[0] > 0 else -1
        assert all(sign * (-1)**i * c > 0 for i, c in enumerate(coeffs))
        assert sum(map(abs, coeffs)) == abs(d) << scale
        assert 1 << scale <= abs(d)


# slot widths, multiples of 8 as _start makes them (8 to 72 bits for every
# alpha < 2**32), and digits over the whole signed range the lemma of
# _start allows: together they reach past _FEW_BITS, where _unpack turns to
# bytes
SLOTS = st.sampled_from((*range(8, 80, 8), 136, 1024)).flatmap(
    lambda bits: st.tuples(st.just(bits), st.lists(
        st.integers(1 - 2**(bits - 1), 2**(bits - 1) - 1), min_size=1,
        max_size=80)))


@settings(max_examples=300, deadline=None)
@given(SLOTS)
def test_unpack_reads_the_same_digits_by_masks_and_by_bytes(slots):
    bits, digits = slots
    packed, n = _pack(digits, bits), len(digits)
    with mock.patch.object(invariants, "_FEW_BITS", n * bits):
        by_masks = _unpack(packed, bits, n)
    with mock.patch.object(invariants, "_FEW_BITS", n * bits - 1):
        by_bytes = _unpack(packed, bits, n)
    assert by_masks == by_bytes == digits == _unpack(packed, bits, n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_and_signature_survive_random_moves(data):
    e = Expansion(tuple(data.draw(TERMS, label="terms")))
    k = len(e.terms)
    v = standard_state_matrix(e)
    for move in data.draw(MOVES, label="moves"):
        if move == "normal" and k > 1:
            v = flip_normal(v, data.draw(st.integers(1, k - 1)))
        elif move == "orientation":
            v = flip_orientation(v, data.draw(st.integers(1, k)))
        elif move == "renumber" and k > 1:
            v = permuted_state_matrix(v, data.draw(st.permutations(range(k))))
    assert poly_equivalent(state_polynomial_oracle(v), state_polynomial_det(e))
    gl = gl_matrix(v)
    assert _sparse_signature(gl.size, gl.nonzeros) == sign_count_signature(
        e.terms)


@st.composite
def knots(draw, max_alpha=199):
    alpha = 2 * draw(st.integers(1, max_alpha // 2)) + 1
    beta = draw(st.sampled_from(
        [b for b in range(1, alpha) if gcd(alpha, b) == 1]))
    return alpha, beta


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 120), st.data())
def test_enumeration_matches_brute_force(p, data):
    q = data.draw(st.sampled_from(
        [q for q in range(1, p) if gcd(p, q) == 1]), label="q")
    x = Fraction(data.draw(st.sampled_from((p, -p)), label="sign"), q)
    # every term has |n| <= |x| + 1 and every step lowers the denominator,
    # so |p| + 1 bounds both the terms and the length
    got = [terms for terms, _ in _expand_target(x.numerator, x.denominator)]
    assert got == brute_force_expansions(x, p + 1, p + 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 120), st.data())
def test_shared_walk_folds_each_leaf_like_the_independent_routes(p, data):
    q = data.draw(st.sampled_from(
        [q for q in range(1, p) if gcd(p, q) == 1]), label="q")
    p *= data.draw(st.sampled_from((1, -1)), label="sign")
    leaves = list(_expand_target(p, q, _surface_step, _start(p)))
    got = [terms for terms, _ in leaves]
    assert all(a < b for a, b in zip(got, got[1:]))
    assert got == brute_force_expansions(Fraction(p, q), abs(p) + 1,
                                         abs(p) + 1)
    for terms, state in leaves:
        cur, bits, scale, sig, plus = state[:5]
        coeffs = _unpack(cur, bits, len(terms) + 1)
        assert laurent([Fraction(c, 1 << scale) for c in coeffs]) == \
            fraction_recurrence_det(terms)
        assert sig == 2 * plus - len(terms) == sign_count_signature(terms)
        assert (scale == 0) == all(n % 2 == 0 for n in terms)


@settings(max_examples=100, deadline=None)
@given(knots(max_alpha=999))
def test_expansion_summary_is_the_multiset_of_the_report(knot):
    # the DAG summary against the surfaces full_report walks, and the walk
    # that takes the path of even terms first against the walk in order
    report = full_report(make_knot(*knot))
    multiset = {}
    for r in report.surfaces:
        key = r.surface.genus_twice, r.signature, r.surface.orientable
        multiset[key] = multiset.get(key, 0) + 1
    assert _expansion_summary(_targets(report.knot)) == multiset
    target = _targets(report.knot)[knot[1] & 1]
    start = _start(knot[0])
    leaf, leaves = _even_first(*target, _surface_step, start)
    assert list(leaves) == list(_expand_target(*target, _surface_step, start))
    assert [leaf[0]] == [r.surface.expansion.terms for r in report.surfaces
                         if r.surface.orientable]


@settings(max_examples=60, deadline=None)
@given(knots())
def test_inverse_presentation_has_the_same_invariants(knot):
    alpha, beta = knot
    ours = invariant_multiset(full_report(make_knot(alpha, beta)))
    inverse = pow(beta, -1, alpha)
    assert invariant_multiset(full_report(make_knot(alpha, inverse))) == ours


@settings(max_examples=60, deadline=None)
@given(knots())
def test_mirror_negates_signatures_and_slopes(knot):
    alpha, beta = knot
    ours = full_report(make_knot(alpha, beta))
    mirror = full_report(make_knot(alpha, alpha - beta))
    assert invariant_multiset(mirror) == tuple(sorted(
        (poly, -sigma, -slope)
        for poly, sigma, slope in invariant_multiset(ours)))
    assert mirror.signature == -ours.signature
    assert mirror.slopes == tuple([-s for s in reversed(ours.slopes)])


@settings(max_examples=30, deadline=None)
@given(knots())
def test_invariants_json_round_trips(knot):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["invariants", *map(str, knot), "--json"]) == 0
    text = out.getvalue()
    assert text == json.dumps(
        json.loads(text), indent=2, sort_keys=True) + "\n"


@settings(max_examples=12, deadline=None)
@given(st.integers(3, 41), st.sampled_from((1, 2)), st.booleans())
def test_census_from_pieces_equals_one_rendering(max_alpha, jobs, as_json):
    # the files census streams piece by piece, from one report per
    # presentation orbit, are the bytes of rendering the reports of every
    # presentation at once
    knots_text, surfaces_text, counts = census_files(max_alpha, jobs, as_json)
    reports = [full_report(make_knot(a, b)) for a, b in iter_knots(max_alpha)]
    rows = [report_fields(r) for r in reports]
    records = [dict(s, alpha=r["alpha"], beta=r["beta"])
               for r in rows for s in r["surfaces"]]
    assert counts == (len(rows), len(records))
    if as_json:
        assert knots_text == json.dumps(rows, indent=2, sort_keys=True) + "\n"
        assert surfaces_text == json.dumps(
            records, indent=2, sort_keys=True) + "\n"
    else:
        lines = [knot_csv_row(r) for r in reports]
        assert knots_text == "\n".join([KNOT_CSV_HEADER] + lines) + "\n"
        lines = [line for r in reports for line in surface_csv_rows(r)]
        assert surfaces_text == "\n".join([SURFACE_CSV_HEADER] + lines) + "\n"
