"""Property-based tests of the elimination oracle (needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bridgestate import (  # noqa: E402
    Expansion,
    flip_normal,
    flip_orientation,
    gl_matrix,
    standard_state_matrix,
    state_signature_minors,
    symmetric_signature,
)
from bridgestate.checks import permuted_state_matrix  # noqa: E402
from oracles import (  # noqa: E402
    poly_equivalent,
    sign_count_signature,
    state_polynomial_det,
    state_polynomial_oracle,
)

# any sequence of terms with |n| >= 2 is a valid expansion
TERMS = st.lists(
    st.integers(2, 9).flatmap(lambda n: st.sampled_from((n, -n))),
    min_size=1,
    max_size=40,
)
MOVES = st.lists(st.sampled_from(("normal", "orientation", "renumber")),
                 max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_and_signature_survive_random_moves(data):
    e = Expansion(tuple(data.draw(TERMS, label="terms")))
    k = len(e.terms)
    v = standard_state_matrix(e)
    permuted = False
    for move in data.draw(MOVES, label="moves"):
        if move == "normal" and k > 1:
            v = flip_normal(v, data.draw(st.integers(1, k - 1)))
        elif move == "orientation":
            v = flip_orientation(v, data.draw(st.integers(1, k)))
        elif move == "renumber" and k > 1:
            v = permuted_state_matrix(v, data.draw(st.permutations(range(k))))
            permuted = True
    assert poly_equivalent(state_polynomial_oracle(v), state_polynomial_det(e))
    gl = gl_matrix(v)
    # the Fraction-input and the int-input routes
    assert symmetric_signature(gl.entries) == symmetric_signature(gl.scaled)
    if permuted:
        sig = symmetric_signature(gl.entries)
    else:
        sig = state_signature_minors(v)
    assert sig == sign_count_signature(e.terms)
