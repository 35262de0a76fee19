"""The contract of the package's value types: equality by class and fields,
hashing, immutability, pickling and the reprs they print."""

import copy
import pickle

import pytest

from bridgestate import (
    Expansion,
    GLMatrix,
    StateMatrix,
    full_report,
    gl_matrix,
    make_knot,
    make_surface,
    standard_state_matrix,
    state_polynomial,
)
from bridgestate.checks import CheckStats
from bridgestate.laurent import LaurentPolynomial

TERMS = (2, 3)

# name -> a function building the same value afresh on each call
VALUES = {
    "Expansion": lambda: Expansion(TERMS),
    "TwoBridgeKnot": lambda: make_knot(5, 2),
    "EssentialSurface": lambda: make_surface(Expansion(TERMS)),
    "StatePolynomial": lambda: state_polynomial(Expansion(TERMS)),
    "SurfaceReport": lambda: full_report(make_knot(5, 2)).surfaces[1],
    "InvariantReport": lambda: full_report(make_knot(5, 2)),
    "StateMatrix": lambda: standard_state_matrix(Expansion(TERMS)),
    "GLMatrix": lambda: gl_matrix(standard_state_matrix(Expansion(TERMS))),
    "LaurentPolynomial": lambda: LaurentPolynomial(-1, (0, 2, 0)),
    "CheckStats": lambda: CheckStats(1, 2, 3),
}

# the same name -> a value of the same class that differs in one field
OTHERS = {
    "Expansion": lambda: Expansion(TERMS, 1),
    "TwoBridgeKnot": lambda: make_knot(5, 3),
    "EssentialSurface": lambda: make_surface(Expansion((3, 2))),
    "StatePolynomial": lambda: state_polynomial(Expansion((3, 2, 2))),
    "SurfaceReport": lambda: full_report(make_knot(5, 2)).surfaces[2],
    "InvariantReport": lambda: full_report(make_knot(5, 3)),
    "StateMatrix": lambda: standard_state_matrix(Expansion((2, 2))),
    "GLMatrix": lambda: gl_matrix(standard_state_matrix(Expansion((2, 2)))),
    "LaurentPolynomial": lambda: LaurentPolynomial(1, (2,)),
    "CheckStats": lambda: CheckStats(1, 2, 4),
}

FIRST_FIELD = {
    "Expansion": "terms", "TwoBridgeKnot": "alpha",
    "EssentialSurface": "expansion", "StatePolynomial": "k",
    "SurfaceReport": "surface", "InvariantReport": "knot",
    "StateMatrix": "size", "GLMatrix": "size",
    "LaurentPolynomial": "min_degree", "CheckStats": "knots",
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_by_fields_and_class(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b and not a != b
    assert a != OTHERS[name]()
    assert a != object() and a != None  # noqa: E711


def test_state_and_gl_matrices_with_equal_fields_differ():
    nonzeros = frozenset({((0, 0), 2), ((1, 1), -3)})
    v, g = StateMatrix(2, 1, nonzeros), GLMatrix(2, 1, nonzeros)
    assert (v.size, v.den, v.nonzeros) == (g.size, g.den, g.nonzeros)
    assert v != g and g != v
    assert v == StateMatrix(2, 1, nonzeros)


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_hash_alike(name):
    a, b = VALUES[name](), VALUES[name]()
    assert hash(a) == hash(b)
    assert len({a, b, OTHERS[name]()}) == 2


@pytest.mark.parametrize("name", VALUES)
def test_assignment_raises(name):
    value = VALUES[name]()
    field = FIRST_FIELD[name]
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == VALUES[name]()


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("name", VALUES)
def test_pickle_round_trip(name, protocol):
    value = VALUES[name]()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert back == value and type(back) is type(value)
    assert copy.copy(value) == value == copy.deepcopy(value)


def test_reprs():
    e = Expansion(TERMS)
    assert repr(e) == "Expansion(terms=(2, 3), r=0)"
    assert repr(make_knot(5, 2)) == "TwoBridgeKnot(alpha=5, beta=2)"
    assert repr(make_surface(e)) == (
        "EssentialSurface(expansion=Expansion(terms=(2, 3), r=0), "
        "orientable=False, genus_twice=2, n_plus=1, n_minus=1)")
    assert repr(state_polynomial(e)) == (
        "StatePolynomial(k=2, coeffs_2k=(6, -16, 6))")
    seifert = (
        "SurfaceReport(surface=EssentialSurface(expansion=Expansion("
        "terms=(2, 2), r=0), orientable=True, genus_twice=2, n_plus=1, "
        "n_minus=1), polynomial=StatePolynomial(k=2, coeffs_2k=(4, -12, 4)), "
        "signature=0, slope=0)")
    report = full_report(make_knot(5, 2))
    assert repr(report.surfaces[0]) == seifert
    assert repr(report).startswith(
        "InvariantReport(knot=TwoBridgeKnot(alpha=5, beta=2), surfaces=("
        + seifert + ", SurfaceReport(")
    assert repr(report).endswith(
        "determinant=5, signature=0, alexander=StatePolynomial(k=2, "
        "coeffs_2k=(4, -12, 4)), genus_twice=2, nonorientable_genus_twice=2, "
        "surface_count=3, slopes=(-4, 0, 4))")
    nonzeros = frozenset({((1, 1), -3)})
    assert repr(StateMatrix(2, 2, nonzeros)) == (
        "StateMatrix(size=2, den=2, nonzeros=frozenset({((1, 1), -3)}))")
    assert repr(GLMatrix(2, 1, nonzeros)) == (
        "GLMatrix(size=2, den=1, nonzeros=frozenset({((1, 1), -3)}))")
    assert repr(LaurentPolynomial(-1, (0, 2, 0))) == (
        "LaurentPolynomial(min_degree=0, coeffs=(Fraction(2, 1),))")
    assert repr(CheckStats(1, 0, 0)) == (
        "CheckStats(knots=1, surfaces=0, checks=0)")
