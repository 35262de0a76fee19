import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from bridgestate import InvalidInputError
from bridgestate.laurent import LaurentPolynomial, poly_text
from oracles import (
    dict_mul,
    frac,
    laurent,
    laurent_dict,
    laurent_text,
    random_laurent,
)


class TestFrac:
    def test_reduces(self):
        assert frac(6, 4) == Fraction(3, 2)

    def test_zero_normalizes(self):
        f = frac(0, 5)
        assert (f.numerator, f.denominator) == (0, 1)

    def test_sign_moves_to_numerator(self):
        f = frac(7, -3)
        assert (f.numerator, f.denominator) == (-7, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidInputError):
            frac(1, 0)

    def test_default_denominator(self):
        assert frac(5) == 5


class TestArithmetic:
    def test_binomial_square(self):
        one_minus_t = laurent([1, -1])
        assert one_minus_t * one_minus_t == laurent([1, -2, 1])

    def test_unit_cancellation(self):
        t_inv = laurent([1], min_degree=-1)
        t = laurent([1], min_degree=1)
        assert t_inv * t == laurent([1])

    def test_matches_dict_reference(self):
        rng = random.Random(2)
        for _ in range(100):
            p, q = random_laurent(rng), random_laurent(rng)
            assert laurent_dict(p * q) == dict_mul(laurent_dict(p), laurent_dict(q))

    def test_normalization_restored(self):
        # ends of the stored span stay nonzero after multiplication
        rng = random.Random(3)
        for _ in range(100):
            p, q = random_laurent(rng), random_laurent(rng)
            r = p * q
            if not r.is_zero:
                assert r.coeffs[0] != 0 and r.coeffs[-1] != 0

    def test_coefficients_stay_reduced(self):
        rng = random.Random(4)
        for _ in range(50):
            p, q = random_laurent(rng), random_laurent(rng)
            for c in (p * q).coeffs:
                assert c.denominator >= 1
                assert gcd(abs(c.numerator), c.denominator) == 1


def test_str_rendering():
    assert str(laurent([])) == "0"
    assert str(laurent([Fraction(3, 2), -4, Fraction(3, 2)])) == "3/2 - 4*t + 3/2*t^2"
    assert str(laurent([1, -1], min_degree=-1)) == "t^-1 - 1"


@st.composite
def scaled_polynomials(draw):
    """(coeffs, den, low) for poly_text: zeros anywhere, the coefficients
    +-1 (+-den), integers over den and numerators not reduced by den."""
    den = draw(st.integers(1, 12) | st.integers(1, 1 << 80))
    coeff = (st.just(0) | st.sampled_from([den, -den])
             | st.integers(-9, 9).map(lambda n: n * den)
             | st.integers(-60, 60) | st.integers())
    return (draw(st.lists(coeff, max_size=9)), den,
            draw(st.integers(-5, 5)))


@given(scaled_polynomials())
def test_poly_text_matches_the_reference(scaled):
    coeffs, den, low = scaled
    poly = LaurentPolynomial(low, tuple(Fraction(c, den) for c in coeffs))
    want = laurent_text(poly)
    assert poly_text(coeffs, den, low) == want
    assert str(poly) == want


def test_poly_text_of_nothing_is_zero():
    assert poly_text([]) == "0"
    assert poly_text([0, 0], 4, -2) == "0"


def test_construction_trims_and_coerces():
    p = LaurentPolynomial(-1, (0, 2, 0))
    assert p.min_degree == 0 and p.coeffs == (Fraction(2),)
    assert LaurentPolynomial(3, (0, 0)).is_zero
    assert LaurentPolynomial(3, (0, 0)).min_degree == 0
