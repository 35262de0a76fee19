import random
from fractions import Fraction
from math import gcd

import pytest

from bridgestate import InvalidInputError, LaurentPolynomial
from oracles import (
    dict_add,
    dict_eval,
    dict_mul,
    frac,
    laurent,
    poly_to_dict,
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

    def test_additive_inverse(self):
        rng = random.Random(1)
        for _ in range(50):
            p = random_laurent(rng)
            assert (p + (-p)).is_zero

    def test_unit_cancellation(self):
        t_inv = laurent([1], min_degree=-1)
        t = laurent([1], min_degree=1)
        assert t_inv * t == laurent([1])

    def test_matches_dict_reference(self):
        rng = random.Random(2)
        for _ in range(100):
            p, q = random_laurent(rng), random_laurent(rng)
            assert poly_to_dict(p * q) == dict_mul(poly_to_dict(p), poly_to_dict(q))
            assert poly_to_dict(p + q) == dict_add(poly_to_dict(p), poly_to_dict(q))

    def test_normalization_restored(self):
        # ends of the stored span stay nonzero after arbitrary arithmetic
        rng = random.Random(3)
        for _ in range(100):
            p, q = random_laurent(rng), random_laurent(rng)
            for r in (p + q, p - q, p * q, -p):
                if not r.is_zero:
                    assert r.coeffs[0] != 0 and r.coeffs[-1] != 0
                    assert r.max_degree - r.min_degree == len(r.coeffs) - 1

    def test_coefficients_stay_reduced(self):
        rng = random.Random(4)
        for _ in range(50):
            p, q = random_laurent(rng), random_laurent(rng)
            for c in (p * q + p).coeffs:
                assert c.denominator >= 1
                assert gcd(abs(c.numerator), c.denominator) == 1


class TestEvaluate:
    def test_at_minus_one(self):
        assert laurent([2, -3, 2]).evaluate(-1) == 7

    def test_half_integer_coefficients_at_one(self):
        p = laurent([Fraction(-3, 2), 4, Fraction(-3, 2)])
        assert p.evaluate(1) == 1

    def test_zero_polynomial(self):
        zero = laurent([])
        for x in (0, 1, Fraction(-7, 2)):
            assert zero.evaluate(x) == 0

    def test_negative_exponents_at_zero_rejected(self):
        p = laurent([1, 1], min_degree=-1)
        with pytest.raises(InvalidInputError):
            p.evaluate(0)

    def test_nonnegative_exponents_at_zero(self):
        assert laurent([5, 7], min_degree=0).evaluate(0) == 5
        assert laurent([5], min_degree=2).evaluate(0) == 0

    def test_multiplicative(self):
        rng = random.Random(5)
        for _ in range(100):
            p, q = random_laurent(rng), random_laurent(rng)
            x = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            if rng.random() < 0.5:
                x = -x
            assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
            assert dict_eval(poly_to_dict(p), x) == p.evaluate(x)


class TestReciprocalSubstitute:
    def test_reverses_coefficients(self):
        p = laurent([2, -3, 2])
        assert p.reciprocal_substitute() == laurent([2, -3, 2], min_degree=-2)

    def test_constant_fixed_point(self):
        c = laurent([Fraction(5, 3)])
        assert c.reciprocal_substitute() == c

    def test_sparse_reversal(self):
        p = laurent([1, 0, 0, 1])  # 1 + t^3
        assert p.reciprocal_substitute() == laurent([1, 0, 0, 1], min_degree=-3)

    def test_involution(self):
        rng = random.Random(6)
        for _ in range(100):
            p = random_laurent(rng)
            assert p.reciprocal_substitute().reciprocal_substitute() == p


def test_str_rendering():
    assert str(laurent([])) == "0"
    assert str(laurent([Fraction(3, 2), -4, Fraction(3, 2)])) == "3/2 - 4*t + 3/2*t^2"
    assert str(laurent([1, -1], min_degree=-1)) == "t^-1 - 1"


def test_construction_trims_and_coerces():
    p = LaurentPolynomial(-1, (0, 2, 0))
    assert p.min_degree == 0 and p.coeffs == (Fraction(2),)
    assert LaurentPolynomial(3, (0, 0)).is_zero
    assert LaurentPolynomial(3, (0, 0)).min_degree == 0
