import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bridgestate
from bridgestate import (
    Expansion,
    InvalidInputError,
    enumerate_expansions,
    make_knot,
    make_surface,
    surfaces_expansions,
)
from bridgestate.census import surfaces_json, surfaces_to_csv
from oracles import brute_force_expansions, cf_value


def terms_of(expansions):
    return [e.terms for e in expansions]


class TestExpansion:
    def test_needs_terms(self):
        with pytest.raises(InvalidInputError):
            Expansion(())

    # |n| < 2, and terms that are not integers (never truncated or parsed)
    @pytest.mark.parametrize("bad", [0, 1, -1, 2.5, "4", Fraction(7, 2)])
    def test_small_terms_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            Expansion((2, bad, 3))

    def test_tag_must_be_binary(self):
        with pytest.raises(InvalidInputError):
            Expansion((2, 2), r=2)

    def test_str(self):
        assert str(Expansion((3, -2, 2))) == "[3, -2, 2]"

    # the 0/1 column of the record schema, whatever int-like tag is given
    @pytest.mark.parametrize("tag", [True, 1.0, Fraction(1)])
    def test_tag_is_stored_as_an_int(self, tag):
        e = Expansion((2, 3), tag)
        assert e.r == 1 and type(e.r) is int
        assert e == Expansion((2, 3), 1)
        knot, surfaces = make_knot(5, 2), [make_surface(e)]
        lines = list(surfaces_to_csv(knot, surfaces))
        assert lines[1] == "5,2,2;3,1,false,2,1,1\n"
        assert '"r": 1' in "".join(surfaces_json(knot, surfaces, 1))


class TestCfValue:
    def test_single_term(self):
        assert cf_value(Expansion((3,))) == 3

    def test_two_terms(self):
        assert cf_value(Expansion((2, 3))) == Fraction(7, 3)

    def test_negative_lead(self):
        assert cf_value(Expansion((-2, 4))) == Fraction(-7, 4)

    def test_value_always_exceeds_one(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randint(1, 12)
            terms = tuple(
                rng.choice([1, -1]) * rng.randint(2, 9) for _ in range(k)
            )
            v = cf_value(Expansion(terms))
            assert abs(v.numerator) > v.denominator


class TestEnumerate:
    def test_integer_target(self):
        assert terms_of(enumerate_expansions(Fraction(3))) == [(3,)]

    def test_five_halves(self):
        assert terms_of(enumerate_expansions(Fraction(5, 2))) == [(2, 2), (3, -2)]

    def test_negative_target(self):
        assert terms_of(enumerate_expansions(Fraction(-5, 3))) == [(-2, 3)]

    def test_rational_strings_are_exact(self):
        assert enumerate_expansions("5/2") == enumerate_expansions(Fraction(5, 2))
        assert terms_of(enumerate_expansions("1.1")) == terms_of(
            enumerate_expansions(Fraction(11, 10)))

    # a float is refused even when its value is exact, as is anything
    # Fraction cannot read
    @pytest.mark.parametrize("bad", [2.5, 3.0, float("inf"), "x", "1/0",
                                     None, object(), 1j])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(InvalidInputError):
            enumerate_expansions(bad)

    def test_rejects_an_inexact_float_at_once(self):
        # 1.1 is 2476979795053773/2^51, whose walk does not end in minutes;
        # run apart, so that a regression fails instead of hanging
        src = str(Path(bridgestate.__file__).parent.parent)
        code = (f"import sys\nsys.path.insert(0, {src!r})\n"
                "from bridgestate import InvalidInputError, enumerate_expansions\n"
                "try:\n    enumerate_expansions(1.1)\n"
                "except InvalidInputError as exc:\n    print(exc)\n")
        out = subprocess.run([sys.executable, "-c", code], timeout=10,
                             stdout=subprocess.PIPE, text=True).stdout
        assert out == "target 1.1 is a float, not a rational\n"

    def test_tags_every_expansion_0(self):
        got = enumerate_expansions(Fraction(7, 3))
        assert terms_of(got) == [(2, 3), (3, -2, 2)]
        assert [e.r for e in got] == [0, 0]

    def test_rejects_small_targets(self):
        for bad in (Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(0)):
            with pytest.raises(InvalidInputError):
                enumerate_expansions(bad)

    def test_values_and_sorting(self):
        rng = random.Random(8)
        for _ in range(100):
            q = rng.randint(1, 40)
            p = rng.randint(q + 1, 4 * q + 1)
            if rng.random() < 0.5:
                p = -p
            x = Fraction(p, q)
            got = enumerate_expansions(x)
            assert terms_of(got) == sorted(terms_of(got))
            for e in got:
                assert cf_value(e) == x
                assert all(abs(n) >= 2 for n in e.terms)

    def test_matches_brute_force(self):
        # exhaustive-search oracle, every target arising for alpha <= 25
        for alpha in range(3, 26, 2):
            for beta in range(1, alpha):
                from math import gcd

                if gcd(alpha, beta) != 1:
                    continue
                for x in (Fraction(alpha, beta), Fraction(alpha, beta - alpha)):
                    got = terms_of(enumerate_expansions(x))
                    assert got == brute_force_expansions(x, alpha, alpha)


class TestSurfacesExpansions:
    def test_figure_eight(self):
        got = surfaces_expansions(make_knot(5, 2))
        assert terms_of(got) == [(2, 2), (3, -2), (-2, 3)]
        assert [e.r for e in got] == [0, 0, 1]

    def test_seven_three(self):
        got = surfaces_expansions(make_knot(7, 3))
        assert terms_of(got) == [(2, 3), (3, -2, 2), (-2, 4)]

    def test_trefoil(self):
        assert terms_of(surfaces_expansions(make_knot(3, 1))) == [(3,), (-2, 2)]

    def test_blocks_disjoint_and_signed(self):
        # r = 0 expansions have positive values, r = 1 negative
        for alpha, beta in [(5, 2), (9, 2), (13, 6), (15, 4), (21, 8)]:
            knot = make_knot(alpha, beta)
            for e in surfaces_expansions(knot):
                v = cf_value(e)
                assert (v > 0) == (e.r == 0)
                target = Fraction(alpha, beta) if e.r == 0 else Fraction(
                    alpha, beta - alpha
                )
                assert v == target

    def test_exactly_one_all_even(self):
        from math import gcd

        for alpha in range(3, 100, 2):
            for beta in range(1, alpha):
                if gcd(alpha, beta) != 1:
                    continue
                evens = [
                    e
                    for e in surfaces_expansions(make_knot(alpha, beta))
                    if all(n % 2 == 0 for n in e.terms)
                ]
                assert len(evens) == 1, (alpha, beta)
