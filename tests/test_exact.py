"""Radical-of-rational arithmetic used for exact constant reporting."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blca.exact import ExactValue

F = Fraction

rationals = st.fractions(min_value=F(1, 60), max_value=F(60),
                         max_denominator=60)


def test_one_and_of():
    assert float(ExactValue.one()) == 1.0
    assert ExactValue.of(6).as_fraction() == 6
    assert ExactValue.of(F(3, 4)).as_fraction() == F(3, 4)


def test_unit_is_shared():
    one = ExactValue.one()
    v = ExactValue.of(6) ** F(1, 2)
    assert ExactValue.of(1) is one and ExactValue.of(F(3, 3)) is one
    assert v * one is v and one * v is v and v / 1 is v
    assert one ** F(2, 3) is one
    assert (one / v) * v == 1 and (one / v) ** 2 == F(1, 6)


def test_float_of_rational_is_exact():
    assert float(ExactValue.of(8)) == 8.0
    assert float(ExactValue.of(F(1, 3))) == 1 / 3
    assert float(ExactValue.of(8) ** F(2, 3)) == 4.0
    assert float(ExactValue.of(F(10, 7)) ** 3) == float(F(1000, 343))


def test_multiplication_and_division():
    v = ExactValue.of(2) * ExactValue.of(3)
    assert v.as_fraction() == 6
    assert (v / 2).as_fraction() == 3
    assert (v * F(1, 6)).as_fraction() == 1


def test_powers_and_roots():
    r = ExactValue.of(2) ** F(1, 2)
    assert not r.is_rational()
    assert (r * r).as_fraction() == 2
    assert abs(float(r) - math.sqrt(2)) < 1e-15
    assert (ExactValue.of(8) ** F(2, 3)).as_fraction() == 4


def test_irrational_as_fraction_rejected():
    r = ExactValue.of(2) ** F(1, 3)
    with pytest.raises(Exception):
        r.as_fraction()


def test_ordering():
    a = ExactValue.of(2) ** F(1, 2)
    b = ExactValue.of(3) ** F(1, 2)
    assert a < b
    assert a <= a
    assert b > a
    assert a != b
    assert ExactValue.of(F(9, 4)) ** F(1, 2) == F(3, 2)


def test_hash_consistency():
    a = ExactValue.of(4) ** F(1, 2)
    b = ExactValue.of(2)
    assert a == b
    assert hash(a) == hash(b)


def test_str_forms():
    assert str(ExactValue.one()) == "1"
    assert str(ExactValue.of(6)) == "2 * 3"
    s = str(ExactValue.of(2) ** F(1, 3))
    assert "2^(1/3)" == s


@settings(max_examples=80, deadline=None)
@given(rationals, rationals)
def test_of_is_multiplicative(p, q):
    assert ExactValue.of(p) * ExactValue.of(q) == ExactValue.of(p * q)
    assert (ExactValue.of(p) / ExactValue.of(q)).as_fraction() == p / q


@settings(max_examples=80, deadline=None)
@given(rationals, st.fractions(min_value=F(-3), max_value=F(3),
                               max_denominator=6))
def test_float_matches_exponent_arithmetic(q, e):
    v = ExactValue.of(q) ** e
    assert abs(float(v) - float(q) ** float(e)) < 1e-9 * max(
        1.0, abs(float(q) ** float(e)))


@settings(max_examples=60, deadline=None)
@given(rationals)
def test_square_root_squares_back(q):
    r = ExactValue.of(q) ** F(1, 2)
    assert (r * r).as_fraction() == q
    assert float(r) > 0


def test_float_rounds_to_the_nearest_double():
    # x = float(v) is nearest when x lies on x's side of the midpoints to
    # both neighbouring doubles; with v^L = P/Q rational this is an exact
    # comparison of P/Q with midpoint^L
    import random
    rnd = random.Random(13)
    checked = 0
    while checked < 300:
        v, root = ExactValue.one(), 1
        for _ in range(rnd.randint(1, 3)):
            e = F(rnd.randint(-40, 40), rnd.randint(2, 12))
            v = v * ExactValue.of(F(rnd.randint(1, 99), rnd.randint(1, 99))) ** e
            root = math.lcm(root, e.denominator)
        if v.is_rational():
            continue
        power = (v ** root).as_fraction()
        x = float(v)
        for toward in (0.0, math.inf):
            mid = (F(x) + F(math.nextafter(x, toward))) / 2
            assert (power > mid**root) if toward == 0.0 else (power < mid**root), v
        checked += 1
