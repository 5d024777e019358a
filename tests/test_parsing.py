import random
from fractions import Fraction

import pytest

import cliffrep as cr
from cliffrep.errors import (CoefficientNotInField, ExponentOverflow,
                             ParseError, UnknownVariable)


def ring_qq():
    return cr.PolyRing(cr.rationals(), 1, 4)


def test_parse_paper_quadric():
    ring = ring_qq()
    poly = cr.parse_poly("y0*y3 - y1*y2", ring)
    y = [ring.var(f"y{i}") for i in range(4)]
    assert poly == y[0] * y[3] - y[1] * y[2]
    assert str(poly) == "y0*y3 - y1*y2"


def test_parse_empty_is_error():
    with pytest.raises(ParseError):
        cr.parse_poly("", ring_qq())
    with pytest.raises(ParseError):
        cr.parse_poly("   ", ring_qq())


def test_parse_fermat_cubic_gf7():
    ring = cr.PolyRing(cr.prime_field(7), 0, 2)
    poly = cr.parse_poly("y0^3 + y1^3", ring)
    assert poly.terms == {(3, 0): 1, (0, 3): 1}


def test_parse_coefficient_styles():
    ring = ring_qq()
    assert cr.parse_poly("3/2*y0^2*t1", ring) == \
        ring.monomial((2, 0, 0, 0, 1), Fraction(3, 2))
    assert cr.parse_poly("2y0", ring) == ring.var("y0").scale(2)
    assert cr.parse_poly("-y0 + y1", ring) == ring.var("y1") - ring.var("y0")
    assert cr.parse_poly("0", ring).is_zero()
    assert cr.parse_poly("y0*2", ring) == ring.var("y0").scale(2)


def test_parse_errors_carry_position():
    ring = ring_qq()
    with pytest.raises(ParseError):
        cr.parse_poly("y0 + ", ring)
    with pytest.raises(ParseError):
        cr.parse_poly("y0 ^", ring)
    with pytest.raises(ParseError) as info:
        cr.parse_poly("y0 + @", ring)
    assert info.value.position == 6
    with pytest.raises(UnknownVariable):
        cr.parse_poly("y0 + z3", ring)
    # an error at the end of the text points just past its last character,
    # one inside it at the token that does not fit
    for text, position in (("y0 +", 5), ("y0^", 4), ("2*", 3), ("-", 2),
                           ("y0 y1", 4)):
        with pytest.raises(ParseError) as info:
            cr.parse_poly(text, ring)
        assert info.value.position == position, text


def test_parse_field_mismatch():
    ring = cr.PolyRing(cr.prime_field(7), 0, 2)
    with pytest.raises(CoefficientNotInField):
        cr.parse_poly("3/2*y0", ring)
    # integers always reduce
    assert cr.parse_poly("9*y0", ring) == ring.var("y0").scale(2)


def test_parse_exponent_overflow():
    with pytest.raises(ExponentOverflow):
        cr.parse_poly("y0^70000", ring_qq())


CORPUS = [
    "y0*y3 - y1*y2",
    "y0^3 + y1^3",
    "y0^2 - y1^2",
    "y0^2 + y1^2 + y2^2",
    "2*y0 + 3*y1",
    "t1*y0 + y1",
    "y0",
    "-y0",
    "0",
    "1",
    "-3/4",
    "3/2*y0^2*t1",
    "y0*y1*y2*y3",
    "y0^2*y1 - 2*y0*y1^2 + y1^3",
    "1/2*y0 - 1/3*y1 + 1/6*y2",
    "7*y0^4 - y3^4",
    "y0^2 - t1^2*y1^2",
    "t1^3*y0^3 + y1^3",
    "y2 + y3 - y0 - y1",
    "5",
]


def test_round_trip_corpus_and_random():
    ring = ring_qq()
    rng = random.Random(123)
    corpus = list(CORPUS)
    # pad with random polynomials to 50+ strings
    names = ring.names
    while len(corpus) < 55:
        poly = ring.zero()
        for _ in range(rng.randint(1, 5)):
            exp = tuple(rng.randint(0, 3) for _ in names)
            poly = poly + ring.monomial(exp, Fraction(rng.randint(-9, 9),
                                                      rng.randint(1, 5)))
        corpus.append(str(poly))
    assert len(corpus) >= 50
    for text in corpus:
        once = cr.parse_poly(text, ring)
        canonical = str(once)
        assert cr.parse_poly(canonical, ring) == once
        assert str(cr.parse_poly(canonical, ring)) == canonical


def test_round_trip_gf():
    ring = cr.PolyRing(cr.prime_field(11), 0, 3)
    rng = random.Random(5)
    for _ in range(30):
        poly = ring.zero()
        for _ in range(rng.randint(0, 4)):
            exp = tuple(rng.randint(0, 3) for _ in range(3))
            poly = poly + ring.monomial(exp, rng.randrange(11))
        text = str(poly)
        assert cr.parse_poly(text, ring) == poly


def test_canonical_order_is_graded_lex():
    ring = ring_qq()
    poly = cr.parse_poly("t1 + y3 + y0 + y0*y1 + 1", ring)
    assert str(poly) == "y0*y1 + y0 + y3 + t1 + 1"
