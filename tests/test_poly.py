import random
from fractions import Fraction

import pytest

import cliffrep as cr
from cliffrep.errors import ExponentOverflow, RingMismatch, UnknownVariable


def ring_qq(nfib=2, base=0):
    return cr.PolyRing(cr.rationals(), base, nfib)


def test_difference_of_squares():
    ring = ring_qq()
    y0, y1 = ring.var("y0"), ring.var("y1")
    assert (y0 + y1) * (y0 - y1) == y0 * y0 - y1 * y1


def test_zero_absorbs():
    ring = ring_qq()
    a = cr.parse_poly("3*y0^2 - y1", ring)
    assert (a * ring.zero()).is_zero()


def test_fermat_cubic_product_mod7():
    # (y0+2y1)(y0+4y1)(y0+y1) expands with coefficients 7 and 14 on the
    # mixed monomials, which vanish mod 7
    ring = cr.PolyRing(cr.prime_field(7), 0, 2)
    product = ring.one()
    for c in (2, 4, 1):
        product = product * (ring.var("y0") + ring.var("y1").scale(c))
    assert product == cr.parse_poly("y0^3 + y1^3", ring)


def test_eval_examples():
    ring = ring_qq(2, 1)
    a = cr.parse_poly("y0*t1 + y1", ring)
    assert a.evaluate({"t1": 0}) == ring.var("y1")

    ring4 = ring_qq(4)
    quadric = cr.parse_poly("y0*y3 - y1*y2", ring4)
    on_point = quadric.evaluate({"y0": 1, "y1": 1, "y2": 1, "y3": 1})
    assert on_point.is_zero()
    off_point = quadric.evaluate({"y0": 1, "y1": 2, "y2": 3, "y3": 4})
    assert off_point.constant() == Fraction(-2)


def test_eval_unknown_variable():
    ring = ring_qq()
    with pytest.raises(UnknownVariable):
        ring.var("y0").evaluate({"z9": 1})


def test_ring_mismatch():
    a = ring_qq().var("y0")
    b = cr.PolyRing(cr.prime_field(7), 0, 2).var("y0")
    with pytest.raises(RingMismatch):
        a + b


def test_exponent_cap():
    ring = ring_qq()
    y0 = ring.var("y0")
    big = ring.monomial((60000, 0))
    with pytest.raises(ExponentOverflow):
        big * big


def _random_poly(ring, rng, max_terms=4, max_deg=3):
    poly = ring.zero()
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        if ring.field.kind == "GF":
            coeff = rng.randrange(ring.field.p)
        else:
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        poly = poly + ring.monomial(exp, coeff)
    return poly


@pytest.mark.parametrize("field", [cr.rationals(), cr.prime_field(7)],
                         ids=["QQ", "GF7"])
def test_ring_axioms_random(field):
    ring = cr.PolyRing(field, 1, 2)
    rng = random.Random(20240517)
    for _ in range(1000):
        a = _random_poly(ring, rng)
        b = _random_poly(ring, rng)
        c = _random_poly(ring, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("field", [cr.rationals(), cr.prime_field(13)],
                         ids=["QQ", "GF13"])
def test_eval_is_ring_homomorphism(field):
    ring = cr.PolyRing(field, 1, 2)
    rng = random.Random(99)
    for _ in range(200):
        a = _random_poly(ring, rng)
        b = _random_poly(ring, rng)
        if field.kind == "GF":
            point = {name: rng.randrange(field.p) for name in ring.names}
        else:
            point = {name: Fraction(rng.randint(-4, 4)) for name in ring.names}
        lhs = (a * b).evaluate(point).constant()
        rhs = field.mul(a.evaluate(point).constant(), b.evaluate(point).constant())
        assert lhs == rhs
        assert (a + b).evaluate(point).constant() == \
            field.add(a.evaluate(point).constant(), b.evaluate(point).constant())


def test_exact_division():
    ring = ring_qq(2, 1)
    f = cr.parse_poly("y0^2 - y1^2", ring)
    g = cr.parse_poly("y0 + y1", ring)
    assert f.exact_div(g) == cr.parse_poly("y0 - y1", ring)
    assert f.exact_div(cr.parse_poly("y0 + 2*y1", ring)) is None
    product = f * f * g
    assert product.exact_div(f) == f * g


def test_y_homogeneity():
    ring = ring_qq(2, 1)
    f = cr.parse_poly("t1*y0 + y1", ring)
    assert f.is_y_homogeneous(1)
    g = cr.parse_poly("y0^2 + y1", ring)
    assert not g.is_y_homogeneous()
    assert ring.zero().is_y_homogeneous()
