import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffrep.errors import CoefficientNotInField, FieldError
from cliffrep.fields import (MAX_PRIME, gf_divmod, gf_roots, is_prime,
                             parse_field, prime_field, rationals)


def test_prime_validation():
    prime_field(2)
    prime_field(101)
    prime_field(2147483647)
    for bad in (0, 1, 4, 9, 91, 1 << 61):
        with pytest.raises(FieldError):
            prime_field(bad)


def test_is_prime_matches_sieve():
    limit = 10 ** 5
    sieve = [False, False] + [True] * (limit - 2)
    for n in range(2, int(limit ** 0.5) + 1):
        if sieve[n]:
            sieve[n * n::n] = [False] * len(range(n * n, limit, n))
    assert [is_prime(n) for n in range(-3, limit)] == [False] * 3 + sieve


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, and a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (561, 41041, 3215031751):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 40 + 15)


def test_prime_field_near_max_prime():
    field = prime_field(2 ** 61 - 1)
    assert field.p == MAX_PRIME - 1
    assert field.mul(field.inv(3), 3) == 1


def test_rational_arithmetic_exact():
    field = rationals()
    a = field.of(Fraction(1, 3))
    b = field.of(Fraction(1, 6))
    assert field.add(a, b) == Fraction(1, 2)
    assert field.mul(a, field.inv(a)) == 1
    assert field.of("3/2") == Fraction(3, 2)


def test_prime_field_arithmetic():
    field = prime_field(7)
    assert field.of(10) == 3
    assert field.add(5, 4) == 2
    assert field.mul(3, 5) == 1
    assert field.inv(3) == 5
    assert field.neg(2) == 5
    assert field.of(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7


def test_prime_field_rejects_bad_denominator():
    field = prime_field(7)
    with pytest.raises(CoefficientNotInField):
        field.of(Fraction(1, 14))
    with pytest.raises(CoefficientNotInField):
        field.of("3/2")


def test_square_roots():
    field = prime_field(101)
    for a in (1, 4, 5, 100, 37):
        if field.is_square(a):
            r = field.sqrt(a)
            assert r * r % 101 == a % 101
    qq = rationals()
    assert qq.is_square(Fraction(9, 4))
    assert qq.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert not qq.is_square(Fraction(-1))
    assert not qq.is_square(Fraction(2))


def test_tonelli_shanks_various_primes():
    # include p = 1 mod 4, where the easy exponent formula does not apply
    for p in (13, 17, 101, 577):
        field = prime_field(p)
        squares = {x * x % p for x in range(1, p)}
        for a in sorted(squares)[:10]:
            r = field.sqrt(a)
            assert r * r % p == a


def test_parse_field():
    assert parse_field("QQ").kind == "QQ"
    assert parse_field("GF(13)").p == 13
    for bad in ("RR", "GF(6)", "GF(x)", "GF13"):
        with pytest.raises(FieldError):
            parse_field(bad)


# -- roots of univariate polynomials over GF(p) -----------------------------------


def brute_force_roots(coeffs, p):
    def value(x):
        out = 0
        for c in reversed(coeffs):
            out = (out * x + c) % p
        return out

    return [x for x in range(p) if value(x) == 0]


def times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_gf_roots_edge_cases():
    for p in (2, 3, 5, 7, 101):
        assert gf_roots([], p) == gf_roots([0, 0, p], p) == range(p)
        assert gf_roots([1], p) == gf_roots([p - 1, 0, 0], p) == []
        for a in range(min(p, 5)):
            square = times([-a % p, 1], [-a % p, 1], p)  # (x - a)^2
            assert gf_roots(square, p) == [a]
        # x^p - x vanishes everywhere, and has degree p
        assert gf_roots([0, p - 1] + [0] * (p - 2) + [1], p) == list(range(p))
    # (x - 3)(x - 17)(x - 999983) over a prime near 10^6
    p = 1000003
    cubic = times(times([p - 3, 1], [p - 17, 1], p), [p - 999983, 1], p)
    assert gf_roots(cubic, p) == [3, 17, 999983]


# p = 2; p = 3 mod 4, where a square root is one power; p = 5 mod 8 and
# p = 1 mod 8, where the loop of _tonelli_shanks runs once and longer
@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 7, 11, 5, 13, 101, 17, 97, 257]),
       kind=st.sampled_from(["dense", "product", "vanishing-factor"]))
def test_gf_roots_match_brute_force(data, p, kind):
    residues = st.integers(-p, 2 * p)
    if kind == "dense":  # includes the zero polynomial and constants
        coeffs = data.draw(st.lists(residues, max_size=9))
    elif kind == "product":  # c * prod (x - a_j), repeated roots allowed
        coeffs = [data.draw(st.integers(1, p - 1))]
        for a in data.draw(st.lists(st.integers(0, p - 1), max_size=7)):
            coeffs = times(coeffs, [-a % p, 1], p)
    else:  # (x^p - x) * g: degree >= p
        factor = data.draw(st.lists(residues, min_size=1, max_size=4))
        coeffs = times([0, p - 1] + [0] * (p - 2) + [1], [c % p for c in factor], p)
    assert list(gf_roots(coeffs, p)) == brute_force_roots(coeffs, p)


# a non-square mod each prime: -1 for p = 3 mod 4, and 11 mod 1009, by
# reciprocity, since 1009 = 1 mod 4 and 1009 = 8 mod 11 is a non-square mod 11
NON_SQUARES = {1009: 11, 10007: -1, 1000003: -1}


def irreducible_quadric(b, k, p):
    """(x + b)^2 - n*k^2 for the non-square n, k != 0: its discriminant is 4*n*k^2."""
    return [(b * b - NON_SQUARES[p] * k * k) % p, 2 * b % p, 1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from(sorted(NON_SQUARES)))
def test_gf_roots_of_products_at_large_primes(data, p):
    # too many elements to brute-force: check against the roots the product
    # was built from, repeated ones included, times an optional root-free quadric
    roots = data.draw(st.lists(st.integers(0, p - 1), max_size=6))
    if roots:
        roots += data.draw(st.lists(st.sampled_from(roots), max_size=3))
    coeffs = [data.draw(st.integers(1, p - 1))]
    for a in roots:
        coeffs = times(coeffs, [-a % p, 1], p)
    if data.draw(st.booleans()):
        coeffs = times(coeffs, irreducible_quadric(
            data.draw(st.integers(0, p - 1)), data.draw(st.integers(1, p - 1)), p), p)
    assert gf_roots(coeffs, p) == sorted(set(roots))


@pytest.mark.parametrize("p", sorted(NON_SQUARES))
def test_gf_roots_of_quadrics_at_large_primes(p):
    rng = random.Random(p)
    for _ in range(50):
        a, b, c, k = (rng.randrange(p), rng.randrange(p), rng.randrange(1, p),
                      rng.randrange(1, p))
        assert gf_roots([-a * c % p, c], p) == [a]
        for quadric, roots in ((times([-a % p, 1], [-a % p, 1], p), [a]),  # zero
                               (times([-a % p, 1], [-b % p, 1], p), sorted({a, b})),
                               (irreducible_quadric(b, k, p), [])):  # a non-square
            assert gf_roots([c * x % p for x in quadric], p) == roots


def test_gf_divmod():
    p = 7
    assert gf_divmod(times([3, 1], [2, 5, 1], p), [2, 5, 1], p) == ([3, 1], [])
    # 5x^3 + 3x^2 + 2x + 1 = (5x^2 + 6x) (x + 5) + 1
    assert gf_divmod([1, 2, 3, 5], [5, 1], p) == ([0, 6, 5], [1])
    assert gf_divmod([1, 2], [0, 0, 3], p) == ([], [1, 2])
