from fractions import Fraction

import pytest

from cliffrep.errors import CoefficientNotInField, FieldError
from cliffrep.fields import (MAX_PRIME, is_prime, parse_field, prime_field,
                             rationals)


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
