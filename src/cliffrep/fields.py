"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are plain Python values: ``fractions.Fraction`` over the rationals,
canonical residues ``0 <= x < p`` (ints) over GF(p).  Every operation is
exact; nothing in this package touches floating point.  Dense univariate
polynomials over GF(p) get division and root finding (``gf_roots``: the
quadratic formula for degree <= 2, Cantor-Zassenhaus above it).
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from .errors import CoefficientNotInField, FieldError

MAX_PRIME = 1 << 61
_QQ_ONE = Fraction(1)  # so that the inverse of an int over QQ is a Fraction


# Miller-Rabin with these bases is exact for every n < 3.18 * 10^23.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test over the prime bases up to 37.

    Exact far beyond MAX_PRIME = 2^61, the bound on the moduli of fields.
    """
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _WITNESSES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """An exact coefficient field, either QQ or GF(p).

    Instances are immutable and interned by ``rationals()`` / ``prime_field(p)``.
    Scalar values are Fractions (QQ) or ints in [0, p) (GF(p)).
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "QQ":
            self.kind = "QQ"
            self.p = None
        elif kind == "GF":
            if p is None or p >= MAX_PRIME or not is_prime(p):
                raise FieldError(f"modulus must be a prime < 2^61, got {p!r}")
            self.kind = "GF"
            self.p = p
        else:
            raise FieldError(f"unknown field kind {kind!r}")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field)
                and self.kind == other.kind and self.p == other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return self.name

    @property
    def name(self) -> str:
        return "QQ" if self.kind == "QQ" else f"GF({self.p})"

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "QQ" else self.p

    # -- scalar construction ------------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.kind == "QQ" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "QQ" else 1

    def of(self, value):
        """Coerce an int, Fraction or numeric string into this field."""
        if self.kind == "QQ":
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            if isinstance(value, str):
                try:
                    return Fraction(value)
                except (ValueError, ZeroDivisionError) as exc:
                    raise CoefficientNotInField(f"bad rational literal {value!r}") from exc
            raise CoefficientNotInField(f"cannot coerce {value!r} into QQ")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise CoefficientNotInField(
                    f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * self.inv_int(value.denominator) % self.p
        if isinstance(value, str):
            try:
                return int(value) % self.p
            except ValueError as exc:
                raise CoefficientNotInField(
                    f"coefficients over {self.name} must be integers, got {value!r}") from exc
        raise CoefficientNotInField(f"cannot coerce {value!r} into {self.name}")

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return a + b if self.kind == "QQ" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "QQ" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "QQ" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "QQ" else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _QQ_ONE / a if self.kind == "QQ" else self.inv_int(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a^e for an exponent e >= 0."""
        return a ** e if self.kind == "QQ" else pow(a, e, self.p)

    def inv_int(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)

    def is_square(self, a) -> bool:
        """Whether a is a square in the field (exact; QQ checks num and den)."""
        if self.kind == "QQ":
            return a >= 0 and _is_square_int(a.numerator) and _is_square_int(a.denominator)
        a %= self.p
        if a == 0 or self.p == 2:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a):
        """A square root of a; raises if none exists."""
        if self.kind == "QQ":
            if not self.is_square(a):
                raise FieldError(f"{a} is not a square in QQ")
            return Fraction(isqrt(a.numerator), isqrt(a.denominator))
        a %= self.p
        if a == 0:
            return 0
        if not self.is_square(a):
            raise FieldError(f"{a} is not a square mod {self.p}")
        return _tonelli_shanks(a, self.p)


def _is_square_int(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def _tonelli_shanks(a: int, p: int) -> int:
    """Square root mod an odd prime p for a quadratic residue a."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # find a quadratic non-residue z
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# -- univariate polynomials over GF(p) -----------------------------------------
#
# Dense lists of residues, lowest degree first, with no trailing zeros: [] is
# the zero polynomial.


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def gf_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b in GF(p)[x]."""
    rem, top = a[:], len(b) - 1
    inv = pow(b[-1], -1, p)
    quo = [0] * max(len(a) - top, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = rem[i + top] * inv % p
        if c:
            for j, x in enumerate(b):
                rem[i + j] = (rem[i + j] - c * x) % p
    return _trim(quo), _trim(rem[:top])


def _mulmod(a: list, b: list, g: list, p: int) -> list:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return gf_divmod([c % p for c in prod], g, p)[1]


def _powmod(a: list, e: int, g: list, p: int) -> list:
    """a^e mod g by square-and-multiply, for g of degree >= 1."""
    out, a = [1], gf_divmod(a, g, p)[1]
    while e:
        if e & 1:
            out = _mulmod(out, a, g, p)
        e >>= 1
        if e:
            a = _mulmod(a, a, g, p)
    return out


def _minus_monomial(a: list, k: int, p: int) -> list:
    """a - x^k."""
    out = a + [0] * (k + 1 - len(a))
    out[k] = (out[k] - 1) % p
    return _trim(out)


def _monic_gcd(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, gf_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _small_roots(h: list, p: int) -> list[int]:
    """The distinct roots of a trimmed h of degree <= 2 over GF(p), p odd.

    -h0/h1 for a line; for a quadric the quadratic formula, with Euler's
    criterion on the discriminant and ``_tonelli_shanks`` for its root.
    """
    if len(h) < 3:
        return [-h[0] * pow(h[1], -1, p) % p] if len(h) == 2 else []
    c, b, a = h
    disc = (b * b - 4 * a * c) % p
    if disc and pow(disc, (p - 1) // 2, p) != 1:
        return []
    root = _tonelli_shanks(disc, p) if disc else 0
    inv = pow(2 * a, -1, p)
    return sorted({(root - b) * inv % p, (-root - b) * inv % p})


def gf_roots(coeffs: list, p: int) -> list[int] | range:
    """The distinct roots in GF(p) of sum_i coeffs[i] x^i, ascending.

    The zero polynomial vanishes everywhere: it gets range(p), not a list
    of p elements.  For odd p a polynomial of degree <= 2 is solved by
    formula.  Otherwise gcd(g, x^p - x) is the product of x - c over the
    roots c, and Cantor-Zassenhaus splits it: for a random a,
    gcd(h, (x + a)^((p-1)/2) - 1) keeps the roots with c + a a nonzero
    square, about half of them.  Pieces of degree <= 2 are again solved by
    formula, so only a piece of degree >= 3 draws an a.  The cost grows
    with log p, not with p.  The draws of a come from a private generator
    and the result is sorted, so it shows no trace of them.
    """
    g = _trim([c % p for c in coeffs])
    if not g:
        return range(p)
    if p == 2:  # (p - 1)/2 = 0 would split nothing
        return [x for x, value in ((0, g[0]), (1, sum(g) % 2)) if not value]
    if len(g) <= 3:
        return _small_roots(g, p)
    pending = [_monic_gcd(g, _minus_monomial(_powmod([0, 1], p, g, p), 1, p), p)]
    rng = None
    roots = []
    while pending:
        h = pending.pop()
        if len(h) <= 3:
            roots += _small_roots(h, p)
            continue
        if rng is None:
            rng = random.Random(p)
        while True:
            a = rng.randrange(p)
            d = _monic_gcd(h, _minus_monomial(
                _powmod([a, 1], (p - 1) // 2, h, p), 0, p), p)
            if 1 < len(d) < len(h):
                break
        pending += [d, gf_divmod(h, d, p)[0]]
    return sorted(roots)


_QQ = Field("QQ")
_GF_CACHE: dict[int, Field] = {}


def rationals() -> Field:
    return _QQ


def prime_field(p: int) -> Field:
    field = _GF_CACHE.get(p)
    if field is None:
        field = _GF_CACHE[p] = Field("GF", p)
    return field


def parse_field(text: str) -> Field:
    """Parse a field spec string: ``QQ`` or ``GF(p)``."""
    text = text.strip()
    if text == "QQ":
        return rationals()
    if text.startswith("GF(") and text.endswith(")"):
        body = text[3:-1]
        try:
            p = int(body)
        except ValueError as exc:
            raise FieldError(f"bad prime in field spec {text!r}") from exc
        return prime_field(p)
    raise FieldError(f"unknown field spec {text!r} (expected QQ or GF(p))")
