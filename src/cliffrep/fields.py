"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are plain Python values: ``fractions.Fraction`` over the rationals,
canonical residues ``0 <= x < p`` (ints) over GF(p).  Every operation is
exact; nothing in this package touches floating point.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import CoefficientNotInField, FieldError

MAX_PRIME = 1 << 61


def is_prime(n: int) -> bool:
    """Trial-division primality test (moduli are < 2^61 by contract)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
        return 1 / a if self.kind == "QQ" else self.inv_int(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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
            return Fraction(_isqrt(a.numerator), _isqrt(a.denominator))
        a %= self.p
        if a == 0:
            return 0
        if not self.is_square(a):
            raise FieldError(f"{a} is not a square mod {self.p}")
        return _tonelli_shanks(a, self.p)


def _isqrt(n: int) -> int:
    import math
    return math.isqrt(n)


def _is_square_int(n: int) -> bool:
    if n < 0:
        return False
    r = _isqrt(n)
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
