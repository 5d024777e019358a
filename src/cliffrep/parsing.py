"""Text grammar for polynomials.

Terms joined by ``+``/``-``; a term is an optional coefficient followed by
``*``-joined variable powers, e.g. ``y0*y3 - y1*y2`` or ``3/2*y0^2*t1``.
The ``*`` after a leading coefficient may be omitted (``2y0``).  Over GF(p)
coefficients must be integer literals and are reduced mod p.

``str(poly)`` emits the canonical form of this grammar (descending graded-lex
term order, y-variables major), so parse/print round-trips are exact.
"""
from __future__ import annotations

import re

from .errors import (CoefficientNotInField, ExponentOverflow, ParseError,
                     UnknownVariable)
from .poly import EXP_CAP, Poly, PolyRing

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", col)
        if match.group(1) is not None:
            tokens.append(("int", match.group(1), match.start(1) + 1))
        elif match.group(2) is not None:
            tokens.append(("name", match.group(2), match.start(2) + 1))
        else:
            tokens.append(("op", match.group(3), match.start(3) + 1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens, ring: PolyRing, end: int):
        self.tokens = tokens
        self.end = end  # the column just past the last non-blank character
        self.i = 0
        self.ring = ring
        self.field = ring.field

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.end)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, message):
        _, _, col = self.peek()
        raise ParseError(message, col)

    def parse(self) -> Poly:
        if not self.tokens:
            raise ParseError("empty polynomial", 1)
        result = self.ring.zero()
        first = True
        while True:
            kind, val, col = self.peek()
            sign = 1
            if kind == "op" and val in "+-":
                self.next()
                sign = -1 if val == "-" else 1
            elif not first:
                if kind is None:
                    break
                self.fail(f"expected '+' or '-', got {val!r}")
            term = self.parse_term()
            result = result + term if sign > 0 else result - term
            first = False
            if self.peek()[0] is None:
                break
        return result

    def parse_number(self):
        kind, val, col = self.next()
        num = int(val)
        if self.peek()[:2] == ("op", "/"):
            slash_col = self.peek()[2]
            self.next()
            dkind, dval, dcol = self.peek()
            if dkind != "int":
                raise ParseError("expected integer denominator", dcol)
            self.next()
            den = int(dval)
            if den == 0:
                raise CoefficientNotInField("zero denominator", slash_col)
            if self.field.kind != "QQ":
                raise CoefficientNotInField(
                    f"coefficients over {self.field.name} must be integers",
                    slash_col)
            from fractions import Fraction
            return self.field.of(Fraction(num, den))
        return self.field.of(num)

    def parse_var_power(self, exps):
        kind, name, col = self.next()
        try:
            idx = self.ring.var_index(name)
        except UnknownVariable:
            raise UnknownVariable(
                f"unknown variable {name!r} at column {col} "
                f"(ring has {', '.join(self.ring.names)})") from None
        power = 1
        if self.peek()[:2] == ("op", "^"):
            self.next()
            pkind, pval, pcol = self.peek()
            if pkind != "int":
                raise ParseError("expected integer exponent after '^'", pcol)
            self.next()
            power = int(pval)
            if power >= EXP_CAP:
                raise ExponentOverflow(
                    f"exponent {power} exceeds the {EXP_CAP - 1} cap")
        exps[idx] += power
        if exps[idx] >= EXP_CAP:
            raise ExponentOverflow(f"accumulated exponent exceeds {EXP_CAP - 1}")

    def parse_term(self) -> Poly:
        coeff = self.field.one
        exps = [0] * self.ring.nvars
        kind, val, col = self.peek()
        if kind == "int":
            coeff = self.parse_number()
            kind, val, col = self.peek()
            if kind == "op" and val == "*":
                self.next()
                kind, val, col = self.peek()
                if kind not in ("name", "int"):
                    self.fail("expected a factor after '*'")
            elif kind != "name":
                # pure constant term
                return self.ring.monomial(exps, coeff)
        while True:
            kind, val, col = self.peek()
            if kind == "name":
                self.parse_var_power(exps)
            elif kind == "int":
                coeff = self.field.mul(coeff, self.parse_number())
            else:
                self.fail("expected a variable or coefficient")
            if self.peek()[:2] == ("op", "*"):
                self.next()
                continue
            break
        return self.ring.monomial(exps, coeff)


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse polynomial text into a canonical Poly of the given ring."""
    return _Parser(_tokenize(text), ring, len(text.rstrip()) + 1).parse()
