"""Sparse multivariate polynomials over an exact field.

A ring has two blocks of variables: fiber variables ``y0..yn`` (always at
least one) and base variables ``t1..tm`` (possibly none).  Exponent vectors
are tuples with the fiber block first, so the graded-lexicographic order with
y-variables before t-variables is plain tuple comparison after total degree.

Polynomials are immutable; all arithmetic returns fresh values.
"""
from __future__ import annotations

import itertools

from .errors import (ExponentOverflow, InputError, NotHomogeneous, RingMismatch,
                     UnknownVariable)
from .fields import Field

EXP_CAP = 1 << 16


class PolyRing:
    """Polynomial ring k[y0..yn, t1..tm] with a graded-lex term order."""

    __slots__ = ("field", "base_count", "fiber_count", "_names", "_index")

    def __init__(self, field: Field, base_count: int, fiber_count: int):
        if fiber_count < 1:
            raise InputError("need at least one fiber variable")
        if base_count < 0:
            raise InputError("base variable count must be >= 0")
        self.field = field
        self.base_count = base_count
        self.fiber_count = fiber_count
        self._names = tuple(f"y{i}" for i in range(fiber_count)) + \
            tuple(f"t{i}" for i in range(1, base_count + 1))
        self._index = {name: i for i, name in enumerate(self._names)}

    @property
    def nvars(self) -> int:
        return self.fiber_count + self.base_count

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"variable {name!r} not in ring {self!r}") from None

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.base_count == other.base_count
                and self.fiber_count == other.fiber_count)

    def __hash__(self):
        return hash((self.field, self.base_count, self.fiber_count))

    def __repr__(self):
        return f"{self.field.name}[{', '.join(self._names)}]"

    # -- element constructors ------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(self.field.one)

    def const(self, value) -> "Poly":
        c = self.field.of(value)
        if not c:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Poly":
        i = self.var_index(name)
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, {tuple(exp): self.field.one})

    def monomial(self, exponents, coeff=1) -> "Poly":
        exp = tuple(exponents)
        if len(exp) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exp)}")
        c = self.field.of(coeff)
        if not c:
            return Poly(self, {})
        return Poly(self, {exp: c})

    def without_base(self) -> "PolyRing":
        """The ring with the base variables dropped (m = 0)."""
        return PolyRing(self.field, 0, self.fiber_count)


def monomials(nvars: int, degree: int) -> list[tuple]:
    """Exponent tuples of the given total degree in nvars variables.

    The order is that of ``itertools.combinations_with_replacement``; callers
    index unknowns and matrix rows by it, so it must not change.
    """
    if degree < 0:
        return []
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return out


def _order_key(exp: tuple):
    # graded-lex: total degree first, then the exponent tuple (y-major)
    return (sum(exp), exp)


class Poly:
    """A sparse polynomial: map from exponent tuples to nonzero scalars."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant(self):
        """The constant value of a degree-0 polynomial."""
        if self.is_zero():
            return self.ring.field.zero
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def y_degree(self) -> int:
        """Maximal total degree in the fiber variables."""
        nf = self.ring.fiber_count
        return max((sum(e[:nf]) for e in self.terms), default=0)

    def is_y_homogeneous(self, degree: int | None = None) -> bool:
        """Every term has the same fiber degree (== degree when given)."""
        nf = self.ring.fiber_count
        degs = {sum(e[:nf]) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def require_y_homogeneous(self, degree: int, what: str = "form"):
        if self.is_zero() or not self.is_y_homogeneous(degree):
            raise NotHomogeneous(
                f"{what} must be nonzero and homogeneous of degree {degree} "
                f"in the fiber variables: {self}")

    def has_base_vars(self) -> bool:
        nf = self.ring.fiber_count
        return any(any(e[nf:]) for e in self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        field = self.ring.field
        out = dict(self.terms)
        for exp, c in other.terms.items():
            acc = field.add(out.get(exp, field.zero), c)
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return Poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        field = self.ring.field
        return Poly(self.ring, {e: field.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        field = self.ring.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = field.mul(c1, c2)
                if not c:
                    continue
                acc = field.add(out.get(exp, field.zero), c)
                if acc:
                    out[exp] = acc
                else:
                    out.pop(exp, None)
        for exp in out:
            if any(x >= EXP_CAP for x in exp):
                raise ExponentOverflow(f"exponent exceeds {EXP_CAP - 1} in product")
        return Poly(self.ring, out)

    def scale(self, value) -> "Poly":
        field = self.ring.field
        c0 = field.of(value)
        if not c0:
            return self.ring.zero()
        out = {}
        for e, c in self.terms.items():
            prod = field.mul(c, c0)
            if prod:
                out[e] = prod
        return Poly(self.ring, out)

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus / evaluation ------------------------------------------------

    def evaluate(self, assignment: dict) -> "Poly":
        """Substitute scalars for a subset of variables.

        The result lives in the same ring; a full assignment gives a constant.
        """
        ring = self.ring
        field = ring.field
        values = {ring.var_index(name): field.of(v)
                  for name, v in assignment.items()}
        out: dict = {}
        for exp, c in self.terms.items():
            factor = c
            rest = list(exp)
            for i, v in values.items():
                e = exp[i]
                if e:
                    factor = field.mul(factor, v ** e if field.kind == "QQ"
                                       else pow(v, e, field.p))
                rest[i] = 0
            if not factor:
                continue
            key = tuple(rest)
            acc = field.add(out.get(key, field.zero), factor)
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return Poly(ring, out)

    def derivative(self, name: str) -> "Poly":
        ring = self.ring
        field = ring.field
        i = ring.var_index(name)
        out = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if not e:
                continue
            coeff = field.mul(c, field.of(e))
            if not coeff:
                continue
            new = list(exp)
            new[i] = e - 1
            out[tuple(new)] = coeff
        return Poly(ring, out)

    # -- division / ordering ---------------------------------------------------

    def leading_term(self) -> tuple:
        """(exponent, coeff) of the graded-lex leading term."""
        exp = max(self.terms, key=_order_key)
        return exp, self.terms[exp]

    def exact_div(self, divisor: "Poly") -> "Poly | None":
        """Quotient self/divisor when the division is exact, else None.

        Term-by-term reduction against the divisor's leading term; since the
        leading monomial of a product is the product of leading monomials,
        an exact quotient is always found when one exists.
        """
        self._check_ring(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        field = self.ring.field
        lexp, lc = divisor.leading_term()
        rem = self
        quotient = self.ring.zero()
        while not rem.is_zero():
            rexp, rc = rem.leading_term()
            diff = tuple(a - b for a, b in zip(rexp, lexp))
            if any(d < 0 for d in diff):
                return None
            c = field.div(rc, lc)
            term = Poly(self.ring, {diff: c})
            quotient = quotient + term
            rem = rem - term * divisor
        return quotient

    # -- conversion ---------------------------------------------------------

    def map_to(self, ring: PolyRing) -> "Poly":
        """Reinterpret in another ring over the same field, by variable name."""
        if ring.field != self.ring.field:
            raise RingMismatch("target ring has a different field")
        out = {}
        src = self.ring.names
        for exp, c in self.terms.items():
            new = [0] * ring.nvars
            for i, e in enumerate(exp):
                if not e:
                    continue
                new[ring.var_index(src[i])] = e
            out[tuple(new)] = c
        return Poly(ring, out)

    # -- rendering --------------------------------------------------------------

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order (canonical)."""
        return sorted(self.terms.items(), key=lambda kv: _order_key(kv[0]),
                      reverse=True)

    def __str__(self):
        if self.is_zero():
            return "0"
        field = self.ring.field
        names = self.ring.names
        pieces = []
        for exp, coeff in self.sorted_terms():
            vars_part = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(exp) if e)
            neg = field.kind == "QQ" and coeff < 0
            mag = -coeff if neg else coeff
            if vars_part and mag == field.one:
                body = vars_part
            elif vars_part:
                body = f"{mag}*{vars_part}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({self})"
