"""Linear pencils: matrices of fiber-linear forms M(y) = sum_i y_i * A_i.

A pencil is stored as its coefficient matrices: M(y) is
sum_alpha y^alpha * C_alpha with one t x t matrix of field scalars per
monomial y_i * t^nu that occurs (the A_i over the base subring, taken apart
by base monomial).  They are built once where Poly input arrives, in
``LinearPencil(ring, matrices)`` and ``extract``; every kernel and
constructor works on them, and products of pencils are products of
coefficient matrices with exponents added.

Poly matrices are built on demand, only for output and symbolic work:
``.matrices`` (the A_i), ``assemble`` (M itself), ``pencil_power`` and the
matrix-factorization check.  ``assemble`` and ``extract`` are exact mutual
inverses.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add

from . import linalg
from .errors import (ExponentOverflow, InputError, MatrixFactorizationError,
                     NonLinearEntry, ShapeMismatch)
from .poly import EXP_CAP, Poly, PolyRing
from .polymat import PolyMatrix, mat_mul, mat_shape


def _frozen(coefficients: dict) -> dict:
    """Immutable coefficient matrices, zero ones dropped, so that equal
    pencils have equal coefficient dicts."""
    return {alpha: tuple(map(tuple, c)) for alpha, c in coefficients.items()
            if any(map(any, c))}


class LinearPencil:
    """The tuple (A_0, ..., A_n) of t x t matrices over the base subring.

    ``coefficients`` is {alpha: C_alpha}, M(y) = sum_alpha y^alpha * C_alpha:
    alpha is an exponent tuple of the ring (y_i times a base monomial) and
    C_alpha a nonzero t x t tuple of tuples of field scalars.  It is shared,
    never mutated.
    """

    __slots__ = ("ring", "size", "coefficients")

    def __init__(self, ring: PolyRing, matrices: list[PolyMatrix]):
        if len(matrices) != ring.fiber_count:
            raise InputError(
                f"expected {ring.fiber_count} coefficient matrices, got {len(matrices)}")
        size = len(matrices[0])
        zero = ring.field.zero
        coefficients: dict = {}
        for k, m in enumerate(matrices):
            if len(m) != size or any(len(row) != size for row in m):
                raise ShapeMismatch(f"matrix {k} is not {size}x{size}")
            for i, row in enumerate(m):
                for j, entry in enumerate(row):
                    if entry.ring != ring:
                        raise InputError(f"entry ({i},{j}) of matrix {k} has a foreign ring")
                    if entry.y_degree() > 0:
                        raise InputError(
                            f"entry ({i},{j}) of matrix {k} involves fiber variables")
                    for exp, c in entry.terms.items():
                        key = exp[:k] + (1,) + exp[k + 1:]
                        if key not in coefficients:
                            coefficients[key] = [[zero] * size for _ in range(size)]
                        coefficients[key][i][j] = c
        if size < 1:
            raise InputError("pencil size must be >= 1")
        self.ring, self.size, self.coefficients = ring, size, _frozen(coefficients)

    @classmethod
    def from_coefficients(cls, ring: PolyRing, size: int,
                          coefficients: dict) -> "LinearPencil":
        """The pencil sum_alpha y^alpha * C_alpha; every alpha must be y_i
        times a base monomial of the ring and every C_alpha size x size."""
        pencil = cls.__new__(cls)
        pencil.ring, pencil.size, pencil.coefficients = ring, size, _frozen(coefficients)
        return pencil

    @property
    def matrices(self) -> tuple:
        """The A_i as t x t tuples of Poly entries, built on each access."""
        parts: list[dict] = [{} for _ in range(self.ring.fiber_count)]
        for alpha, c in self.coefficients.items():
            k = alpha.index(1)  # the one fiber variable of the monomial
            parts[k][alpha[:k] + (0,) + alpha[k + 1:]] = c
        return tuple(tuple(map(tuple, _poly_matrix(self.ring, self.size, part)))
                     for part in parts)

    def __eq__(self, other):
        return (isinstance(other, LinearPencil) and self.ring == other.ring
                and self.size == other.size
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash((self.ring, self.size, frozenset(self.coefficients.items())))

    def __repr__(self):
        return f"LinearPencil(size={self.size}, over {self.ring!r})"


def fiber_keys(ring: PolyRing) -> list[tuple]:
    """The exponent tuples of y_0, ..., y_n: the keys of the A_i of a
    base-free pencil."""
    return [tuple(int(k == i) for k in range(ring.nvars))
            for i in range(ring.fiber_count)]


def assemble(pencil: LinearPencil) -> PolyMatrix:
    """M(y) = sum_i y_i * A_i; every entry fiber-linear (or zero)."""
    return _poly_matrix(pencil.ring, pencil.size, pencil.coefficients)


def extract(matrix: PolyMatrix) -> LinearPencil:
    """Recover the unique coefficient pencil of a fiber-linear matrix.

    Raises NonLinearEntry (with the position) if any nonzero entry has a
    term whose fiber degree differs from 1.
    """
    rows, cols = mat_shape(matrix)
    if rows != cols:
        raise ShapeMismatch(f"pencil matrix must be square, got {rows}x{cols}")
    ring = matrix[0][0].ring
    zero = ring.field.zero
    coefficients: dict = {}
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if not entry.is_y_homogeneous(1):
                raise NonLinearEntry(i, j)
            for exp, c in entry.terms.items():
                if exp not in coefficients:
                    coefficients[exp] = [[zero] * cols for _ in range(rows)]
                coefficients[exp][i][j] = c
    return LinearPencil.from_coefficients(ring, rows, coefficients)


def _evaluate(pencil: LinearPencil, point: dict, start: int) -> dict:
    """Substitute the point for the variables from index ``start`` on:
    sum_alpha q^alpha[start:] * C_alpha, grouped by alpha[:start]."""
    ring = pencil.ring
    field, t = ring.field, pencil.size
    values = [field.of(point[name]) for name in ring.names[start:]]
    out: dict = {}
    for alpha, c in pencil.coefficients.items():
        weight = field.one
        for v, e in zip(values, alpha[start:]):
            if e:
                weight = field.mul(weight, field.pow(v, e))
        if weight:
            acc = out.setdefault(alpha[:start], [[field.zero] * t for _ in range(t)])
            for row, line in zip(acc, c):
                for j, x in enumerate(line):
                    if x:
                        row[j] = field.add(row[j], field.mul(weight, x))
    return out


def pencil_at(pencil: LinearPencil, point: dict) -> list:
    """M(q) as a t x t matrix of field scalars; q assigns every variable."""
    t = pencil.size
    return _evaluate(pencil, point, 0).get((), [[pencil.ring.field.zero] * t
                                                for _ in range(t)])


def power_coefficients(pencil: LinearPencil, d: int) -> dict[tuple, list]:
    """The coefficients of M(y)^d, multiplied left to right; zero ones dropped.

    Each step keeps one accumulator per monomial of the product, adds every
    product of two coefficient matrices with that monomial into it through
    ``linalg.add_product`` (products of nonzero entries only) and reduces it
    once.  For d = 1 these are the pencil's own (shared) coefficient
    matrices.  Raises ExponentOverflow when a product reaches an exponent of
    EXP_CAP.
    """
    if d < 1:
        raise InputError("power must be >= 1")
    field, t = pencil.ring.field, pencil.size
    base = [(beta, linalg.nonzero_rows(y)) for beta, y in pencil.coefficients.items()]
    power = pencil.coefficients
    for _ in range(d - 1):
        out: dict = {}
        for alpha, x in power.items():
            x_rows = linalg.nonzero_rows(x)
            for beta, y_rows in base:
                key = tuple(map(add, alpha, beta))
                if max(key) >= EXP_CAP:
                    raise ExponentOverflow(f"exponent exceeds {EXP_CAP - 1} in product")
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = [[field.zero] * t for _ in range(t)]
                linalg.add_product(acc, x_rows, y_rows)
        power = {}
        for key, acc in out.items():
            m = linalg.reduced(field, acc)
            if any(map(any, m)):
                power[key] = m
    return power


def pencil_power(pencil: LinearPencil, d: int) -> PolyMatrix:
    """The exact symbolic power M(y)^d (left-to-right multiplication)."""
    return _poly_matrix(pencil.ring, pencil.size, power_coefficients(pencil, d))


def _poly_matrix(ring: PolyRing, size: int, coefficients: dict) -> PolyMatrix:
    """The Poly matrix sum_alpha y^alpha * C_alpha over the ring."""
    terms = [[{} for _ in range(size)] for _ in range(size)]
    for alpha, c in coefficients.items():
        for i, row in enumerate(c):
            for j, x in enumerate(row):
                if x:
                    terms[i][j][alpha] = x
    return [[Poly(ring, entry) for entry in row] for row in terms]


def specialize(pencil: LinearPencil, point: dict) -> LinearPencil:
    """Evaluate the base variables at scalars, landing in the m = 0 ring."""
    ring = pencil.ring
    if ring.base_count == 0:
        raise InputError("pencil has no base variables to specialize")
    base_names = set(ring.names[ring.fiber_count:])
    given = set(point)
    if given != base_names:
        missing = sorted(base_names - given)
        extra = sorted(given - base_names)
        detail = []
        if missing:
            detail.append(f"missing {', '.join(missing)}")
        if extra:
            detail.append(f"unknown {', '.join(extra)}")
        raise InputError(f"specialization must assign every base variable: {'; '.join(detail)}")
    return LinearPencil.from_coefficients(
        ring.without_base(), pencil.size, _evaluate(pencil, point, ring.fiber_count))


# -- matrix factorizations ---------------------------------------------------


@dataclass(frozen=True)
class MFReport:
    """Outcome of a matrix-factorization check."""
    passed: bool
    witness: tuple | None = None  # (product name, (i, j), difference Poly)

    def describe(self) -> str:
        if self.passed:
            return "phi*psi = psi*phi = f*I"
        name, pos, diff = self.witness
        return f"{name} differs from f*I at entry {pos}: off by {diff}"


def mf_verify(phi: PolyMatrix, psi: PolyMatrix, f: Poly) -> MFReport:
    """Check phi*psi = psi*phi = f*I symbolically; report the first failure."""
    if mat_shape(phi) != mat_shape(psi):
        raise ShapeMismatch(f"{mat_shape(phi)} vs {mat_shape(psi)}")
    rows, cols = mat_shape(phi)
    if rows != cols:
        raise ShapeMismatch("factorization matrices must be square")
    for name, product in (("phi*psi", mat_mul(phi, psi)),
                          ("psi*phi", mat_mul(psi, phi))):
        for i in range(rows):
            for j in range(cols):
                diff = product[i][j] - f if i == j else product[i][j]
                if not diff.is_zero():
                    return MFReport(False, (name, (i, j), diff))
    return MFReport(True)


@dataclass(frozen=True)
class MFPair:
    """A linear matrix factorization phi*psi = psi*phi = f*I of a quadric f.

    The identity is checked at construction; use ``mf_verify`` directly to
    interrogate candidate matrices without raising.
    """
    phi: PolyMatrix
    psi: PolyMatrix
    f: Poly

    def __post_init__(self):
        self.f.require_y_homogeneous(2, "matrix factorization form f")
        report = mf_verify(self.phi, self.psi, self.f)
        if not report.passed:
            raise MatrixFactorizationError(report.describe())

    @property
    def size(self) -> int:
        return len(self.phi)
