"""Linear pencils: matrices of fiber-linear forms M(y) = sum_i y_i * A_i.

The coefficient matrices A_i live over the base subring (polynomials in the
t-variables only; constants when there is no base).  A pencil and its
assembled matrix are interchangeable through ``assemble`` / ``extract``,
which are exact mutual inverses.

The kernels read a pencil through one scalar view, ``coefficients``: M(y) is
sum_alpha y^alpha * C_alpha with one t x t matrix of field scalars per
monomial y_i * t^nu that occurs.  Products of pencils are then products of
coefficient matrices with exponents added, and no Poly arithmetic is done
on the entries.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import (ExponentOverflow, InputError, MatrixFactorizationError,
                     NonLinearEntry, ShapeMismatch)
from .poly import EXP_CAP, Poly, PolyRing
from .polymat import PolyMatrix, mat_mul, mat_shape, mat_sub, scalar_matrix


class LinearPencil:
    """The tuple (A_0, ..., A_n) of t x t matrices over the base subring."""

    __slots__ = ("ring", "size", "matrices")

    def __init__(self, ring: PolyRing, matrices: list[PolyMatrix]):
        if len(matrices) != ring.fiber_count:
            raise InputError(
                f"expected {ring.fiber_count} coefficient matrices, got {len(matrices)}")
        size = len(matrices[0])
        for k, m in enumerate(matrices):
            rows, cols = mat_shape(m)
            if rows != size or cols != size:
                raise ShapeMismatch(f"matrix {k} is {rows}x{cols}, expected {size}x{size}")
            for i, row in enumerate(m):
                for j, entry in enumerate(row):
                    if entry.ring != ring:
                        raise InputError(f"entry ({i},{j}) of matrix {k} has a foreign ring")
                    if entry.y_degree() > 0:
                        raise InputError(
                            f"entry ({i},{j}) of matrix {k} involves fiber variables")
        if size < 1:
            raise InputError("pencil size must be >= 1")
        self.ring = ring
        self.size = size
        self.matrices = tuple(tuple(tuple(row) for row in m) for m in matrices)

    def __eq__(self, other):
        return (isinstance(other, LinearPencil) and self.ring == other.ring
                and self.size == other.size and self.matrices == other.matrices)

    def __hash__(self):
        return hash((self.ring, self.size, self.matrices))

    def __repr__(self):
        return f"LinearPencil(size={self.size}, over {self.ring!r})"


def assemble(pencil: LinearPencil) -> PolyMatrix:
    """M(y) = sum_i y_i * A_i; every entry fiber-linear (or zero)."""
    return from_coefficients(pencil, coefficients(pencil))


def extract(matrix: PolyMatrix) -> LinearPencil:
    """Recover the unique coefficient pencil of a fiber-linear matrix.

    Raises NonLinearEntry (with the position) if any nonzero entry has a
    term whose fiber degree differs from 1.
    """
    rows, cols = mat_shape(matrix)
    if rows != cols:
        raise ShapeMismatch(f"pencil matrix must be square, got {rows}x{cols}")
    ring = matrix[0][0].ring
    terms = [[[{} for _ in range(cols)] for _ in range(rows)]
             for _ in range(ring.fiber_count)]
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if not entry.is_y_homogeneous(1):
                raise NonLinearEntry(i, j)
            for exp, c in entry.terms.items():
                k = exp.index(1)  # the one fiber variable of the term
                terms[k][i][j][exp[:k] + (0,) + exp[k + 1:]] = c
    return LinearPencil(ring, [[[Poly(ring, e) for e in row] for row in m]
                               for m in terms])


def coefficients(pencil: LinearPencil) -> dict[tuple, list]:
    """M(y) as {alpha: C_alpha}, M(y) = sum_alpha y^alpha * C_alpha.

    alpha is an exponent tuple of the ring (y_i times a base monomial) that
    occurs in M; C_alpha is a t x t matrix of field scalars.
    """
    zero = pencil.ring.field.zero
    t = pencil.size
    out: dict = {}
    for i, mat in enumerate(pencil.matrices):
        for a, row in enumerate(mat):
            for b, entry in enumerate(row):
                for exp, c in entry.terms.items():
                    # entries carry no fiber variable, so exp[i] == 0
                    key = exp[:i] + (1,) + exp[i + 1:]
                    if key not in out:
                        out[key] = [[zero] * t for _ in range(t)]
                    out[key][a][b] = c
    return out


def pencil_at(pencil: LinearPencil, point: dict) -> list:
    """M(q) as a t x t matrix of field scalars; q assigns every variable."""
    field = pencil.ring.field
    values = [field.of(point[name]) for name in pencil.ring.names]
    t = pencil.size
    out = [[field.zero] * t for _ in range(t)]
    for alpha, c in coefficients(pencil).items():
        weight = field.one
        for v, e in zip(values, alpha):
            weight = field.mul(weight, field.pow(v, e))
        if weight:
            for row, line in zip(out, c):
                for j, x in enumerate(line):
                    if x:
                        row[j] = field.add(row[j], field.mul(weight, x))
    return out


def power_coefficients(pencil: LinearPencil, d: int) -> dict[tuple, list]:
    """The coefficients of M(y)^d, multiplied left to right; zero ones dropped.

    Raises ExponentOverflow when a product reaches an exponent of EXP_CAP.
    """
    if d < 1:
        raise InputError("power must be >= 1")
    field = pencil.ring.field
    base = coefficients(pencil)
    power = base
    for _ in range(d - 1):
        out: dict = {}
        for alpha, x in power.items():
            for beta, y in base.items():
                key = tuple(a + b for a, b in zip(alpha, beta))
                if any(e >= EXP_CAP for e in key):
                    raise ExponentOverflow(f"exponent exceeds {EXP_CAP - 1} in product")
                prod = linalg.mat_mul(field, x, y)
                acc = out.get(key)
                out[key] = prod if acc is None else [
                    [field.add(u, v) for u, v in zip(r, s)] for r, s in zip(acc, prod)]
        power = {k: m for k, m in out.items() if any(any(row) for row in m)}
    return power


def pencil_power(pencil: LinearPencil, d: int) -> PolyMatrix:
    """The exact symbolic power M(y)^d (left-to-right multiplication)."""
    return from_coefficients(pencil, power_coefficients(pencil, d))


def from_coefficients(pencil: LinearPencil, coeffs: dict) -> PolyMatrix:
    """The Poly matrix sum_alpha y^alpha * C_alpha over the pencil's ring."""
    t = pencil.size
    terms = [[{} for _ in range(t)] for _ in range(t)]
    for alpha, c in coeffs.items():
        for i, row in enumerate(c):
            for j, x in enumerate(row):
                if x:
                    terms[i][j][alpha] = x
    return [[Poly(pencil.ring, entry) for entry in row] for row in terms]


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
    target = ring.without_base()
    mats = []
    for m in pencil.matrices:
        mats.append([[entry.evaluate(point).map_to(target) for entry in row]
                     for row in m])
    return LinearPencil(target, mats)


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
    target = scalar_matrix(f, rows)
    for name, product in (("phi*psi", mat_mul(phi, psi)),
                          ("psi*phi", mat_mul(psi, phi))):
        diff = mat_sub(product, target)
        for i in range(rows):
            for j in range(cols):
                if not diff[i][j].is_zero():
                    return MFReport(False, (name, (i, j), diff[i][j]))
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
