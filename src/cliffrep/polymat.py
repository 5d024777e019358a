"""Dense matrices with polynomial entries.

Matrices are plain lists of row lists of Poly.  Everything here is exact;
the one symbolic determinant is fraction-free Bareiss elimination (exact
division in the polynomial ring).  Matrices of plain field scalars belong to
``linalg``.
"""
from __future__ import annotations

from .errors import InternalInconsistency, ShapeMismatch
from .poly import Poly, PolyRing

PolyMatrix = list


def mat_shape(m: PolyMatrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def zero_matrix(ring: PolyRing, rows: int, cols: int | None = None) -> PolyMatrix:
    cols = rows if cols is None else cols
    return [[ring.zero() for _ in range(cols)] for _ in range(rows)]


def identity_matrix(ring: PolyRing, size: int) -> PolyMatrix:
    return scalar_matrix(ring.one(), size)


def scalar_matrix(f: Poly, size: int) -> PolyMatrix:
    out = zero_matrix(f.ring, size)
    for i in range(size):
        out[i][i] = f
    return out


def mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise ShapeMismatch(f"cannot multiply {n}x{k} by {k2}x{m}")
    bt = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = row[0] * col[0]
            for x, y in zip(row[1:], col[1:]):
                acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_eq(a: PolyMatrix, b: PolyMatrix) -> bool:
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# -- determinants ---------------------------------------------------------------


def poly_matrix_det(m: PolyMatrix) -> Poly:
    """Fraction-free Bareiss determinant; divisions are exact by construction."""
    n, c = mat_shape(m)
    if n != c:
        raise ShapeMismatch("determinant needs a square matrix")
    if n == 0:
        raise ShapeMismatch("empty matrix has no determinant here")
    ring = m[0][0].ring
    a = [row[:] for row in m]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return ring.zero()
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * a[i][j] - a[i][k] * a[k][j]
                quo = num.exact_div(prev)
                if quo is None:
                    raise InternalInconsistency("Bareiss division must be exact")
                a[i][j] = quo
            a[i][k] = ring.zero()
        prev = pivot
    det = a[n - 1][n - 1]
    return det if sign > 0 else -det


def adjugate(m: PolyMatrix) -> PolyMatrix:
    """Adjugate matrix: adj(m) * m = det(m) * I."""
    n, c = mat_shape(m)
    if n != c:
        raise ShapeMismatch("adjugate needs a square matrix")
    if n == 1:
        return [[m[0][0].ring.one()]]
    out = zero_matrix(m[0][0].ring, n)
    for i in range(n):
        for j in range(n):
            minor = [[m[r][col] for col in range(n) if col != j]
                     for r in range(n) if r != i]
            cof = poly_matrix_det(minor)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out
